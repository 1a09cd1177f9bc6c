"""Order-of-magnitude calculus on positive sequences and the branch classifier.

``compare`` is the batched calculus: from a finite window over the parameters
alpha_n it decides, row by row, whether xi grows strictly faster than eta
(succ), slower (prec), proportionally (sim, with the limit ratio), or cannot be
decided. ``build_S`` compares every pair of the coefficient sequences (alpha),
(1), (Gamma_k), (alpha Gamma_k), (alpha Gamma_j Gamma_k) in one such call, into
a table keyed by label pairs, and asserts its structural decay relations.
``classify`` builds that table from a verified expansion itself (so it raises
``InconsistentRelationsError`` where ``build_S`` does), routes the expansion
through the steady-state classification tree (limit equation per branch,
constants as tail means, residuals in the V' norm) and reports which branch
fired. Every gate is a module constant (``SLOPE_GATE``, ``DISP_GATE``,
``RESIDUAL_GATE``, ``ZERO_GATE``, ``CHI_FLOOR``); the ``classify`` command
records the first three in its output file. The 4.6(ii) sub-branches (2a) and
(3a) are not classified: no window reaches them while mu_* is a tail mean
(``_classify_v_zero`` says what would).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import spectral as sp


class InconsistentRelationsError(RuntimeError):
    """A structural decay relation of the coefficient table failed."""


class ClassificationBlockedError(RuntimeError):
    """A comparison needed by the classification tree came back undecided."""


SLOPE_GATE = 0.1      # compare: |log-ratio slope| above this is growth or decay
DISP_GATE = 0.05      # compare: relative tail dispersion at or below this is sim
RESIDUAL_GATE = 1e-8  # classify: branch equation residual above this is a warning
ZERO_GATE = 1e-8      # relative V' gate for v = 0 / v = A^{-1} g
CHI_FLOOR = 1e-10     # |chi_n| at or below this everywhere: chi vanishes (S1)


@dataclass(frozen=True)
class OrderRelation:
    verdict: str                 # succ | sim | prec | undecided
    lam: float | None            # finite limit ratio when verdict == sim
    slope: float                 # fitted log-ratio slope (evidence)
    dispersion: float            # relative dispersion of tail ratios (evidence)

    def __str__(self):
        lam = f"({self.lam:.6g})" if self.lam is not None else ""
        return f"{self.verdict}{lam} [slope={self.slope:.3g}, disp={self.dispersion:.3g}]"


def compare(xs, ys, alphas):
    """Decide each row of ``xs`` (P, M) against the same row of ``ys`` over the
    window ``alphas``: one ``OrderRelation`` per row, succ / sim(lam) / prec /
    undecided.

    Fits the slope of log(x/y) against log(alpha_n) over the tail half; succ
    needs slope above ``SLOPE_GATE`` and strictly increasing tail ratios (prec
    the mirror image), sim needs flat slope and tail dispersion at most
    ``DISP_GATE``, lam the tail mean. Windows shorter than 6 are refused.
    Ratios, tails, trends and dispersions are formed in one array pass.
    """
    if xs.shape[1] != ys.shape[1]:
        raise ValueError("sequences must share the window")
    if xs.shape[1] < 6:
        raise ValueError("comparison window must contain at least 6 samples")
    half = xs.shape[1] // 2
    tail = (xs / ys)[:, half:]
    grid = np.log(np.asarray(alphas, dtype=float)[half:])
    # One fit per row: a fit of all rows at once (a 2-D y) moves the last bits
    # of some slopes, and a slope of pure roundoff is printed as evidence.
    slopes = [float(np.polyfit(grid, row, 1)[0]) for row in np.log(tail)]
    steps = np.diff(tail, axis=1)
    means = np.mean(tail, axis=1)
    disps = np.std(tail / means[:, None], axis=1)  # relative spread; overflow-safe
    out = []
    for slope, up, down, mean, disp in zip(slopes, np.all(steps > 0, axis=1),
                                           np.all(steps < 0, axis=1), means.tolist(),
                                           disps.tolist()):
        verdict = ("succ" if slope > SLOPE_GATE and up else "prec" if slope < -SLOPE_GATE and down
                   else "sim" if abs(slope) <= SLOPE_GATE and disp <= DISP_GATE else "undecided")
        out.append(OrderRelation(verdict, mean if verdict == "sim" else None, slope, disp))
    return out


# ---------------------------------------------------------------------------
# The coefficient set S and its relation matrix
# ---------------------------------------------------------------------------


def _label(apow, gs):
    parts = (["alpha"] if apow else []) + [f"gamma({k})" for k in gs]
    return "*".join(parts) if parts else "one"


@dataclass
class RelationMatrix:
    relations: dict              # (label a, label b) -> OrderRelation, a before b in the table

    def relation(self, a, b):  # a pair stored as (b, a) is read backwards
        if a == b:
            return OrderRelation("sim", 1.0, 0.0, 0.0)
        if (a, b) in self.relations:
            return self.relations[(a, b)]
        r = self.relations[(b, a)]
        flip = {"succ": "prec", "prec": "succ"}.get(r.verdict, r.verdict)
        lam = 1.0 / r.lam if r.lam else None
        return OrderRelation(flip, lam, -r.slope, r.dispersion)

    def undecided_pairs(self):
        return [pair for pair, r in self.relations.items() if r.verdict == "undecided"]


def _structurally_decaying(sa, sb):
    """True when seq_a / seq_b is a product of 1/Gamma factors (so a succ b)."""
    (pa, ga), (pb, gb) = sa, sb
    if pa != pb or len(ga) > len(gb) or ga == gb:
        return False
    return all(x <= y for x, y in zip(sorted(ga), sorted(gb)))


def build_S(alphas, gammas):
    """Coefficient sequences of the expansion with all pairwise relations.

    ``gammas`` is a list of positive arrays, one per expansion level (a sequence
    not positive is a ValueError naming it). Returns a RelationMatrix over (1),
    (alpha), (Gamma_k), (alpha Gamma_k) and (alpha Gamma_j Gamma_k), j <= k: every
    pair (a, b), a before b in that order, is a row of one ``compare`` call.

    Raises:
      InconsistentRelationsError: a structural decay relation (a pure product
        of Gamma factors) did not come back succ, signalling a bad extraction.
    """
    alphas = np.asarray(alphas, dtype=float)
    gammas = [np.asarray(g, dtype=float) for g in gammas]
    if not gammas:
        raise ValueError("need at least one gamma level")

    # Per sequence: (alpha power, gamma levels); its values are that product.
    levels = range(1, len(gammas) + 1)
    structure = ([(0, ()), (1, ())] + [(0, (k,)) for k in levels] + [(1, (k,)) for k in levels]
                 + [(1, (j, k)) for j in levels for k in levels if j <= k])
    table = []
    for p, gs in structure:
        values = alphas if p else np.ones_like(alphas)
        for k in gs:
            values = values * gammas[k - 1]
        table.append(values)
    table, labels = np.array(table), [_label(p, gs) for p, gs in structure]
    bad = np.any(table <= 0, axis=1)
    if bad.any():
        raise ValueError(f"sequence {labels[int(np.argmax(bad))]!r} must be positive")
    first, second = np.triu_indices(len(table), 1)  # itertools.combinations' order
    mat = RelationMatrix(dict(zip(itertools.combinations(labels, 2),
                                  compare(table[first], table[second], alphas))))

    for (sa, a), (sb, b) in itertools.permutations(zip(structure, labels), 2):
        if _structurally_decaying(sa, sb) and mat.relation(a, b).verdict != "succ":
            raise InconsistentRelationsError(f"expected {a} succ {b}, got {mat.relation(a, b)}")
    return mat


def chi_trichotomy(chi):
    """Sign-pattern tag of chi_n: S1 (|chi_n| <= ``CHI_FLOOR`` everywhere), S2 / S3
    (chi > 0 / < 0) or mixed. The tag is recorded only: a one-signed chi that sums
    to zero over the tail is roundoff there, too small for a |chi| relation row
    (``_classify_v_zero`` says what would restore one)."""
    chi = np.asarray(chi, dtype=float)
    if np.all(np.abs(chi) <= CHI_FLOOR):
        return "S1"
    if np.all(chi > 0):
        return "S2"
    return "S3" if np.all(chi < 0) else "mixed"


# ---------------------------------------------------------------------------
# Branch classifier
# ---------------------------------------------------------------------------


@dataclass
class ClassificationReport:
    branch: str
    constants: dict
    chi: list | None
    chi_tag: str | None
    residuals: dict              # equation id -> V'-relative residual
    identities: dict             # scalar identity id -> value
    totally_comparable: bool
    evidence: dict               # comparison id -> str(OrderRelation)
    warnings: list = field(default_factory=list)

    def summary(self):
        lines = [f"branch: {self.branch}"]
        for k, v in self.constants.items():
            lines.append(f"  {k} = {v:.12g}")
        if self.chi_tag:
            lines.append(f"  chi pattern: {self.chi_tag}")
        for k, v in self.residuals.items():
            lines.append(f"  residual {k}: {v:.3e}")
        for k, v in self.identities.items():
            lines.append(f"  identity {k}: {v:.3e}")
        lines.append(f"  totally comparable: {self.totally_comparable}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def _vprime(fieldobj):
    return sp.norm_ds(fieldobj, -0.5)


class _Pass:
    """One pass down the classification tree: the inputs every branch reads,
    the relation matrix it consults and the one report the branches fill."""

    def __init__(self, expansion, g, alphas):
        self.kind = expansion.kind
        self.v = expansion.limit
        self.gammas = [np.asarray(term.gammas) for term in expansion.terms]
        self.dirs = [term.direction for term in expansion.terms]
        self.g = g
        self.gvp = _vprime(g)
        self.alphas = alphas
        self.t = max(2, len(alphas) // 3)
        self.report = ClassificationReport("", {}, None, None, {}, {}, True, {}, [])
        self.matrix = build_S(alphas, self.gammas) if self.gammas else None
        if self.matrix is not None:
            undecided = self.matrix.undecided_pairs()
            self.report.totally_comparable = len(undecided) == 0
            if undecided:
                self.warn(f"relation matrix undecided on {undecided}")

    def warn(self, message):
        self.report.warnings.append(message)

    def rel(self, a, b):
        r = self.matrix.relation(a, b)
        self.report.evidence[f"{a} vs {b}"] = str(r)
        if r.verdict == "undecided":
            raise ClassificationBlockedError(f"comparison {a} vs {b} is undecided")
        return r

    def residual(self, eq_id, fieldobj):
        value = _vprime(fieldobj) / self.gvp
        self.report.residuals[eq_id] = value
        if value > RESIDUAL_GATE:
            self.warn(f"branch equation {eq_id} residual {value:.3e}")

    def tail_mean(self, values):
        return float(np.mean(np.asarray(values)[-self.t:]))

    def tail_dispersion(self, values):
        tail = values[-self.t:]
        return float(np.std(tail) / max(np.mean(tail), 1e-300))


def classify(expansion, g, alphas):
    """Classify a verified expansion against the steady-state classification tree.

    Builds the relation matrix of the expansion's gammas over the window
    ``alphas`` (``build_S``), routes on the limit (trivial / v = 0 /
    v = A^{-1} g / generic), compares the relevant coefficient sequences,
    estimates the branch constants as tail means and measures every branch
    equation residual in the V' norm relative to the forcing. A branch equation
    residual above ``RESIDUAL_GATE`` is a recorded warning, not an error.

    Raises:
      InconsistentRelationsError: a structural decay relation among the
        gammas failed (see ``build_S``).
      ClassificationBlockedError: a needed comparison is undecided.
    """
    c = _Pass(expansion, g, np.asarray(alphas, dtype=float))
    v = c.v
    # Always: the limit satisfies B(v, v) = 0.
    c.residual("B(v,v)=0", sp.bilinear_b(v, v))
    if not c.gammas:
        c.residual("Av=g", sp.apply_fractional(v, 1.0) - g)
        c.report.branch = "4.4(ii)"
    elif _vprime(v) <= ZERO_GATE * c.gvp:
        c.report.branch = _classify_v_zero(c)
    elif _vprime(v - sp.apply_fractional(g, -1.0)) <= ZERO_GATE * c.gvp:
        c.report.branch = _classify_v_stokes(c)
    else:
        c.report.branch = _classify_generic(c)
    return c.report


def _classify_generic(c):
    """Branches 4.4(iii) for a limit that is neither 0 nor A^{-1} g."""
    w1 = c.dirs[0]
    r = c.rel("alpha*gamma(1)", "one")
    if r.verdict == "succ":
        c.residual("Bs(v,w1)=0", sp.bilinear_bs(c.v, w1))
        return "4.4(iii)(b)"
    ag1 = c.alphas * c.gammas[0]
    mu = c.tail_mean(ag1) if r.verdict == "sim" else 0.0
    c.report.constants["mu"] = mu
    c.report.constants["mu_dispersion"] = c.tail_dispersion(ag1)
    c.residual("Av+mu*Bs(v,w1)=g",
               sp.apply_fractional(c.v, 1.0) + mu * sp.bilinear_bs(c.v, w1) - c.g)
    return "4.4(iii)(a)"


def _classify_v_zero(c):
    """Branches 4.6 for v = 0: alpha Gamma_1^2 >= 1 and w_2 exists.

    Branch (ii) routes on alpha Gamma_2 vs 1 alone: prec (ii)(1), sim (ii)(2b),
    succ (ii)(3b). Sub-branches (2a) and (3a) need |chi| sim Gamma_1 or sim
    alpha Gamma_1 Gamma_2; with mu_* the tail mean of alpha Gamma_1^2, chi sums
    to zero over the tail ``compare`` reads, so |chi| is roundoff there. They
    need mu_* as a limit estimate with an error floor that |chi| must clear.
    """
    rep = c.report
    w1 = c.dirs[0]
    w2 = c.dirs[1] if len(c.dirs) > 1 else None
    if w2 is None:
        c.warn("v = 0 but no second direction extracted (this regime implies w2 exists)")

    r11 = c.rel("alpha*gamma(1)*gamma(1)", "one")
    if r11.verdict == "prec":
        c.warn("alpha*Gamma_1^2 prec 1 is impossible for a v = 0 solution family")
    if r11.verdict == "succ":
        c.residual("B(w1,w1)=0", sp.bilinear_b(w1, w1))
        if w2 is None:
            return "4.6(i)"
        r12 = c.rel("alpha*gamma(1)*gamma(2)", "one")
        if r12.verdict == "succ":
            c.residual("Bs(w1,w2)=0", sp.bilinear_bs(w1, w2))
            return "4.6(i)(1)"
        if r12.verdict == "prec":
            c.warn("alpha*Gamma_1*Gamma_2 prec 1 is impossible in this regime")
            return "4.6(i)"
        mu = c.tail_mean(c.alphas * c.gammas[0] * c.gammas[1])
        rep.constants["mu"] = mu
        c.residual("mu*Bs(w1,w2)=g", mu * sp.bilinear_bs(w1, w2) - c.g)
        rep.identities["<g,w1>"] = sp.inner_ds(c.g, w1) / (c.gvp * sp.norm_ds(w1, 0.5))
        return "4.6(i)(2)"

    # alpha Gamma_1^2 sim 1: mu_* and the deviation sequence chi.
    ag11 = c.alphas * c.gammas[0] ** 2
    mu_star = c.tail_mean(ag11)
    rep.constants["mu_star"] = mu_star
    rep.constants["mu_star_dispersion"] = c.tail_dispersion(ag11)
    c.residual("mu_star*B(w1,w1)=g", mu_star * sp.bilinear_b(w1, w1) - c.g)
    rep.identities["<g,w1>"] = sp.inner_ds(c.g, w1) / (c.gvp * sp.norm_ds(w1, 0.5))
    rep.chi = (1.0 - ag11 / mu_star).tolist()
    rep.chi_tag = chi_trichotomy(rep.chi)
    if rep.chi_tag == "mixed":
        c.warn("chi sign pattern mixed; sub-branch not classified")
    if rep.chi_tag == "mixed" or w2 is None:
        return "4.6(ii)"

    r2 = c.rel("alpha*gamma(2)", "one")
    if r2.verdict == "prec":
        if c.kind != "degenerate":
            c.warn("branch (ii)(1) concludes a degenerate expansion; kind is " + c.kind)
        return "4.6(ii)(1)"
    if r2.verdict == "sim":
        bs12 = sp.bilinear_bs(w1, w2)
        aw1 = sp.apply_fractional(w1, 1.0)
        denom = sp.norm_ds(bs12, -0.5) ** 2
        mu2 = -sp.inner_ds(aw1, bs12, -0.5) / denom if denom > 0 else 0.0
        rep.constants["mu_2"] = mu2
        c.residual("Aw1+mu2*Bs(w1,w2)=0", aw1 + mu2 * bs12)
        rep.identities["mu_star*||w1||^2-mu2*<g,w2>"] = (
            mu_star * sp.norm_ds(w1, 0.5)**2 - mu2 * sp.inner_ds(c.g, w2)) / (c.gvp**2)
        return "4.6(ii)(2b)"

    c.residual("Bs(w1,w2)=0", sp.bilinear_bs(w1, w2))
    w2n = sp.norm_ds(w2, 0.5)
    rep.identities["<g,w2>"] = sp.inner_ds(c.g, w2) / (c.gvp * w2n)
    rep.identities["<B(w2,w2),w1>"] = sp.inner_ds(sp.bilinear_b(w2, w2), w1) / (c.gvp * w2n**2)
    return "4.6(ii)(3b)"


def _classify_v_stokes(c):
    """Branches 4.7 for v = A^{-1} g with a nontrivial expansion."""
    v = c.v
    w1 = c.dirs[0]
    c.residual("Bs(v,w1)=0", sp.bilinear_bs(v, w1))
    if len(c.dirs) < 2:
        c.warn("v = A^{-1}g but no second direction extracted (this regime implies w2 exists)")
        return "4.7"
    w2 = c.dirs[1]

    # Pairwise relations among (Gamma_1), (alpha Gamma_2), (alpha Gamma_1^2).
    g1_ag2 = c.rel("gamma(1)", "alpha*gamma(2)").verdict
    g1_ag11 = c.rel("gamma(1)", "alpha*gamma(1)*gamma(1)").verdict
    ag2_ag11 = c.rel("alpha*gamma(2)", "alpha*gamma(1)*gamma(1)").verdict
    g1 = c.gammas[0]
    ag2 = c.alphas * c.gammas[1]

    if g1_ag2 == "succ" and (g1_ag11 == "succ" or (g1_ag11 == "sim" and ag2_ag11 == "prec")):
        if c.kind != "degenerate":
            c.warn("branch 4.7(i) concludes a degenerate expansion; kind is " + c.kind)
        return "4.7(i)"
    if g1_ag2 == "prec" and ag2_ag11 == "succ":
        c.residual("Bs(v,w2)=0", sp.bilinear_bs(v, w2))
        return "4.7(ii)"
    if g1_ag11 == "prec" and ag2_ag11 == "prec":
        c.residual("B(w1,w1)=0", sp.bilinear_b(w1, w1))
        return "4.7(iii)"
    if g1_ag2 == "sim" and ag2_ag11 == "succ":
        mu = c.tail_mean(ag2 / g1)
        c.report.constants["mu"] = mu
        c.residual("Aw1+mu*Bs(v,w2)=0", sp.apply_fractional(w1, 1.0) + mu * sp.bilinear_bs(v, w2))
        return "4.7(iv)"
    if ag2_ag11 == "sim" and g1_ag2 == "prec":
        mu = c.tail_mean(g1**2 / c.gammas[1])
        c.report.constants["mu"] = mu
        c.residual("Bs(v,w2)+mu*B(w1,w1)=0", sp.bilinear_bs(v, w2) + mu * sp.bilinear_b(w1, w1))
        return "4.7(v)"
    if g1_ag2 == "sim" and ag2_ag11 == "sim":
        mu1 = c.tail_mean(ag2 / g1)
        mu2 = c.tail_mean(c.alphas * g1)
        c.report.constants["mu_1"] = mu1
        c.report.constants["mu_2"] = mu2
        c.residual("Aw1+mu1*Bs(v,w2)+mu2*B(w1,w1)=0",
                   sp.apply_fractional(w1, 1.0) + mu1 * sp.bilinear_bs(v, w2)
                   + mu2 * sp.bilinear_b(w1, w1))
        return "4.7(vi)"
    c.warn("relation pattern does not match any listed scenario")
    return "4.7"
