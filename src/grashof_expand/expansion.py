"""Extraction, restructuring and verification of intrinsic asymptotic expansions.

Given a finite window v_1..v_M of a convergent sequence of fields together
with the parameters alpha_n, this module recovers expansions

    v_n = v + Gamma_{1,n} w_1 + ... + Gamma_{k,n} w_n^{(k)}

in two forms:

* ``strict``  - the constructive recursion in a nested scale Z_k = D(A^{s_k}):
  Gamma_{k,n} is the Z_{k-1} norm of the level residual, witnesses are unit
  vectors, directions are witness limits.
* ``unitary`` - the single-space refinement (default space V): directions are
  renormalized witness limits and Gamma_{k,n} is the projection of the level
  residual onto the direction. On sequences whose residual directions are
  orthogonal this reproduces closed-form coefficients to roundoff, which the
  norm-based strict recursion (norm vs projection of the residual) cannot.

Restructuring removes zero directions and normalizes the rest, preserving all
partial sums; verification re-checks every expansion axiom on the raw window.
"""

from __future__ import annotations

import io
import os
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate, islice

import numpy as np

from . import fieldio
from . import spectral as sp
from .seqlimit import SNAP_REL, estimate_limit

TWO_PI = sp.TWO_PI
RECON_TOL = 1e-12  # verify: reconstruction error relative to the window's Z_0 scale
FLOOR = 1e-9       # relative Gamma floor vs the window Z_0 scale
FINITE = 1e-10     # witness stabilization threshold (finite kind)
ZERO = 1e-10       # zero-direction threshold (relative to the largest in restructure)
CAUCHY = 0.8       # window convergence gate on increment decay
STAGNATION = 0.9   # Gamma-ratio tail gate


class NotConvergentError(RuntimeError):
    """The sample window shows no numerical convergence in Z_0."""


class StagnationError(RuntimeError):
    """Gamma_{1,n} does not decay over the window."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NestedScale:
    """Finite exponents (s_0..s_K), K >= 1, defining Z_k = D(A^{s_k}).

    The regime follows from them: ``constant`` when all are equal (the
    single-space family Z_k = D(A^s)), else ``2d-periodic`` when all lie in
    (1/2, 1), else ``general``, which needs them in (0, 1/2). The last two
    need strictly decreasing exponents.
    """

    exponents: tuple

    def __post_init__(self):
        exps = tuple(float(s) for s in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 2:
            raise ValueError("scale needs at least two exponents")
        if not np.all(np.isfinite(exps)):
            raise ValueError(f"scale exponents must be finite; got {list(exps)}")
        if self.regime != "constant" and any(b >= a for a, b in zip(exps, exps[1:])):
            raise ValueError("scale exponents must be strictly decreasing")
        if self.regime == "general" and any(not 0.0 < s < 0.5 for s in exps):
            raise ValueError("general scale exponents must lie in (0.0, 0.5)")

    @property
    def regime(self):
        if len(set(self.exponents)) == 1:
            return "constant"
        return "2d-periodic" if all(0.5 < s < 1.0 for s in self.exponents) else "general"

    @property
    def depth(self):
        return len(self.exponents) - 1

    def exponent(self, k):
        return self.exponents[k]


def default_scale_2dp(kmax=6):
    """s_k = 1/2 + 1/(2(k+2)): harmonic spacing from 3/4 decreasing toward 1/2."""
    return NestedScale(tuple(0.5 + 0.5 / (k + 2) for k in range(kmax + 1)))


def constant_scale(s, kmax=6):
    return NestedScale((float(s),) * (kmax + 1))


def _rows(keys, fields):
    """Coefficients of each field on the sorted mode list ``keys``, one flat row per
    field: ``row[2 * i], row[2 * i + 1] = c(k_i)``. The one map from fields to rows,
    used by extraction, verification and the expansion files."""
    union, slots = sp.key_union([keys] + [f.keys for f in fields])
    if len(union) > len(keys):
        raise ValueError("expansion carries modes outside the data window")
    out = np.zeros((len(fields), len(keys), 2), dtype=np.complex128)
    for row, f, slot in zip(out, fields, slots[1:]):
        row[slot] = f.coeffs
    return out.reshape(len(fields), 2 * len(keys))


@dataclass(frozen=True)
class SequenceData:
    """Finite sample (v_n, alpha_n), n = 1..M, of a solution sequence, flattened once.

    ``flat`` holds one row per field on the window's sorted mode list ``keys``
    (see ``_rows``), ``lam`` the eigenvalue |k|^2 of each row entry and ``trunc``
    the largest truncation. The alphas must be positive and strictly increasing.
    """

    fields: tuple
    alphas: tuple

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.fields) != len(self.alphas):
            raise ValueError("fields and alphas must have equal length")
        if any(a <= 0 for a in self.alphas):
            raise ValueError("alphas must be positive")
        for n, (a, b) in enumerate(zip(self.alphas, self.alphas[1:]), start=2):
            if not b > a:
                raise ValueError(f"alphas must be strictly increasing: sample {n} has "
                                 f"alpha {b!r} after {a!r}")
        keys = sp.key_union([f.keys for f in self.fields])[0]
        flat = _rows(keys, self.fields)
        flat.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "trunc", max((f.trunc for f in self.fields), default=1))
        object.__setattr__(self, "lam", np.repeat(np.sum(keys * keys, axis=1), 2).astype(float))

    def __len__(self):
        return len(self.fields)

    def norms(self, flat_rows, s):
        """D(A^s) norm of each row (of the one row, for a 1-D ``flat_rows``)."""
        w = self.lam ** (2.0 * s)
        return TWO_PI * np.sqrt(np.sum(w * np.abs(flat_rows) ** 2, axis=-1))

    def inner(self, rows, row, s):
        """Real D(A^s) inner products of each row of ``rows`` with ``row``."""
        w = self.lam ** (2.0 * s)
        return TWO_PI**2 * np.real(np.sum(w * rows * np.conj(row), axis=1))

    def divfree(self, rows):
        """Leray projection of rows, mode by mode: window estimates, and residuals
        divided by small gammas, drift off k.c = 0 beyond the loader's tolerance."""
        shape = rows.shape[:-1] + (len(self.keys), 2)
        return sp.divfree(self.keys, rows.reshape(shape)).reshape(rows.shape)

    def to_field(self, row):
        """Inverse of ``_rows``: the field whose nonzero modes are those of ``row``."""
        return sp.SpectralField.from_arrays(self.trunc, self.keys, row.reshape(-1, 2))

    def term(self, gammas, direction, witnesses, estimator):
        """ExpansionTerm of a direction row and one witness row per sample."""
        return ExpansionTerm(gammas, self.to_field(direction),
                             [self.to_field(w) for w in witnesses], estimator)


@dataclass(frozen=True)
class ToleranceSet:
    """The extraction settings a caller chooses; the fixed gates (``FLOOR`` ..
    ``STAGNATION``, ``seqlimit.SNAP_REL``) are module constants."""

    tail: int = 0             # 0 = ceil(M/3)
    kmax: int = 6

    def tail_for(self, m):
        return self.tail if self.tail > 0 else int(np.ceil(m / 3))


@dataclass
class ExpansionTerm:
    gammas: np.ndarray
    direction: "sp.SpectralField"
    witnesses: list
    estimator: str


@dataclass
class ExpansionResult:
    """Extracted expansion: limit, terms and per-level witnesses.

    ``kind`` is one of trivial / finite-unitary / infinite-unitary / degenerate
    / strict (the provisional tag for a depth-capped strict recursion); ``form``
    records whether gammas are residual norms ("strict") or projections onto
    unit directions ("unitary"). ``space`` is the single-space exponent of the
    unitary form (None for nested-scale results).
    """

    limit: "sp.SpectralField"
    terms: list
    kind: str
    form: str
    scale: NestedScale
    space: float | None
    degenerate_n: int | None
    depth_reason: str
    limit_estimator: str
    tols: ToleranceSet
    decision_log: list = field(default_factory=list)

    @property
    def depth(self):
        return len(self.terms)

    def space_exponent(self, k):
        """Exponent of the norm used for level-k directions."""
        if self.space is not None:
            return self.space
        return self.scale.exponent(min(k, self.scale.depth))


def _check_convergent(data, s0, t):
    """Numerical Cauchy criterion in Z_0 over the window."""
    dn = data.norms(data.flat[1:] - data.flat[:-1], s0)
    scale = float(np.max(data.norms(data.flat, s0)))
    if np.all(dn <= 1e-13 * max(scale, 1e-300)):
        return
    tail = dn[-(t + 1):]
    if np.any(np.diff(tail) > 1e-12 * max(scale, tail.max())):
        raise NotConvergentError("window increments are not decreasing in Z_0")
    if dn[-1] > CAUCHY * dn[0]:
        raise NotConvergentError("window increments show no overall decay in Z_0")


# ---------------------------------------------------------------------------
# Strict extraction (nested-scale recursion)
# ---------------------------------------------------------------------------


def extract_strict(data, scale, tols=None):
    """Constructive strict-expansion recursion on a finite sample window.

    At level k the coefficient Gamma_{k,n} is the Z_{k-1} norm of the residual
    r_n = v_n - v - sum_{j<k} Gamma_{j,n} w_j, the witness is r_n / Gamma_{k,n}
    (unit in Z_{k-1}) and the direction w_k is the estimated Z_k-limit of the
    witnesses. Recursion ends on witness stabilization (finite kind), on the
    Gamma floor, on ratio stagnation, or at the scale depth.

    Raises:
      NotConvergentError: no numerical convergence in Z_0.
      StagnationError: Gamma_{1,n} does not decay over the window.
    """
    tols = tols or ToleranceSet()
    if len(data) < 6:
        raise ValueError("extraction window must contain at least 6 samples")
    xs = 1.0 / np.array(data.alphas)
    t = tols.tail_for(len(data))
    s0 = scale.exponent(0)
    _check_convergent(data, s0, t)

    vhat, vmethod = estimate_limit(data.flat, xs, t)
    vhat = data.divfree(vhat)
    log = [f"limit estimator: {vmethod}"]
    scale0 = float(np.max(data.norms(data.flat, s0)))
    floor_abs = FLOOR * max(scale0, 1e-300)

    resid = data.flat - vhat
    terms = []
    kind = "strict"
    reason = f"depth cap {min(tols.kmax, scale.depth)}"
    kmax = min(tols.kmax, scale.depth)
    for k in range(1, kmax + 1):
        gammas = data.norms(resid, scale.exponent(k - 1))
        if np.max(gammas) <= floor_abs:
            if k == 1:
                kind = "trivial"
                reason = "constant window"
            else:
                reason = f"gamma floor at level {k}"
            break
        if np.min(gammas) <= 0.0:
            raise StagnationError(f"level-{k} residual vanishes for some n but not all")
        if k == 1:
            if gammas[-1] > STAGNATION * np.max(gammas[:t]):
                raise StagnationError("Gamma_{1,n} does not decay over the window")
        witnesses = data.divfree(resid / gammas[:, None])
        what, wmethod = estimate_limit(witnesses, xs, t)
        what = data.divfree(what)
        sk = scale.exponent(k)
        conv = data.norms(witnesses - what, sk)
        terms.append(data.term(gammas, what, witnesses, wmethod))
        log.append(f"level {k}: witness estimator {wmethod}")
        if np.all(conv[-t:] < FINITE):
            kind = "finite-unitary"
            reason = f"witnesses stabilized at level {k}"
            break
        resid = resid - gammas[:, None] * what
        nxt = data.norms(resid, sk)
        ratios = nxt / gammas
        if np.mean(ratios[-t:]) >= STAGNATION:
            reason = f"ratio stagnation after level {k}"
            break
    return ExpansionResult(
        limit=data.to_field(vhat), terms=terms,
        kind="trivial" if (kind == "trivial" or not terms) else kind, form="strict",
        scale=scale, space=None, degenerate_n=None, depth_reason=reason,
        limit_estimator=vmethod, tols=tols, decision_log=log,
    )


# ---------------------------------------------------------------------------
# Single-space unitary refinement (projection peeling)
# ---------------------------------------------------------------------------


def refine_unitary(strict, data, space=0.5):
    """Unitary (or degenerate) expansion in the single space D(A^space).

    Reuses the strict result's window limit, then peels one direction per
    level: the direction is the normalized witness limit in D(A^space) and
    Gamma_{k,n} is the projection of the level residual onto it. Witnesses
    are residual/Gamma, so the reconstruction identity is exact by
    construction; they converge to the direction but are not unit vectors.
    The tail window and depth are the strict result's.
    """
    tols = strict.tols
    xs = 1.0 / np.array(data.alphas)
    t = tols.tail_for(len(data))
    s = float(space)
    vhat = _rows(data.keys, [strict.limit])[0]

    scale0 = float(np.max(data.norms(data.flat, s)))
    floor_abs = FLOOR * max(scale0, 1e-300)
    resid = data.flat - vhat
    terms = []
    kind = "infinite-unitary"
    degenerate_n = None
    reason = f"depth cap {tols.kmax}"
    log = list(strict.decision_log) + [f"unitary refinement in D(A^{s})"]
    for k in range(1, tols.kmax + 1):
        norms = data.norms(resid, s)
        if np.max(norms) <= floor_abs:
            if k == 1:
                kind = "trivial"
                reason = "constant window"
            else:
                reason = f"gamma floor at level {k}"
            break
        if np.min(norms) <= 0.0:
            reason = f"exact reconstruction at level {k - 1}"
            break
        unit = data.divfree(resid / norms[:, None])
        dhat, wmethod = estimate_limit(unit, xs, t)
        dhat = data.divfree(dhat)
        dnorm = float(data.norms(dhat, s))
        if dnorm <= ZERO:
            # Zero witness limit: the tail is degenerate in this space.
            degenerate_n = k - 1
            kind = "degenerate"
            terms.append(data.term(norms, np.zeros_like(dhat), unit, wmethod))
            reason = f"zero direction at level {k}"
            break
        dhat = dhat / dnorm
        projs = data.inner(resid, dhat, s)
        if np.mean(projs[-t:]) < 0:
            dhat = -dhat
            projs = -projs
        if np.min(projs) <= 0.0:
            reason = f"non-positive projection at level {k}"
            break
        witnesses = data.divfree(resid / projs[:, None])
        terms.append(data.term(projs, dhat, witnesses, wmethod))
        log.append(f"level {k}: witness estimator {wmethod}")
        conv = data.norms(witnesses - dhat, s)
        if np.all(conv[-t:] < FINITE):
            kind = "finite-unitary"
            reason = f"witnesses stabilized at level {k}"
            break
        resid = resid - projs[:, None] * dhat
        nxt = data.norms(resid, s)
        if np.mean(nxt[-t:] / projs[-t:]) >= STAGNATION:
            reason = f"ratio stagnation after level {k}"
            break
    return ExpansionResult(
        limit=strict.limit, terms=terms, kind="trivial" if not terms else kind,
        form="unitary", scale=constant_scale(s, tols.kmax), space=s,
        degenerate_n=degenerate_n, depth_reason=reason,
        limit_estimator=strict.limit_estimator, tols=tols, decision_log=log,
    )


# ---------------------------------------------------------------------------
# Restructuring (zero removal + normalization)
# ---------------------------------------------------------------------------


def restructure(e):
    """Convert an expansion to unitary or degenerate form.

    Directions below the zero threshold that precede a nonzero direction are
    removed (their space leaves the scale and later witnesses absorb the
    dropped term, so partial sums are preserved); trailing zero directions
    classify the result degenerate; remaining directions are normalized with
    gammas rescaled so each term product is unchanged. Idempotent.
    """
    if not e.terms:
        return replace(e, kind="trivial", form="unitary", decision_log=list(e.decision_log))

    dirnorms = [sp.norm_ds(t.direction, e.space_exponent(k + 1)) for k, t in enumerate(e.terms)]
    zmax = max(dirnorms)
    zero = [nu <= ZERO * zmax for nu in dirnorms]

    if all(zero):
        terms = [
            ExpansionTerm(t.gammas.copy(), sp.zero_field(t.direction.trunc), list(t.witnesses), t.estimator)
            for t in e.terms
        ]
        return replace(e, terms=terms, kind="degenerate", form="unitary", degenerate_n=0,
                       decision_log=e.decision_log + ["restructure: all directions zero"])

    last_nonzero = max(k for k, z in enumerate(zero) if not z)
    removed = [k for k in range(last_nonzero) if zero[k]]
    kept = [k for k in range(len(e.terms)) if k not in removed]

    new_terms = []
    new_exponents = [e.scale.exponent(0)]
    n_nonzero = 0
    for pos, k in enumerate(kept):
        t = e.terms[k]
        nu = dirnorms[k]
        new_exponents.append(e.scale.exponent(min(k + 1, e.scale.depth)))
        # Fold removed earlier terms back into the witnesses so that
        # v_n = v + sum kept Gamma_j w_j + Gamma_k w_n^{(k)} stays exact.
        dropped = [r for r in removed if r < k]
        witnesses = list(t.witnesses)
        if dropped:
            witnesses = [
                sp.lin_comb(
                    [1.0] + [e.terms[r].gammas[n] / t.gammas[n] for r in dropped],
                    [t.witnesses[n]] + [e.terms[r].direction for r in dropped],
                )
                for n in range(len(witnesses))
            ]
        if k > last_nonzero:
            new_terms.append(
                ExpansionTerm(t.gammas.copy(), sp.zero_field(t.direction.trunc), witnesses, t.estimator)
            )
            continue
        n_nonzero = pos + 1
        if abs(nu - 1.0) <= 1e-13:
            new_terms.append(ExpansionTerm(t.gammas.copy(), t.direction, witnesses, t.estimator))
        else:
            new_terms.append(ExpansionTerm(t.gammas * nu, (1.0 / nu) * t.direction,
                                           [(1.0 / nu) * w for w in witnesses], t.estimator))

    trailing = len(kept) > n_nonzero
    if trailing:
        kind = "degenerate"
        degenerate_n = n_nonzero
    else:
        degenerate_n = None
        kind = "finite-unitary" if e.kind in ("finite-unitary", "trivial") else "infinite-unitary"

    new_scale = NestedScale(tuple(new_exponents)) if len(new_exponents) >= 2 else e.scale
    log = e.decision_log + [f"restructure: removed {len(removed)} zero term(s)"]
    return replace(e, terms=new_terms, kind=kind, form="unitary", scale=new_scale,
                   degenerate_n=degenerate_n, decision_log=log)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    axiom: str
    passed: bool
    worst: float
    note: str = ""


@dataclass
class VerificationReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.axiom}: worst={c.worst:.3e} {c.note}".rstrip())
        return "\n".join(lines)


def _tail_decreasing(values, t, slack=1e-12):
    v = np.asarray(values)[-(t + 1):]
    if len(v) < 2:
        return True, 0.0
    diffs = np.diff(v)
    worst = float(np.max(diffs))
    return bool(np.all(diffs <= slack * max(np.max(np.abs(v)), 1e-300))), worst


def _partial_sums(e, data):
    """Rows of v + sum_{j<k} Gamma_{j,n} w_j on the window, for k = 0..depth, in turn.

    The expansion is checked against the window here; the sums are made lazily.
    """
    start, *dirs = _rows(data.keys, [e.limit] + [term.direction for term in e.terms])
    if any(len(term.gammas) != len(data) for term in e.terms):
        raise ValueError(f"expansion window length differs from the {len(data)}-sample data window")
    steps = (term.gammas[:, None] * d[None, :] for term, d in zip(e.terms, dirs))
    return accumulate(steps, initial=np.repeat(start[None, :], len(data), axis=0))


def remainder_ratios(e, data):
    """(depth x M) remainder ratios of ``e`` on the window of ``data``.

    Row k-1 holds ||v_n - v - sum_{j<k} Gamma_{j,n} w_j|| / Gamma_{k-1,n}
    (Gamma_0 = 1) in the level-k space.

    Raises:
      ValueError: the expansion carries modes outside the data window.
    """
    prev = [np.ones(len(data))] + [term.gammas for term in e.terms]
    ratios = [data.norms(data.flat - p, e.space_exponent(k + 1)) / prev[k]
              for k, p in zip(range(e.depth), _partial_sums(e, data))]
    return np.array(ratios).reshape(e.depth, len(data))


def verify_expansion(e, data):
    """Per-axiom verification report of an expansion against its raw window."""
    t = e.tols.tail_for(len(data))
    checks = []
    s0 = e.scale.exponent(0)
    wits = [_rows(data.keys, term.witnesses) for term in e.terms]
    dirs = _rows(data.keys, [term.direction for term in e.terms])
    gammas = [term.gammas for term in e.terms]
    scale0 = float(np.max(data.norms(data.flat, s0)))

    def unit_error(levels):
        """Largest | |w_k| - 1 | over the given direction levels (0 for none)."""
        return max([0.0] + [abs(float(data.norms(dirs[k], e.space_exponent(k + 1))) - 1.0)
                            for k in levels])

    # Reconstruction identity at every recorded level.
    sums = _partial_sums(e, data)
    recons = (p + g[:, None] * w for p, g, w in zip(sums, gammas, wits)) if e.terms else sums
    worst = max(float(np.max(data.norms(r - data.flat, s0))) for r in recons) / scale0
    checks.append(CheckResult("reconstruction", worst <= RECON_TOL, worst))

    if e.terms:
        g1 = gammas[0]
        ok, worst = _tail_decreasing(g1, t)
        ok = ok and g1[-1] < g1[0]
        checks.append(CheckResult("gamma1-decay", ok, float(g1[-1] / g1[0])))

        for k in range(len(e.terms) - 1):
            r = gammas[k + 1] / gammas[k]
            ok, _ = _tail_decreasing(r, t)
            ok = ok and r[-1] < r[0]
            checks.append(CheckResult(f"ratio-decay-k{k + 1}", ok, float(r[-1])))

        for k in range(len(e.terms)):
            conv = data.norms(wits[k] - dirs[k], e.space_exponent(k + 1))
            ok, _ = _tail_decreasing(conv, t, slack=1e-9)
            stabilized = bool(np.all(conv[-(t + 1):] <= FINITE))
            checks.append(
                CheckResult(
                    f"witness-convergence-k{k + 1}",
                    ok or stabilized,
                    float(conv[-1]),
                    "stabilized" if stabilized and not ok else "",
                )
            )

        if e.form == "strict":
            worst = max(float(np.max(np.abs(data.norms(wits[k], e.scale.exponent(k)) - 1.0)))
                        for k in range(len(e.terms)))
            checks.append(CheckResult("unit-witnesses", worst <= 1e-13, worst))
        else:
            worst = unit_error(k for k in range(len(e.terms))
                               if e.degenerate_n is None or k < e.degenerate_n)
            checks.append(CheckResult("unit-directions", worst <= 1e-12, worst))

        # Remainder-ratio profile over the last half of the window.
        # Levels whose remainders reach the float reconstruction floor count
        # as converged to roundoff; the trend is meaningless below it.
        half = max(2, len(data) // 2)
        worst = 0.0
        worstnote = ""
        ok = True
        for k, ratio in enumerate(remainder_ratios(e, data), start=1):
            if np.any(ratio[-(half - 1):] <= 1e-13 * np.max(ratio)):
                continue
            dec, bad = _tail_decreasing(ratio, half - 1)
            if not dec:
                ok = False
                worst = max(worst, bad)
                worstnote = f"level {k}"
        checks.append(CheckResult("remainder-ratio", ok, worst, worstnote))

    if e.kind == "degenerate" and e.terms:
        n0 = e.degenerate_n or 0
        worst = unit_error(range(n0))
        tail_ok = all(np.all(dirs[k] == 0) for k in range(n0, len(e.terms)))
        checks.append(
            CheckResult("degenerate-pattern", worst <= 1e-12 and tail_ok, worst)
        )
        # Degenerate remainders: ||R_{N,n}|| / Gamma_{m+1,n} = ||w_n^{(m+1)}|| -> 0.
        partial = next(islice(_partial_sums(e, data), n0, None))
        ok = True
        worst = 0.0
        for mlev in range(n0, len(e.terms)):
            smp1 = e.space_exponent(mlev + 1)
            ratio = data.norms(data.flat - partial, smp1) / gammas[mlev]
            dec, _ = _tail_decreasing(ratio, t, slack=1e-9)
            ok = ok and dec
            worst = max(worst, float(ratio[-1]))
        checks.append(CheckResult("degenerate-remainders", ok, worst))

    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# Uniqueness comparison over the shared window
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    match: bool
    limit_diff: float
    depth_equal: bool
    gamma_diffs: list
    direction_diffs: list
    note: str

    def __str__(self):
        tag = "MATCH" if self.match else "MISMATCH"
        return (
            f"[{tag}] limit diff {self.limit_diff:.3e}; depths equal: {self.depth_equal}; "
            f"max gamma rel diff {max(self.gamma_diffs, default=0.0):.3e}; "
            f"max direction diff {max(self.direction_diffs, default=0.0):.3e} ({self.note})"
        )


def uniqueness_check(e1, e2, tol=1e-10):
    """Compare two expansions of the same data over the overlap window.

    With every witness recorded from sample 1 on, the comparable overlap is
    the whole window; values below each result's recorded starting index would
    be unconstrained and are only reported, never compared.
    """
    s0 = e1.scale.exponent(0)
    scale0 = max(sp.norm_ds(e1.limit, s0), sp.norm_ds(e2.limit, s0), 1e-300)
    limit_diff = sp.norm_ds(e1.limit - e2.limit, s0) / scale0
    depth_equal = e1.depth == e2.depth
    gamma_diffs = []
    direction_diffs = []
    for k in range(min(e1.depth, e2.depth)):
        g1, g2 = e1.terms[k].gammas, e2.terms[k].gammas
        gamma_diffs.append(float(np.max(np.abs(g1 - g2) / np.maximum(np.abs(g1), 1e-300))))
        sk = e1.space_exponent(k + 1)
        direction_diffs.append(sp.norm_ds(e1.terms[k].direction - e2.terms[k].direction, sk))
    match = (
        depth_equal
        and limit_diff <= tol
        and all(d <= tol for d in gamma_diffs)
        and all(d <= tol for d in direction_diffs)
    )
    return UniquenessReport(
        match=match,
        limit_diff=limit_diff,
        depth_equal=depth_equal,
        gamma_diffs=gamma_diffs,
        direction_diffs=direction_diffs,
        note="values below the recorded N_k of either expansion are unconstrained",
    )


# ---------------------------------------------------------------------------
# Expansion result files
# ---------------------------------------------------------------------------


SCHEMA = "grashof-expand/expansion-v3"
_TERM_DTYPE = np.dtype("<f8")


def _save_term(path, term):
    """Write one term as a (1 + M, modes, 4) float64 matrix, the direction then the
    witnesses on their representative modes; returns the index record's
    ``modes`` and ``truncations``."""
    fields = [term.direction] + list(term.witnesses)
    keys = sp.key_union([f.keys for f in fields])[0]
    half = sp.rep_half(len(keys))
    rows = _rows(keys, fields).view(np.float64).reshape(len(fields), len(keys), 4)[:, half]
    buf = io.BytesIO()
    np.save(buf, rows.astype(_TERM_DTYPE, copy=False), allow_pickle=False)
    fieldio.atomic_write(path, buf.getvalue())
    return {"modes": keys[half].tolist(), "truncations": [f.trunc for f in fields]}


def _load_term(path, rec):
    """(direction, witnesses) of one term matrix, checked against its index record
    ``rec`` and validated as one batch; a MalformedFieldError names the file, the
    row (direction or witness n) and the mode."""
    try:
        reps = np.array(rec["modes"], dtype=np.int64).reshape(-1, 2)
        truncs = [int(t) for t in rec["truncations"]]
        if not truncs:
            raise ValueError("no direction row")
        with open(path, "rb") as fh:  # .npy only: np.load would also open an .npz archive
            rows = np.lib.format.read_array(fh, allow_pickle=False)
        shape = (len(truncs), len(reps), 4)
        if rows.dtype != _TERM_DTYPE or rows.shape != shape:
            raise ValueError(f"{rows.dtype.str} matrix of shape {rows.shape}, expected "
                             f"{_TERM_DTYPE.str} of shape {shape}")
        coeffs = rows.view(np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise fieldio.FieldFormatError(f"{path}: malformed expansion term file ({exc})") from exc
    try:
        keys, coeffs = sp.conj_closure(reps, coeffs)
    except sp.MalformedFieldError as exc:
        raise sp.MalformedFieldError(f"{path}: {exc}") from exc
    bad = sp.first_violation(keys, coeffs, truncs)
    if bad is not None:
        row, message = bad
        where = "direction" if row == 0 else f"witness n={row}"
        raise sp.MalformedFieldError(f"{path}: {where}: {message}")
    fields = [sp.SpectralField.from_arrays(t, keys, c) for t, c in zip(truncs, coeffs)]
    return fields[0], fields[1:]


def save_expansion(path, forms, alphas):
    """Write expansion forms to ``path`` (JSON index) plus their files alongside.

    ``forms`` maps a form name ("strict", "unitary", ...) to an
    ExpansionResult. Next to ``path`` go ``<form>_limit.json`` (a field file)
    and, per term k, ``<form>_term<k>.npy``: a little-endian float64 matrix of
    shape (1 + M, modes, 4), one row per field (the direction first, then the
    witnesses), each holding ``re1, im1, re2, im2`` per representative mode.
    The term's record in ``path`` lists those modes and one truncation per row.
    """
    outdir = os.path.dirname(os.path.abspath(path))
    doc_forms = {}
    for name, e in forms.items():
        limit_file = f"{name}_limit.json"
        fieldio.write_field(os.path.join(outdir, limit_file), e.limit)
        terms = []
        for k, term in enumerate(e.terms, start=1):
            term_file = f"{name}_term{k}.npy"
            layout = _save_term(os.path.join(outdir, term_file), term)
            terms.append({
                "gammas": [float(g) for g in term.gammas],
                "file": term_file,
                **layout,
                "estimator": term.estimator,
            })
        doc_forms[name] = {
            "kind": e.kind,
            "form": e.form,
            "scale": {"regime": e.scale.regime, "exponents": list(e.scale.exponents)},
            "space": e.space,
            "degenerate_N": e.degenerate_n,
            "depth_reason": e.depth_reason,
            "limit_estimator": e.limit_estimator,
            "tolerances": {"floor": FLOOR, "finite": FINITE, "zero": ZERO, "snap": SNAP_REL,
                           "cauchy": CAUCHY, "stagnation": STAGNATION, **asdict(e.tols)},
            "limit": limit_file,
            "terms": terms,
            "decision_log": list(e.decision_log),
        }
    fieldio.write_json(path, {
        "schema": SCHEMA,
        "alphas": [float(a) for a in alphas],
        "forms": doc_forms,
    })


def _load_form(path, rec):
    base = os.path.dirname(os.path.abspath(path))
    terms = []
    for t in rec["terms"]:
        direction, witnesses = _load_term(os.path.join(base, t["file"]), t)
        terms.append(ExpansionTerm(np.array(t["gammas"], dtype=float), direction, witnesses,
                                   t["estimator"]))
    tol, scale = rec["tolerances"], NestedScale(tuple(rec["scale"]["exponents"]))
    if scale.regime != rec["scale"]["regime"]:
        raise fieldio.FieldFormatError(f"{path}: scale records regime {rec['scale']['regime']!r}, "
                                       f"but its exponents give {scale.regime!r}")
    return ExpansionResult(
        limit=fieldio.read_field(os.path.join(base, rec["limit"])), terms=terms,
        kind=rec["kind"], form=rec["form"], scale=scale,
        space=rec["space"], degenerate_n=rec["degenerate_N"], depth_reason=rec["depth_reason"],
        limit_estimator=rec["limit_estimator"],
        tols=ToleranceSet(tail=tol["tail"], kmax=tol["kmax"]),
        decision_log=list(rec.get("decision_log", [])),
    )


def load_expansion(path):
    """Read an expansion file; returns (forms dict, alphas array).

    Raises:
      fieldio.FieldFormatError: the file is not of schema ``SCHEMA`` (files
        of an earlier schema must be re-extracted), lacks a required key,
        holds no forms, or records a regime that its scale's exponents do
        not give.
    """
    doc = fieldio.read_json(path)
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != SCHEMA:
        raise fieldio.FieldFormatError(
            f"{path}: not an expansion file of schema {SCHEMA} (found schema {found!r})")
    try:
        forms = {name: _load_form(path, rec) for name, rec in doc["forms"].items()}
        alphas = np.array(doc["alphas"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise fieldio.FieldFormatError(
            f"{path}: malformed expansion file (missing or bad {exc})") from exc
    if not forms:
        raise fieldio.FieldFormatError(f"{path}: expansion file holds no forms")
    return forms, alphas
