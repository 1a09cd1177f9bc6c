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


def _onto(keys, rows, target):
    """Flat rows (..., 2 len(keys)) on the sorted mode list ``keys``, ``row[2 * i],
    row[2 * i + 1] = c(k_i)``, as rows on the sorted ``target`` (the rows themselves
    when the lists are equal). The one map between mode lists; a nonzero entry
    on a mode outside ``target`` is a ValueError."""
    if np.array_equal(keys, target):
        return rows
    lead = rows.shape[:-1]
    out = sp.gather(keys, rows.reshape(lead + (len(keys), 2)), target)
    if np.count_nonzero(out) != np.count_nonzero(rows):
        raise ValueError("expansion carries modes outside the data window")
    return out.reshape(lead + (2 * len(target),))


def _rows(keys, fields):
    """Coefficients of each field on the sorted mode list ``keys``, one flat row per field."""
    flat = [_onto(f.keys, f.coeffs.reshape(-1), keys) for f in fields]
    return np.array(flat, dtype=np.complex128).reshape(len(fields), 2 * len(keys))


@dataclass(frozen=True)
class SequenceData:
    """Finite sample (v_n, alpha_n), n = 1..M, of a solution sequence, flattened once.

    ``flat`` holds one row per field on the window's sorted mode list ``keys``
    (see ``_onto``), ``lam`` the eigenvalue |k|^2 of each row entry and ``trunc``
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
    """Level k: Gamma_{k,n}, the direction w_k and the witnesses w_n^{(k)}, one
    read-only flat row per sample on the expansion's mode list (see ``_onto``)."""

    gammas: np.ndarray
    direction: "sp.SpectralField"
    witnesses: np.ndarray
    estimator: str

    def __post_init__(self):
        self.witnesses = np.asarray(self.witnesses, dtype=np.complex128).view()
        self.witnesses.flags.writeable = False


@dataclass
class ExpansionResult:
    """Extracted expansion: limit, terms and per-level witnesses.

    ``kind`` is one of trivial / finite-unitary / infinite-unitary / degenerate
    / strict (the provisional tag for a depth-capped strict recursion); ``form``
    records whether gammas are residual norms ("strict") or projections onto
    unit directions ("unitary"). ``space`` is the single-space exponent of the
    unitary form (None for nested-scale results). ``keys`` is the sorted mode
    list of every witness row and ``trunc`` the witnesses' truncation.
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
    keys: np.ndarray
    trunc: int
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
        terms.append(ExpansionTerm(gammas, data.to_field(what), witnesses, wmethod))
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
        limit_estimator=vmethod, tols=tols, keys=data.keys, trunc=data.trunc, decision_log=log,
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
            terms.append(ExpansionTerm(norms, data.to_field(np.zeros_like(dhat)), unit, wmethod))
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
        terms.append(ExpansionTerm(projs, data.to_field(dhat), witnesses, wmethod))
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
        limit_estimator=strict.limit_estimator, tols=tols, keys=data.keys, trunc=data.trunc,
        decision_log=log,
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
    zero = [nu <= ZERO * max(dirnorms) for nu in dirnorms]

    if all(zero):
        terms = [replace(t, gammas=t.gammas.copy(), direction=sp.zero_field(t.direction.trunc))
                 for t in e.terms]
        return replace(e, terms=terms, kind="degenerate", form="unitary", degenerate_n=0,
                       decision_log=e.decision_log + ["restructure: all directions zero"])

    last_nonzero = max(k for k, z in enumerate(zero) if not z)
    removed = [k for k in range(last_nonzero) if zero[k]]
    kept = [k for k in range(len(e.terms)) if k not in removed]
    dirs = dict(zip(removed, _rows(e.keys, [e.terms[r].direction for r in removed])))

    new_terms = []
    for k in kept:
        t, nu = e.terms[k], dirnorms[k]
        # Fold removed earlier terms back into the witnesses so that
        # v_n = v + sum kept Gamma_j w_j + Gamma_k w_n^{(k)} stays exact.
        witnesses = t.witnesses
        for r in [r for r in removed if r < k]:
            witnesses = witnesses + (e.terms[r].gammas / t.gammas)[:, None] * dirs[r]
        t = replace(t, gammas=t.gammas.copy(), witnesses=witnesses)
        if k > last_nonzero:
            t = replace(t, direction=sp.zero_field(t.direction.trunc))
        elif abs(nu - 1.0) > 1e-13:
            t = replace(t, gammas=t.gammas * nu, direction=(1.0 / nu) * t.direction,
                        witnesses=(1.0 / nu) * witnesses)
        new_terms.append(t)

    if last_nonzero < len(e.terms) - 1:  # trailing zero directions
        kind, degenerate_n = "degenerate", len(kept) - (len(e.terms) - 1 - last_nonzero)
    else:
        degenerate_n = None
        kind = "finite-unitary" if e.kind in ("finite-unitary", "trivial") else "infinite-unitary"
    exponents = [e.scale.exponent(0)] + [e.scale.exponent(min(k + 1, e.scale.depth)) for k in kept]
    log = e.decision_log + [f"restructure: removed {len(removed)} zero term(s)"]
    return replace(e, terms=new_terms, kind=kind, form="unitary", degenerate_n=degenerate_n,
                   scale=NestedScale(tuple(exponents)), decision_log=log)


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
    wits = [term.witnesses for term in e.terms]
    if wits and not np.array_equal(e.keys, data.keys):
        wits = list(_onto(e.keys, np.stack(wits), data.keys))
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


SCHEMA = "grashof-expand/expansion-v4"
_MATRIX_DTYPE = np.dtype("<f8")


def save_expansion(path, forms, alphas):
    """Write ``forms`` (name -> ExpansionResult) as the JSON index ``path`` and one
    row matrix beside it (``expansion.npy`` for ``expansion.json``): little-endian
    float64 of shape (rows, modes, 4), each row one field's ``re1, im1, re2, im2``
    per representative mode. A form owns the rows ``[start, stop)``: its limit,
    then per term the direction and the M witnesses. The index records the
    matrix name, the modes, one truncation per row and the gates once; per form
    its row offsets, per term the gammas and estimator, and its other metadata."""
    keys = sp.key_union([k for e in forms.values() for k in [e.keys, e.limit.keys]
                         + [t.direction.keys for t in e.terms]])[0]
    blocks, truncs, doc_forms = [], [], {}
    for name, e in forms.items():
        start = len(truncs)
        limit, *dirs = _rows(keys, [e.limit] + [t.direction for t in e.terms])
        blocks.append(limit[None])
        truncs.append(e.limit.trunc)
        for term, d in zip(e.terms, dirs):
            blocks += [d[None], _onto(e.keys, term.witnesses, keys)]
            truncs += [term.direction.trunc] + [e.trunc] * len(term.witnesses)
        doc_forms[name] = {
            "kind": e.kind, "form": e.form,
            "scale": {"regime": e.scale.regime, "exponents": list(e.scale.exponents)},
            "space": e.space, "degenerate_N": e.degenerate_n, "depth_reason": e.depth_reason,
            "limit_estimator": e.limit_estimator, "tolerances": asdict(e.tols),
            "rows": [start, len(truncs)],
            "terms": [{"gammas": [float(g) for g in t.gammas], "estimator": t.estimator}
                      for t in e.terms],
            "decision_log": list(e.decision_log),
        }
    reps = np.concatenate([b[:, len(keys):] for b in blocks]).view(np.float64)  # upper half
    matrix = reps.reshape(len(truncs), -1, 4).astype(_MATRIX_DTYPE, copy=False)
    name = os.path.splitext(os.path.basename(path))[0] + ".npy"
    fieldio.atomic_write(os.path.join(os.path.dirname(os.path.abspath(path)), name),
                         lambda fh: np.lib.format.write_array(fh, matrix, allow_pickle=False))
    fieldio.write_json(path, {
        "schema": SCHEMA,
        "alphas": [float(a) for a in alphas],
        "matrix": name,
        "modes": keys[sp.rep_half(len(keys))].tolist(),
        "truncations": truncs,
        "tolerances": {"floor": FLOOR, "finite": FINITE, "zero": ZERO, "snap": SNAP_REL,
                       "cauchy": CAUCHY, "stagnation": STAGNATION},
        "forms": doc_forms,
    })


def _load_form(path, rec, keys, rows, truncs, m):
    """ExpansionResult of the form record ``rec`` of the index ``path``, on the
    validated matrix ``rows`` (rows, len(keys), 2) of M = ``m`` samples."""
    start, stop = rec["rows"]
    heads = range(start + 1, stop, 1 + m)  # the direction rows
    limit, *dirs = [sp.SpectralField.from_arrays(truncs[r], keys, rows[r]) for r in [start, *heads]]
    terms = [ExpansionTerm(np.array(t["gammas"], dtype=float), d,
                           rows[h + 1:h + 1 + m].reshape(m, -1), t["estimator"])
             for t, d, h in zip(rec["terms"], dirs, heads)]
    scale = NestedScale(tuple(rec["scale"]["exponents"]))
    if scale.regime != rec["scale"]["regime"]:
        raise fieldio.FieldFormatError(f"{path}: scale records regime {rec['scale']['regime']!r}, "
                                       f"but its exponents give {scale.regime!r}")
    return ExpansionResult(
        limit=limit, terms=terms, kind=rec["kind"], form=rec["form"], scale=scale,
        space=rec["space"], degenerate_n=rec["degenerate_N"], depth_reason=rec["depth_reason"],
        limit_estimator=rec["limit_estimator"],
        tols=ToleranceSet(tail=rec["tolerances"]["tail"], kmax=rec["tolerances"]["kmax"]),
        keys=keys, trunc=max((truncs[r] for r in range(start + 1, stop) if r not in heads),
                             default=truncs[start]),
        decision_log=list(rec.get("decision_log", [])),
    )


def load_expansion(path):
    """Read an expansion index and its row matrix; returns (forms dict, alphas array).
    The matrix is validated once; every witness row is a read-only view of it.

    Raises:
      fieldio.FieldFormatError: not of schema ``SCHEMA`` (earlier schemas must be
        re-extracted), a missing key, no forms, row offsets that do not tile the
        matrix, a regime its exponents do not give, or a matrix of wrong dtype or shape.
      sp.MalformedFieldError: a matrix row breaks a field invariant; the message
        names the matrix, the form, the row (limit, or term k's direction or
        witness n) and the mode.
    """
    doc = fieldio.read_json(path)
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != SCHEMA:
        raise fieldio.FieldFormatError(
            f"{path}: not an expansion file of schema {SCHEMA} (found schema {found!r})")
    try:
        recs, alphas = doc["forms"], np.array(doc["alphas"], dtype=float)
        matrix = os.path.join(os.path.dirname(os.path.abspath(path)), doc["matrix"])
        reps = np.array(doc["modes"], dtype=np.int64).reshape(-1, 2)
        truncs = [int(t) for t in doc["truncations"]]
        m = len(alphas)
        bounds = list(accumulate((1 + len(r["terms"]) * (1 + m) for r in recs.values()), initial=0))
        offsets = [r["rows"] for r in recs.values()]
    except (KeyError, TypeError, ValueError) as exc:
        raise fieldio.FieldFormatError(
            f"{path}: malformed expansion file (missing or bad {exc})") from exc
    if not recs:
        raise fieldio.FieldFormatError(f"{path}: expansion file holds no forms")
    if offsets != [list(b) for b in zip(bounds, bounds[1:])] or bounds[-1] != len(truncs):
        raise fieldio.FieldFormatError(
            f"{path}: form row offsets {offsets} do not tile the {len(truncs)} matrix rows")
    try:
        with open(matrix, "rb") as fh:  # .npy only: np.load would also open an .npz archive
            rows = np.lib.format.read_array(fh, allow_pickle=False)
        if rows.dtype != _MATRIX_DTYPE or rows.shape != (len(truncs), len(reps), 4):
            raise ValueError(f"{rows.dtype.str} matrix of shape {rows.shape}, expected "
                             f"{_MATRIX_DTYPE.str} of shape {(len(truncs), len(reps), 4)}")
    except ValueError as exc:
        raise fieldio.FieldFormatError(f"{matrix}: malformed expansion matrix ({exc})") from exc
    try:  # rebinding ``rows`` frees the file's half-matrix
        keys, rows = sp.conj_closure(reps, rows.view(np.complex128))
    except sp.MalformedFieldError as exc:
        raise sp.MalformedFieldError(f"{path}: {exc}") from exc
    bad = sp.first_violation(keys, rows, truncs)
    if bad is not None:
        i = int(np.searchsorted(bounds, bad[0], side="right")) - 1
        k, n = divmod(bad[0] - bounds[i] - 1, 1 + m)
        part = "limit" if k < 0 else f"term {k + 1}: " + (f"witness n={n}" if n else "direction")
        raise sp.MalformedFieldError(f"{matrix}: form {list(recs)[i]}: {part}: {bad[1]}")
    rows.flags.writeable = False
    try:
        forms = {name: _load_form(path, rec, keys, rows, truncs, m) for name, rec in recs.items()}
    except (KeyError, TypeError) as exc:
        raise fieldio.FieldFormatError(
            f"{path}: malformed expansion file (missing or bad {exc})") from exc
    return forms, alphas
