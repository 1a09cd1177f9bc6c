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
partial sums; verification re-checks every expansion axiom on the raw window and
is the one definition of a level: both extractions keep the levels it accepts and
apply no convergence gate of their own. It walks the levels once, forming each
partial sum v + sum_{j<k} Gamma_{j,n} w_j a single time, and the report's
remainder ratios come from the same walk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import fieldio
from . import spectral as sp
from .seqlimit import SNAP_REL, estimate_limit

TWO_PI = sp.TWO_PI
RECON_TOL = 1e-12  # verify: reconstruction error relative to the window's Z_0 scale
FLOOR = 1e-9       # relative Gamma floor vs the window Z_0 scale
FINITE = 1e-10     # witness stabilization threshold (finite kind)
ZERO = 1e-10       # zero-direction threshold (relative to the largest in restructure)


class NotConvergentError(RuntimeError):
    """Level 1 of the expansion fails verification, or a level's residual
    vanishes at some samples but not at all of them."""


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
    when the lists are equal): the map of a row matrix between mode lists. A nonzero
    entry on a mode outside ``target`` is a ValueError."""
    if np.array_equal(keys, target):
        return rows
    lead = rows.shape[:-1]
    out = sp.gather(keys, rows.reshape(lead + (len(keys), 2)), target)
    if np.count_nonzero(out) != np.count_nonzero(rows):
        raise ValueError("expansion carries modes outside the data window")
    return out.reshape(lead + (2 * len(target),))


def _rows(keys, fields):
    """Coefficients of each field on the sorted mode list ``keys``, one flat row per field."""
    union, rows = sp.rows_of(fields, keys)
    if len(union) != len(keys):
        raise ValueError("expansion carries modes outside the data window")
    return rows.reshape(len(rows), 2 * len(keys))


def check_alphas(alphas):
    """The window's rule: alphas positive, finite and strictly increasing, else a ValueError."""
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if not np.isfinite(alphas).all():  # JSON reads 1e400 as infinity
        raise ValueError("alphas must be finite")
    for n, (a, b) in enumerate(zip(alphas, alphas[1:]), start=2):
        if not b > a:
            raise ValueError(f"alphas must be strictly increasing: sample {n} has "
                             f"alpha {b!r} after {a!r}")


class SequenceData:
    """Finite sample (v_n, alpha_n), n = 1..M, of a solution sequence as one row matrix.

    ``flat`` views ``rows`` (M, len(keys), 2) read-only, one row per sample on the
    sorted mode list ``keys`` (see ``_onto``), ``lam`` the eigenvalue |k|^2 of each
    row entry and ``trunc`` the largest truncation. The alphas follow
    ``check_alphas``.
    """

    def __init__(self, keys, rows, trunc, alphas):
        self.alphas = tuple(float(a) for a in alphas)
        if len(rows) != len(self.alphas):
            raise ValueError("fields and alphas must have equal length")
        check_alphas(self.alphas)
        self.keys, self.trunc = keys, int(trunc)
        self.flat = rows.reshape(len(rows), 2 * len(keys))  # a new array: ``rows`` stays writeable
        self.flat.flags.writeable = False
        self.lam = np.repeat(np.sum(keys * keys, axis=1), 2).astype(float)

    def __len__(self):
        return len(self.flat)

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


def _tail(m):
    """The last ceil(M/3) samples of an M-sample window: the estimators' and checks' tail."""
    return int(np.ceil(m / 3))


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
    unit directions ("unitary"). ``scale``, the one setting, caps the depth and
    gives level k its space (a unitary form's scale is constant). ``keys`` is
    the sorted mode list of every witness row and ``trunc`` the witnesses' truncation.
    """

    limit: "sp.SpectralField"
    terms: list
    kind: str
    form: str
    scale: NestedScale
    degenerate_n: int | None
    depth_reason: str
    limit_estimator: str
    keys: np.ndarray
    trunc: int
    decision_log: list = field(default_factory=list)

    @property
    def depth(self):
        return len(self.terms)


# ---------------------------------------------------------------------------
# Strict extraction (nested-scale recursion)
# ---------------------------------------------------------------------------


def extract_strict(data, scale):
    """Constructive strict-expansion recursion on a finite sample window.

    At level k the coefficient Gamma_{k,n} is the Z_{k-1} norm of the residual
    r_n = v_n - v - sum_{j<k} Gamma_{j,n} w_j, the witness is r_n / Gamma_{k,n}
    (unit in Z_{k-1}) and the direction w_k is the estimated Z_k-limit of the
    witnesses. Recursion ends on witness stabilization (finite kind), on the
    Gamma floor, or at ``scale.depth`` levels; ``_verified_prefix`` then cuts it
    to the levels that ``verify_expansion`` accepts. The recursion has no gate
    of its own: ``verify_expansion`` alone decides whether the window converges.

    Raises:
      NotConvergentError: level 1 fails verification, or a level's residual
        vanishes at some samples only.
    """
    if len(data) < 6:
        raise ValueError("extraction window must contain at least 6 samples")
    xs = 1.0 / np.array(data.alphas)
    t = _tail(len(data))
    s0 = scale.exponent(0)

    vhat, vmethod = estimate_limit(data.flat, xs, t)
    vhat = data.divfree(vhat)
    log = [f"limit estimator: {vmethod}"]
    scale0 = float(np.max(data.norms(data.flat, s0)))
    floor_abs = FLOOR * max(scale0, 1e-300)

    resid = data.flat - vhat
    terms = []
    kind, reason = "strict", f"depth cap {scale.depth}"
    for k in range(1, scale.depth + 1):
        gammas = data.norms(resid, scale.exponent(k - 1))
        if np.max(gammas) <= floor_abs:  # at level 1 no term is kept: trivial kind
            reason = "constant window" if k == 1 else f"gamma floor at level {k}"
            break
        if np.min(gammas) <= 0.0:
            n = int(np.argmax(gammas <= 0.0))
            raise NotConvergentError(f"level-{k} residual vanishes for some n but not all: "
                                     f"first at sample {n + 1} (alpha {data.alphas[n]!r})")
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
    return _verified_prefix(ExpansionResult(
        limit=data.to_field(vhat), terms=terms,
        kind="trivial" if not terms else kind, form="strict",
        scale=scale, degenerate_n=None, depth_reason=reason,
        limit_estimator=vmethod, keys=data.keys, trunc=data.trunc, decision_log=log,
    ), data)


# ---------------------------------------------------------------------------
# Single-space unitary refinement (projection peeling)
# ---------------------------------------------------------------------------


def refine_unitary(strict, data):
    """Unitary (or degenerate) expansion in one space D(A^s), s the exponent of a
    constant ``strict.scale``, else 1/2 (V).

    Reuses the strict result's window limit (and its log line), then peels one
    direction per level: the direction is the normalized witness limit in
    D(A^s) and Gamma_{k,n} is the projection of the level residual onto it.
    Witnesses are residual/Gamma, so the reconstruction identity is exact by
    construction; they converge to the direction but are not unit vectors.
    Peeling ends on the Gamma floor, an exact reconstruction, a zero direction
    (degenerate), a non-positive projection, stabilized witnesses (finite) or at
    the scale's depth, whatever the strict form kept; ``_verified_prefix`` then
    cuts it like the strict form (NotConvergentError if level 1 fails).
    """
    xs = 1.0 / np.array(data.alphas)
    t = _tail(len(data))
    kmax = strict.scale.depth
    s = strict.scale.exponent(0) if strict.scale.regime == "constant" else 0.5
    vhat = _rows(data.keys, [strict.limit])[0]

    scale0 = float(np.max(data.norms(data.flat, s)))
    floor_abs = FLOOR * max(scale0, 1e-300)
    resid = data.flat - vhat
    terms = []
    kind = "infinite-unitary"
    degenerate_n = None
    reason = f"depth cap {kmax}"
    log = [f"limit estimator: {strict.limit_estimator}", f"unitary refinement in D(A^{s})"]
    for k in range(1, kmax + 1):
        norms = data.norms(resid, s)
        if np.max(norms) <= floor_abs:  # at level 1 no term is kept: trivial kind
            reason = "constant window" if k == 1 else f"gamma floor at level {k}"
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
    return _verified_prefix(ExpansionResult(
        limit=strict.limit, terms=terms, kind="trivial" if not terms else kind,
        form="unitary", scale=constant_scale(s, kmax), degenerate_n=degenerate_n,
        depth_reason=reason, limit_estimator=strict.limit_estimator, keys=data.keys,
        trunc=data.trunc, decision_log=log,
    ), data)


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

    dirnorms = [sp.norm_ds(t.direction, e.scale.exponent(k + 1)) for k, t in enumerate(e.terms)]
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
    exponents = [e.scale.exponent(0)] + [e.scale.exponent(k + 1) for k in kept]
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
    level: int | None = None  # lowest level a failing check reads


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


def _walk(e, data):
    """One pass over the levels k of ``e`` on ``data``'s window, each partial sum P_{k-1} =
    v + sum_{j<k} Gamma_{j,n} w_j formed once: lists per level of the reconstruction error
    (of v alone for a termless form), remainder ratio, witness convergence, unit error of
    the direction and (strict form) witnesses, and past a degenerate kind's n0 the ratio
    ||v_n - P_{n0}|| / Gamma_{k,n} with whether w_k = 0. A ValueError for another window."""
    wits = [term.witnesses for term in e.terms]
    if wits and not np.array_equal(e.keys, data.keys):
        wits = list(_onto(e.keys, np.stack(wits), data.keys))
    limit, *dirs = _rows(data.keys, [e.limit] + [term.direction for term in e.terms])
    if any(len(term.gammas) != len(data) for term in e.terms):
        raise ValueError(f"expansion window length differs from the {len(data)}-sample data window")
    s0, n0 = e.scale.exponent(0), e.degenerate_n or 0
    scale0 = float(np.max(data.norms(data.flat, s0)))
    walk = {key: [] for key in ("recon", "ratio", "conv", "unit", "wunit", "degen")}
    partial, prev = np.repeat(limit[None], len(data), axis=0), np.ones(len(data))
    for k, (g, d, w) in enumerate(zip((term.gammas for term in e.terms), dirs, wits), start=1):
        sk, rem = e.scale.exponent(k), data.flat - partial
        walk["recon"].append(float(np.max(data.norms(partial + g[:, None] * w - data.flat, s0)))
                             / scale0)
        walk["ratio"].append(data.norms(rem, sk) / prev)
        walk["conv"].append(data.norms(w - d, sk))
        walk["unit"].append(abs(float(data.norms(d, sk)) - 1.0))
        if e.form == "strict":  # its witnesses are unit in Z_{k-1}
            wnorms = data.norms(w, e.scale.exponent(k - 1))
            walk["wunit"].append(float(np.max(np.abs(wnorms - 1.0))))
        if e.kind == "degenerate" and k > n0:
            base = rem if k - 1 == n0 else base  # v_n - P_{n0}
            walk["degen"].append((data.norms(base, sk) / g, bool(np.all(d == 0))))
        partial, prev = partial + g[:, None] * d[None, :], g
    if not e.terms:
        walk["recon"].append(float(np.max(data.norms(partial - data.flat, s0))) / scale0)
    return walk


def remainder_ratios(e, data):
    """(depth x M) remainder ratios of ``e`` on ``data``'s window, read off ``_walk``: row
    k-1 holds ||v_n - v - sum_{j<k} Gamma_{j,n} w_j|| / Gamma_{k-1,n} (Gamma_0 = 1) in the
    level-k space. A ValueError for an expansion of another window."""
    return np.array(_walk(e, data)["ratio"]).reshape(e.depth, len(data))


def verify_expansion(e, data):
    """Per-axiom verification report of an expansion against its raw window, every
    check read off the one pass over its levels (``_walk``)."""
    t = _tail(len(data))
    walk = _walk(e, data)
    # Reconstruction identity at every recorded level (of v_n = v alone for a termless
    # form); it fails at the first level whose error exceeds RECON_TOL.
    errs = walk["recon"]
    bad = next((k for k, err in enumerate(errs, start=1) if not err <= RECON_TOL), None)
    checks = [CheckResult("reconstruction", bad is None, max(errs), level=bad)]

    if e.terms:
        gammas = [np.ones(len(data))] + [term.gammas for term in e.terms]
        for k in range(1, len(gammas)):  # Gamma_1 decays, then each Gamma_k / Gamma_{k-1}
            r = gammas[k] / gammas[k - 1]
            ok, _ = _tail_decreasing(r, t)
            name = "gamma1-decay" if k == 1 else f"ratio-decay-k{k - 1}"
            worst = r[-1] / r[0] if k == 1 else r[-1]
            checks.append(CheckResult(name, ok and r[-1] < r[0], float(worst), level=k))

        for k, conv in enumerate(walk["conv"], start=1):
            ok, _ = _tail_decreasing(conv, t, slack=1e-9)
            stabilized = bool(np.all(conv[-(t + 1):] <= FINITE))
            checks.append(CheckResult(f"witness-convergence-k{k}", ok or stabilized,
                                      float(conv[-1]), "stabilized" if stabilized and not ok else "",
                                      k))

        if e.form == "strict":
            errs = walk["wunit"]
            name, tol, worst = "unit-witnesses", 1e-13, max(errs)
        else:
            errs = walk["unit"][:e.degenerate_n]  # every level when degenerate_n is None
            name, tol, worst = "unit-directions", 1e-12, max([0.0, *errs])
        checks.append(CheckResult(name, worst <= tol, worst, level=next(
            (k for k, err in enumerate(errs, start=1) if not err <= tol), None)))

        # Remainder-ratio profile over the last half of the window.
        # Levels whose remainders reach the float reconstruction floor count
        # as converged to roundoff; the trend is meaningless below it.
        half = max(2, len(data) // 2)
        worst, worstnote, first = 0.0, "", None
        for k, ratio in enumerate(walk["ratio"], start=1):
            if np.any(ratio[-(half - 1):] <= 1e-13 * np.max(ratio)):
                continue
            dec, bad = _tail_decreasing(ratio, half - 1)
            if not dec:
                first = first or k
                worst = max(worst, bad)
                worstnote = f"level {k}"
        checks.append(CheckResult("remainder-ratio", first is None, worst, worstnote, first))

    if e.kind == "degenerate" and e.terms:
        n0 = e.degenerate_n or 0
        worst = max([0.0, *walk["unit"][:n0]])
        tail_ok = all(zero for _, zero in walk["degen"])
        checks.append(CheckResult("degenerate-pattern", worst <= 1e-12 and tail_ok, worst,
                                  level=n0 + 1))
        # Degenerate remainders: ||R_{N,n}|| / Gamma_{m+1,n} = ||w_n^{(m+1)}|| -> 0.
        ratios = [ratio for ratio, _ in walk["degen"]]
        ok = all(_tail_decreasing(ratio, t, slack=1e-9)[0] for ratio in ratios)
        worst = max([0.0, *(float(ratio[-1]) for ratio in ratios)])
        checks.append(CheckResult("degenerate-remainders", ok, worst, level=n0 + 1))

    return VerificationReport(checks)


def _verified_prefix(e, data):
    """``e`` cut to the longest prefix of its levels that ``verify_expansion`` accepts:
    while a check fails, the levels from the lowest failing level k on go, and
    ``depth_reason`` and the log read "level k fails <axiom>, ...". A cut drops any
    stabilized or zero-direction level, so the kind becomes strict or infinite-unitary.
    If level 1 fails, raises NotConvergentError naming the failing checks."""
    while True:
        fails = verify_expansion(e, data).failures()
        if not fails:
            return e
        k = min(c.level for c in fails)
        reason = f"level {k} fails " + ", ".join(c.axiom for c in fails if c.level == k)
        if k == 1:
            raise NotConvergentError(f"{e.form} expansion: {reason}")
        e = replace(e, terms=e.terms[:k - 1], degenerate_n=None, depth_reason=reason,
                    kind="strict" if e.form == "strict" else "infinite-unitary",
                    decision_log=e.decision_log + [reason])


# ---------------------------------------------------------------------------
# Expansion result files
# ---------------------------------------------------------------------------


SCHEMA = "grashof-expand/expansion-v5"
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
            "degenerate_N": e.degenerate_n, "depth_reason": e.depth_reason,
            "limit_estimator": e.limit_estimator,
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
        "tolerances": {"floor": FLOOR, "finite": FINITE, "zero": ZERO, "snap": SNAP_REL},
        "forms": doc_forms,
    })


def _load_form(path, name, rec, keys, rows, truncs, m):
    """ExpansionResult of the form ``name``, record ``rec``, of the index ``path``,
    on the validated matrix ``rows`` (rows, len(keys), 2) of M = ``m`` samples."""
    start, stop = rec["rows"]
    for key, allowed in (("form", ("strict", "unitary")), ("kind", (
            "trivial", "finite-unitary", "infinite-unitary", "degenerate", "strict"))):
        if rec[key] not in allowed:  # each steers verify_expansion
            raise fieldio.FieldFormatError(
                f"{path}: form {name}: {key!r} is not one of {', '.join(allowed)}")
    heads = range(start + 1, stop, 1 + m)  # the direction rows
    limit, *dirs = [sp.SpectralField.from_arrays(truncs[r], keys, rows[r]) for r in [start, *heads]]
    what, terms = f"'degenerate_N' is not null or an int in [0, {len(rec['terms'])})", []
    try:  # fieldio.numbers' rule, under this reader's messages
        if rec["degenerate_N"] is not None:  # .item() refuses [] too
            if not 0 <= fieldio.numbers(rec["degenerate_N"], what, True).item() < len(rec["terms"]):
                raise ValueError(what)  # the index of the first zero direction
        for k, (t, d, h) in enumerate(zip(rec["terms"], dirs, heads), start=1):
            what = f"term {k}: 'gammas' is not a list of {m} positive finite numbers"
            g = fieldio.numbers(t["gammas"], what, ndim=1)  # a subnormal Gamma overflows 1/Gamma
            if g.shape != (m,) or not (np.isfinite(g) & (g >= np.finfo(float).tiny)).all():
                raise ValueError(what)
            terms.append(ExpansionTerm(g, d, rows[h + 1:h + 1 + m].reshape(m, -1), t["estimator"]))
    except ValueError:
        raise fieldio.FieldFormatError(f"{path}: form {name}: {what}") from None
    try:
        scale = NestedScale(tuple(fieldio.numbers(rec["scale"]["exponents"], "'exponents'",
                                                  ndim=1).tolist()))
    except ValueError as exc:
        raise fieldio.FieldFormatError(f"{path}: form {name}: bad scale ({exc})") from exc
    if scale.regime != rec["scale"]["regime"]:
        raise fieldio.FieldFormatError(f"{path}: scale records regime {rec['scale']['regime']!r}, "
                                       f"but its exponents give {scale.regime!r}")
    if scale.depth < len(terms):  # each level k reads its exponent s_k
        raise fieldio.FieldFormatError(f"{path}: form {name}: scale of depth {scale.depth} is "
                                       f"shorter than its {len(terms)} terms")
    return ExpansionResult(
        limit=limit, terms=terms, kind=rec["kind"], form=rec["form"], scale=scale,
        degenerate_n=rec["degenerate_N"], depth_reason=rec["depth_reason"],
        limit_estimator=rec["limit_estimator"], keys=keys,
        trunc=max((truncs[r] for r in range(start + 1, stop) if r not in heads),
                  default=truncs[start]),
        decision_log=list(rec.get("decision_log", [])),
    )


def load_expansion(path):
    """Read an expansion index and its row matrix; returns (forms dict, alphas array).
    The matrix is closed under conjugation and its representative half validated
    once; every witness row is a read-only view of it.

    Raises:
      fieldio.FieldFormatError: not of schema ``SCHEMA`` (earlier schemas must be
        re-extracted), a missing key, no forms object, offsets that do not tile the
        matrix, alphas that break ``check_alphas``, a ``form`` or ``kind`` of no
        known name, gammas not M positive finite numbers, a ``degenerate_N`` not null
        or a term's index from 0, exponents that make no scale, not the recorded
        regime or fewer levels than terms, or a bad matrix.
      sp.MalformedFieldError: a matrix row breaks a field invariant; the message
        names the matrix, the form, the row (limit, or term k's direction or
        witness n) and the mode.
    """
    doc = fieldio.read_json(path)
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != SCHEMA:
        raise fieldio.FieldFormatError(
            f"{path}: not an expansion file of schema {SCHEMA} (found schema {found!r})")
    if not isinstance(doc.get("forms"), dict) or not doc["forms"]:
        raise fieldio.FieldFormatError(
            f"{path}: expansion file holds no forms: 'forms' is no nonempty object")
    try:
        recs, alphas = doc["forms"], fieldio.numbers(doc["alphas"], "'alphas'", ndim=1)
        matrix = os.path.join(os.path.dirname(os.path.abspath(path)), doc["matrix"])
        reps = fieldio.numbers(doc["modes"], "'modes'", True, 2).reshape(-1, 2)
        truncs = fieldio.numbers(doc["truncations"], "'truncations'", True, 1).tolist()
        m = len(alphas)
        bounds = list(accumulate((1 + len(r["terms"]) * (1 + m) for r in recs.values()), initial=0))
        offsets = [r["rows"] for r in recs.values()]
    except (KeyError, TypeError, ValueError) as exc:
        raise fieldio.FieldFormatError(
            f"{path}: malformed expansion file (missing or bad {exc})") from exc
    try:
        check_alphas(alphas.tolist())
    except ValueError as exc:
        raise fieldio.FieldFormatError(f"{path}: {exc}") from None
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
    bad = sp.first_violation(reps, rows[:, len(reps):], truncs, representatives=True)
    if bad is not None:
        i = int(np.searchsorted(bounds, bad[0], side="right")) - 1
        k, n = divmod(bad[0] - bounds[i] - 1, 1 + m)
        part = "limit" if k < 0 else f"term {k + 1}: " + (f"witness n={n}" if n else "direction")
        raise sp.MalformedFieldError(f"{matrix}: form {list(recs)[i]}: {part}: {bad[1]}")
    rows.flags.writeable = False
    try:
        forms = {name: _load_form(path, name, rec, keys, rows, truncs, m)
                 for name, rec in recs.items()}
    except (KeyError, TypeError) as exc:
        raise fieldio.FieldFormatError(
            f"{path}: malformed expansion file (missing or bad {exc})") from exc
    return forms, alphas
