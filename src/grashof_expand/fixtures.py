"""Closed-form oracle families used as ground truth across the test suite.

Two families:

* ``example45`` - an explicit steady family u_n = (sin y, n sum_m c_m sin(mx))
  with manufactured force F_n, known Grashof values alpha_n and a known
  two-term expansion of v_n = u_n/alpha_n in V. A window of indices is one
  array pass, self-checked at every n by one batched convolution.
* ``example314`` - v_n = e^{-n^2} sum_k e^{-kn} phi_k in H, which carries both
  a unitary expansion (directions phi_k) and a degenerate expansion (all
  directions zero). Each of its fields and witnesses is one row of a weight
  matrix on the first T Stokes eigenfunctions (``spectral.eigen_rows``),
  bit-equal to ``lin_comb`` over the eigenfunctions.

Every fixture self-checks its defining identities before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral as sp
from . import steady as st
from .expansion import ExpansionResult, ExpansionTerm, ToleranceSet, constant_scale

SQRT2PI = np.sqrt(2.0) * np.pi  # |sin(y) e1|_{L^2} on [0, 2pi]^2


class FixtureIntegrityError(RuntimeError):
    """A closed-form fixture failed its own defining identity."""


# ---------------------------------------------------------------------------
# Example family with known two-term expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example45Config:
    """Coefficients c_m: at least one, each of a distinct m >= 2, finite and nonzero.

    Raises:
      ValueError: no coefficient, an m below 2 or given twice, or a c_m that
        is zero or not finite; the message names the m.
    """

    coeffs: tuple  # ((m, c_m), ...)

    def __post_init__(self):
        pairs = tuple(sorted(((int(m), float(c)) for m, c in self.coeffs), key=lambda mc: mc[0]))
        object.__setattr__(self, "coeffs", pairs)
        if not pairs:
            raise ValueError("at least one coefficient c_m is needed")
        if pairs[0][0] < 2:
            raise ValueError(f"coefficients start at m = 2; got m = {pairs[0][0]}")
        for (m, _), (m_next, _) in zip(pairs, pairs[1:]):
            if m == m_next:
                raise ValueError(f"c_{m} is given more than once")
        for m, c in pairs:
            if not np.isfinite(c) or c == 0.0:
                raise ValueError(f"c_{m} = {c!r} must be finite and nonzero")

    @classmethod
    def single(cls, m=2, c=1.0):
        return cls(coeffs=((m, c),))


def cstar(cfg):
    """c_* = sqrt(sum m^4 c_m^2 + (1/2) sum c_m^2 (m^2-1)^2 / (m^2+1))."""
    total = 0.0
    for m, c in cfg.coeffs:
        total += m**4 * c * c + 0.5 * c * c * (m * m - 1.0) ** 2 / (m * m + 1.0)
    return float(np.sqrt(total))


def example45_alpha(cfg, n):
    """alpha_n = |f_n| = sqrt(2) pi sqrt(1 + c_*^2 n^2), for an index n or an array of them."""
    cs = cstar(cfg)
    return SQRT2PI * np.sqrt(1.0 + cs * cs * n * n)


def _sin_rows(cfg, amps, force=False, shear=True):
    """Representatives, in increasing order, and the imaginary parts (B, R, 2)
    of their coefficients, for each amplitude A of ``amps`` (B,), of

        shear sin(y) e1 + sum_m (0, A c_m sin(mx)),

    or with ``force`` of the unprojected force

        shear sin(y) e1 + sum_m (0, A m^2 c_m sin(mx))
                        + A sum_m c_m (sin(mx) cos y, m sin y cos(mx)).

    The real parts are zero. Each entry is the product or quotient of the
    closed form in its order of operations (A c_m, then / 4, then times +-m).
    """
    ms = np.array([m for m, _ in cfg.coeffs])
    cs = np.array([c for _, c in cfg.coeffs])
    amps = np.asarray(amps).reshape(-1, 1)
    zero = np.zeros((len(amps), len(ms)))
    if force:
        q = -(amps * cs) / 4  # sin(mx) cos y and sin y cos(mx) on (m, +-1)
        per_m = ((-1, q, q * -ms), (0, zero, -(amps * ms * ms * cs) / 2), (1, q, q * ms))
    else:
        per_m = ((0, zero, -(amps * cs) / 2),)
    reps = [(0, 1)] + [(m, ky) for m in ms for ky, _, _ in per_m]
    parts = np.zeros((len(amps), len(reps), 2))
    parts[:, 0, 0] = -0.5  # sin y = (e^{iy} - e^{-iy}) / 2i
    for j, (_, first, second) in enumerate(per_m):
        parts[:, 1 + j::len(per_m), 0] = first
        parts[:, 1 + j::len(per_m), 1] = second
    reps = np.array(reps, dtype=np.int64)
    return (reps, parts) if shear else (reps[1:], parts[:, 1:])


def _imaginary(reps, parts):
    """Sorted keys closed under negation and complex rows (..., 2R, 2) with
    zero real parts, from the representatives ``reps`` and the imaginary
    parts (..., R, 2) of their coefficients; c(-k) = conj(c(k)), and a zero
    stays +0.0 on both halves."""
    keys = np.concatenate([-reps[::-1], reps])
    rows = np.zeros(parts.shape[:-2] + (len(keys), 2), dtype=np.complex128)
    rows.imag = np.concatenate([0.0 - parts[..., ::-1, :], parts], axis=-2)
    return keys, rows


def example45_big_force(cfg, n):
    """Raw Fourier data of the unprojected force F_n: (kx, ky) -> coefficient 2-vector."""
    keys, rows = _imaginary(*_sin_rows(cfg, [n], force=True))
    return dict(zip(map(tuple, keys.tolist()), rows[0]))


@dataclass(frozen=True)
class Example45Data:
    n: int
    alpha: float
    v_n: "sp.SpectralField"
    g_n: "sp.SpectralField"
    f_n: "sp.SpectralField"
    v: "sp.SpectralField"
    gamma1: float
    w1: "sp.SpectralField"
    gamma2: float
    w2: "sp.SpectralField"
    mu0: float
    cstar: float
    g: "sp.SpectralField"
    residual_h: float | None = None  # |P_2N(A v_n + alpha_n B(v_n, v_n) - g_n)|, when checked


def example45(cfg, n, check=True):
    """All closed-form pieces of the family at index n: the window of one.

    The returned record satisfies, to roundoff:
      A v_n + alpha_n B(v_n, v_n) = g_n,
      v_n = v + gamma1 w1 + gamma2 w2,   ||w1|| = ||w2|| = 1 in V.

    Raises:
      FixtureIntegrityError: a self-check identity fails at 1e-12.
    """
    return example45_window(cfg, [n], check)[0]


def check_example45(rec, steady):
    """The self-checks of ``example45``, given ``steady`` = A v_n + alpha_n
    B(v_n, v_n) - g_n, so that a caller that needs that field anyway
    (``example45_window`` records its norm) computes B(v_n, v_n) once.

    Raises:
      FixtureIntegrityError: ``steady`` or v + gamma1 w1 + gamma2 w2 - v_n
      is not within 1e-12 relative (a NaN norm fails).
    """
    if not sp.norm_ds(steady, 0) <= 1e-12 * sp.norm_ds(rec.g_n, 0):
        raise FixtureIntegrityError(f"steady equation residual too large at n={rec.n}")
    recon = sp.lin_comb([1.0, rec.gamma1, rec.gamma2, -1.0], [rec.v, rec.w1, rec.w2, rec.v_n])
    if not sp.norm_ds(recon, 0.5) <= 1e-12 * sp.norm_ds(rec.v_n, 0.5):
        raise FixtureIntegrityError(f"expansion reconstruction failed at n={rec.n}")


def example45_window(cfg, n_values, check=True):
    """Fixture records for the indices ``n_values``, built in one array pass.

    The pieces that do not depend on n (v, w1, w2, g) are built once; v_n,
    f_n and g_n of every n are coefficient rows on one key set each. With
    ``check`` every record passes ``check_example45`` on its Galerkin residual
    at radius 2N, formed by ``steady.residual`` from one batched convolution
    of all the v_n, and carries that residual's H norm in ``residual_h``.

    Raises:
      FixtureIntegrityError: a self-check fails; the message names its n.
    """
    ns = np.array([int(n) for n in n_values], dtype=np.int64)
    cs = cstar(cfg)
    mu0 = 1.0 / (SQRT2PI * cs)
    trunc = cfg.coeffs[-1][0]
    alphas = example45_alpha(cfg, ns)
    scale = (1.0 / alphas)[:, None, None]

    skeys, srows = _imaginary(*_sin_rows(cfg, [1], shear=False))
    s_field = sp.SpectralField.from_arrays(trunc, skeys, srows[0])
    v = mu0 * s_field
    w1 = (1.0 / SQRT2PI) * sp.SpectralField.from_arrays(
        1, *_imaginary(np.array([[0, 1]]), np.array([[-0.5, 0.0]])))
    w2tilde = -1.0 * s_field
    w2_norm = sp.norm_ds(w2tilde, 0.5)
    w2 = (1.0 / w2_norm) * w2tilde
    gamma1 = SQRT2PI / alphas
    gamma2 = w2_norm / (cs * cs * alphas * (mu0 * alphas + ns))
    gkeys, grows = _imaginary(*_sin_rows(cfg, [mu0], force=True, shear=False))
    g = sp.SpectralField.from_arrays(trunc, gkeys, sp.divfree(gkeys, grows)[0])

    ukeys, urows = _imaginary(*_sin_rows(cfg, ns))
    fkeys, frows = _imaginary(*_sin_rows(cfg, ns, force=True))
    frows = sp.divfree(fkeys, frows)
    fields = [[sp.SpectralField.from_arrays(trunc, keys, r) for r in rows]
              for keys, rows in ((ukeys, scale * urows), (fkeys, frows), (fkeys, scale * frows))]
    nout = 2 * trunc  # the exact radius of B(v_n, v_n)
    bvvs = sp.bilinear_b_each(fields[0], nout) if check and len(ns) else [None] * len(ns)
    out = []
    for i, (v_n, f_n, g_n, bvv) in enumerate(zip(*fields, bvvs)):
        rec = Example45Data(
            n=int(ns[i]), alpha=float(alphas[i]), v_n=v_n, g_n=g_n, f_n=f_n, v=v,
            gamma1=float(gamma1[i]), w1=w1, gamma2=float(gamma2[i]), w2=w2,
            mu0=float(mu0), cstar=float(cs), g=g,
        )
        if check:
            steady = st.residual(v_n, st.SteadyProblem(g=g_n, alpha=rec.alpha, trunc=nout), bvv)
            check_example45(rec, steady)
            rec = replace(rec, residual_h=sp.norm_ds(steady, 0))
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Dual unitary/degenerate example in H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example314Data:
    n: int
    truncation: int
    v_n: "sp.SpectralField"
    abs_v: float


def example314_abs_v(n, truncation=None):
    """|v_n| = e^{-n^2-n} (1 - e^{-2n})^{-1/2}, truncated tail included if given."""
    q = np.exp(-2.0 * n)
    top = 1.0 - q ** truncation if truncation is not None else 1.0
    return np.exp(-n * n - n) * np.sqrt(top / (1.0 - q))


def _example314_weights(n_values, truncation):
    """The weights e^{-n^2-kn}, k = 1..T, of v_n for each n of ``n_values``:
    one ``np.exp`` over the integer exponents."""
    ns = np.array([int(n) for n in n_values], dtype=np.int64).reshape(-1, 1)
    if not np.all((ns >= 1) & (ns <= 6)):
        raise ValueError("example314 is defined for 1 <= n <= 6")
    if truncation < 16:
        raise ValueError("need at least 16 eigenmodes")
    return np.exp(-ns * ns - np.arange(1, truncation + 1) * ns)


def example314(n, truncation=64):
    """v_n = e^{-n^2} sum_{k=1}^{T} e^{-kn} phi_k, T = truncation eigenmodes:
    the window of one.

    Raises:
      ValueError: n outside the double-precision guard range 1..6, or T < 16.
    """
    return example314_window([n], truncation)[0][0]


def example314_window(n_values=range(1, 7), truncation=64):
    """Records of the indices ``n_values``, every v_n from one weight matrix,
    plus the alpha_n = e^n parametrization."""
    ns = [int(n) for n in n_values]
    keys, rows, trunc = sp.eigen_rows(_example314_weights(ns, truncation))
    recs = [Example314Data(n, truncation, sp.SpectralField.from_arrays(trunc, keys, row),
                           float(example314_abs_v(n, truncation))) for n, row in zip(ns, rows)]
    return recs, [float(np.exp(n)) for n in ns]


def _analytic(name, kind, terms, keys, trunc, limit_trunc, degenerate_n):
    """The hand-built example314 expansion ``name`` in H, with its terms."""
    return ExpansionResult(
        limit=sp.zero_field(limit_trunc), terms=terms, kind=kind, form="unitary",
        scale=constant_scale(0.0, len(terms)), space=0.0, degenerate_n=degenerate_n,
        depth_reason="analytic fixture", limit_estimator="analytic", tols=ToleranceSet(),
        keys=keys, trunc=trunc, decision_log=[f"example314 {name} fixture"],
    )


def example314_unitary_expansion(n_values=range(1, 7), truncation=64, depth=6):
    """The hand-built unitary expansion: Gamma_{k,n} = e^{-kn-n^2}, w_k = phi_k.

    The witness of term k at n is sum_{j>=k} e^{-(j-k)n} phi_j; the witnesses
    of each term are the rows of one weight matrix, with weight 0 on j < k.
    """
    n_values = list(n_values)
    phis = sp.eigenfunctions(depth)
    lag = np.arange(1, truncation + 1) - np.arange(1, depth + 1)[:, None, None]  # j - k
    ns = np.array(n_values, dtype=np.int64).reshape(-1, 1)
    terms = []
    for k, w in enumerate(np.where(lag < 0, 0.0, np.exp(-lag * ns)), start=1):
        keys, rows, trunc = sp.eigen_rows(w)  # one term at a time, to bound the peak memory
        terms.append(ExpansionTerm(gammas=np.array([np.exp(-k * n - n * n) for n in n_values]),
                                   direction=phis[k - 1], witnesses=rows.reshape(len(w), -1),
                                   estimator="analytic"))
    return _analytic("unitary", "infinite-unitary", terms, keys, trunc, phis[0].trunc, None)


def example314_degenerate_expansion(n_values=range(1, 7), truncation=64, depth=6):
    """The hand-built degenerate expansion: Gamma_{k,n} = e^{-kn}, w_k = 0; the
    witnesses of term k are e^{kn} v_n."""
    n_values = list(n_values)
    keys, rows, trunc = sp.eigen_rows(_example314_weights(n_values, truncation))
    terms = [ExpansionTerm(gammas=np.array([np.exp(-k * n) for n in n_values]),
                           direction=sp.zero_field(trunc), estimator="analytic",
                           witnesses=np.exp(np.array(n_values) * k)[:, None]
                           * rows.reshape(len(n_values), -1))
             for k in range(1, depth + 1)]
    return _analytic("degenerate", "degenerate", terms, keys, trunc, trunc, 0)
