"""Closed-form oracle families used as ground truth across the test suite.

Two families:

* ``example45`` - an explicit steady family u_n = (sin y, n sum_m c_m sin(mx))
  with manufactured force F_n, known Grashof values alpha_n and a known
  two-term expansion of v_n = u_n/alpha_n in V.
* ``example314`` - v_n = e^{-n^2} sum_k e^{-kn} phi_k in H, which carries both
  a unitary expansion (directions phi_k) and a degenerate expansion (all
  directions zero), built here term by term. Each of its fields is one row
  of a weight matrix on the first T Stokes eigenfunctions
  (``spectral.eigen_sums``), bit-equal to ``lin_comb`` over the eigenfunctions.

Every fixture self-checks its defining identities before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .expansion import ExpansionResult, ExpansionTerm, ToleranceSet, constant_scale

SQRT2PI = np.sqrt(2.0) * np.pi  # |sin(y) e1|_{L^2} on [0, 2pi]^2


class FixtureIntegrityError(RuntimeError):
    """A closed-form fixture failed its own defining identity."""


# ---------------------------------------------------------------------------
# Example family with known two-term expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example45Config:
    """Coefficients c_m (m >= 2, finitely many nonzero, not all zero)."""

    coeffs: tuple  # ((m, c_m), ...)

    def __post_init__(self):
        pairs = tuple(sorted((int(m), float(c)) for m, c in dict(self.coeffs).items()))
        object.__setattr__(self, "coeffs", pairs)
        if not pairs or all(c == 0.0 for _, c in pairs):
            raise ValueError("at least one coefficient must be nonzero")
        if any(m < 2 for m, _ in pairs):
            raise ValueError("coefficients start at m = 2")

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
    """alpha_n = |f_n| = sqrt(2) pi sqrt(1 + c_*^2 n^2)."""
    cs = cstar(cfg)
    return SQRT2PI * np.sqrt(1.0 + cs * cs * n * n)


def _sin_modes_y():
    # (sin y, 0)
    c = np.array([1.0 / 2j, 0.0j])
    return {(0, 1): c, (0, -1): np.conj(c)}


def _sin_modes_x(m, amp):
    # (0, amp sin(mx))
    c = np.array([0.0j, amp / 2j])
    return {(m, 0): c, (-m, 0): np.conj(c)}


def _cross_modes(cfg, amp):
    # amp * sum_m c_m (sin(mx) cos y, m sin y cos(mx))
    raw = {}
    for m, c in cfg.coeffs:
        if c == 0.0:
            continue
        for sx in (1, -1):
            for sy in (1, -1):
                coeff = amp * c / 4j * np.array([sx, sy * m], dtype=np.complex128)
                k = (sx * m, sy)
                raw[k] = raw.get(k, 0.0) + coeff
    return raw


def _merge(*dicts):
    out = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, np.zeros(2, dtype=np.complex128)) + c
    return out


def example45_big_force(cfg, n):
    """Raw Fourier data of the unprojected force F_n."""
    second = {}
    for m, c in cfg.coeffs:
        second = _merge(second, _sin_modes_x(m, n * m * m * c))
    return _merge(_sin_modes_y(), second, _cross_modes(cfg, float(n)))


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


def example45(cfg, n, check=True):
    """All closed-form pieces of the family at index n.

    The returned record satisfies, to roundoff:
      A v_n + alpha_n B(v_n, v_n) = g_n,
      v_n = v + gamma1 w1 + gamma2 w2,   ||w1|| = ||w2|| = 1 in V.

    Raises:
      FixtureIntegrityError: a self-check identity fails at 1e-12.
    """
    n = int(n)
    cs = cstar(cfg)
    alpha = example45_alpha(cfg, n)
    mu0 = 1.0 / (SQRT2PI * cs)

    f_n = sp.leray_project(example45_big_force(cfg, n))
    g_n = (1.0 / alpha) * f_n

    u_modes = _merge(_sin_modes_y(), *[_sin_modes_x(m, n * c) for m, c in cfg.coeffs])
    u_n = sp.SpectralField(max(m for m, _ in cfg.coeffs), u_modes, check=False)
    v_n = (1.0 / alpha) * u_n

    s_field = sp.SpectralField(
        max(m for m, _ in cfg.coeffs),
        _merge(*[_sin_modes_x(m, c) for m, c in cfg.coeffs]),
        check=False,
    )
    v = mu0 * s_field
    w1 = (1.0 / SQRT2PI) * sp.SpectralField(1, _sin_modes_y(), check=False)
    w2tilde = -1.0 * s_field
    w2_norm = sp.norm_ds(w2tilde, 0.5)
    w2 = (1.0 / w2_norm) * w2tilde
    gamma1 = SQRT2PI / alpha
    gamma2 = w2_norm / (cs * cs * alpha * (mu0 * alpha + n))

    g_raw = _merge(
        *[_sin_modes_x(m, mu0 * m * m * c) for m, c in cfg.coeffs],
        _cross_modes(cfg, mu0),
    )
    g = sp.leray_project(g_raw)

    rec = Example45Data(
        n=n, alpha=float(alpha), v_n=v_n, g_n=g_n, f_n=f_n, v=v,
        gamma1=float(gamma1), w1=w1, gamma2=float(gamma2), w2=w2,
        mu0=float(mu0), cstar=float(cs), g=g,
    )
    if check:
        check_example45(rec, sp.apply_fractional(v_n, 1.0) + alpha * sp.bilinear_b(v_n, v_n) - g_n)
    return rec


def check_example45(rec, steady):
    """The self-checks of ``example45``, given ``steady`` = A v_n + alpha_n
    B(v_n, v_n) - g_n, so that a caller that needs that field anyway (the
    CLI reports its norm) computes B(v_n, v_n) once.

    Raises:
      FixtureIntegrityError: ``steady`` or v + gamma1 w1 + gamma2 w2 - v_n
      exceeds 1e-12 relative.
    """
    if sp.norm_ds(steady, 0) > 1e-12 * sp.norm_ds(rec.g_n, 0):
        raise FixtureIntegrityError(f"steady equation residual too large at n={rec.n}")
    recon = rec.v + rec.gamma1 * rec.w1 + rec.gamma2 * rec.w2 - rec.v_n
    if sp.norm_ds(recon, 0.5) > 1e-12 * sp.norm_ds(rec.v_n, 0.5):
        raise FixtureIntegrityError(f"expansion reconstruction failed at n={rec.n}")


def example45_window(cfg, n_values, check=True):
    """Fixture records for a window of indices (checked once at the ends)."""
    n_values = list(n_values)
    out = []
    for i, n in enumerate(n_values):
        out.append(example45(cfg, n, check=check and (i == 0 or i == len(n_values) - 1)))
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


def _example314_fields(n_values, truncation):
    """v_n for each n of ``n_values`` in one array pass: the weights
    e^{-n^2-kn}, k = 1..T, are one ``np.exp`` over the integer exponents."""
    ns = np.array([int(n) for n in n_values], dtype=np.int64).reshape(-1, 1)
    if not np.all((ns >= 1) & (ns <= 6)):
        raise ValueError("example314 is defined for 1 <= n <= 6")
    if truncation < 16:
        raise ValueError("need at least 16 eigenmodes")
    return sp.eigen_sums(np.exp(-ns * ns - np.arange(1, truncation + 1) * ns))


def example314(n, truncation=64):
    """v_n = e^{-n^2} sum_{k=1}^{T} e^{-kn} phi_k, T = truncation eigenmodes.

    Raises:
      ValueError: n outside the double-precision guard range 1..6, or T < 16.
    """
    n = int(n)
    (v_n,) = _example314_fields([n], truncation)
    return Example314Data(n=n, truncation=truncation, v_n=v_n, abs_v=float(example314_abs_v(n, truncation)))


def example314_window(n_values=range(1, 7), truncation=64):
    """Window of fields plus the alpha_n = e^n parametrization."""
    recs = [example314(n, truncation) for n in n_values]
    alphas = [float(np.exp(r.n)) for r in recs]
    return recs, alphas


def example314_unitary_expansion(n_values=range(1, 7), truncation=64, depth=6):
    """The hand-built unitary expansion: Gamma_{k,n} = e^{-kn-n^2}, w_k = phi_k.

    The witness of term k at n is sum_{j>=k} e^{-(j-k)n} phi_j; the witnesses
    of each term are one weight matrix, with weight 0 on j < k.
    """
    n_values = list(n_values)
    phis = sp.eigenfunctions(depth)
    lag = np.arange(1, truncation + 1) - np.arange(1, depth + 1)[:, None, None]  # j - k
    ns = np.array(n_values, dtype=np.int64).reshape(-1, 1)
    weights = np.where(lag < 0, 0.0, np.exp(-lag * ns))
    terms = []
    for k, w in enumerate(weights, start=1):
        gammas = np.array([np.exp(-k * n - n * n) for n in n_values])
        terms.append(ExpansionTerm(gammas=gammas, direction=phis[k - 1],
                                   witnesses=sp.eigen_sums(w), estimator="analytic"))
    return ExpansionResult(
        limit=sp.zero_field(phis[0].trunc), terms=terms, kind="infinite-unitary",
        form="unitary", scale=constant_scale(0.0, depth), space=0.0, degenerate_n=None,
        depth_reason="analytic fixture", limit_estimator="analytic", tols=ToleranceSet(),
        decision_log=["example314 unitary fixture"],
    )


def example314_degenerate_expansion(n_values=range(1, 7), truncation=64, depth=6):
    """The hand-built degenerate expansion: Gamma_{k,n} = e^{-kn}, w_k = 0."""
    n_values = list(n_values)
    fields = _example314_fields(n_values, truncation)
    terms = []
    for k in range(1, depth + 1):
        gammas = np.array([np.exp(-k * n) for n in n_values])
        witnesses = [np.exp(n * k) * v_n for n, v_n in zip(n_values, fields)]
        terms.append(ExpansionTerm(gammas=gammas, direction=sp.zero_field(fields[0].trunc),
                                   witnesses=witnesses, estimator="analytic"))
    return ExpansionResult(
        limit=sp.zero_field(fields[0].trunc), terms=terms, kind="degenerate",
        form="unitary", scale=constant_scale(0.0, depth), space=0.0, degenerate_n=0,
        depth_reason="analytic fixture", limit_estimator="analytic", tols=ToleranceSet(),
        decision_log=["example314 degenerate fixture"],
    )
