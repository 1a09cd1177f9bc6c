"""Reference implementations that only the tests compare the package against.

Each is a slow or closed-form second route to a quantity the package computes
another way: the Leray projection of raw Fourier data, the advection product at
the solver's radius, the Galerkin residual as a field, the force a given field
solves for, the unprojected example45 force, the closed-form example314 norm,
and a comparison of two expansions of one window; and the window of a sequence
of fields, which the stages read from field files instead.
"""

from dataclasses import dataclass

import numpy as np

from grashof_expand import expansion as ex
from grashof_expand import fixtures as fx
from grashof_expand import kernels
from grashof_expand import spectral as sp


def leray_project(raw, trunc=None):
    """Helmholtz-Leray projection of raw Fourier data onto divergence-free fields.

    Each mode is replaced by (I - k k^T / |k|^2) c(k); the (0,0) mode, if
    present, is dropped. Idempotent; gradient fields map to zero.

    Raises:
      MalformedFieldError: reality condition violated beyond 1e-13 relative.
    """
    keys, coeffs = sp._arrays(raw)
    if trunc is None:
        trunc = int(np.max(np.abs(keys), initial=1))
    scale = float(np.max(np.abs(coeffs), initial=0.0))
    live = np.any(keys != 0, axis=1)
    keys, coeffs = keys[live], coeffs[live]
    mismatch = np.max(np.abs(sp.gather(keys, coeffs, -keys) - np.conj(coeffs)), axis=1, initial=0.0)
    bad = mismatch > sp.REALITY_TOL * max(scale, 1e-300)
    if bad.any():
        k = tuple(keys[np.argmax(bad)].tolist())
        raise sp.MalformedFieldError(f"reality condition violated at mode {k}")
    return sp.SpectralField.from_arrays(trunc, keys, sp.divfree(keys, coeffs))


def bilinear_at(u, v, n, symmetric=False):
    """B(u, v), or B_s(u, v) = B(u, v) + B(v, u) with ``symmetric``, convolved
    at radius n: the solver's Galerkin closure of ``spectral.bilinear_b`` and
    ``bilinear_bs``, which keep every mode p + q."""
    grid = kernels.advect_convolve(u.keys, u.coeffs, v.keys, v.coeffs, n)
    if symmetric:
        grid += kernels.advect_convolve(v.keys, v.coeffs, u.keys, u.coeffs, n)
    return sp._field_from_grid(grid, n)


def residual(v, p):
    """Galerkin residual P_N(A v + alpha B(v, v) - g) at radius p.trunc, a field
    summed by ``lin_comb``; ``steady.residual`` gives its H norm to the bit."""
    av = sp.apply_fractional(v, 1.0)
    bvv = bilinear_at(v, v, p.trunc)
    return sp.project_trunc(sp.lin_comb([1.0, p.alpha, -1.0], [av, bvv, p.g]), p.trunc)


def manufactured_force(v, alpha):
    """g = A v + alpha B(v, v); residual(v, (g, alpha, N >= 2*v.trunc)) = 0 exactly."""
    return sp.lin_comb([1.0, float(alpha)], [sp.apply_fractional(v, 1.0), sp.bilinear_b(v, v)])


def example45_big_force(cfg, n):
    """Raw Fourier data of the unprojected force F_n: (kx, ky) -> coefficient 2-vector."""
    keys, rows = fx._imaginary(*fx._sin_rows(cfg, [n], force=True))
    return dict(zip(map(tuple, keys.tolist()), rows[0]))


def example314_abs_v(n, truncation=None):
    """|v_n| = e^{-n^2-n} (1 - e^{-2n})^{-1/2}, truncated tail included if given."""
    q = np.exp(-2.0 * n)
    top = 1.0 - q ** truncation if truncation is not None else 1.0
    return np.exp(-n * n - n) * np.sqrt(top / (1.0 - q))


@dataclass
class UniquenessReport:
    match: bool
    limit_diff: float
    depth_equal: bool
    gamma_diffs: list
    direction_diffs: list

    def __str__(self):
        tag = "MATCH" if self.match else "MISMATCH"
        return (
            f"[{tag}] limit diff {self.limit_diff:.3e}; depths equal: {self.depth_equal}; "
            f"max gamma rel diff {max(self.gamma_diffs, default=0.0):.3e}; "
            f"max direction diff {max(self.direction_diffs, default=0.0):.3e}"
        )


def uniqueness_check(e1, e2, tol=1e-10):
    """Compare two expansions of the same window: their limits, depths, and per
    shared level the gammas at every sample and the directions.
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
        sk = e1.scale.exponent(k + 1)
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
    )


def sequence_data(fields, alphas):
    """The ``SequenceData`` of ``fields``: their rows on the union of their keys."""
    fields = tuple(fields)  # rows_of and max each iterate it
    return ex.SequenceData(*sp.rows_of(fields), max((f.trunc for f in fields), default=1), alphas)
