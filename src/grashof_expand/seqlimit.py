"""Deterministic limit estimation for finite windows of convergent sequences.

The expansion recursion needs limits of vector sequences (the window limit and
the per-level witness limits). A fixed, documented cascade picks the estimator
from increment diagnostics, so identical inputs always take the same route:

1. ``constant``  - increments at roundoff level: take the last sample.
2. ``shanks``    - increment norms decay geometrically or faster (ratio below
                   the gate): Wynn epsilon algorithm per component, which
                   annihilates k geometric error components exactly from
                   2k+1 samples.
3. ``ls-poly``   - otherwise: least-squares polynomial in the abscissa
                   x_n = 1/alpha_n over the window, evaluated at x = 0. Least
                   squares (degree below the point count) keeps the
                   extrapolation stable against roundoff noise.

Two zero-snap rules make vanishing limits exact, which downstream projections
rely on: a component is zeroed when its estimate is negligible against its own
window magnitude, or when the component is still in geometric free fall at the
window end (magnitudes strictly decreasing, final ratio below the gate) and
the estimate agrees that the limit sits far below the last sample.
"""

from __future__ import annotations

import numpy as np

GEOMETRIC_GATE = 0.6   # increment ratio at or below which decay counts as geometric
FREEFALL_FRAC = 0.1    # free-fall snap: the estimate sits this far below the last sample
MAX_SHANKS_ORDER = 3   # deepest Shanks transform e_k
LS_DEGREE = 8          # highest degree of the least-squares polynomial
SNAP_REL = 1e-12       # zero-snap: the estimate is this small against the window magnitude


def shanks_limit(values):
    """Wynn epsilon extrapolation of a (P, d) sample matrix; returns (d,).

    Computes the Shanks transforms e_k up to k = min((P-1)//2, MAX_SHANKS_ORDER)
    and returns, per component, the deepest even-column entry whose computation
    never divided by a vanishing difference (such a component has effectively
    converged earlier, so the shallower value is already exact).
    """
    v = np.asarray(values)
    p, d = v.shape
    kmax = min((p - 1) // 2, MAX_SHANKS_ORDER)
    best = v[-1].copy()
    tainted = np.zeros(d, dtype=bool)
    col_prev = np.zeros((p + 1, d), dtype=v.dtype)  # epsilon_{-1}
    col_curr = v.astype(v.dtype)                    # epsilon_0
    for k in range(2 * kmax):
        diff = col_curr[1:] - col_curr[:-1]
        bad = np.abs(diff) <= 1e-305
        tainted |= bad.any(axis=0)
        inv = np.zeros_like(diff)
        np.divide(1.0, diff, out=inv, where=~bad)
        col_next = col_prev[1 : diff.shape[0] + 1] + inv
        col_prev, col_curr = col_curr, col_next
        if (k + 1) % 2 == 0:
            best = np.where(tainted, best, col_curr[-1])
    return best


def _ls_poly_limit(xs, values, degree):
    """Least-squares polynomial fit in x evaluated at x = 0, per component."""
    x = np.asarray(xs, dtype=np.float64)
    t = x / np.max(np.abs(x))
    vander = np.stack([t**p for p in range(degree + 1)], axis=1)
    coeff, _, _, _ = np.linalg.lstsq(vander, values, rcond=None)
    return coeff[0]


def _snap_zero(limit, values, window):
    """Zero components with negligible or free-falling estimated limits."""
    limit = limit.copy()
    mags = np.abs(values)
    maxmag = np.max(mags, axis=0)
    snap = np.abs(limit) <= SNAP_REL * maxmag
    sub = mags[-window:]
    with np.errstate(invalid="ignore", divide="ignore"):
        falling = np.all(sub[1:] < sub[:-1], axis=0)
        last_ratio = np.where(sub[-2] > 0, sub[-1] / np.where(sub[-2] > 0, sub[-2], 1.0), np.inf)
    freefall = falling & (last_ratio <= GEOMETRIC_GATE) & (
        np.abs(limit) <= FREEFALL_FRAC * sub[-1]
    )
    limit[snap | freefall] = 0.0
    return limit


def estimate_limit(values, xs, tail):
    """Estimate the limit of a sampled vector sequence.

    Args:
      values: (M, d) float or complex samples, oldest first.
      xs: (M,) positive abscissas tending to 0 (1/alpha_n).
      tail: tail length; Shanks and the free-fall snap read the last tail + 3 samples.

    Returns:
      (limit (d,), method name)
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        # Real and imaginary parts converge independently (they carry different
        # eigendirections of the same wavevector); estimate them separately.
        real_view = np.ascontiguousarray(values).view(np.float64)
        limit, method = estimate_limit(real_view, xs, tail)
        return limit.view(np.complex128), method
    m = values.shape[0]
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if m < 3 or scale == 0.0:
        return values[-1].copy() if m else values, "constant"

    window = min(m, tail + 3)
    diffs = values[1:] - values[:-1]
    dn = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=1))
    if np.all(dn <= 1e-14 * scale):
        return values[-1].copy(), "constant"

    live = dn > 1e-305
    pair = live[:-1] & live[1:]
    ratios = dn[1:][pair] / dn[:-1][pair]
    tail_ratios = ratios[-min(len(ratios), 4):] if len(ratios) else np.array([1.0])
    if len(tail_ratios) and np.max(tail_ratios) <= GEOMETRIC_GATE:
        limit = shanks_limit(values[-window:])
        method = "shanks"
    else:
        limit = _ls_poly_limit(xs, values, min(LS_DEGREE, m - 2))
        method = "ls-poly"

    return _snap_zero(limit, values, window), method
