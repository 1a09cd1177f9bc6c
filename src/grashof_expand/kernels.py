"""Hot numeric kernels for the spectral advection term, in plain numpy.

The exact Fourier convolution of (u.grad)v is the innermost loop of the whole
package, and the dense Newton linearization the innermost step of every steady
solve. Each is one numpy path over blocks of u modes or of columns; the tests
check them against a per-mode loop and ``steady._linearized_matrix_fields``.
Time the README sweep, which spends most of its time here, with

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 15 --trace 0

and pass ``--trace 1`` for the time spent in each kernel.
"""

from __future__ import annotations

import numpy as np

_PAIR_BUDGET = 4096  # (p, q) pairs held at once; all of them at N = 16 are over a million
_COLUMN_BLOCK = 8  # wider blocks hold more than 1.5x the Jacobian's memory at N = 8


def advect_convolve(ku, cu, kv, cv, nout):
    """Exact convolution of (u.grad)v on a dense coefficient grid.

    Args:
      ku: int64 array (Mu, 2), wavevectors of u.
      cu: complex128 array (Mu, 2), coefficients of u.
      kv, cv: same for v.
      nout: output truncation radius (max-norm).

    Returns:
      complex128 array (2*nout+1, 2*nout+1, 2); entry [kx+nout, ky+nout]
      holds the coefficient of e^{i k.x} for w[k] = sum_{p+q=k} i (u_p . q) v_q.
    """
    size = 2 * nout + 1
    reals = np.zeros(4 * size * size)  # per cell (kx, ky): 2 complex components
    block = max(1, _PAIR_BUDGET // max(len(kv), 1))
    for start in range(0, len(ku), block):
        kx = ku[start:start + block, 0, None] + kv[:, 0]
        ky = ku[start:start + block, 1, None] + kv[:, 1]
        # Pairs in (p, q) order: np.add.at sums every cell's terms in that order,
        # so the sum is the same to the bit for any block size.
        p, q = np.nonzero((np.abs(kx) <= nout) & (np.abs(ky) <= nout))
        cells = 4 * ((kx[p, q] + nout) * size + ky[p, q] + nout)
        p += start
        terms = (1j * (cu[p, 0] * kv[q, 0] + cu[p, 1] * kv[q, 1]))[:, None] * cv[q]
        np.add.at(reals, (cells[:, None] + np.arange(4)).ravel(), terms.view(np.float64).ravel())
    return reals.view(np.complex128).reshape(size, size, 2)


def assemble_linearized(kv, cv, reps, sigmas, alpha, nrad):
    """Dense real matrix of z -> P_N(A z + alpha (B(v, z) + B(z, v))).

    ``kv, cv`` is v packed; ``reps, sigmas`` are ``steady._dof_maps(nrad)``,
    every representative of radius N = nrad in key order: (kx, ky) is number
    r = kx (2N+1) + ky - 1. Column r (m + r) is the image of the field with
    amplitude 1 (i) on representative r; rows r and m + r hold the real and
    imaginary parts of its amplitude on representative r.
    """
    m = reps.shape[0]
    out = np.zeros((2 * m, 2 * m))
    side, mid = 4 * nrad + 1, 2 * nrad * (4 * nrad + 2)  # entry (k, q) reads v at k - q only
    near = np.max(np.abs(kv), axis=1, initial=0) <= 2 * nrad
    vgrid = np.zeros((side * side, 2), dtype=np.complex128)
    vgrid[kv[near, 0] * side + kv[near, 1] + mid] = cv[near]
    rows = reps[:, 0] * side + reps[:, 1] + mid
    for cols in np.split(np.arange(m), range(_COLUMN_BLOCK, m, _COLUMN_BLOCK)):
        kr, sr = reps[cols], sigmas[cols]
        ss, ks = sigmas @ sr.T, reps @ sr.T  # sigma_k . sigma_r and k . sigma_r
        h = []  # images of sigma_r e^{+i k_r.x} and of sigma_r e^{-i k_r.x}
        for q in (kr, -kr):
            c = vgrid[rows[:, None] - (q[:, 0] * side + q[:, 1])]
            # B(v, z) + B(z, v) at k = p + q; p . sigma_r = k . sigma_r as q . sigma_r = 0
            h.append(alpha * 1j * ((c[..., 0] * q[:, 0] + c[..., 1] * q[:, 1]) * ss
                                   + ks * (sigmas[:, None, 0] * c[..., 0] + sigmas[:, None, 1] * c[..., 1])))
        s, d = h[0] + h[1], h[0] - h[1]
        out[:m, cols], out[m:, cols] = s.real, s.imag
        out[:m, m + cols], out[m:, m + cols] = -d.imag, d.real
    out[np.diag_indices(2 * m)] += np.tile(np.sum(reps * reps, axis=1), 2)
    return out
