"""Hot numeric kernels for the spectral advection term, in plain numpy.

The exact Fourier convolution of (u.grad)v is the innermost loop of the whole
package (residual evaluations, property suites), and the dense Newton
linearization is the innermost step of every steady solve. Each has one
implementation here; ``steady._linearized_matrix_fields`` assembles the same
linearization field by field and is the slow reference the tests compare
against. Time the README sweep, which spends most of its time here, with

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 15 --trace 0

and pass ``--trace 1`` for the time spent in each kernel.
"""

from __future__ import annotations

import numpy as np


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
    grid = np.zeros((size, size, 2), dtype=np.complex128)
    qdot = kv.astype(np.float64)  # (Mv, 2)
    # One u mode at a time: vectorizing over all (p, q) pairs would hold
    # Mu*Mv temporaries, megabytes at N = 8.
    for p in range(len(ku)):
        kx = ku[p, 0] + kv[:, 0]
        ky = ku[p, 1] + kv[:, 1]
        keep = (np.abs(kx) <= nout) & (np.abs(ky) <= nout)
        if not keep.any():
            continue
        dots = 1j * (cu[p, 0] * qdot[keep, 0] + cu[p, 1] * qdot[keep, 1])
        np.add.at(grid, (kx[keep] + nout, ky[keep] + nout), dots[:, None] * cv[keep])
    return grid


def assemble_linearized(kv, cv, reps, sigmas, alpha, nrad):
    """Dense real matrix of z -> P_N(A z + alpha (B(v, z) + B(z, v))).

    ``kv, cv`` is v packed; ``reps, sigmas`` are ``steady._dof_maps(nrad)``,
    every representative of radius N = nrad in key order: (kx, ky) is number
    r = kx (2N+1) + ky - 1, and r < 0 for any other key. Column r (m + r) is the
    image of the field with amplitude 1 (i) on representative r; rows r and
    m + r hold the real and imaginary parts of its amplitude on representative r.
    """
    m = reps.shape[0]
    out = np.zeros((2 * m, 2 * m))
    kvf = kv.astype(np.float64)
    for r in range(m):
        kr, sr = reps[r], sigmas[r]
        halves = []  # images of sigma_r e^{+i k_r.x} and of sigma_r e^{-i k_r.x}
        for q in (kr, -kr):
            k = kv + q
            p = np.flatnonzero(np.all(np.abs(k) <= nrad, axis=1))
            rows = k[p, 0] * (2 * nrad + 1) + k[p, 1] - 1
            p, rows = p[rows >= 0], rows[rows >= 0]
            srow = sigmas[rows]
            # B(v, z) + B(z, v) at p + q; distinct p land on distinct rows.
            h = np.zeros(m, dtype=np.complex128)
            h[rows] = 1j * ((cv[p] @ q) * (srow @ sr)
                            + (kvf[p] @ sr) * np.sum(srow * cv[p], axis=1))
            halves.append(alpha * h)
        s, d = halves[0] + halves[1], halves[0] - halves[1]
        out[:m, r], out[m:, r] = s.real, s.imag
        out[:m, m + r], out[m:, m + r] = -d.imag, d.real
        out[r, r] += kr @ kr
        out[m + r, m + r] += kr @ kr
    return out
