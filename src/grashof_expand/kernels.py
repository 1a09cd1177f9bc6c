"""Hot numeric kernels for the spectral advection term, in plain numpy.

The exact Fourier convolution of (u.grad)v is the innermost loop of the whole
package, and the dense Newton linearization the innermost step of every steady
solve. Each is one numpy path over blocks of u modes or of columns; the tests
check them against a per-mode loop and a field-by-field column assembly. The
linearization needs a divergence-free v, v_p = a_p sigma_p: each entry is then
a_p times a closed-form real weight of the wavevectors. Time the README sweep,
whose Newton loop assembles one linearization per residual, with

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 15 --trace 0

and pass ``--trace 1`` for the time spent in each kernel.
"""

from __future__ import annotations

import numpy as np

_PAIR_BUDGET = 4096  # (p, q) pairs held at once; all of them at N = 16 are over a million
_COLUMN_BLOCK = 16  # 24 columns hold more than 1.5x the Jacobian's memory at N = 8


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


def assemble_linearized(kv, cv, reps, alpha, nrad):
    """Dense real matrix of z -> P_N(A z + alpha (B(v, z) + B(z, v))).

    ``kv, cv`` is a divergence-free v packed; ``reps`` (m, 2) is any
    increasing set of conjugate representatives of radius N = nrad, such as
    all of them (``steady._dof_maps(nrad)[0]``) or those on a sublattice. Each
    entry depends only on v and the wavevectors of its row and column, so a
    subset of ``reps`` gives the rows and columns of the full matrix it
    selects.
    Column r (m + r) is the image of the field with amplitude 1 (i) on
    representative r; rows r and m + r hold the real and imaginary parts of
    its amplitude on representative r. With v_p = a_p sigma_p,
    a_p = (p x v_p) / |p|, the image of sigma_r e^{i s k_r.x} (s = +-1) has
    amplitude i alpha a_p W on row k, p = k - s k_r, with the real weight

        W = (k x k_r) (2 s k.k_r - |k|^2) / (|k| |k_r| |p|).
    """
    m = reps.shape[0]
    out = np.zeros((2 * m, 2 * m))
    side, mid = 4 * nrad + 1, 2 * nrad * (4 * nrad + 2)  # entry (k, s k_r) reads v at k - s k_r only
    near = np.max(np.abs(kv), axis=1, initial=0) <= 2 * nrad
    kn, cn = kv[near], cv[near]
    bgrid = np.zeros(side * side, dtype=np.complex128)  # alpha a_p / |p| = alpha (p x v_p) / |p|^2
    bgrid[kn[:, 0] * side + kn[:, 1] + mid] = (
        alpha * (kn[:, 0] * cn[:, 1] - kn[:, 1] * cn[:, 0]) / np.sum(kn * kn, axis=1))
    shift = reps[:, 0] * side + reps[:, 1]
    rows = shift + mid
    ksq = np.sum(reps * reps, axis=1)
    unit = reps / np.sqrt(ksq)[:, None]
    turned = np.stack([-unit[:, 1], unit[:, 0]])  # unit @ turned = (k_r x k) / (|k| |k_r|)
    twice = 2.0 * reps.T
    for start in range(0, m, _COLUMN_BLOCK):
        c = slice(start, start + _COLUMN_BLOCK)
        scale, dot2 = unit @ turned[:, c], reps @ twice[:, c]
        # |p| W is -scale (dot2 - |k|^2) for s = +1 and scale (dot2 + |k|^2) for
        # s = -1, so the s = +1 image is -i plus and the s = -1 image i minus.
        plus, minus = bgrid[rows[:, None] - shift[c]], bgrid[rows[:, None] + shift[c]]
        plus *= scale * (dot2 - ksq[:, None])
        minus *= scale * (dot2 + ksq[:, None])
        # column r holds the sum of both images, column m + r i times their difference
        np.subtract(plus.imag, minus.imag, out=out[:m, :m][:, c])
        np.subtract(minus.real, plus.real, out=out[m:, :m][:, c])
        np.add(minus.real, plus.real, out=out[:m, m:][:, c])
        np.add(minus.imag, plus.imag, out=out[m:, m:][:, c])
    out[np.diag_indices(2 * m)] += np.tile(ksq, 2)
    return out
