"""Hot numeric kernels for the spectral advection term, in plain numpy.

The exact Fourier convolution of (u.grad)v is the innermost loop of the whole
package, and the dense Newton linearization the innermost step of every steady
solve. Each is one numpy path over blocks of u modes or of columns; the tests
check them against a per-mode loop and a field-by-field column assembly, and
the assembly on a symmetry group's fixed subspace (``Subspace``) against P J Q
of the full one. The linearization needs a divergence-free v,
v_p = a_p sigma_p: each entry is then a_p times a closed-form real weight of
the wavevectors. Time the README sweep,
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


def _full_or(idx, n):
    """``idx``, a sorted subset of range(n), or the slice that selects the same
    entries when it is all of them, so that indexing with it makes no copy."""
    return slice(None) if len(idx) == n else idx


class Subspace:
    """The unknowns of a linearization on ``reps`` (m, 2) at radius ``nrad``,
    laid out for ``assemble_linearized``: the 2m real unknowns, or the subspace
    of them that a group of signed permutations fixes.

    Element e of the group sends unknown j to ``dst[e, j]`` with sign
    ``sgn[e, j]``; without them the group is trivial. On the fixed subspace
    unknown j is ``sign[j]`` times the first unknown of orbit ``orbit[j]``, or
    zero where ``orbit[j]`` is -1 (an element maps j to its own negative).
    Orbits are numbered in the order of their first unknowns ``first``, whose
    sign is 1, so real parts come first (``n0`` of them); ``sizes`` counts the
    members of each orbit.
    """

    def __init__(self, reps, nrad, dst=None, sgn=None):
        m = len(reps)
        ids = np.arange(2 * m)
        if dst is None:
            dst, sgn = ids[None], np.ones((1, 2 * m))
        zero = np.any((dst == ids) & (sgn < 0), axis=0)
        pick = np.argmin(dst, axis=0)  # an element that takes j to its orbit's first unknown
        head, self.sign = dst[pick, ids], sgn[pick, ids]
        lead = (head == ids) & ~zero
        self.first = np.flatnonzero(lead)
        self.orbit = np.where(zero, -1, np.cumsum(lead)[head] - 1)
        self.sizes = np.bincount(self.orbit[~zero], minlength=len(self.first))
        self.n0 = int(np.searchsorted(self.first, m))
        # The further members of the orbits, a level (second, third, ...
        # member of each orbit) at a time, so that no orbit repeats in a level.
        rest = np.flatnonzero(~zero & ~lead)
        rest = rest[np.argsort(self.orbit[rest], kind="stable")]
        level = np.arange(len(rest)) - np.searchsorted(self.orbit[rest], self.orbit[rest])
        self.further = [(j, self.orbit[j], self.sign[j]) for j in
                        (rest[level == lev] for lev in range(int(level.max(initial=-1)) + 1))]
        # What the assembly reads of reps: the rows are the representatives
        # of the first unknowns, the real parts of those in ``top``, the
        # imaginary parts in ``bottom``.
        mark = np.zeros(m, dtype=bool)
        mark[self.first % m] = True
        rows, slot = np.flatnonzero(mark), np.cumsum(mark) - 1
        self.top, self.bottom = (_full_or(slot[u], len(rows))
                                 for u in (self.first[:self.n0], self.first[self.n0:] - m))
        rows = _full_or(rows, m)
        self.side, self.mid = 4 * nrad + 1, 2 * nrad * (4 * nrad + 2)  # k - q on a radius-2N grid
        self.shift = reps[:, 0] * self.side + reps[:, 1]
        ksq = np.sum(reps * reps, axis=1)
        unit = reps / np.sqrt(ksq)[:, None]
        self.turned = np.stack([-unit[:, 1], unit[:, 0]])  # unit @ turned = (k_r x k) / (|k| |k_r|)
        self.twice = 2.0 * reps.T
        self.at, self.kr = self.shift[rows, None] + self.mid, ksq[rows, None]
        self.ur, self.rr = unit[rows], reps[rows].astype(np.float64)  # exact, as matmul casts it
        self.stokes = np.tile(ksq, 2)[_full_or(self.first, 2 * m)]  # A on the first unknowns

    def expand(self, y):
        """The 2m unknowns of the subspace vector whose first unknowns are y."""
        return np.where(self.orbit >= 0, self.sign * y[self.orbit], 0.0)


def assemble_linearized(kv, cv, reps, alpha, nrad, subspace=None):
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

    ``subspace``, a ``Subspace`` of the same ``reps`` and ``nrad`` (None: of
    the trivial group), gives P J Q, the matrix on the fixed subspace: row o
    is the row of the first unknown of orbit o, and column o sums sign[j]
    times column j over the members j of orbit o. Only those rows are
    assembled, for every column. Then each orbit's column is its first
    member's, and the further members are added to it by index, a level at a
    time, never through a dense Q. With the trivial group this is the full
    matrix by the same arithmetic.
    """
    m = reps.shape[0]
    sub = subspace if subspace is not None else Subspace(reps, nrad)
    n, n0, top, bottom = len(sub.first), sub.n0, sub.top, sub.bottom
    shift, turned, twice, at, kr, ur, rr = (
        sub.shift, sub.turned, sub.twice, sub.at, sub.kr, sub.ur, sub.rr)
    part = np.zeros((n, 2 * m))  # the rows of every column
    side, mid = sub.side, sub.mid  # entry (k, s k_r) reads v at k - s k_r only
    near = np.max(np.abs(kv), axis=1, initial=0) <= 2 * nrad
    kn, cn = kv[near], cv[near]
    bgrid = np.zeros(side * side, dtype=np.complex128)  # alpha a_p / |p| = alpha (p x v_p) / |p|^2
    bgrid[kn[:, 0] * side + kn[:, 1] + mid] = (
        alpha * (kn[:, 0] * cn[:, 1] - kn[:, 1] * cn[:, 0]) / np.sum(kn * kn, axis=1))
    width = _COLUMN_BLOCK * (2 * m // n)  # as many entries as _COLUMN_BLOCK full columns
    for start in range(0, m, width):
        c = slice(start, start + width)
        scale, dot2 = ur @ turned[:, c], rr @ twice[:, c]
        # |p| W is -scale (dot2 - |k|^2) for s = +1 and scale (dot2 + |k|^2) for
        # s = -1, so the s = +1 image is -i plus and the s = -1 image i minus.
        plus, minus = bgrid[at - shift[c]], bgrid[at + shift[c]]
        plus *= scale * (dot2 - kr)
        minus *= scale * (dot2 + kr)
        # column r holds the sum of both images, column m + r i times their difference
        np.subtract(plus.imag[top], minus.imag[top], out=part[:n0, :m][:, c])
        np.subtract(minus.real[bottom], plus.real[bottom], out=part[n0:, :m][:, c])
        np.add(minus.real[top], plus.real[top], out=part[:n0, m:][:, c])
        np.add(minus.imag[bottom], plus.imag[bottom], out=part[n0:, m:][:, c])
    out = part[:, _full_or(sub.first, 2 * m)]
    for j, orbit, sign in sub.further:
        out[:, orbit] += part[:, j] * sign
    out.flat[::n + 1] += sub.stokes
    return out
