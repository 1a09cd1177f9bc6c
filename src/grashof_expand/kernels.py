"""Hot numeric kernels for the spectral advection term, in plain numpy.

The exact Fourier convolution of (u.grad)v is the innermost loop of the whole
package, and the dense Newton linearization the innermost step of every steady
solve. The convolution is one FFT product on a padded grid: u, grad v and the
indicators of both key sets go to an m x m grid of points, m 5-smooth with
m >= 2 r + 1 for the larger input radius r, so each mode has its own point,
and m >= r_u + r_v + nout + 1 for input radii r_u, r_v and output radius
nout, so no sum p + q aliases onto an output cell (Orszag's padding rule).
The product of the indicators counts the pairs p + q = k: every cell that no
pair reaches is set to exactly zero, and a cell that one pair reaches, named
by a third plane that sums the pairs' codes of p, holds that pair's term as
a pairwise sum forms it (exactly zero for p parallel to q and a
divergence-free u). A cell whose several terms cancel exactly keeps the
FFT's roundoff. The ky < 0 half is the conjugate of the computed half, so
the grid is Hermitian to the bit. A batch of field pairs on one key set each
(coefficients (..., M, 2)) is one product too: the indicator planes serve
every member, and each member's grid is the bits of its own call. The tests
check it against a pairwise sum over blocks of mode pairs, which is
bit-equal to a per-mode loop: 1e-14 relative, every cell that one pair
reaches to the bit, and the same nonzero cells on every test case whose
cells have no terms that cancel exactly. The linearization is one numpy path,
checked against a field-by-field column assembly, and the assembly on a
symmetry group's fixed subspace (``Subspace``) against P J Q of the full one.
It needs a divergence-free v, v_p = a_p sigma_p: each entry is then
t_p = alpha a_p (p x sigma_p) / |p|^2 at p = k -+ k_r times a closed-form real
weight of the wavevectors. Which t each entry reads, and with which weights,
depends only on the wavevectors, so a ``Subspace`` of a symmetry group keeps it
as a gather plan (``Subspace.plan``) that each assembly applies to t, computed
from the iterate's first unknowns. Time the README sweep,
whose Newton loop assembles one linearization per residual and which
certifies its solutions in one batched exact residual, with

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 15 --trace 0

and pass ``--trace 1`` for the time spent in each kernel.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Rows of a block of the assembly where each call makes the weights (the
# trivial group: 16 keep the call within 1.5x of its output's bytes at N = 8)
# or builds a kept plan, and entries of a block of columns that applies one:
# 32 bytes each (two images and their int64 indices), at most 512 kB.
_ROWS, _KEPT_ENTRIES = 16, 16384
_MP = np.array([-1, 1])[:, None, None]  # -+: k - k_r for s = +1, k + k_r for s = -1


def _fft_size(n):
    """The smallest 5-smooth integer >= n, a length pocketfft transforms fast."""
    while True:
        k = n
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


def _half(keys, coeffs):
    """The modes of a real field with ky >= 0 (the rest are their conjugates),
    and their coefficients (B, 2, M) for the batch's (B, M, 2)."""
    keep = keys[:, 1] >= 0
    return keys[keep], coeffs[:, keep].transpose(0, 2, 1)


def _rows(keys, r):
    """The row of each of ``keys`` (max-norm at most r) at (k_x + r)(2r + 1) + k_y + r."""
    w = 2 * r + 1
    row = np.empty(w * w, dtype=np.int64)
    row[(keys[:, 0] + r) * w + keys[:, 1] + r] = np.arange(len(keys))
    return row


def advect_convolve(ku, cu, kv, cv, nout):
    """Exact convolution of (u.grad)v on a dense coefficient grid, for a batch
    of field pairs on one key set each.

    Args:
      ku: int64 array (Mu, 2), wavevectors of u.
      cu: complex128 array (..., Mu, 2), coefficients of u: one row set per
        batch member, a single field being the batch of none.
      kv, cv: same for v, with the leading (batch) shape of cu. Both fields
        of a pair are real: their keys are closed under negation and
        c(-k) = conj(c(k)).
      nout: output truncation radius (max-norm).

    Returns:
      complex128 array (..., 2*nout+1, 2*nout+1, 2), one grid per batch
      member; entry [kx+nout, ky+nout] holds the coefficient of e^{i k.x} for
      w[k] = sum_{p+q=k} i (u_p . q) v_q,
      and is exactly zero where no p + q equals k. Where one pair (p, q)
      does, the entry is its term as the pairwise sum forms it, to the bit.
      The grid is Hermitian to the bit: entry -k is the conjugate of entry
      k, entry (0, 0) is real. Each member's grid is the bits of a call with
      that member alone: the transforms act on each plane by itself, and the
      indicator planes, which depend only on the keys, are shared.
    """
    size = 2 * nout + 1
    batch = cu.shape[:-2]
    if len(ku) == 0 or len(kv) == 0:
        return np.zeros(batch + (size, size, 2), dtype=np.complex128)
    cu, cv = cu.reshape(-1, len(ku), 2), cv.reshape(-1, len(kv), 2)
    nb = len(cu)
    # Each input mode has its own cell of a grid of m >= 2 r + 1 points, and
    # with m >= r_u + r_v + nout + 1 no sum p + q, of radius at most
    # r_u + r_v, aliases onto a cell of radius nout.
    ru, rv = int(ku.max()), int(kv.max())  # keys closed under negation
    m = _fft_size(max(ru + rv + nout + 1, 2 * max(ru, rv) + 1, size))
    cols, wu = max(ru, rv) + 1, 2 * ru + 1
    (pu, hu), (qv, hv) = _half(ku, cu), _half(kv, cv)
    # Planes on the ky >= 0 half of an m x m grid, c(p) = p_x (2 r_u + 1) + p_y
    # the code of p: 1_U and i c(p) 1_U, d_x v of each member, 1_V, then d_y v,
    # u_x and u_y of each member. The three indicator planes serve the whole
    # batch. Their products with 1_V give each cell k the number of pairs
    # (p, q) with p + q = k and the sum of their codes, so a cell one pair
    # reaches names its p.
    b2 = 2 * nb
    dx, one_v, dy, ux = slice(2, 2 + b2), 2 + b2, slice(3 + b2, 3 + 2 * b2), 3 + 2 * b2
    spec = np.zeros((3 + 3 * b2, m * cols), dtype=np.complex128)
    at = pu[:, 0] * cols + pu[:, 1]
    spec[0, at] = 1.0
    spec[1, at] = 1j * (pu[:, 0] * wu + pu[:, 1])
    spec[ux:, at] = hu.transpose(1, 0, 2).reshape(b2, -1)  # u_x of each member, then u_y
    at = qv[:, 0] * cols + qv[:, 1]
    spec[dx, at] = (1j * qv[:, 0] * hv).reshape(b2, -1)
    spec[one_v, at] = 1.0
    spec[dy, at] = (1j * qv[:, 1] * hv).reshape(b2, -1)
    spec = spec.reshape(-1, m, cols)
    np.fft.ifft(spec, axis=1, norm="forward", out=spec)  # in place (numpy >= 2.0): no new buffer
    grid = np.fft.irfft(spec, m, axis=2, norm="forward")  # samples on the m x m grid
    del spec
    ddx, ddy = (grid[s].reshape(nb, 2, m, m) for s in (dx, dy))
    ddx *= grid[ux:ux + nb, None]
    ddy *= grid[ux + nb:, None]
    ddx += ddy  # u.grad v
    grid[:2] *= grid[one_v]  # the pair count and the sum of the codes
    half = np.fft.rfft(grid[:2 + b2], axis=2, norm="forward")[:, :, :nout + 1]
    del grid, ddx, ddy
    half = np.fft.fft(half, axis=1, norm="forward")[:, np.arange(-nout, nout + 1)]
    count = half[0].real
    # A cell that one pair reaches holds that pair's term i (u_p . q) v_q as
    # the pairwise sum forms it: exactly zero where u_p . q is (p parallel
    # to q, for a divergence-free u), where the FFT would leave roundoff.
    x, y = np.nonzero(np.abs(count - 1.0) < 0.5)
    i = _rows(ku, ru)[np.rint(half[1, x, y].imag).astype(np.int64) + ru * (wu + 1)]
    qx, qy = x - nout - ku[i, 0], y - ku[i, 1]
    j = _rows(kv, rv)[(qx + rv) * (2 * rv + 1) + qy + rv]
    adv = half[2:].reshape(nb, 2, size, nout + 1)
    term = 1j * (cu[:, i, 0] * qx + cu[:, i, 1] * qy)
    adv[:, :, x, y] = term[:, None] * cv[:, j].transpose(0, 2, 1)
    out = np.empty((nb, size, size, 2), dtype=np.complex128)
    out[:, :, nout:] = (adv * (count > 0.5)).transpose(0, 2, 3, 1)
    out[:, :, :nout] = out[:, ::-1, :nout:-1].conj()
    out[:, :nout, nout] = out[:, :nout:-1, nout].conj()
    out[:, nout, nout] = out[:, nout, nout].real
    return out.reshape(batch + (size, size, 2))


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

    The assembly's rows are the representatives ``own`` of the first
    unknowns, each once. Their weights are the half of the assembly that no
    iterate or alpha enters. A group that at least halves the unknowns
    (n <= m) keeps them as a gather plan (``plan``), built on the first
    assembly, so that a solve or a sweep that keeps the subspace builds it
    once. Any other group, the trivial one among them, makes the weights at
    each assembly: its plan would take 2.5 times the bytes of its Jacobian.
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
        self.reps = reps
        self.side, self.mid = 4 * nrad + 1, 2 * nrad * (4 * nrad + 2)  # k - q on a radius-2N grid
        self.ksq = np.sum(reps * reps, axis=1)
        self.stokes = np.tile(self.ksq, 2)[_full_or(self.first, 2 * m)]  # A on the first unknowns
        self.inv = 1.0 / self.ksq  # 1 / |k|^2, as complex division by |k|^2 + 0i scales
        # Blocks of rows own[rows]: unknowns first[a:b] are the real parts of
        # own[rows][i], first[c:d] the imaginary parts of own[rows][j]. The
        # last block takes the rest, so no block has a single row unless
        # there is one: BLAS rounds the matmul of the scales otherwise on one.
        self.own, slot = np.unique(self.first % m, return_inverse=True)
        self.keep = len(self.first) <= m
        stops = [*range(_ROWS, len(self.own) - 1, _ROWS), len(self.own)]
        self.parts = []
        for lo, hi in zip([0, *stops], stops):
            a, b = np.searchsorted(slot[:self.n0], [lo, hi])
            c, d = self.n0 + np.searchsorted(slot[self.n0:], [lo, hi])
            self.parts.append((slice(lo, hi), (a, b, _full_or(slot[a:b] - lo, hi - lo)),
                               (c, d, _full_or(slot[c:d] - lo, hi - lo))))
        self.shift = reps[:, 0] * self.side + reps[:, 1]
        self.cells, self.turns = self.shift[self.own] + self.mid, _MP * self.shift  # k; -+ k_r

    def _weights(self):
        """For each block of rows, the real weights scale (dot2 -+ |k|^2) of
        row k and column r, which are -|p| W for s = +1 (weight[0]) and |p| W
        for s = -1 (weight[1]) (``assemble_linearized``)."""
        reps, ksq = self.reps, self.ksq
        unit = reps / np.sqrt(ksq)[:, None]
        turned = np.stack([-unit[:, 1], unit[:, 0]])  # unit @ turned = (k_r x k) / (|k| |k_r|)
        twice = 2.0 * reps.T
        for rows, _, _ in self.parts:
            r = self.own[rows]
            weight = reps[r].astype(np.float64) @ twice + _MP * ksq[r, None]  # dot2 -+ |k|^2
            weight *= unit[r] @ turned  # scale
            yield weight

    @cached_property
    def plan(self):
        """(index, weight), each (L, 2, n, n): entry (i, o) of P J Q sums
        u[index] weight over the L levels of orbit o's members and the images
        s (0: k - k_r, 1: k + k_r) at [l, s, o, i] (``assemble_linearized``).
        A weight is -0.0 where the orbit has no l-th member, so that its zero
        moves no bit. An index is int16 wherever u fits."""
        m, n = len(self.reps), len(self.first)
        member, sign = np.full((1 + len(self.further), n), -1), np.ones((1 + len(self.further), n))
        member[0] = self.first
        for lev, (j, orbit, sgn) in enumerate(self.further, 1):
            member[lev, orbit], sign[lev, orbit] = j, sgn
        col, pad, real = member % m, (member < 0)[:, None, :, None], (member < m)[:, None, :, None]
        slots = np.full((2, self.side ** 2), 3 * m)  # u's slots of t's real and imaginary parts
        slots[:, self.shift + self.mid] = np.arange(2 * m).reshape(2, m)
        slots[:, self.mid - self.shift] = np.arange(m, 3 * m).reshape(2, m)[::-1]
        turns, sign = self.turns[:, 0, col].transpose(1, 0, 2)[..., None], sign[:, None, :, None]
        index = np.empty((len(member), 2, n, n), np.int16 if 3 * m < 1 << 15 else np.int32)
        weight = np.empty(index.shape)
        for (rows, *parts), w in zip(self.parts, self._weights()):  # a block of rows at a time
            for imag, (a, b, i) in zip((False, True), parts):
                # rows (real, imaginary) by columns: (plus.imag - minus.imag, minus.real +
                # plus.real), (minus.real - plus.real, minus.imag + plus.imag)
                at = turns + self.cells[rows][i]
                index[..., a:b] = np.where(pad, 3 * m, slots[(real != imag).astype(int), at])
                flip = real & (np.arange(2)[:, None, None] == (not imag))
                signed = w[:, i][:, :, col].transpose(2, 0, 3, 1) * np.where(flip, -sign, sign)
                weight[..., a:b] = np.where(pad, -0.0, signed)
        return index, weight

    def expand(self, y):
        """The 2m unknowns of the subspace vector whose first unknowns are y."""
        return np.where(self.orbit >= 0, self.sign * y[self.orbit], 0.0)


def assemble_linearized(y, sigmas, reps, alpha, sub):
    """Dense real matrix of z -> P_N(A z + alpha (B(v, z) + B(z, v))).

    v = a_k sigma_k on ``reps`` (m, 2) with polarizations ``sigmas``, its amplitudes
    a the subspace vector with first unknowns ``y``. ``reps`` is any increasing
    set of conjugate representatives of radius N, such as all of them
    (``steady._dof_maps(N)[0]``) or those on a sublattice. Each entry
    depends only on v and the wavevectors of its row and column, so a subset
    of ``reps`` gives the rows and columns of the full matrix it selects.
    Column r (m + r) is the image of the field with amplitude 1 (i) on
    representative r; rows r and m + r hold the real and imaginary parts of
    its amplitude on representative r. With t_p = alpha a_p (p x sigma_p) / |p|^2,
    the image of sigma_r e^{i s k_r.x} (s = +-1) has amplitude i t_p |p| W on
    row k, p = k - s k_r, with the real weight

        W = (k x k_r) (2 s k.k_r - |k|^2) / (|k| |k_r| |p|).

    ``sub``, a ``Subspace`` of the same ``reps`` and N (``Subspace(reps, N)``
    for the trivial group), gives P J Q, the matrix on the fixed subspace: row o
    is the row of the first unknown of orbit o, and column o sums sign[j]
    times column j over the members j of orbit o. A kept plan is applied to
    u = [t_re, t_im, -t_re, 0] (t_{-p} = -conj t_p) a block of columns at a
    time; any other group reads t from the radius-2N grid a block of rows at a
    time, by the same arithmetic. J comes back row-major on the trivial group
    and column-major on any other; ``steady``'s ``jac @ xv`` rounds by that
    layout, so the solver's bits rest on it.
    """
    m, n = reps.shape[0], len(sub.first)
    # t for the real and the imaginary part of a: complex arithmetic's values
    x = sub.expand(y).reshape(2, m)
    t = (alpha * (reps[:, 0] * (x * sigmas[:, 1]) - reps[:, 1] * (x * sigmas[:, 0]))) * sub.inv
    if not sub.keep:
        bgrid = np.zeros(sub.side * sub.side, dtype=np.complex128)  # t_p at p's cell
        bgrid.real[sub.shift + sub.mid], bgrid.imag[sub.shift + sub.mid] = t
        bgrid.real[sub.mid - sub.shift], bgrid.imag[sub.mid - sub.shift] = -t[0], t[1]
        part = np.empty((n, 2 * m))  # the rows of every column
        for (rows, (a, b, i), (c, d, j)), weight in zip(sub.parts, sub._weights()):
            at = sub.cells[rows, None] + sub.turns  # the cells of k - k_r and k + k_r
            # the s = +1 image is -i plus and the s = -1 image i minus
            # every cell is on the grid: "clip" only spares the copy "raise" makes
            img = np.take(bgrid, at, mode="clip")
            img *= weight
            plus, minus = img
            # column r holds the sum of both images, column m + r i times their difference
            np.subtract(plus.imag[i], minus.imag[i], out=part[a:b, :m])
            np.add(minus.real[i], plus.real[i], out=part[a:b, m:])
            np.subtract(minus.real[j], plus.real[j], out=part[c:d, :m])
            np.add(minus.imag[j], plus.imag[j], out=part[c:d, m:])
            del at, weight, img, plus, minus  # before the next block is made
        out = part[:, _full_or(sub.first, 2 * m)]
        for k, orbit, sign in sub.further:
            out[:, orbit] += part[:, k] * sign
    else:
        (index, weight), u = sub.plan, np.concatenate([t.ravel(), -t[0], [0.0]])
        out = np.empty((n, n), order="F")  # row o of out.T is column o of P J Q
        step = max(1, min(n, _KEPT_ENTRIES // max(n, 1)))
        buf = np.empty(2 * step * n)
        for lo in range(0, n, step):
            blk, cols = out.T[lo:lo + step], slice(lo, lo + step)
            img = buf[:2 * blk.size].reshape(2, *blk.shape)
            for lev in range(len(index)):
                np.take(u, index[lev, :, cols], out=img, mode="clip")
                img *= weight[lev, :, cols]
                np.add(img[0], img[1], out=img[0] if lev else blk)  # a member's two images
                if lev:
                    blk += img[0]
    out.flat[::n + 1] += sub.stokes
    return out
