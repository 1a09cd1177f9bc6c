"""Spectral representation of divergence-free 2D periodic velocity fields.

Fields live on the torus [0, 2pi]^2 and are stored as two arrays: the integer
wavevectors k = (kx, ky) of the nonzero Fourier modes, sorted lexicographically,
and the complex coefficient 2-vectors of e^{i k.x}, one row per wavevector. The
zero mode is excluded (zero spatial average), coefficients satisfy the reality
condition c(-k) = conj(c(k)), and k . c(k) = 0 (divergence-free). On this
domain the Stokes operator is diagonal with eigenvalues |k|^2, so the first
eigenvalue is exactly 1 and fractional powers are plain row scalings.

A sorted key set closed under negation satisfies keys[::-1] == -keys, and its
conjugate representatives (kx > 0, or kx = 0 and ky > 0) are the upper half
keys[M // 2:] (``rep_half``); ``conj_closure`` rebuilds a field from that half.
Key sets are merged on the dense square grid of the largest |k|, whose
row-major order is the lexicographic order (``key_union``), so nothing is sorted.

Norm convention (Parseval on [0, 2pi]^2):  |u|_{L^2}^2 = (2pi)^2 sum_k |c(k)|^2,
and the D(A^s) norm is |A^s u| with A^s scaling mode k by |k|^{2s}.
"""

from __future__ import annotations

import math
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from . import kernels

TWO_PI = 2.0 * np.pi

REALITY_TOL = 1e-13


class MalformedFieldError(ValueError):
    """Raised when raw coefficient data violates a structural invariant."""


def key_union(key_sets):
    """Sorted union of (M_i, 2) key arrays, and the rows each array occupies in it."""
    every = np.concatenate([np.zeros((0, 2), dtype=np.int64), *key_sets])
    r = int(np.max(np.abs(every), initial=0))
    side = 2 * r + 1
    cells = (every[:, 0] + r) * side + (every[:, 1] + r)
    seen = np.zeros(side * side, dtype=bool)
    seen[cells] = True
    slot = np.cumsum(seen)[cells] - 1
    keys = np.stack(np.divmod(np.flatnonzero(seen), side), axis=1) - r
    ends = list(accumulate(len(k) for k in key_sets))
    return keys, [slot[end - len(k):end] for end, k in zip(ends, key_sets)]


def gather(keys, rows, query):
    """Entries of ``rows`` (..., M, 2) on ``keys`` at each ``query`` key; zero where absent."""
    union, (mine, theirs) = key_union([keys, query])
    full = np.zeros(rows.shape[:-2] + (len(union), 2), dtype=rows.dtype)
    full[..., mine, :] = rows
    return full[..., theirs, :]


def rows_of(fields, keys=np.zeros((0, 2), dtype=np.int64)):
    """Sorted union of ``keys`` and the fields' keys, and the fields' coefficients
    on it, zero where absent (len(fields), len(union), 2): one ``key_union``."""
    union, (_, *slots) = key_union([keys, *(f.keys for f in fields)])
    rows = np.zeros((len(slots), len(union), 2), dtype=np.complex128)
    for row, slot, f in zip(rows, slots, fields):
        row[slot] = f.coeffs
    return union, rows


def rep_half(n):
    """The representatives of a sorted key set of size ``n`` closed under negation."""
    return slice(n // 2, None)


def check_representatives(reps, starts=()):
    """Raise MalformedFieldError unless each row of ``reps`` (M, 2) steps from the one
    before (from (0, 0) at row 0 and at ``starts``, where each next key set of a
    concatenation begins) to a conjugate representative: kx > 0, or kx = 0 < ky."""
    step = np.diff(reps, axis=0, prepend=np.zeros((1, 2), dtype=reps.dtype))
    starts = np.asarray(starts, dtype=np.intp)
    step[starts] = reps[starts]
    bad = (step[:, 0] < 0) | ((step[:, 0] == 0) & (step[:, 1] <= 0))
    if bad.any():
        k = tuple(reps[np.argmax(bad)].tolist())
        raise MalformedFieldError(f"mode {k} is not a conjugate representative in increasing order")


def conj_closure(reps, coeffs):
    """Sorted keys closed under negation, and coefficients (..., 2M, 2), from
    increasing representatives ``reps`` (M, 2) and their coefficients (..., M, 2)."""
    check_representatives(reps)
    keys = np.concatenate([-reps[::-1], reps])
    full = np.empty(coeffs.shape[:-2] + keys.shape, dtype=coeffs.dtype)
    full[..., len(reps):, :] = coeffs
    np.conj(coeffs[..., ::-1, :], out=full[..., :len(reps), :])  # no temporary of the half
    return keys, full


@np.errstate(invalid="ignore")  # inf - inf and 0 * inf: the first check names them
def first_violation(keys, rows, truncs, representatives=False):
    """(row, message) of the first violation in ``rows`` (R, M, 2) on the sorted
    ``keys``, zero entries counting as absent, or None. Checks run in turn (finite,
    zero mode, truncation ``truncs[row]``, reality, divergence); each names its
    first failing row at the largest failing key: the representative of a failing pair.
    With ``representatives`` the rows are the half that ``conj_closure`` completes,
    exact by construction: reality is not checked, the rest name the same."""
    # Component planes (R, M): numpy loops over a length-2 last axis far slower.
    planes = (rows[..., 0], rows[..., 1])
    live = (planes[0] != 0) | (planes[1] != 0)
    amp = np.max(np.abs(rows), axis=(1, 2), initial=0.0)
    tol = REALITY_TOL * np.maximum(amp, 1e-300)[:, None]
    radius = np.max(np.abs(keys), axis=1, initial=0)
    unreal = False  # the representative half has no conjugate to differ from
    if not representatives:
        closed = np.array_equal(keys[::-1], -keys)
        mirror = rows[..., ::-1, :] if closed else gather(keys, rows, -keys)
        gap = np.maximum(*(np.abs(mirror[..., c] - np.conj(p)) for c, p in enumerate(planes)))
        unreal = ((mirror[..., 0] == 0) & (mirror[..., 1] == 0)) | (gap > tol)
    div = keys[:, 0] * planes[0]
    div += keys[:, 1] * planes[1]
    checks = (
        (~(np.isfinite(planes[0]) & np.isfinite(planes[1])), "non-finite coefficient at mode {k}"),
        (radius == 0, "zero-average constraint: mode (0,0) not allowed"),
        (radius > np.asarray(truncs)[:, None], "mode {k} outside truncation radius {t}"),
        (unreal, "reality condition violated at mode {k}"),
        (np.abs(div) > tol * radius, "divergence-free condition violated at mode {k}"),
    )
    for bad, message in checks:
        hit = live & bad
        if hit.any():
            r = int(np.argmax(hit.any(axis=1)))
            i = np.flatnonzero(hit[r])[-1]
            return r, message.format(k=tuple(keys[i].tolist()), t=truncs[r])
    return None


def _arrays(mapping):
    """Sorted (keys, coeffs) arrays of a mapping (kx, ky) -> coefficient 2-vector."""
    pairs = sorted(((int(k[0]), int(k[1])), v) for k, v in mapping.items())
    keys = np.array([k for k, _ in pairs], dtype=np.int64).reshape(-1, 2)
    try:
        coeffs = np.array([v for _, v in pairs], dtype=np.complex128).reshape(len(pairs), 2)
    except ValueError as exc:
        raise MalformedFieldError(f"coefficients must be complex 2-vectors ({exc})") from exc
    return keys, coeffs


class SpectralField:
    """Immutable truncated Fourier representation of a divergence-free field.

    Attributes:
      trunc: truncation radius N; every stored k satisfies max(|kx|,|ky|) <= N.
      keys: int64 (M, 2) wavevectors, strictly increasing in (kx, ky) order,
        never (0, 0); closed under negation, so keys[::-1] == -keys.
      coeffs: complex128 (M, 2) coefficient 2-vectors, row i for keys[i]; no
        row is zero.

    Both arrays are read-only; callers read them directly. ``SpectralField(trunc,
    mapping)`` builds a field from a mapping (kx, ky) -> 2-vector, validated;
    ``modes`` gives it back.
    """

    __slots__ = ("trunc", "keys", "coeffs")

    def __init__(self, trunc, mapping):
        self._assign(trunc, *_arrays(mapping))
        bad = first_violation(self.keys, self.coeffs[None], [self.trunc])
        if bad is not None:
            raise MalformedFieldError(bad[1])

    @classmethod
    def from_arrays(cls, trunc, keys, coeffs):
        """Field on sorted, duplicate-free ``keys``; zero rows are dropped. Unchecked:
        a caller reading untrusted arrays runs ``first_violation`` on them first."""
        field = cls.__new__(cls)
        field._assign(trunc, keys, coeffs)
        return field

    def _assign(self, trunc, keys, coeffs):
        live = (coeffs[:, 0] != 0) | (coeffs[:, 1] != 0)
        if not live.all():
            keys, coeffs = keys[live], coeffs[live]
        self.trunc = int(trunc)
        self.keys, self.coeffs = keys.view(), coeffs.view()
        self.keys.flags.writeable = False
        self.coeffs.flags.writeable = False

    @property
    def modes(self):
        """Read-only mapping (kx, ky) -> coefficient 2-vector, built on each access."""
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), self.coeffs)))

    # Linear combinations preserve all invariants; checks are skipped.
    def __add__(self, other):
        return lin_comb([1.0, 1.0], [self, other])

    def __sub__(self, other):
        return lin_comb([1.0, -1.0], [self, other])

    def __mul__(self, a):
        return lin_comb([float(a)], [self])

    __rmul__ = __mul__

    def __repr__(self):
        return f"SpectralField(trunc={self.trunc}, nmodes={len(self.keys)})"


def zero_field(trunc=1):
    return SpectralField(trunc, {})


def lin_comb(coeffs, fields):
    """Real-linear combination sum_i coeffs[i] * fields[i]."""
    pairs = list(zip(coeffs, fields))
    trunc = max([1] + [f.trunc for _, f in pairs])
    keys, slots = key_union([f.keys for _, f in pairs])
    # -0.0 is the additive identity, so each sum starts exactly at its first term.
    acc = np.full((len(keys), 2), complex(-0.0, -0.0))
    for (a, f), slot in zip(pairs, slots):
        acc[slot] += a * f.coeffs
    return SpectralField.from_arrays(trunc, keys, acc)


def divfree(keys, rows):
    """(I - k k^T / |k|^2) c(k) for each row of ``rows`` (..., M, 2) on ``keys``.

    Modes with k . c exactly 0 are returned as they are, signed zeros included.
    """
    k = keys.astype(np.float64)
    # One dot per mode (a stacked matmul), the arithmetic of k @ c(k).
    kc = np.matmul(k[:, None, :], rows[..., None])[..., 0, 0]
    proj = rows - (kc / np.sum(k * k, axis=1))[..., None] * k
    return np.where((kc != 0)[..., None], proj, rows)


def _eigenvalues(keys):
    return np.sum(keys * keys, axis=1).astype(np.float64)


def apply_fractional(u, s):
    """A^s u: scale mode k by |k|^{2s}. s=1 is the Stokes operator."""
    scaled = (_eigenvalues(u.keys) ** float(s))[:, None] * u.coeffs
    return SpectralField.from_arrays(u.trunc, u.keys, scaled)


def coefficient_energy(u, s=0.0):
    """sum_k |k|^{4s} |c(k)|^2 in deterministic (sorted-mode) order."""
    sq = np.sum(np.abs(u.coeffs) ** 2, axis=1)
    if s != 0.0:
        sq = _eigenvalues(u.keys) ** (2.0 * s) * sq
    return float(np.sum(sq))


def norm_ds(u, s):
    """D(A^s) norm |A^s u| by Parseval; s=0 is |.|, s=1/2 is ||.||, s=-1/2 the V' norm."""
    return TWO_PI * float(np.sqrt(coefficient_energy(u, float(s))))


def inner_ds(u, v, s=0.0):
    """Real inner product of D(A^s): (2pi)^2 Re sum |k|^{4s} c_u(k) . conj(c_v(k))."""
    terms = np.real(np.sum(u.coeffs * np.conj(gather(v.keys, v.coeffs, u.keys)), axis=1))
    if s != 0.0:
        terms = _eigenvalues(u.keys) ** (2.0 * s) * terms
    # Start from +0.0, as a running sum does, so no sum of zeros comes out -0.0.
    return TWO_PI * TWO_PI * float(np.sum(terms, initial=0.0))


def project_trunc(u, n):
    """Galerkin projection: drop modes with max(|kx|,|ky|) > n."""
    n = int(n)
    if u.trunc <= n:
        return SpectralField.from_arrays(n, u.keys, u.coeffs)
    keep = np.max(np.abs(u.keys), axis=1, initial=0) <= n
    return SpectralField.from_arrays(n, u.keys[keep], u.coeffs[keep])


def leray_grid(grid, nout):
    """The two component planes of the Leray projections of dense coefficient
    grids (..., 2 nout + 1, 2 nout + 1, 2); the (0, 0) cell is left as it is."""
    ks = np.arange(-nout, nout + 1)
    kx = ks[:, None].astype(np.float64)
    ky = ks[None, :].astype(np.float64)
    k2 = kx * kx + ky * ky
    k2[nout, nout] = 1.0
    dot = (kx * grid[..., 0] + ky * grid[..., 1]) / k2
    return grid[..., 0] - dot * kx, grid[..., 1] - dot * ky


def _field_from_grid(grid, nout):
    """The Leray projection of a dense coefficient grid (2 nout + 1, 2 nout + 1, 2)
    on its nonzero modes; row-major grid order is the lexicographic key order."""
    p0, p1 = leray_grid(grid, nout)
    live = (p0 != 0) | (p1 != 0)
    live[nout, nout] = False
    return SpectralField.from_arrays(nout, np.argwhere(live) - nout,
                                     np.stack([p0[live], p1[live]], axis=-1))


def bilinear_b(u, v):
    """B(u, v) = P((u.grad)v) by Fourier convolution on a padded FFT grid.

    The output truncation u.trunc + v.trunc holds every mode p + q. The grid
    is large enough that no mode aliases (``kernels.advect_convolve``), so
    each coefficient is the exact sum to roundoff (1e-14 relative), and the
    modes are those that some p + q reaches, less any whose projected
    coefficient comes out exactly zero.
    """
    nout = u.trunc + v.trunc
    grid = kernels.advect_convolve(u.keys, u.coeffs, v.keys, v.coeffs, nout)
    return _field_from_grid(grid, nout)


def bilinear_bs(u, v):
    """Symmetrized advection B_s(u, v) = B(u, v) + B(v, u)."""
    nout = u.trunc + v.trunc
    grid = kernels.advect_convolve(u.keys, u.coeffs, v.keys, v.coeffs, nout)
    grid += kernels.advect_convolve(v.keys, v.coeffs, u.keys, u.coeffs, nout)
    return _field_from_grid(grid, nout)


# ---------------------------------------------------------------------------
# Stokes eigenbasis
# ---------------------------------------------------------------------------


def sigma(k):
    """Unit divergence-free polarization direction of mode k (or of each row of k)."""
    k = np.asarray(k)
    norm = np.sqrt(np.sum(k * k, axis=-1).astype(np.float64))
    return np.stack([-k[..., 1] / norm, k[..., 0] / norm], axis=-1)


def representative_modes(radius):
    """Conjugate-pair representatives (kx > 0, or kx = 0 and ky > 0) by (|k|^2, kx, ky)."""
    reps = [(kx, ky) for kx in range(radius + 1) for ky in range(-radius, radius + 1)
            if kx > 0 or ky > 0]
    return sorted(reps, key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))


def eigen_basis(count):
    """First ``count`` entries (lam, k, pol) of the orthonormal eigenbasis of H.

    Eigenvalues |k|^2 are nondecreasing; ties are broken lexicographically on
    the representative (kx, ky), then cos before sin polarization.
    """
    # About pi r^2 entries lie within radius r; any radius that completes the
    # prefix gives the same list, so start just below the estimate.
    radius = max(1, math.isqrt(int(count / math.pi)))
    while True:
        # Representatives with |k|^2 <= radius^2 are complete at this radius.
        safe = [k for k in representative_modes(radius) if k[0] ** 2 + k[1] ** 2 <= radius * radius]
        if 2 * len(safe) >= count:
            return [(float(k[0] ** 2 + k[1] ** 2), k, pol) for k in safe
                    for pol in ("cos", "sin")][:count]
        radius += 1


def _eigen_arrays(count):
    """Keys (count, 2, 2) and coefficients (count, 2, 2) of phi_1..phi_count
    (``eigenfunctions``) on their pairs (-k, k), and their truncations:
    c(k) = amp sigma(k) (cos) or (amp / i) sigma(k) (sin), amp = 1 / (2 sqrt(2) pi),
    and c(-k) = conj(c(k))."""
    basis = eigen_basis(count)
    amp = 1.0 / (2.0 * np.sqrt(2.0) * np.pi)
    reps = np.array([k for _, k, _ in basis], dtype=np.int64).reshape(-1, 2)
    scale = np.array([amp if pol == "cos" else amp / 1j for _, _, pol in basis], dtype=np.complex128)
    c = scale[:, None] * sigma(reps).astype(np.complex128)
    keys = np.stack([-reps, reps], axis=1)
    coeffs = np.stack([np.conj(c), c], axis=1)
    return keys, coeffs, np.max(np.abs(reps), axis=1).tolist()


def eigenfunctions(count):
    """The first ``count`` eigenfunctions phi_1..phi_count of the Stokes operator,
    in ``eigen_basis`` order, real with unit H norm, in one array pass; phi_j is
    ``eigenfunctions(j)[-1]`` and its eigenvalue ``eigen_basis(j)[-1][0]``."""
    keys, coeffs, truncs = _eigen_arrays(count)
    return [SpectralField.from_arrays(t, k, cf) for t, k, cf in zip(truncs, keys, coeffs)]


def eigen_rows(weights):
    """Sorted keys, rows (R, len(keys), 2) and truncation of sum_j weights[r, j] phi_j
    for each row of the real (R, T) matrix ``weights``, phi_j as in ``eigenfunctions``,
    on all keys of phi_1..phi_T at the largest truncation of them, in one pass.

    Each row is bit-equal to ``lin_comb(weights[r], eigenfunctions(T))``: every
    cell starts at -0.0 and adds its terms in column order (on a pair +-k the
    cos term, then the sin term), each term computed as lin_comb computes it,
    so a weight of 0 adds a signed zero.
    """
    weights = np.asarray(weights, dtype=np.float64)
    keys, coeffs, truncs = _eigen_arrays(weights.shape[1])
    union, (slot,) = key_union([keys.reshape(-1, 2)])
    terms = weights[:, :, None, None] * coeffs  # (R, T, 2, 2): halves -k, k
    acc = np.full((len(weights), len(union), 2), complex(-0.0, -0.0))
    np.add.at(acc, (slice(None), slot), terms.reshape(len(weights), len(slot), 2))
    return union, acc, max([1] + truncs)


def random_divfree(trunc, rng, decay=1.0):
    """Random divergence-free field with ~|k|^{-2*decay} coefficient falloff."""
    reps = np.array(representative_modes(trunc), dtype=np.int64).reshape(-1, 2)
    # Per representative, in (|k|^2, kx, ky) order: two real parts, two imaginary.
    z = rng.standard_normal((len(reps), 2, 2))
    c = (z[:, 0] + 1j * z[:, 1]) / ((1.0 + _eigenvalues(reps)) ** decay)[:, None]
    keys, (slot,) = key_union([reps])
    lex = np.empty_like(c)
    lex[slot] = c
    keys, coeffs = conj_closure(keys, lex)  # real by construction, no (0, 0) mode
    return SpectralField.from_arrays(trunc, keys, divfree(keys, coeffs))
