"""Spectral representation of divergence-free 2D periodic velocity fields.

Fields live on the torus [0, 2pi]^2 and are stored as sparse maps from integer
wavevectors k = (kx, ky) to complex coefficient 2-vectors of e^{i k.x}. The
zero mode is excluded (zero spatial average), coefficients satisfy the reality
condition c(-k) = conj(c(k)), and k . c(k) = 0 (divergence-free). On this
domain the Stokes operator is diagonal with eigenvalues |k|^2, so the first
eigenvalue is exactly 1 and fractional powers are plain mode-wise scalings.

Norm convention (Parseval on [0, 2pi]^2):  |u|_{L^2}^2 = (2pi)^2 sum_k |c(k)|^2,
and the D(A^s) norm is |A^s u| with A^s scaling mode k by |k|^{2s}.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from . import kernels

TWO_PI = 2.0 * np.pi

REALITY_TOL = 1e-13


class MalformedFieldError(ValueError):
    """Raised when raw coefficient data violates a structural invariant."""


def _as_coeff(value):
    c = np.asarray(value, dtype=np.complex128)
    if c.shape != (2,):
        raise MalformedFieldError(f"coefficient must be a complex 2-vector, got shape {c.shape}")
    return c


class SpectralField:
    """Immutable truncated Fourier representation of a divergence-free field.

    Attributes:
      trunc: truncation radius N; every stored k satisfies max(|kx|,|ky|) <= N.
      modes: read-only mapping (kx, ky) -> complex coefficient 2-vector.
    """

    __slots__ = ("trunc", "modes", "_packed")

    def __init__(self, trunc, modes, check=True):
        cleaned = {}
        for k, v in modes.items():
            kx, ky = int(k[0]), int(k[1])
            c = _as_coeff(v)
            if c[0] == 0 and c[1] == 0:
                continue
            cleaned[(kx, ky)] = c
        self.trunc = int(trunc)
        self.modes = MappingProxyType(cleaned)
        self._packed = None
        if check:
            self._validate()

    def _validate(self):
        scale = self.amplitude()
        tol = REALITY_TOL * max(scale, 1e-300)
        for k, c in self.modes.items():
            if k == (0, 0):
                raise MalformedFieldError("zero-average constraint: mode (0,0) not allowed")
            if max(abs(k[0]), abs(k[1])) > self.trunc:
                raise MalformedFieldError(f"mode {k} outside truncation radius {self.trunc}")
            cc = self.modes.get((-k[0], -k[1]))
            if cc is None or np.max(np.abs(cc - np.conj(c))) > tol:
                raise MalformedFieldError(f"reality condition violated at mode {k}")
            if abs(k[0] * c[0] + k[1] * c[1]) > tol * max(abs(k[0]), abs(k[1])):
                raise MalformedFieldError(f"divergence-free condition violated at mode {k}")

    def packed(self):
        """Deterministically ordered (wavevectors, coefficients) arrays."""
        if self._packed is None:
            keys = sorted(self.modes)
            if keys:
                karr = np.array(keys, dtype=np.int64)
                carr = np.array([self.modes[k] for k in keys], dtype=np.complex128)
            else:
                karr = np.zeros((0, 2), dtype=np.int64)
                carr = np.zeros((0, 2), dtype=np.complex128)
            self._packed = (karr, carr)
        return self._packed

    def amplitude(self):
        """Largest coefficient magnitude (0.0 for the zero field)."""
        if not self.modes:
            return 0.0
        _, c = self.packed()
        return float(np.max(np.abs(c)))

    def is_zero(self):
        return not self.modes

    # Linear combinations preserve all invariants; checks are skipped.
    def __add__(self, other):
        return lin_comb([1.0, 1.0], [self, other])

    def __sub__(self, other):
        return lin_comb([1.0, -1.0], [self, other])

    def __mul__(self, a):
        return lin_comb([float(a)], [self])

    __rmul__ = __mul__

    def __repr__(self):
        return f"SpectralField(trunc={self.trunc}, nmodes={len(self.modes)})"


def zero_field(trunc=1):
    return SpectralField(trunc, {}, check=False)


def lin_comb(coeffs, fields):
    """Real-linear combination sum_i coeffs[i] * fields[i]."""
    acc = {}
    trunc = 1
    for a, f in zip(coeffs, fields):
        trunc = max(trunc, f.trunc)
        for k, c in f.modes.items():
            if k in acc:
                acc[k] = acc[k] + a * c
            else:
                acc[k] = a * c
    return SpectralField(trunc, acc, check=False)


def leray_project(raw, trunc=None):
    """Helmholtz-Leray projection of raw Fourier data onto divergence-free fields.

    Each mode is replaced by (I - k k^T / |k|^2) c(k); the (0,0) mode, if
    present, is dropped. Idempotent; gradient fields map to zero.

    Raises:
      MalformedFieldError: reality condition violated beyond 1e-13 relative.
    """
    items = {}
    scale = 0.0
    for k, v in raw.items():
        kx, ky = int(k[0]), int(k[1])
        c = _as_coeff(v)
        items[(kx, ky)] = c
        scale = max(scale, float(np.max(np.abs(c))))
    items.pop((0, 0), None)
    tol = REALITY_TOL * max(scale, 1e-300)
    out = {}
    for k, c in items.items():
        cc = items.get((-k[0], -k[1]))
        if cc is None:
            cc = np.zeros(2, dtype=np.complex128)
        if np.max(np.abs(cc - np.conj(c))) > tol:
            raise MalformedFieldError(f"reality condition violated at mode {k}")
        kvec = np.array(k, dtype=np.float64)
        proj = c - (kvec @ c) / (kvec @ kvec) * kvec
        out[k] = proj
    if trunc is None:
        trunc = max((max(abs(k[0]), abs(k[1])) for k in out), default=1)
    return SpectralField(trunc, out, check=False)


def apply_fractional(u, s):
    """A^s u: scale mode k by |k|^{2s}. s=1 is the Stokes operator, s=0 identity."""
    s = float(s)
    if s == 0.0:
        return u
    out = {}
    for k, c in u.modes.items():
        lam = float(k[0] * k[0] + k[1] * k[1])
        out[k] = lam**s * c
    return SpectralField(u.trunc, out, check=False)


def coefficient_energy(u, s=0.0):
    """sum_k |k|^{4s} |c(k)|^2 in deterministic (sorted-mode) order."""
    karr, carr = u.packed()
    if len(karr) == 0:
        return 0.0
    sq = np.sum(np.abs(carr) ** 2, axis=1)
    if s != 0.0:
        lam = (karr[:, 0] ** 2 + karr[:, 1] ** 2).astype(np.float64)
        sq = lam ** (2.0 * s) * sq
    return float(np.sum(sq))


def norm_ds(u, s):
    """D(A^s) norm |A^s u| by Parseval; s=0 is |.|, s=1/2 is ||.||, s=-1/2 the V' norm."""
    return TWO_PI * float(np.sqrt(coefficient_energy(u, float(s))))


def inner_ds(u, v, s=0.0):
    """Real inner product of D(A^s): (2pi)^2 Re sum |k|^{4s} c_u(k) . conj(c_v(k))."""
    total = 0.0
    for k in sorted(u.modes.keys() & v.modes.keys()):
        lam = float(k[0] * k[0] + k[1] * k[1])
        w = lam ** (2.0 * s) if s != 0.0 else 1.0
        total += w * float(np.real(np.vdot(v.modes[k], u.modes[k])))
    return TWO_PI * TWO_PI * total


def inner_h(u, v):
    """L^2 inner product of H; symmetric, inner_h(u, u) = norm_ds(u, 0)^2."""
    return inner_ds(u, v, 0.0)


def project_trunc(u, n):
    """Galerkin projection: drop modes with max(|kx|,|ky|) > n."""
    n = int(n)
    if u.trunc <= n:
        return SpectralField(n, dict(u.modes), check=False)
    kept = {k: c for k, c in u.modes.items() if max(abs(k[0]), abs(k[1])) <= n}
    return SpectralField(n, kept, check=False)


def _field_from_grid(grid, nout, trunc):
    """Leray-project a dense coefficient grid and collect nonzero modes."""
    ks = np.arange(-nout, nout + 1)
    kx = ks[:, None].astype(np.float64)
    ky = ks[None, :].astype(np.float64)
    k2 = kx * kx + ky * ky
    k2[nout, nout] = 1.0
    dot = (kx * grid[..., 0] + ky * grid[..., 1]) / k2
    p0 = grid[..., 0] - dot * kx
    p1 = grid[..., 1] - dot * ky
    live = (p0 != 0) | (p1 != 0)
    live[nout, nout] = False
    out = {}
    for i, j in np.argwhere(live):
        out[(int(i) - nout, int(j) - nout)] = np.array([p0[i, j], p1[i, j]])
    return SpectralField(trunc, out, check=False)


def bilinear_b(u, v, retruncate=None):
    """B(u, v) = P((u.grad)v) by exact Fourier convolution.

    The exact output truncation is u.trunc + v.trunc (no aliasing); pass
    ``retruncate`` for the solver's Galerkin closure to a smaller radius.
    """
    nout = u.trunc + v.trunc if retruncate is None else int(retruncate)
    ku, cu = u.packed()
    kv, cv = v.packed()
    grid = kernels.advect_convolve(ku, cu, kv, cv, nout)
    return _field_from_grid(grid, nout, nout)


def bilinear_bs(u, v, retruncate=None):
    """Symmetrized advection B_s(u, v) = B(u, v) + B(v, u)."""
    nout = u.trunc + v.trunc if retruncate is None else int(retruncate)
    ku, cu = u.packed()
    kv, cv = v.packed()
    grid = kernels.advect_convolve(ku, cu, kv, cv, nout) + kernels.advect_convolve(
        kv, cv, ku, cu, nout
    )
    return _field_from_grid(grid, nout, nout)


# ---------------------------------------------------------------------------
# Stokes eigenbasis
# ---------------------------------------------------------------------------


def sigma(k):
    """Unit divergence-free polarization direction of mode k."""
    kx, ky = k
    norm = np.sqrt(float(kx * kx + ky * ky))
    return np.array([-ky / norm, kx / norm])


def representative_modes(radius):
    """Conjugate-pair representatives (kx > 0, or kx = 0 and ky > 0) by (|k|^2, kx, ky)."""
    reps = []
    for kx in range(0, radius + 1):
        ky_lo = 1 if kx == 0 else -radius
        for ky in range(ky_lo, radius + 1):
            if kx == 0 and ky <= 0:
                continue
            if kx > 0 or ky > 0:
                reps.append((kx, ky))
    reps.sort(key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    return reps


def eigen_basis(count):
    """First ``count`` entries (lam, k, pol) of the orthonormal eigenbasis of H.

    Eigenvalues |k|^2 are nondecreasing; ties are broken lexicographically on
    the representative (kx, ky), then cos before sin polarization.
    """
    out = []
    radius = 1
    while True:
        reps = representative_modes(radius)
        # Representatives with |k|^2 <= radius^2 are complete at this radius.
        safe = [k for k in reps if k[0] ** 2 + k[1] ** 2 <= radius * radius]
        if 2 * len(safe) >= count:
            for k in safe:
                lam = float(k[0] ** 2 + k[1] ** 2)
                out.append((lam, k, "cos"))
                out.append((lam, k, "sin"))
                if len(out) >= count:
                    return out[:count]
        radius += 1


def eigenfunction(j):
    """j-th eigenfunction (1-based) of the Stokes operator; unit H norm, real."""
    if j < 1:
        raise ValueError("eigen index must be >= 1")
    lam, k, pol = eigen_basis(j)[j - 1]
    s = sigma(k)
    amp = 1.0 / (2.0 * np.sqrt(2.0) * np.pi)
    if pol == "cos":
        c = amp * s.astype(np.complex128)
    else:
        c = (amp / 1j) * s.astype(np.complex128)
    modes = {k: c, (-k[0], -k[1]): np.conj(c)}
    return SpectralField(max(abs(k[0]), abs(k[1])), modes, check=False)


def eigenvalue(j):
    return eigen_basis(j)[j - 1][0]


def random_divfree(trunc, rng, decay=1.0):
    """Random divergence-free field with ~|k|^{-2*decay} coefficient falloff."""
    raw = {}
    for k in representative_modes(trunc):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / (1.0 + float(k[0] ** 2 + k[1] ** 2)) ** decay
        raw[k] = c
        raw[(-k[0], -k[1])] = np.conj(c)
    return leray_project(raw, trunc)


# ---------------------------------------------------------------------------
# Coefficient-matrix helpers shared by the expansion engine
# ---------------------------------------------------------------------------


def union_modes(fields):
    """Sorted union of the mode sets of ``fields``."""
    keys = set()
    for f in fields:
        keys.update(f.modes)
    return sorted(keys)


def coeff_rows(fields, keys):
    """Stack coefficients on a shared sorted mode list: (len(fields), len(keys), 2)."""
    mat = np.zeros((len(fields), len(keys), 2), dtype=np.complex128)
    index = {k: i for i, k in enumerate(keys)}
    for r, f in enumerate(fields):
        for k, c in f.modes.items():
            mat[r, index[k]] = c
    return mat


def mode_weights(keys, s):
    """|k|^{4s} weights for D(A^s) norms on a shared mode list."""
    lam = np.array([k[0] ** 2 + k[1] ** 2 for k in keys], dtype=np.float64)
    return lam ** (2.0 * float(s))


def row_norm(row, weights):
    """D(A^s) norm of one coefficient row under precomputed weights."""
    return TWO_PI * float(np.sqrt(np.sum(weights * np.sum(np.abs(row) ** 2, axis=1))))


def row_inner(row_u, row_v, weights):
    """Real D(A^s) inner product of two coefficient rows."""
    return (
        TWO_PI
        * TWO_PI
        * float(np.sum(weights * np.real(np.sum(row_u * np.conj(row_v), axis=1))))
    )


def field_from_row(keys, row, trunc=None):
    modes = {}
    for k, c in zip(keys, row):
        if c[0] != 0 or c[1] != 0:
            modes[k] = np.array(c, dtype=np.complex128)
    if trunc is None:
        trunc = max((max(abs(k[0]), abs(k[1])) for k in modes), default=1)
    return SpectralField(trunc, modes, check=False)
