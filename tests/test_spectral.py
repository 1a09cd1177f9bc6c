"""Spectral operator tests: projections, fractional powers, norms, advection."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from grashof_expand import fixtures as fx
from grashof_expand import kernels
from grashof_expand import spectral as sp

from conftest import shear_field
from oracles import bilinear_at, example45_big_force, leray_project, sequence_data

SQRT2PI = math.sqrt(2.0) * math.pi


def random_fields(count, trunc, seed=0, decay=1.0):
    rng = np.random.default_rng(seed)
    return [sp.random_divfree(trunc, rng, decay=decay) for _ in range(count)]


# ---------------------------------------------------------------------------
# leray_project
# ---------------------------------------------------------------------------


def test_leray_kills_gradient_fields():
    # c(k) parallel to k is the Fourier data of a gradient: grad(a e^{ik.x}).
    raw = {}
    scale = 0.0
    for k, a in [((1, 2), 0.7 + 0.2j), ((3, 0), -1.1 + 0.4j)]:
        raw[k] = 1j * a * np.array(k, dtype=np.complex128)
        raw[(-k[0], -k[1])] = np.conj(raw[k])
        scale = max(scale, float(np.max(np.abs(raw[k]))))
    out = leray_project(raw)
    assert np.max(np.abs(out.coeffs), initial=0.0) <= 1e-15 * scale


def test_leray_idempotent_on_divfree():
    u = random_fields(1, 5, seed=1)[0]
    again = leray_project(dict(u.modes), trunc=u.trunc)
    diff = again - u
    assert sp.norm_ds(diff, 0) <= 1e-14 * sp.norm_ds(u, 0)


def test_leray_rejects_reality_violation():
    raw = {(1, 0): np.array([0.0, 1.0j]), (-1, 0): np.array([0.0, 1.0j])}
    with pytest.raises(sp.MalformedFieldError):
        leray_project(raw)


def test_leray_drops_zero_mode():
    raw = {(0, 0): np.array([1.0 + 0j, 2.0 + 0j]),
           (0, 1): np.array([1 / 2j, 0]), (0, -1): np.array([-1 / 2j, 0])}
    out = leray_project(raw)
    assert (0, 0) not in out.modes


def test_leray_example45_force_norm_high_precision():
    # |P F_n| = sqrt(2) pi sqrt(1 + c_*^2 n^2), c_* evaluated in high precision.
    with mpmath.workdps(40):
        cs_hp = mpmath.sqrt(16 + mpmath.mpf(9) / 10)
        for n in (1, 4, 9):
            expect = float(mpmath.sqrt(2) * mpmath.pi * mpmath.sqrt(1 + cs_hp**2 * n**2))
            cfg = fx.Example45Config.single(2, 1.0)
            f = leray_project(example45_big_force(cfg, n))
            assert sp.norm_ds(f, 0) == pytest.approx(expect, rel=1e-13)


# ---------------------------------------------------------------------------
# apply_fractional / norms / inner products
# ---------------------------------------------------------------------------


def test_fractional_single_modes():
    phi = sp.eigenfunctions(1)[-1]  # |k| = 1
    assert sp.norm_ds(sp.apply_fractional(phi, 1.0) - phi, 0) == 0.0
    mode = sp.SpectralField(2, {(2, 0): np.array([0, 1 / 2j]),
                                (-2, 0): np.array([0, -1 / 2j])})
    scaled = sp.apply_fractional(mode, 0.5)
    diff = scaled - 2.0 * mode
    assert sp.norm_ds(diff, 0) <= 1e-15 * sp.norm_ds(mode, 0)


def test_fractional_exponent_additivity():
    for u in random_fields(5, 6, seed=2):
        a, b = 0.35, -0.6
        lhs = sp.apply_fractional(sp.apply_fractional(u, a), b)
        rhs = sp.apply_fractional(u, a + b)
        assert sp.norm_ds(lhs - rhs, 0) <= 1e-13 * sp.norm_ds(rhs, 0)


def test_norms_of_shear_by_quadrature():
    # |u| = ||u|| = |Au| = sqrt(2) pi for u = (sin y, 0), against mpmath quadrature.
    with mpmath.workdps(30):
        integral = mpmath.quad(lambda y: mpmath.sin(y) ** 2, [0, 2 * mpmath.pi])
        expect = float(mpmath.sqrt(integral * 2 * mpmath.pi))
    u = shear_field()
    for s in (0.0, 0.5, 1.0):
        assert sp.norm_ds(u, s) == pytest.approx(expect, rel=1e-14)
        assert sp.norm_ds(u, s) == pytest.approx(SQRT2PI, rel=1e-14)


def test_unit_mode_norm_any_exponent():
    phi = sp.eigenfunctions(2)[-1]
    for s in (-0.5, 0.0, 0.25, 1.0, 2.0):
        assert sp.norm_ds(phi, s) == pytest.approx(1.0, rel=1e-14)


def test_norm_monotonicity_poincare_chain():
    exps = (0.0, 0.25, 0.5, 1.0)
    for u in random_fields(100, 8, seed=3):
        norms = [sp.norm_ds(u, s) for s in exps]
        for lo, hi in zip(norms, norms[1:]):
            assert hi >= lo * (1.0 - 1e-14)


def test_parseval_same_summation_order():
    for u in random_fields(10, 6, seed=4):
        energy = sp.coefficient_energy(u, 0.0)
        assert sp.norm_ds(u, 0.0) == sp.TWO_PI * np.sqrt(energy)


def test_inner_h_orthonormal_eigenbasis():
    phis = sp.eigenfunctions(20)
    gram = np.array([[sp.inner_ds(a, b) for b in phis] for a in phis])
    assert np.max(np.abs(gram - np.eye(20))) <= 1e-14


def test_inner_h_energy_identity():
    for u in random_fields(10, 6, seed=5):
        au = sp.apply_fractional(u, 1.0)
        assert sp.inner_ds(u, au) == pytest.approx(sp.norm_ds(u, 0.5) ** 2, rel=1e-13)
        assert sp.inner_ds(u, u) == pytest.approx(sp.norm_ds(u, 0.0) ** 2, rel=1e-13)


def test_inner_h_symmetric_mixed_truncations():
    rng = np.random.default_rng(6)
    u = sp.random_divfree(3, rng)
    v = sp.random_divfree(6, rng)
    assert sp.inner_ds(u, v) == pytest.approx(sp.inner_ds(v, u), rel=1e-13, abs=1e-16)


# ---------------------------------------------------------------------------
# Advection bilinear map
# ---------------------------------------------------------------------------


def test_bilinear_shear_self_advection_vanishes():
    u = shear_field()
    assert len(sp.bilinear_b(u, u).keys) == 0


def test_bilinear_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = sp.random_divfree(6, rng)
        v = sp.random_divfree(6, rng)
        b = sp.bilinear_b(u, v)
        bound = 1e-12 * sp.norm_ds(u, 0.5) * sp.norm_ds(v, 0.5) ** 2
        assert abs(sp.inner_ds(b, v)) <= bound


def test_bilinear_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(10):
        u, v, w = (sp.random_divfree(5, rng) for _ in range(3))
        lhs = sp.inner_ds(sp.bilinear_b(u, v), w)
        rhs = -sp.inner_ds(sp.bilinear_b(u, w), v)
        scale = sp.norm_ds(u, 0.5) * sp.norm_ds(v, 0.5) * sp.norm_ds(w, 0.5)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_bilinear_2d_periodic_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = sp.random_divfree(6, rng)
        b = sp.bilinear_b(u, u)
        au = sp.apply_fractional(u, 1.0)
        bound = 1e-12 * sp.norm_ds(u, 0.5) ** 2 * sp.norm_ds(u, 1.0)
        assert abs(sp.inner_ds(b, au)) <= bound


def test_bilinear_example45_steady_identity_mode_by_mode(ex45_cfg):
    # -Delta u_n + (u_n . grad) u_n = F_n before projection, per mode.
    n = 3
    rec = fx.example45(ex45_cfg, n)
    u_n = rec.alpha * rec.v_n  # u_n
    ku, cu = u_n.keys, u_n.coeffs
    conv = kernels.advect_convolve(ku, cu, ku, cu, 2 * u_n.trunc)
    lap = sp.apply_fractional(u_n, 1.0)
    big = example45_big_force(ex45_cfg, n)
    nout = 2 * u_n.trunc
    for k, cexp in big.items():
        got = conv[k[0] + nout, k[1] + nout] + lap.modes.get(k, np.zeros(2))
        assert np.max(np.abs(got - np.asarray(cexp, dtype=complex))) <= 1e-12 * n


def test_bilinear_bs_symmetry_and_doubling():
    rng = np.random.default_rng(10)
    u = sp.random_divfree(5, rng)
    v = sp.random_divfree(5, rng)
    ab = sp.bilinear_bs(u, v)
    ba = sp.bilinear_bs(v, u)
    assert sp.norm_ds(ab - ba, 0) == 0.0  # grid sums commute exactly
    d = sp.bilinear_bs(u, u) - 2.0 * sp.bilinear_b(u, u)
    assert sp.norm_ds(d, 0) <= 1e-14 * sp.norm_ds(sp.bilinear_b(u, u), 0)


def test_bilinear_bs_example45_cross_term_closed_form(ex45_cfg):
    # B_s(v, w1) = (g - A v) / (sqrt(2) pi): the projected cross term.
    rec = fx.example45(ex45_cfg, 1)
    got = sp.bilinear_bs(rec.v, rec.w1)
    expect = (1.0 / SQRT2PI) * (rec.g - sp.apply_fractional(rec.v, 1.0))
    assert sp.norm_ds(got - expect, 0) <= 1e-13 * sp.norm_ds(expect, 0)


def test_bilinear_bs_cross_term_quadrature_anchor(ex45_cfg):
    # The (2,1) Fourier coefficient of P((v.grad)w1 + (w1.grad)v) against
    # mpmath quadrature of the closed-form cross term. Its integrand is
    # g(2x) h(y), so each coefficient is the product of two 1-D quadratures.
    rec = fx.example45(ex45_cfg, 1)
    amp = rec.mu0 / SQRT2PI
    with mpmath.workdps(25):
        two_pi = 2 * mpmath.pi

        def mean(f):
            return mpmath.quad(f, [0, two_pi]) / two_pi

        def coeff(gx, hy, weight):
            """weight g(2x) h(y) against e^{-i(2x + y)}, g and h the 1-D factors."""
            return (weight * mean(lambda x: gx(2 * x) * mpmath.e ** (-2j * x))
                    * mean(lambda y: hy(y) * mpmath.e ** (-1j * y)))

        c1 = coeff(mpmath.sin, mpmath.cos, amp)
        c2 = coeff(mpmath.cos, mpmath.sin, 2 * amp)
        dot = (2 * c1 + c2) / 5
        proj = (complex(c1 - 2 * dot), complex(c2 - dot))
    got = sp.bilinear_bs(rec.v, rec.w1).modes[(2, 1)]
    scale = abs(proj[1])
    assert abs(got[0] - proj[0]) <= 1e-12 * scale
    assert abs(got[1] - proj[1]) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------


def test_eigenfunction_lambda1_is_one():
    phi = sp.eigenfunctions(1)[-1]
    assert sp.eigen_basis(1)[-1][0] == 1.0
    assert sp.norm_ds(phi, 0) == pytest.approx(1.0, rel=1e-14)
    assert sp.norm_ds(sp.apply_fractional(phi, 1.0), 0) == pytest.approx(1.0, rel=1e-14)


def test_eigenfunctions_are_eigenvectors():
    for j in range(1, 51):
        phi = sp.eigenfunctions(j)[-1]
        lam = sp.eigen_basis(j)[-1][0]
        diff = sp.apply_fractional(phi, 1.0) - lam * phi
        assert sp.norm_ds(diff, 0) <= 1e-13 * lam


def test_eigenvalues_nondecreasing():
    lams = [sp.eigen_basis(j)[-1][0] for j in range(1, 60)]
    assert all(b >= a for a, b in zip(lams, lams[1:]))


def _eigen_basis_incremental(count):
    """The radius loop from 1 up that eigen_basis used to run (the oracle)."""
    radius = 1
    while True:
        safe = [k for k in sp.representative_modes(radius) if k[0] ** 2 + k[1] ** 2 <= radius**2]
        if 2 * len(safe) >= count:
            return [(float(k[0] ** 2 + k[1] ** 2), k, pol) for k in safe
                    for pol in ("cos", "sin")][:count]
        radius += 1


def test_eigen_basis_matches_incremental_radius_loop():
    for count in range(1, 701):
        assert sp.eigen_basis(count) == _eigen_basis_incremental(count), count


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


def test_operations_preserve_reality_and_divergence():
    rng = np.random.default_rng(12)
    u = sp.random_divfree(5, rng)
    v = sp.random_divfree(5, rng)
    outputs = [
        sp.apply_fractional(u, 0.7),
        sp.bilinear_b(u, v),
        sp.bilinear_bs(u, v),
        u + v,
        2.5 * u,
        sp.project_trunc(sp.bilinear_b(u, v), 3),
    ]
    for out in outputs:
        sp.SpectralField(out.trunc, dict(out.modes))  # revalidates


@pytest.mark.parametrize("coeff", [[1j], [0.0, 1j, 0.0], 1j], ids=["one", "three", "scalar"])
def test_field_rejects_a_coefficient_not_a_2_vector(coeff):
    with pytest.raises(sp.MalformedFieldError, match="coefficients must be complex 2-vectors"):
        sp.SpectralField(2, {(0, 1): coeff, (0, -1): np.conj(coeff)})


def test_field_rejects_divergence_violation():
    with pytest.raises(sp.MalformedFieldError):
        sp.SpectralField(2, {(1, 0): np.array([1.0 + 0j, 0.0j]),
                             (-1, 0): np.array([1.0 + 0j, 0.0j])})


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("representatives", [False, True], ids=["closed", "representatives"])
def test_first_violation_names_a_non_finite_coefficient_first(value, representatives):
    """Every comparison with NaN is false, so NaN passed the other checks: the
    finite check runs first, names the representative and warns of nothing."""
    field = sp.random_divfree(3, np.random.default_rng(4))
    keys, rows = field.keys, field.coeffs.copy()
    i = len(keys) - 2  # a representative; its divergence and reality break too
    rows[i, 0] = complex(1.0, value)
    rows[len(keys) - 1 - i, 1] = complex(value, 0.0)  # its conjugate
    if representatives:
        keys, rows = keys[sp.rep_half(len(keys))], rows[sp.rep_half(len(keys))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = sp.first_violation(keys, rows[None], [3], representatives=representatives)
    assert bad == (0, f"non-finite coefficient at mode {tuple(field.keys[i].tolist())}")


def test_eigenfunctions_bit_equal_to_eigenfunction():
    for j, phi in enumerate(sp.eigenfunctions(256), start=1):
        ref = sp.eigenfunctions(j)[-1]
        assert phi.trunc == ref.trunc
        assert phi.keys.tobytes() == ref.keys.tobytes()
        assert phi.coeffs.tobytes() == ref.coeffs.tobytes()


def test_eigenfunctions_match_closed_form():
    """phi_j on the pair +-k: c(k) = amp sigma(k) (cos) or (amp / i) sigma(k)
    (sin), c(-k) = conj(c(k)), amp = 1 / (2 sqrt(2) pi); representatives in
    (|k|^2, kx, ky) order, cos before sin. Built mode by mode in Python complex
    arithmetic and compared bit for bit."""
    amp = 1.0 / (2.0 * math.sqrt(2.0) * math.pi)
    reps = sorted(((kx, ky) for kx in range(11) for ky in range(-10, 11) if kx > 0 or ky > 0),
                  key=lambda k: (k[0] ** 2 + k[1] ** 2, k[0], k[1]))
    basis = [(k, pol) for k in reps for pol in ("cos", "sin")][:256]
    assert basis[-1][0][0] ** 2 + basis[-1][0][1] ** 2 < 100  # the radius-10 box is complete
    for phi, (k, pol) in zip(sp.eigenfunctions(256), basis, strict=True):
        scale = amp if pol == "cos" else amp / 1j
        c = [scale * complex(s) for s in sp.sigma(k).tolist()]
        assert phi.trunc == max(abs(k[0]), abs(k[1]))
        assert phi.keys.tobytes() == np.array([[-k[0], -k[1]], k], dtype=np.int64).tobytes()
        want = np.array([[z.conjugate() for z in c], c], dtype=np.complex128)
        assert phi.coeffs.tobytes() == want.tobytes()


def test_eigen_rows_bit_equal_to_lin_comb():
    """Each row of ``eigen_rows`` is ``lin_comb`` over eigenfunction(1..T), zero
    weights included as terms; odd T ends on a cos without its sin."""
    rng = np.random.default_rng(5)
    for T in (1, 2, 3, 17, 64, 256):
        phis = sp.eigenfunctions(T)
        w = rng.standard_normal((6, T))
        w[1, ::2] = 0.0   # every cos weight 0
        w[2, 1::2] = 0.0  # every sin weight 0
        w[3] = 0.0        # the zero field, at the largest truncation of phi_1..phi_T
        w[4, 5:] = 0.0
        w[5] = np.exp(-750.0 * rng.random(T))  # some weights underflow to 0
        keys, rows, trunc = sp.eigen_rows(w)
        assert keys.tobytes() == sp.key_union([phi.keys for phi in phis])[0].tobytes()
        for row, got in zip(w, rows, strict=True):
            ref = sp.lin_comb(list(row), phis)
            got = sp.SpectralField.from_arrays(trunc, keys, got)
            assert got.trunc == ref.trunc
            assert got.keys.tobytes() == ref.keys.tobytes()
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()
    assert sp.eigen_rows(np.zeros((0, 8)))[1].shape == (0, 8, 2)


def _assert_sorted_closed(f):
    k = f.keys
    assert k.dtype == np.int64 and k.shape == (len(k), 2)
    assert f.coeffs.dtype == np.complex128 and f.coeffs.shape == k.shape
    step = np.diff(k, axis=0)
    assert np.all((step[:, 0] > 0) | ((step[:, 0] == 0) & (step[:, 1] > 0)))  # strictly sorted
    assert np.array_equal(k[::-1], -k)
    assert not np.any(np.all(k == 0, axis=1))
    assert not np.any(np.all(f.coeffs == 0, axis=1))


def test_field_ops_return_sorted_closed_keys(tmp_path):
    from grashof_expand import expansion as ex
    from grashof_expand import fieldio

    rng = np.random.default_rng(13)
    u = sp.random_divfree(5, rng)
    v = sp.random_divfree(3, rng)
    w = leray_project(dict(u.modes), trunc=u.trunc)
    fieldio.write_field(tmp_path / "u.json", u)
    win = sequence_data([u, v, sp.eigenfunctions(7)[-1]], [1.0, 2.0, 3.0])
    outputs = [
        u, v, w,
        sp.lin_comb([0.5, -2.0, 1.0], [u, v, u]),
        u - u,
        sp.apply_fractional(v, -0.5),
        sp.project_trunc(u, 2),
        sp.bilinear_b(u, v),
        bilinear_at(u, v, 4, symmetric=True),
        sp.bilinear_b(shear_field(), shear_field()),
        sp.eigenfunctions(5)[-1],
        *sp.eigenfunctions(12),
        fieldio.read_field(tmp_path / "u.json"),
        win.to_field(win.flat[1]),
        win.to_field(win.flat[0] - win.flat[2]),
    ]
    for out in outputs:
        _assert_sorted_closed(out)
