"""Analytic fixture tests: closed forms against high-precision evaluation."""

import dataclasses

import mpmath
import numpy as np
import pytest

from grashof_expand import expansion as ex
from grashof_expand import fixtures as fx
from grashof_expand import kernels
from grashof_expand import spectral as sp
from grashof_expand import steady as st

from conftest import witness_fields


def test_cstar_and_alpha_high_precision():
    cfg = fx.Example45Config.single(2, 1.0)
    with mpmath.workdps(40):
        cs = mpmath.sqrt(2**4 + mpmath.mpf(1) / 2 * (2**2 - 1) ** 2 / (2**2 + 1))
        assert fx.cstar(cfg) == pytest.approx(float(cs), rel=1e-15)
        a1 = mpmath.sqrt(2) * mpmath.pi * mpmath.sqrt(1 + cs**2)
        assert fx.example45_alpha(cfg, 1) == pytest.approx(float(a1), rel=1e-15)
    # multi-coefficient configuration
    cfg2 = fx.Example45Config(coeffs=((2, 1.0), (3, -0.5)))
    with mpmath.workdps(40):
        cs2 = mpmath.sqrt(
            16 + mpmath.mpf(9) / 4 * 9
            + mpmath.mpf(1) / 2 * (9 / mpmath.mpf(5) + mpmath.mpf(1) / 4 * 64 / mpmath.mpf(10))
        )
        assert fx.cstar(cfg2) == pytest.approx(float(cs2), rel=1e-14)


def test_example45_unit_direction_norms():
    for coeffs in (((2, 1.0),), ((2, 0.5), (4, -1.25)), ((3, 2.0),)):
        cfg = fx.Example45Config(coeffs=coeffs)
        rec = fx.example45(cfg, 2)
        assert sp.norm_ds(rec.w1, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert sp.norm_ds(rec.w2, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_example45_gamma_ratio_decays():
    cfg = fx.Example45Config.single(2, 1.0)
    ratios = []
    for n in range(1, 21):
        rec = fx.example45(cfg, n, check=False)
        ratios.append(rec.gamma2 / rec.gamma1)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1 * ratios[0]


def test_example45_steady_equation_selfcheck():
    cfg = fx.Example45Config(coeffs=((2, 1.0), (3, 0.25)))
    for n in (1, 5, 12):
        rec = fx.example45(cfg, n)  # check=True raises on failure
        p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=2 * rec.v_n.trunc)
        assert sp.norm_ds(st.residual(rec.v_n, p), 0) <= 1e-12 * sp.norm_ds(rec.g_n, 0)


def test_example45_check_of_a_given_steady_residual():
    """``check_example45`` takes the Galerkin residual at radius 2N, which
    ``example45_window`` computes once per sample, and still raises on either
    identity."""
    cfg = fx.Example45Config(coeffs=((2, 1.0), (3, 0.25)))
    rec = fx.example45(cfg, 4, check=False)
    p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=2 * rec.v_n.trunc)
    fx.check_example45(rec, st.residual(rec.v_n, p))
    with pytest.raises(fx.FixtureIntegrityError, match="steady equation"):
        fx.check_example45(rec, 1e-9 * rec.g_n)
    off = dataclasses.replace(rec, gamma2=rec.gamma2 * (1.0 + 1e-6))
    with pytest.raises(fx.FixtureIntegrityError, match="reconstruction"):
        fx.check_example45(off, st.residual(rec.v_n, p))


def test_example45_reconstruction_and_force_limit():
    cfg = fx.Example45Config.single(2, 1.0)
    recs = [fx.example45(cfg, n, check=False) for n in (5, 40, 80)]
    # g_n -> g in H
    dist = [sp.norm_ds(r.g_n - r.g, 0) for r in recs]
    assert dist[2] < dist[1] < dist[0]
    # mu0 = lim n / alpha_n
    assert recs[2].mu0 == pytest.approx(80.0 / recs[2].alpha, rel=1e-3)


def test_example45_config_validation():
    with pytest.raises(ValueError):
        fx.Example45Config(coeffs=((2, 0.0),))
    with pytest.raises(ValueError):
        fx.Example45Config(coeffs=((1, 1.0),))
    # each fault names its m: a NaN or infinite c_m, a zero beside a nonzero
    # one, an m given twice, no coefficient at all
    for coeffs, words in ((((2, float("nan")),), "c_2 = nan"),
                          (((2, 1.0), (3, float("inf"))), "c_3 = inf"),
                          (((2, 1.0), (5, -float("inf"))), "c_5 = -inf"),
                          (((2, 1.0), (4, 0.0)), "c_4 = 0.0 must be finite and nonzero"),
                          (((2, 1.0), (2, 3.0)), "c_2 is given more than once"),
                          ((), "at least one coefficient")):
        with pytest.raises(ValueError, match=words):
            fx.Example45Config(coeffs=coeffs)


# The construction of the example45 fields one n at a time from dicts of
# modes, kept as the oracle of the window's array pass.

def _sin_modes_y():
    c = np.array([1.0 / 2j, 0.0j])
    return {(0, 1): c, (0, -1): np.conj(c)}


def _sin_modes_x(m, amp):
    c = np.array([0.0j, amp / 2j])
    return {(m, 0): c, (-m, 0): np.conj(c)}


def _cross_modes(cfg, amp):
    raw = {}
    for m, c in cfg.coeffs:
        for sx in (1, -1):
            for sy in (1, -1):
                k = (sx * m, sy)
                raw[k] = raw.get(k, 0.0) + amp * c / 4j * np.array([sx, sy * m], dtype=np.complex128)
    return raw


def _merge(*dicts):
    out = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, np.zeros(2, dtype=np.complex128)) + c
    return out


def example45_by_dicts(cfg, n):
    """(v_n, f_n, g_n, g, v, w2) of index n, mode dict by mode dict."""
    trunc = max(m for m, _ in cfg.coeffs)
    alpha = fx.example45_alpha(cfg, n)
    mu0 = 1.0 / (fx.SQRT2PI * fx.cstar(cfg))
    big = _merge(_sin_modes_y(), *[_sin_modes_x(m, n * m * m * c) for m, c in cfg.coeffs],
                 _cross_modes(cfg, float(n)))
    f_n = sp.leray_project(big)
    u_n = sp.SpectralField(trunc, _merge(_sin_modes_y(), *[_sin_modes_x(m, n * c) for m, c in cfg.coeffs]))
    s_field = sp.SpectralField(trunc, _merge(*[_sin_modes_x(m, c) for m, c in cfg.coeffs]))
    g = sp.leray_project(_merge(*[_sin_modes_x(m, mu0 * m * m * c) for m, c in cfg.coeffs],
                                _cross_modes(cfg, mu0)))
    w2tilde = -1.0 * s_field
    w2 = (1.0 / sp.norm_ds(w2tilde, 0.5)) * w2tilde
    return (1.0 / alpha) * u_n, f_n, (1.0 / alpha) * f_n, g, mu0 * s_field, w2


@pytest.mark.parametrize("coeffs", [((2, 1.0),), ((2, 0.93), (3, -0.6)), ((3, 2.0),),
                                    ((2, 0.5), (4, -1.25), (7, 3.1e-3))])
def test_example45_window_bit_equal_to_dict_oracle(coeffs):
    """Every field of the window's array pass is the one the mode dicts give,
    bit for bit (signed zeros included), at every n; the records of the window
    and of ``example45`` are the same, and so is the raw force."""
    cfg = fx.Example45Config(coeffs=coeffs)
    ns = list(range(1, 31)) + [400]
    recs = fx.example45_window(cfg, ns)
    for rec in recs:
        want = example45_by_dicts(cfg, rec.n)
        got = (rec.v_n, rec.f_n, rec.g_n, rec.g, rec.v, rec.w2)
        assert all(_same_bits(a, b) for a, b in zip(got, want))
        assert rec.residual_h <= 1e-12 * sp.norm_ds(rec.g_n, 0)
    one = fx.example45(cfg, 7)
    for name, a in vars(one).items():
        b = getattr(recs[6], name)
        assert _same_bits(a, b) if isinstance(a, sp.SpectralField) else a == b
    raw = fx.example45_big_force(cfg, 7)
    big = _merge(_sin_modes_y(), *[_sin_modes_x(m, 7 * m * m * c) for m, c in cfg.coeffs],
                 _cross_modes(cfg, 7.0))
    assert sorted(raw) == sorted(big)
    assert all(raw[k].tobytes() == big[k].tobytes() for k in big)


@pytest.mark.parametrize("fault, words", [
    ("convolution", "steady equation residual too large at n=10"),
    ("alpha", "expansion reconstruction failed at n=10"),
])
def test_example45_window_checks_every_n(monkeypatch, fault, words):
    """A window whose middle sample is off fails at that sample: B(v_10, v_10)
    of the batched convolution, or alpha_10, moved by 1e-6 relative."""
    cfg = fx.Example45Config(coeffs=((2, 1.0), (3, 0.25)))
    fx.example45_window(cfg, range(1, 20))
    if fault == "convolution":
        convolve = kernels.advect_convolve

        def off(ku, cu, kv, cv, nout):
            grid = convolve(ku, cu, kv, cv, nout)
            grid[9] *= 1.0 + 1e-6
            return grid

        monkeypatch.setattr(kernels, "advect_convolve", off)
    else:
        alpha = fx.example45_alpha
        monkeypatch.setattr(fx, "example45_alpha",
                            lambda cfg, n: alpha(cfg, n) * np.where(n == 10, 1.0 + 1e-6, 1.0))
    with pytest.raises(fx.FixtureIntegrityError, match=words):
        fx.example45_window(cfg, range(1, 20))


def test_example314_norm_closed_form():
    for n in range(1, 7):
        rec = fx.example314(n)
        num = sp.norm_ds(rec.v_n, 0)
        with mpmath.workdps(40):
            q = mpmath.e ** (-2 * n)
            expect = float(
                mpmath.e ** (-n * n - n)
                * mpmath.sqrt((1 - q**64) / (1 - q))
            )
        assert num == pytest.approx(expect, rel=1e-12)
        # and the paper's infinite-sum value, which the truncation matches closely
        with mpmath.workdps(40):
            inf_expect = float(1 / (mpmath.e ** (n * n + n) * mpmath.sqrt(1 - q)))
        assert num == pytest.approx(inf_expect, rel=1e-12)


def test_example314_unitary_witness_distance():
    # |w_n^{(k)} - w_k| = e^{-n} / (1 - e^{-2n})^{1/2} for the unitary family.
    uni = fx.example314_unitary_expansion(depth=4)
    for k, term in enumerate(uni.terms, start=1):
        for i, (n, w) in enumerate(zip(range(1, 7), witness_fields(uni, term))):
            d = sp.norm_ds(w - term.direction, 0)
            expect = np.exp(-n) / np.sqrt(1 - np.exp(-2 * n))
            assert d == pytest.approx(expect, rel=1e-10)


def test_example314_degenerate_witness_norms():
    den = fx.example314_degenerate_expansion(depth=6)
    for k, term in enumerate(den.terms, start=1):
        norms = [sp.norm_ds(w, 0) for w in witness_fields(den, term)]
        for i, n in enumerate(range(1, 7)):
            expect = np.exp(n * k) * fx.example314_abs_v(n, 64)
            assert norms[i] == pytest.approx(expect, rel=1e-12)
        assert norms[-1] < norms[-2]  # -> 0 along the tail


def test_example314_reconstruction_exact():
    recs, alphas = fx.example314_window()
    data = ex.SequenceData(tuple(r.v_n for r in recs), tuple(alphas))
    for e in (fx.example314_unitary_expansion(), fx.example314_degenerate_expansion()):
        rep = ex.verify_expansion(e, data)
        recon = [c for c in rep.checks if c.axiom == "reconstruction"][0]
        assert recon.passed and recon.worst <= 1e-12


def _same_bits(got, want):
    return (got.trunc == want.trunc and got.keys.tobytes() == want.keys.tobytes()
            and got.coeffs.tobytes() == want.coeffs.tobytes())


def _example314_oracle(T, ns=range(1, 7), depth=6):
    """v_n, unitary witnesses and degenerate witnesses as ``lin_comb`` over
    ``eigenfunctions(T)``, one field at a time, with one scalar ``np.exp`` per weight."""
    phis = sp.eigenfunctions(T)
    v = {n: sp.lin_comb([np.exp(-n * n - k * n) for k in range(1, T + 1)], phis) for n in ns}
    uni = {(k, n): sp.lin_comb([1.0] + [np.exp(-(j - k) * n) for j in range(k + 1, T + 1)],
                               phis[k - 1:T])
           for k in range(1, depth + 1) for n in ns}
    den = {(k, n): np.exp(n * k) * v[n] for k in range(1, depth + 1) for n in ns}
    return phis, v, uni, den


@pytest.mark.parametrize("T", [16, 64, 256])
def test_example314_bit_equal_to_lin_comb_oracle(T):
    """The weight-matrix builds give the fields that summing single
    eigenfunctions gives, bit for bit. At T = 256 weights underflow to 0 (n = 6
    from k = 119 for v_n, from j - k = 125 for the witnesses); the witnesses of
    terms 2, 4 and 6 start on the sin half of a +-k pair, whose cos the oracle
    leaves out and the weight matrix weighs 0."""
    ns = range(1, 7)
    phis, v, uni, den = _example314_oracle(T)
    basis = sp.eigen_basis(6)
    assert [pol for _, _, pol in basis[1::2]] == ["sin"] * 3
    if T == 256:
        assert np.exp(-36 - 6 * 119) == 0.0 and np.exp(-36 - 6 * 118) > 0.0
    for n in ns:
        assert _same_bits(fx.example314(n, T).v_n, v[n])
    recs, _ = fx.example314_window(ns, T)
    assert all(_same_bits(r.v_n, v[r.n]) for r in recs)
    unitary = fx.example314_unitary_expansion(ns, T)
    degenerate = fx.example314_degenerate_expansion(ns, T)
    for k in range(1, 7):
        assert _same_bits(unitary.terms[k - 1].direction, phis[k - 1])
        uni_k = witness_fields(unitary, unitary.terms[k - 1])
        den_k = witness_fields(degenerate, degenerate.terms[k - 1])
        for i, n in enumerate(ns):
            assert _same_bits(uni_k[i], uni[k, n])
            assert _same_bits(den_k[i], den[k, n])
    assert _same_bits(unitary.limit, sp.zero_field(phis[0].trunc))
    assert _same_bits(degenerate.limit, sp.zero_field(v[1].trunc))


def test_example314_range_guard():
    with pytest.raises(ValueError):
        fx.example314(0)
    with pytest.raises(ValueError):
        fx.example314(7)
    with pytest.raises(ValueError):
        fx.example314(3, truncation=8)
    with pytest.raises(ValueError):
        fx.example314_degenerate_expansion(range(1, 8))


def test_fixture_determinism():
    cfg = fx.Example45Config.single(2, 1.0)
    a = fx.example45(cfg, 4)
    b = fx.example45(cfg, 4)
    ka, ca = a.v_n.packed()
    kb, cb = b.v_n.packed()
    assert np.array_equal(ka, kb) and np.array_equal(ca, cb)
    ra = fx.example314(3)
    rb = fx.example314(3)
    ka, ca = ra.v_n.packed()
    kb, cb = rb.v_n.packed()
    assert np.array_equal(ka, kb) and np.array_equal(ca, cb)
