"""Expansion engine tests: extraction, restructuring, verification, uniqueness.

The brute-force oracle re-implements the strict recursion (including the limit
estimator cascade) directly on the closed-form eigencoefficient arrays of the
dual-expansion family, with no SpectralField machinery, and must match the
engine to 1e-12 relative.
"""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from grashof_expand import expansion as ex
from grashof_expand import fieldio
from grashof_expand import fixtures as fx
from grashof_expand import spectral as sp
from grashof_expand.seqlimit import estimate_limit

from conftest import witness_fields
from oracles import example314_abs_v, sequence_data, uniqueness_check


# ---------------------------------------------------------------------------
# NestedScale
# ---------------------------------------------------------------------------


def test_scale_regime_follows_from_exponents(ex45_extraction):
    assert ex.default_scale_2dp(6).regime == "2d-periodic"
    assert ex.constant_scale(0.5).regime == "constant"
    assert ex.NestedScale((0.4, 0.3)).regime == "general"
    strict, _ = ex45_extraction
    restructured = ex.restructure(strict).scale
    assert restructured.regime == "2d-periodic"
    assert set(restructured.exponents) <= set(strict.scale.exponents)
    uni = _insert_zero_level(fx.example314_unitary_expansion(depth=4), position=1)
    assert ex.restructure(uni).scale.regime == "constant"


@pytest.mark.parametrize("exps, words", [
    ((0.9, 0.3), "general scale exponents must lie in (0.0, 0.5)"),
    ((0.6, 0.7), "strictly decreasing"),
    ((np.inf,) * 4, "must be finite"),
    ((0.9, np.nan), "must be finite"),
], ids=["mixed-ranges", "increasing", "constant-inf", "nan"])
def test_scale_rejects_bad_exponents(exps, words):
    with pytest.raises(ValueError, match=re.escape(words)):
        ex.NestedScale(exps)


# ---------------------------------------------------------------------------
# extract_strict
# ---------------------------------------------------------------------------


def test_extract_constant_sequence_is_trivial():
    rng = np.random.default_rng(0)
    v = sp.random_divfree(4, rng)
    data = sequence_data((v,) * 8, tuple(2.0**j for j in range(8)))
    res = ex.extract_strict(data, ex.default_scale_2dp(4))
    assert res.kind == "trivial"
    assert res.depth == 0
    assert sp.norm_ds(res.limit - v, 0.75) <= 1e-13 * sp.norm_ds(v, 0.75)


def test_extract_rejects_short_window():
    rng = np.random.default_rng(1)
    v = sp.random_divfree(3, rng)
    data = sequence_data((v,) * 5, tuple(2.0**j for j in range(5)))
    with pytest.raises(ValueError):
        ex.extract_strict(data, ex.default_scale_2dp(4))


def test_extract_rejects_nonconvergent_window():
    phi = sp.eigenfunctions(1)[-1]
    fields = tuple(phi if n % 2 == 0 else -1.0 * phi for n in range(8))
    data = sequence_data(fields, tuple(2.0**j for j in range(8)))
    with pytest.raises(ex.NotConvergentError):
        ex.extract_strict(data, ex.default_scale_2dp(4))


def test_extract_example314_strict_values(ex314_window):
    _, data = ex314_window
    strict = ex.extract_strict(data, ex.constant_scale(0.0, 3))
    assert sp.norm_ds(strict.limit, 0) <= 1e-12
    ns = np.arange(1, 7)
    # Gamma_1,n is the exact H norm of v_n (norm-based strict coefficients).
    g1_expect = np.array([example314_abs_v(n, 64) for n in ns])
    assert np.max(np.abs(strict.terms[0].gammas - g1_expect) / g1_expect) <= 1e-13
    # first two strict directions are phi_1, phi_2
    for k in (1, 2):
        d = strict.terms[k - 1].direction
        phi = sp.eigenfunctions(k)[-1]
        assert min(sp.norm_ds(d - phi, 0), sp.norm_ds(d + phi, 0)) <= 1e-10


def test_extract_example314_unitary_matches_paper(ex314_extraction):
    _, unitary = ex314_extraction
    ns = np.arange(1, 7)
    assert sp.norm_ds(unitary.limit, 0) <= 1e-12
    for k, term in enumerate(unitary.terms, start=1):
        expect = np.exp(-k * ns - ns * ns)
        assert np.max(np.abs(term.gammas - expect) / expect) <= 1e-12
        phi = sp.eigenfunctions(k)[-1]
        diff = min(sp.norm_ds(term.direction - phi, 0), sp.norm_ds(term.direction + phi, 0))
        assert diff <= 1e-10


def test_extract_example45_recovers_closed_forms(ex45_records, ex45_extraction):
    strict, unitary = ex45_extraction
    rec = ex45_records[0]
    assert sp.norm_ds(strict.limit - rec.v, 0.5) <= 1e-10
    g1 = np.array([r.gamma1 for r in ex45_records])
    g2 = np.array([r.gamma2 for r in ex45_records])
    t1, t2 = unitary.terms[0], unitary.terms[1]
    assert np.max(np.abs(t1.gammas - g1) / g1) <= 1e-8
    assert abs(sp.norm_ds(t1.direction, 0.5) - 1.0) <= 1e-10
    assert min(sp.norm_ds(t1.direction - rec.w1, 0.5),
               sp.norm_ds(t1.direction + rec.w1, 0.5)) <= 1e-6
    assert np.max(np.abs(t2.gammas - g2) / g2) <= 1e-6
    assert min(sp.norm_ds(t2.direction - rec.w2, 0.5),
               sp.norm_ds(t2.direction + rec.w2, 0.5)) <= 1e-6


def test_strict_witnesses_unit_norm(ex45_extraction, ex314_extraction):
    for strict in (ex45_extraction[0], ex314_extraction[0]):
        for k, term in enumerate(strict.terms, start=1):
            s_prev = strict.scale.exponent(k - 1)
            for w in witness_fields(strict, term):
                assert abs(sp.norm_ds(w, s_prev) - 1.0) <= 1e-13


def test_witness_scale_monotonicity(ex45_extraction):
    # || u ||_{Z_k} <= || u ||_{Z_{k-1}} along the decreasing scale.
    strict, _ = ex45_extraction
    exps = strict.scale.exponents
    for term in strict.terms:
        for w in witness_fields(strict, term):
            norms = [sp.norm_ds(w, s) for s in exps]
            for hi, lo in zip(norms, norms[1:]):
                assert lo <= hi * (1 + 1e-13)


def test_extract_rejects_window_without_overall_decay():
    # The increments hold steady (they grow by a factor 1 + 1e-12 per sample). The
    # samples lie within the Gamma floor of their limit, so extraction keeps no
    # term, and verify rejects v_n = v: the samples move by more than roundoff.
    phi1, phi5 = sp.eigenfunctions(1)[-1], sp.eigenfunctions(5)[-1]
    fields = []
    for n in range(1, 9):
        fields.append(sp.lin_comb([1.0, 0.2 * (1 + 1e-12) ** n], [phi1, phi5]))
    data = sequence_data(tuple(fields), tuple(2.0**j for j in range(8)))
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "strict expansion: level 1 fails reconstruction")):
        ex.extract_strict(data, ex.default_scale_2dp(4))


# Constructed windows for the remaining exits: v = 3 phi_1 plus residuals on
# phi_2, phi_3 (|k|^2 = 1, so orthonormal in every D(A^s)) and phi_5.
PHI = [None] + sp.eigenfunctions(5)
V = 3.0 * PHI[1]
GEOMETRIC = [2.0**j for j in range(8)]


def _window(alphas, weights):
    """SequenceData of v + sum_j weights[n][j] phi_{j+2} (phi_2, phi_3, phi_4, phi_5)."""
    return sequence_data([sp.lin_comb([1.0, *w], [V, *PHI[2:2 + len(w)]]) for w in weights],
                              alphas)


def test_sequence_data_rejects_alphas_out_of_order():
    alphas = list(GEOMETRIC)
    alphas[3], alphas[4] = alphas[4], alphas[3]
    with pytest.raises(ValueError, match=re.escape(
            "alphas must be strictly increasing: sample 5 has alpha 8.0 after 16.0")):
        _window(alphas, [[1.0 / a] for a in alphas])
    with pytest.raises(ValueError, match="sample 2 has alpha 1.0 after 1.0"):
        _window([1.0, 1.0], [[1.0], [1.0]])


@pytest.mark.parametrize("alphas, words", [
    ([1.0, 2.0], "fields and alphas must have equal length"),
    ([0.0, 1.0, 2.0], "alphas must be positive"),
    ([-1.0, 1.0, 2.0], "alphas must be positive"),
], ids=["unequal-lengths", "zero-alpha", "negative-alpha"])
def test_sequence_data_rejects_bad_windows(alphas, words):
    with pytest.raises(ValueError, match=words):
        sequence_data((V, V, V), alphas)


def test_extract_finite_unitary_when_witnesses_stabilize():
    data = _window(GEOMETRIC, [[1.0 / a] for a in GEOMETRIC])
    res = ex.extract_strict(data, ex.default_scale_2dp(4))
    assert (res.kind, res.depth_reason) == ("finite-unitary", "witnesses stabilized at level 1")
    assert np.allclose(res.terms[0].gammas, 1.0 / np.array(GEOMETRIC), rtol=1e-13, atol=0)
    assert sp.norm_ds(res.terms[0].direction - PHI[2], 0.75) <= 1e-13
    assert ex.verify_expansion(res, data).passed


def test_extract_stops_at_gamma_floor_of_level_2():
    # The level-1 witnesses still move by about 1e-9 x_n, so they do not count as
    # stabilized, but what they leave is below the 1e-9 floor.
    alphas = [1.0 + 0.2 * n for n in range(8)]
    data = _window(alphas, [[1.0 / a, 0.0, 0.0, 1e-9 / a**2] for a in alphas])
    res = ex.extract_strict(data, ex.default_scale_2dp(4))
    assert (res.kind, res.depth, res.depth_reason) == ("strict", 1, "gamma floor at level 2")


def test_extract_rejects_a_residual_that_vanishes_at_some_samples():
    # The window reaches its limit at the last sample: Gamma_{1,M} = 0 exactly.
    ys = [0.3**n for n in range(7)] + [0.0]
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "level-1 residual vanishes for some n but not all: first at sample 8 (alpha 128.0)")):
        ex.extract_strict(_window(GEOMETRIC, [[y] for y in ys]), ex.default_scale_2dp(4))


def test_extract_rejects_a_window_whose_gamma1_does_not_decay():
    # Increments decay by 0.7 per sample, but alpha grows only from 1 to 1.35: the
    # ls-poly limit at 1/alpha = 0 lies far off, so Gamma_{1,n} stays flat.
    alphas = [1.0 + 0.05 * n for n in range(8)]
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "strict expansion: level 1 fails gamma1-decay, witness-convergence-k1, "
            "remainder-ratio")):
        ex.extract_strict(_window(alphas, [[0.7**n] for n in range(8)]), ex.default_scale_2dp(4))


def test_extract_accepts_increments_that_grow_again():
    # v + y_n phi_2 is an exact one-term expansion whatever the increments of y_n
    # do: they grow again into sample 7 (from 0.03 to 0.07), and extraction still
    # finds the term, which verify accepts in every form.
    ys = [1.0, 0.5, 0.3, 0.2, 0.15, 0.12, 0.05, 0.0]
    data = _window(GEOMETRIC, [[y] for y in ys])
    strict = ex.extract_strict(data, ex.default_scale_2dp(4))
    for e in (strict, ex.restructure(strict), ex.refine_unitary(strict, data)):
        assert (e.kind, e.depth) == ("finite-unitary", 1)
        assert ex.verify_expansion(e, data).passed, str(ex.verify_expansion(e, data))


def test_extract_rejects_a_termless_form_that_does_not_reconstruct():
    # The samples lie within the Gamma floor of v (1e-10 x 0.5^n against a window
    # scale of 3), so no level is kept; but v_n = v fails reconstruction by 3.3e-11,
    # above RECON_TOL, so the trivial form is not written.
    data = _window(GEOMETRIC, [[1e-10 * 0.5**n] for n in range(8)])
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "strict expansion: level 1 fails reconstruction")):
        ex.extract_strict(data, ex.default_scale_2dp(4))


def test_extract_rejects_a_window_whose_level_1_fails_verify():
    # The last sample moves away from v again: the increments still decrease, so the
    # window gates pass, but Gamma_{1,n} rises at the window end.
    ys = [1.0, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1, 0.11]
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "strict expansion: level 1 fails gamma1-decay, remainder-ratio")):
        ex.extract_strict(_window(GEOMETRIC, [[y] for y in ys]), ex.default_scale_2dp(4))
    # Unit residuals turning through 1.2 rad on phi_2, phi_3 as alpha grows from 1
    # to 1.35: the level-1 witnesses move away from their direction.
    alphas = [1.0 + 0.05 * n for n in range(8)]
    turn = [3.0 * (1.0 - 1.0 / a) for a in alphas]
    data = _window(alphas, [[np.cos(t) / a, np.sin(t) / a] for t, a in zip(turn, alphas)])
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "unitary expansion: level 1 fails witness-convergence-k1")):
        _refine_from_v(data)


# ---------------------------------------------------------------------------
# refine_unitary exits
# ---------------------------------------------------------------------------


def _refine_from_v(data):
    """refine_unitary in V = D(A^{1/2}) from the exact limit v."""
    strict = ex.ExpansionResult(
        limit=V, terms=[], kind="strict", form="strict", scale=ex.default_scale_2dp(4),
        degenerate_n=None, depth_reason="", limit_estimator="exact",
        keys=data.keys, trunc=data.trunc)
    return ex.refine_unitary(strict, data)


def test_refine_stops_on_exact_reconstruction():
    # The last sample equals v, so peeling stops before level 1; the termless form
    # v_n = v does not reconstruct the other samples.
    ys = [1.0 / a for a in GEOMETRIC[:-1]] + [0.0]
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "unitary expansion: level 1 fails reconstruction")):
        _refine_from_v(_window(GEOMETRIC, [[y] for y in ys]))


def test_refine_degenerate_on_a_zero_direction():
    # Residuals alternating in sign have unit witnesses +-phi_2 whose limit is 0.
    data = _window(GEOMETRIC, [[(-1.0)**n / a] for n, a in enumerate(GEOMETRIC)])
    res = _refine_from_v(data)
    assert (res.kind, res.degenerate_n, res.depth_reason) == (
        "degenerate", 0, "zero direction at level 1")
    assert res.depth == 1 and len(res.terms[0].direction.keys) == 0


def test_refine_flips_a_direction_against_the_residuals():
    # Residuals on phi_2 that lean toward phi_3 by 0.02 and 0.00285 rad at the
    # first two samples as alpha grows from 1 to 1.35. The degree-6 ls-poly limit
    # at 1/alpha = 0 all but cancels the phi_3 leans, yet turns the phi_2 deficits
    # (2e-4 and 4e-6) into a phi_2 part near -7.6: it points away from every
    # residual, so the direction is flipped and every Gamma stays positive.
    alphas = [1.0 + 0.05 * n for n in range(8)]
    leans = [0.02, 0.00285] + [0.0] * 6
    data = _window(alphas, [[np.cos(t) / a, np.sin(t) / a] for t, a in zip(leans, alphas)])
    resid = data.flat - ex._rows(data.keys, [V])[0]
    units = resid / data.norms(resid, 0.5)[:, None]
    raw, _ = estimate_limit(units, 1.0 / np.array(alphas), ex._tail(8))
    assert np.all(data.inner(resid, raw, 0.5) < 0)
    res = _refine_from_v(data)
    assert res.depth == 1 and np.all(res.terms[0].gammas > 0)
    direction = ex._rows(data.keys, [res.terms[0].direction])[0]
    assert np.all(data.inner(resid, direction, 0.5) > 0)


def test_refine_stops_on_a_non_positive_projection():
    # The first sample lies on the far side of v from all the others: peeling stops
    # at level 1, and the termless form v_n = v does not reconstruct.
    signs = [-1.0] + [1.0] * 7
    with pytest.raises(ex.NotConvergentError, match=re.escape(
            "unitary expansion: level 1 fails reconstruction")):
        _refine_from_v(_window(GEOMETRIC, [[s / a] for s, a in zip(signs, GEOMETRIC)]))


def test_refine_cuts_the_level_that_fails_ratio_decay():
    # Past the phi_2 direction an alternating phi_3 part of the same size remains:
    # Gamma_{2,n} / Gamma_{1,n} does not fall, so verify rejects level 2.
    data = _window(GEOMETRIC, [[1.0 / a, (-1.0)**n / a] for n, a in enumerate(GEOMETRIC)])
    res = _refine_from_v(data)
    assert (res.kind, res.depth, res.depth_reason) == (
        "infinite-unitary", 1, "level 2 fails ratio-decay-k1")
    assert res.decision_log[-1] == res.depth_reason
    assert ex.verify_expansion(res, data).passed


# ---------------------------------------------------------------------------
# Brute-force oracle (closed-form eigencoefficient arithmetic)
# ---------------------------------------------------------------------------


def oracle_strict_eigen(coeffs, alphas, kmax, tail):
    """Strict recursion on an (M, K) eigencoefficient matrix, plain ell^2.

    Independent of the field machinery: works on the orthonormal-basis
    coefficients where every D(A^0) norm is the euclidean row norm.
    """
    xs = 1.0 / np.asarray(alphas)
    vhat, _ = estimate_limit(coeffs, xs, tail)
    resid = coeffs - vhat
    gammas_all, dirs_all = [], []
    for _ in range(kmax):
        gam = np.sqrt(np.sum(resid**2, axis=1))
        wit = resid / gam[:, None]
        what, _ = estimate_limit(wit, xs, tail)
        gammas_all.append(gam)
        dirs_all.append(what)
        resid = resid - gam[:, None] * what
    return vhat, gammas_all, dirs_all


def test_brute_force_oracle_matches_engine(ex314_window, ex314_extraction):
    _, data = ex314_window
    strict, _ = ex314_extraction
    truncation = 8  # few-mode variant for the oracle comparison
    ns = range(1, 7)
    coeffs = np.array([[np.exp(-n * n - k * n) for k in range(1, truncation + 1)]
                       for n in ns])
    alphas = [float(np.exp(n)) for n in ns]
    vhat, gammas, dirs = oracle_strict_eigen(coeffs, alphas, kmax=3, tail=ex._tail(6))
    fields = tuple(
        sp.lin_comb(list(coeffs[i]), sp.eigenfunctions(truncation))
        for i in range(6)
    )
    data8 = sequence_data(fields, tuple(alphas))
    engine = ex.extract_strict(data8, ex.constant_scale(0.0, 3))
    assert np.max(np.abs(vhat)) <= 1e-12
    assert sp.norm_ds(engine.limit, 0) <= 1e-12
    phis = sp.eigenfunctions(truncation)
    for k in range(3):
        ge = engine.terms[k].gammas
        go = gammas[k]
        # Level k is computed by cancelling level-(k-1)-scale quantities, so
        # any float path carries absolute noise of a few hundred ulp of Gamma_{k-1,n};
        # allow that conditioning floor on top of the 1e-12 relative agreement.
        floor = 1e-13 * (gammas[k - 1] if k > 0 else np.ones_like(go))
        assert np.all(np.abs(ge - go) <= 1e-12 * go + floor)
        oracle_dir = sp.lin_comb(list(dirs[k]), phis)
        diff = sp.norm_ds(engine.terms[k].direction - oracle_dir, 0)
        # Witness noise at level k is amplified by Gamma_{k-1}/Gamma_k over the
        # estimator window; the direction can only be as sharp as that allows.
        kappa = float(np.max(gammas[k - 1][-5:] / go[-5:])) if k > 0 else 1.0
        assert diff <= 1e-12 + 1e-13 * kappa


# ---------------------------------------------------------------------------
# restructure
# ---------------------------------------------------------------------------


def test_restructure_identity_on_clean_unitary():
    uni = fx.example314_unitary_expansion(depth=4)
    out = ex.restructure(uni)
    assert out.kind == "infinite-unitary"
    assert out.depth == uni.depth
    for t_in, t_out in zip(uni.terms, out.terms):
        assert np.array_equal(t_in.gammas, t_out.gammas)
        assert sp.norm_ds(t_in.direction - t_out.direction, 0) == 0.0


def test_restructure_idempotent_and_partial_sums():
    uni = fx.example314_unitary_expansion(depth=4)
    scaled = _scale_directions(uni, [2.0, 0.5, 3.0, 1.25])
    once = ex.restructure(scaled)
    twice = ex.restructure(once)
    _assert_structurally_equal(once, twice)
    _assert_partial_sums_match(scaled, once)


def test_restructure_removes_interior_zero_direction():
    uni = fx.example314_unitary_expansion(depth=4)
    withzero = _insert_zero_level(uni, position=1)
    out = ex.restructure(withzero)
    assert out.depth == withzero.depth - 1
    assert out.kind == "infinite-unitary"
    _assert_partial_sums_match(withzero, out)
    # reconstruction identity survives the removal at every level
    fields, _ = fx.example314_window()
    data = sequence_data(fields, tuple(float(np.exp(n)) for n in range(1, 7)))
    rep = ex.verify_expansion(out, data)
    recon = [c for c in rep.checks if c.axiom == "reconstruction"][0]
    assert recon.passed


def test_restructure_degenerate_fixture():
    den = fx.example314_degenerate_expansion(depth=5)
    out = ex.restructure(den)
    assert out.kind == "degenerate"
    assert out.degenerate_n == 0


def test_restructure_trailing_zero_classifies_degenerate():
    uni = fx.example314_unitary_expansion(depth=3)
    # zero out the trailing directions: unit levels 1..N then zeros
    terms = list(uni.terms)
    for k in (1, 2):
        t = terms[k]
        terms[k] = ex.ExpansionTerm(t.gammas, sp.zero_field(t.direction.trunc),
                                    t.witnesses, t.estimator)
    modified = replace(uni, terms=terms, depth_reason="test")
    out = ex.restructure(modified)
    assert out.kind == "degenerate"
    assert out.degenerate_n == 1


def _scale_directions(e, factors):
    terms = []
    for t, c in zip(e.terms, factors):
        terms.append(ex.ExpansionTerm(t.gammas / c, c * t.direction, c * t.witnesses,
                                      t.estimator))
    return replace(e, terms=terms, form="relaxed", decision_log=[])


def _insert_zero_level(e, position):
    """Insert a zero-direction level; gammas interpolate the neighbors."""
    terms = list(e.terms)
    glo = terms[position - 1].gammas if position > 0 else None
    ghi = terms[position].gammas
    gam = np.sqrt(glo * ghi) if glo is not None else np.sqrt(ghi)
    prev_t = terms[position]
    # witness = residual / gamma; residual before this level equals the residual
    # before the displaced level, so reuse its witnesses rescaled.
    wit = (prev_t.gammas / gam)[:, None] * prev_t.witnesses
    zero_term = ex.ExpansionTerm(gam, sp.zero_field(e.limit.trunc), wit, "inserted")
    terms.insert(position, zero_term)
    exps = list(e.scale.exponents)
    exps.insert(position + 1, exps[position + 1])
    scale = ex.NestedScale(tuple(exps)) if e.scale.regime == "constant" else e.scale
    return replace(e, terms=terms, form="relaxed", scale=scale, degenerate_n=None,
                   decision_log=[])


def _assert_structurally_equal(a, b, tol=1e-12):
    assert a.kind == b.kind and a.depth == b.depth and a.degenerate_n == b.degenerate_n
    for ta, tb in zip(a.terms, b.terms):
        assert np.max(np.abs(ta.gammas - tb.gammas) / np.abs(ta.gammas)) <= tol
        scale = max(sp.norm_ds(ta.direction, 0), 1e-300)
        assert sp.norm_ds(ta.direction - tb.direction, 0) <= tol * scale


def _assert_partial_sums_match(before, after, tol=1e-12):
    """Partial sums over matching prefixes agree (zero terms contribute nothing)."""
    m = len(before.terms[0].gammas)
    live_before = [k for k, t in enumerate(before.terms)
                   if sp.norm_ds(t.direction, 0) > 0]
    live_after = [k for k, t in enumerate(after.terms)
                  if sp.norm_ds(t.direction, 0) > 0]
    assert len(live_before) == len(live_after)
    for n in range(m):
        for i in range(1, len(live_before) + 1):
            sb = sp.lin_comb([before.terms[k].gammas[n] for k in live_before[:i]],
                             [before.terms[k].direction for k in live_before[:i]])
            sa = sp.lin_comb([after.terms[k].gammas[n] for k in live_after[:i]],
                             [after.terms[k].direction for k in live_after[:i]])
            scale = max(sp.norm_ds(sb, 0), 1e-300)
            assert sp.norm_ds(sb - sa, 0) <= tol * scale


# ---------------------------------------------------------------------------
# verify_expansion
# ---------------------------------------------------------------------------


def test_verify_extraction_self_consistency(ex314_window, ex314_extraction):
    _, data = ex314_window
    strict, unitary = ex314_extraction
    assert ex.verify_expansion(strict, data).passed
    assert ex.verify_expansion(unitary, data).passed


def test_verify_catches_swapped_directions(ex314_window):
    _, data = ex314_window
    uni = fx.example314_unitary_expansion(depth=3)
    terms = list(uni.terms)
    t1, t2 = terms[0], terms[1]
    terms[0] = ex.ExpansionTerm(t1.gammas, t2.direction, t1.witnesses, t1.estimator)
    terms[1] = ex.ExpansionTerm(t2.gammas, t1.direction, t2.witnesses, t2.estimator)
    broken = replace(uni, terms=terms, depth_reason="test")
    rep = ex.verify_expansion(broken, data)
    recon = [c for c in rep.checks if c.axiom == "reconstruction"][0]
    assert not recon.passed


def test_verify_analytic_fixtures_pass(ex314_window):
    _, data = ex314_window
    uni = fx.example314_unitary_expansion(depth=6)
    den = fx.example314_degenerate_expansion(depth=6)
    rep_u = ex.verify_expansion(uni, data)
    rep_d = ex.verify_expansion(den, data)
    assert rep_u.passed, str(rep_u)
    assert rep_d.passed, str(rep_d)
    axiom_ids = [c.axiom for c in rep_d.checks]
    assert "degenerate-remainders" in axiom_ids
    assert "degenerate-pattern" in axiom_ids


def test_verify_names_the_lowest_level_each_check_reads(ex314_window):
    _, data = ex314_window
    uni = fx.example314_unitary_expansion(depth=4)
    terms = list(uni.terms)
    terms[2] = replace(terms[2], direction=2.0 * terms[2].direction)
    rep = ex.verify_expansion(replace(uni, terms=terms), data)
    assert [(c.axiom, c.level) for c in rep.failures()] == [
        ("reconstruction", 4), ("unit-directions", 3)]
    den = fx.example314_degenerate_expansion(depth=6)
    levels = {c.axiom: c.level for c in ex.verify_expansion(den, data).checks}
    assert (levels["gamma1-decay"], levels["ratio-decay-k2"], levels["witness-convergence-k2"]) == (
        1, 3, 2)
    assert levels["degenerate-pattern"] == levels["degenerate-remainders"] == den.degenerate_n + 1


def test_verified_prefix_cuts_at_a_deep_broken_reconstruction(ex314_window):
    """Doubled witnesses of term 4 break only the level-4 reconstruction, so the
    form is cut to its first three levels, not rejected."""
    _, data = ex314_window
    uni = fx.example314_unitary_expansion(depth=4)
    terms = list(uni.terms)
    terms[3] = replace(terms[3], witnesses=2.0 * terms[3].witnesses)
    broken = replace(uni, terms=terms)
    assert [(c.axiom, c.level) for c in ex.verify_expansion(broken, data).failures()] == [
        ("reconstruction", 4)]
    cut = ex._verified_prefix(broken, data)
    assert (cut.depth, cut.depth_reason, cut.kind) == (
        3, "level 4 fails reconstruction", "infinite-unitary")
    assert cut.decision_log[-1] == "level 4 fails reconstruction"
    assert ex.verify_expansion(cut, data).passed


def test_verify_remainder_ratio_decreasing_example45(ex45_records, ex45_data, ex45_extraction):
    # Gamma_2/Gamma_1 * ||w^{(2)}|| strictly decreasing in n (closed-form check).
    _, unitary = ex45_extraction
    rep = ex.verify_expansion(unitary, ex45_data)
    assert rep.passed, str(rep)
    ratios = np.array([r.gamma2 / r.gamma1 for r in ex45_records])
    assert np.all(np.diff(ratios) < 0)


# ---------------------------------------------------------------------------
# uniqueness_check
# ---------------------------------------------------------------------------


def test_uniqueness_identical_results(ex314_extraction):
    strict, _ = ex314_extraction
    rep = uniqueness_check(strict, strict)
    assert rep.match
    assert rep.limit_diff == 0.0


def test_uniqueness_across_tail_windows(ex314_window, monkeypatch):
    _, data = ex314_window
    scale = ex.constant_scale(0.0, 3)
    e1 = ex.extract_strict(data, scale)  # tail ceil(6/3) = 2
    monkeypatch.setattr(ex, "_tail", lambda m: 3)
    e2 = ex.extract_strict(data, scale)
    rep = uniqueness_check(e1, e2, tol=1e-10)
    assert rep.match, str(rep)


def test_uniqueness_reports_restructured_difference(ex314_window):
    _, data = ex314_window
    uni = fx.example314_unitary_expansion(depth=4)
    withzero = _insert_zero_level(uni, position=1)
    out = ex.restructure(withzero)
    rep = uniqueness_check(withzero, out)
    assert not rep.match          # different structure (term removed)
    assert not rep.depth_equal
    _assert_partial_sums_match(withzero, out)  # but same reconstruction


# ---------------------------------------------------------------------------
# remainder_ratios and expansion files
# ---------------------------------------------------------------------------


def test_remainder_ratios_match_field_arithmetic(ex45_data, ex45_extraction):
    _, unitary = ex45_extraction
    ratios = ex.remainder_ratios(unitary, ex45_data)
    assert ratios.shape == (unitary.depth, len(ex45_data))
    for n, v_n in enumerate(ex45_data.to_field(row) for row in ex45_data.flat):
        rem, prev = v_n - unitary.limit, 1.0
        for k, term in enumerate(unitary.terms):
            expect = sp.norm_ds(rem, unitary.scale.exponent(k + 1)) / prev
            assert ratios[k, n] == pytest.approx(expect, rel=1e-10, abs=1e-300)
            rem, prev = rem - term.gammas[n] * term.direction, term.gammas[n]


def _bits(e, half=False):
    """Everything ``e`` holds, as bytes: metadata, mode list, gammas, and the
    entries of its fields (limit, directions) and witness rows. With ``half``
    only the entries on the representative modes (the upper half, which the
    file stores; it rebuilds the rest as their conjugates, equal in value but
    not always in the sign of a zero)."""
    meta = (e.kind, e.form, e.scale, e.degenerate_n, e.depth_reason,
            e.limit_estimator, e.decision_log, e.keys.tobytes(), e.trunc)

    def field(f):
        return f.trunc, f.keys.tobytes(), f.coeffs[len(f.coeffs) // 2 if half else 0:].tobytes()

    terms = [(t.gammas.tobytes(), t.estimator, field(t.direction),
              t.witnesses[:, len(e.keys) if half else 0:].tobytes()) for t in e.terms]
    return meta, field(e.limit), terms


def _values_equal(a, b):
    pairs = [(a.limit, b.limit)] + [(s.direction, t.direction) for s, t in zip(a.terms, b.terms)]
    return (a.depth == b.depth and np.array_equal(a.keys, b.keys)
            and all(f.trunc == g.trunc and np.array_equal(f.keys, g.keys)
                    and np.array_equal(f.coeffs, g.coeffs) for f, g in pairs)
            and all(np.array_equal(s.witnesses, t.witnesses) for s, t in zip(a.terms, b.terms)))


def _pinned_forms(which, ex45_data, ex45_extraction):
    """The forms and alphas of the expansions the CLI pins: the README example45
    extraction, the example314 extraction and the analytic example314 expansions."""
    alphas314 = [float(np.exp(n)) for n in range(1, 7)]
    analytic = {"unitary": fx.example314_unitary_expansion(truncation=16),
                "degenerate": fx.example314_degenerate_expansion(truncation=16)}
    if which == "ex45-extraction":
        strict, unitary = ex45_extraction
        return {"strict": strict, "restructured": ex.restructure(strict),
                "unitary": unitary}, ex45_data.alphas
    if which == "ex314-extraction":
        fields, _ = fx.example314_window(range(1, 7), 16)
        data = sequence_data(fields, tuple(alphas314))
        strict = ex.extract_strict(data, ex.constant_scale(0.0, 3))
        return {"strict": strict, "restructured": ex.restructure(strict),
                "unitary": ex.refine_unitary(strict, data)}, alphas314
    if which == "ex314-analytic":
        return analytic, alphas314
    name = which.split("-")[1]
    return {name: analytic[name]}, alphas314


@pytest.mark.parametrize("which", ["ex314-unitary", "ex314-degenerate", "ex314-analytic",
                                   "ex45-extraction", "ex314-extraction"])
def test_save_load_round_trip_is_exact(which, ex45_data, ex45_extraction, tmp_path):
    forms, alphas = _pinned_forms(which, ex45_data, ex45_extraction)
    path = tmp_path / "expansion.json"
    ex.save_expansion(str(path), forms, alphas)
    loaded, loaded_alphas = ex.load_expansion(str(path))
    assert loaded_alphas.tobytes() == np.array(alphas).tobytes()
    assert list(loaded) == list(forms)
    for name, e in forms.items():
        assert _bits(loaded[name], half=True) == _bits(e, half=True), name
        assert _values_equal(loaded[name], e), name
    # A loaded expansion round-trips to the bit: the same files, the same arrays.
    again = tmp_path / "again" / "expansion.json"
    ex.save_expansion(str(again), loaded, alphas)
    for suffix in (".json", ".npy"):
        assert again.with_suffix(suffix).read_bytes() == path.with_suffix(suffix).read_bytes()
    reloaded, _ = ex.load_expansion(str(again))
    assert all(_bits(reloaded[name]) == _bits(loaded[name]) for name in forms)
    if which == "ex314-unitary":
        # one truncation per row: directions at their own, witnesses at the window's
        uni = forms["unitary"]
        rows = [uni.limit.trunc] + [t for term in uni.terms
                                    for t in [term.direction.trunc] + [uni.trunc] * 6]
        assert len(set(rows)) > 1
        assert fieldio.read_json(path)["truncations"] == rows


def test_load_rejects_other_schemas(tmp_path):
    for schema in ("grashof-expand/expansion-v1", "grashof-expand/expansion-v2",
                   "grashof-expand/expansion-v3", "grashof-expand/expansion-v4"):
        old = tmp_path / "old.json"
        fieldio.write_json(str(old), {"schema": schema, "alphas": [1.0], "forms": {}})
        with pytest.raises(fieldio.FieldFormatError, match=schema):
            ex.load_expansion(str(old))
    missing = tmp_path / "current.json"
    fieldio.write_json(str(missing), {"schema": ex.SCHEMA, "alphas": [1.0],
                                      "forms": {"unitary": {"kind": "trivial"}}})
    with pytest.raises(fieldio.FieldFormatError, match="current.json"):
        ex.load_expansion(str(missing))


def test_rows_put_fields_on_the_window_or_refuse(ex45_data):
    """``_rows`` gives a window's own fields back as its flat rows, bit for bit, and
    refuses a field with a mode outside the window's mode list."""
    fields = [ex45_data.to_field(row) for row in ex45_data.flat]
    assert ex._rows(ex45_data.keys, fields).tobytes() == ex45_data.flat.tobytes()
    t = ex45_data.trunc + 1
    outside = sp.SpectralField(t, {(0, t): np.array([1.0, 0.0]), (0, -t): np.array([1.0, 0.0])})
    with pytest.raises(ValueError, match="expansion carries modes outside the data window"):
        ex._rows(ex45_data.keys, fields[:2] + [outside])


def test_verify_rejects_window_of_other_length(ex45_data, ex45_extraction):
    _, unitary = ex45_extraction
    short = sequence_data([ex45_data.to_field(row) for row in ex45_data.flat[:12]],
                               ex45_data.alphas[:12])
    with pytest.raises(ValueError, match="window length"):
        ex.verify_expansion(unitary, short)
    with pytest.raises(ValueError, match="window length"):
        ex.remainder_ratios(unitary, short)


def test_dense_window_round_trips_through_save_load(tmp_path):
    # Random divergence-free window on 4 fields at N=12: estimates of its limit,
    # directions and deep witnesses drift off k.c = 0 unless projected back.
    rng = np.random.default_rng(0)
    base = [sp.random_divfree(12, rng) for _ in range(4)]
    alphas = [n + 1.0 for n in range(20)]
    data = sequence_data(
        tuple(sp.lin_comb([1, 1 / a, a**-2, a**-3], base) for a in alphas), tuple(alphas))
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    forms = {"strict": strict, "unitary": ex.refine_unitary(strict, data)}
    path = tmp_path / "e.json"
    ex.save_expansion(str(path), forms, alphas)
    loaded, _ = ex.load_expansion(str(path))
    for name, e in forms.items():
        got = loaded[name]
        assert _values_equal(got, e), name
        recon = ex.verify_expansion(got, data).checks[0]
        assert recon.axiom == "reconstruction" and recon.passed, (name, recon.worst)


# ---------------------------------------------------------------------------
# verify_expansion and remainder_ratios, pinned bit for bit
# ---------------------------------------------------------------------------


def _verify_pin(e, data):
    """Every check of ``verify_expansion(e, data)`` as (axiom, passed, float.hex(worst),
    note, level), and the sha256 of ``remainder_ratios(e, data)``."""
    checks = [(c.axiom, bool(c.passed), float.hex(float(c.worst)), c.note, c.level)
              for c in ex.verify_expansion(e, data).checks]
    return checks, hashlib.sha256(ex.remainder_ratios(e, data).tobytes()).hexdigest()


def _verify_pins(ex45_data, ex45_extraction, ex314_window, monkeypatch):
    """name -> the ``_verify_pin`` of each form: the README forms, every form that the
    extraction of the cut ``--c2 0.7`` window verifies (its strict form is cut from 6
    levels to 5), the hand-built example314 forms, a degenerate form with
    ``degenerate_N`` 1 (trailing zero directions) and a termless form."""
    strict, unitary = ex45_extraction
    _, data314 = ex314_window
    recs = fx.example45_window(fx.Example45Config.single(2, 0.7), range(1, 21))
    cut_data = sequence_data([r.v_n for r in recs], [r.alpha for r in recs])
    seen, verify = [], ex.verify_expansion
    monkeypatch.setattr(ex, "verify_expansion", lambda e, data: seen.append(e) or verify(e, data))
    ex.refine_unitary(ex.extract_strict(cut_data, ex.default_scale_2dp(6)), cut_data)
    monkeypatch.undo()
    uni = fx.example314_unitary_expansion(depth=3)
    trailing = ex.restructure(replace(uni, terms=uni.terms[:1] + [
        replace(t, direction=sp.zero_field(t.direction.trunc)) for t in uni.terms[1:]]))
    forms = {"readme-strict": (strict, ex45_data),
             "readme-restructured": (ex.restructure(strict), ex45_data),
             "readme-unitary": (unitary, ex45_data),
             **{f"c2-0.7-{i}-{e.form}-{e.depth}": (e, cut_data) for i, e in enumerate(seen)},
             "ex314-unitary": (fx.example314_unitary_expansion(), data314),
             "ex314-degenerate": (fx.example314_degenerate_expansion(), data314),
             "ex314-degenerate-n1": (trailing, data314),
             "termless": (replace(strict, terms=[], kind="trivial"), ex45_data)}
    return {name: _verify_pin(e, data) for name, (e, data) in forms.items()}


# ``_verify_pins``' value, recorded when each check still formed its own partial
# sums: the one walk over the levels must give every check and ratio to the bit.
VERIFY_PINS = {
    "readme-strict": ([
        ("reconstruction", True, "0x1.1ff3336ed6b82p-53", "", None),
        ("gamma1-decay", True, "0x1.a4171a65a2c67p-5", "", 1),
        ("ratio-decay-k1", True, "0x1.e88f5b34a6d4fp-9", "", 2),
        ("ratio-decay-k2", True, "0x1.33c5f9d9d6843p-9", "", 3),
        ("ratio-decay-k3", True, "0x1.189a9d8ea0e48p-10", "", 4),
        ("ratio-decay-k4", True, "0x1.2cbe6fdb865c4p-11", "", 5),
        ("ratio-decay-k5", True, "0x1.2110913f374ebp-12", "", 6),
        ("witness-convergence-k1", True, "0x1.e88f5b34a6d50p-9", "", 1),
        ("witness-convergence-k2", True, "0x1.33c5f9d9d6842p-9", "", 2),
        ("witness-convergence-k3", True, "0x1.189a9d8ea0e48p-10", "", 3),
        ("witness-convergence-k4", True, "0x1.2cbe6fdb865c5p-11", "", 4),
        ("witness-convergence-k5", True, "0x1.2110913f374e9p-12", "", 5),
        ("witness-convergence-k6", True, "0x1.2ac3e07d335c0p-13", "", 6),
        ("unit-witnesses", True, "0x1.0000000000000p-52", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
    ], "5048231c33bd82cf5dc90fe234e92fc39cbb67c73779954b869a3f72c9c29d06"),
    "readme-restructured": ([
        ("reconstruction", True, "0x1.1ff3336ed6b82p-53", "", None),
        ("gamma1-decay", True, "0x1.a4171a65a2c67p-5", "", 1),
        ("ratio-decay-k1", True, "0x1.cd23a3f3b7024p-9", "", 2),
        ("ratio-decay-k2", True, "0x1.4613125ea1cc6p-9", "", 3),
        ("ratio-decay-k3", True, "0x1.1231e91b504b1p-10", "", 4),
        ("ratio-decay-k4", True, "0x1.33c600cb3fbd3p-11", "", 5),
        ("ratio-decay-k5", True, "0x1.1d8242ddd2251p-12", "", 6),
        ("witness-convergence-k1", True, "0x1.e88f5b34a6d50p-9", "", 1),
        ("witness-convergence-k2", True, "0x1.4613125ea1cc6p-9", "", 2),
        ("witness-convergence-k3", True, "0x1.189a9d8ea0e48p-10", "", 3),
        ("witness-convergence-k4", True, "0x1.33c600cb3fbd4p-11", "", 4),
        ("witness-convergence-k5", True, "0x1.2110913f374e9p-12", "", 5),
        ("witness-convergence-k6", True, "0x1.2e7c72f3e746bp-13", "", 6),
        ("unit-directions", True, "0x1.3800000000000p-48", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
    ], "c29b2082c06b4f8409f2e131605d4d3b64490baf164a9c1233394edbaa45f015"),
    "readme-unitary": ([
        ("reconstruction", True, "0x1.0d00a5b4f672ep-55", "", None),
        ("gamma1-decay", True, "0x1.a58355197a15cp-5", "", 1),
        ("ratio-decay-k1", True, "0x1.83c5cbe390da5p-9", "", 2),
        ("witness-convergence-k1", True, "0x1.83c5cbe390da5p-9", "", 1),
        ("witness-convergence-k2", True, "0x1.33f5d542a0a2cp-40", "stabilized", 2),
        ("unit-directions", True, "0x0.0p+0", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
    ], "3049fdaba4b988b0957ce607197908521212fa95d5322c608028bd011f1c0340"),
    "c2-0.7-0-strict-6": ([
        ("reconstruction", True, "0x1.14265726b0239p-52", "", None),
        ("gamma1-decay", True, "0x1.aeac960256192p-5", "", 1),
        ("ratio-decay-k1", True, "0x1.5cf4b0510c74bp-8", "", 2),
        ("ratio-decay-k2", True, "0x1.b7a803ca733f6p-9", "", 3),
        ("ratio-decay-k3", True, "0x1.90d844e11b6a6p-10", "", 4),
        ("ratio-decay-k4", True, "0x1.ad9d665afbef7p-11", "", 5),
        ("ratio-decay-k5", True, "0x1.9cee5a8080540p-12", "", 6),
        ("witness-convergence-k1", True, "0x1.5cf4b0510c74ap-8", "", 1),
        ("witness-convergence-k2", True, "0x1.b7a803ca733f6p-9", "", 2),
        ("witness-convergence-k3", True, "0x1.90d844e11b6a5p-10", "", 3),
        ("witness-convergence-k4", True, "0x1.ad9d665afbef7p-11", "", 4),
        ("witness-convergence-k5", True, "0x1.9cee5a808053ep-12", "", 5),
        ("witness-convergence-k6", True, "0x1.aac9c2a205e1cp-13", "", 6),
        ("unit-witnesses", True, "0x1.0000000000000p-52", "", None),
        ("remainder-ratio", False, "0x1.58552d0831d40p-17", "level 6", 6),
    ], "4553af0ab74c63cc41e5d64ed80082dc2bf7526c0fb0513ef3c6a03bb1160a83"),
    "c2-0.7-1-strict-5": ([
        ("reconstruction", True, "0x1.14265726b0239p-52", "", None),
        ("gamma1-decay", True, "0x1.aeac960256192p-5", "", 1),
        ("ratio-decay-k1", True, "0x1.5cf4b0510c74bp-8", "", 2),
        ("ratio-decay-k2", True, "0x1.b7a803ca733f6p-9", "", 3),
        ("ratio-decay-k3", True, "0x1.90d844e11b6a6p-10", "", 4),
        ("ratio-decay-k4", True, "0x1.ad9d665afbef7p-11", "", 5),
        ("witness-convergence-k1", True, "0x1.5cf4b0510c74ap-8", "", 1),
        ("witness-convergence-k2", True, "0x1.b7a803ca733f6p-9", "", 2),
        ("witness-convergence-k3", True, "0x1.90d844e11b6a5p-10", "", 3),
        ("witness-convergence-k4", True, "0x1.ad9d665afbef7p-11", "", 4),
        ("witness-convergence-k5", True, "0x1.9cee5a808053ep-12", "", 5),
        ("unit-witnesses", True, "0x1.0000000000000p-52", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
    ], "4e1b365cf0c6690550b82e3a93212910303815c777a109c6fe46e0d98381c1e4"),
    "c2-0.7-2-unitary-2": ([
        ("reconstruction", True, "0x1.f77f147f5f42bp-55", "", None),
        ("gamma1-decay", True, "0x1.b18fa9e9505fep-5", "", 1),
        ("ratio-decay-k1", True, "0x1.14f845008e2ffp-8", "", 2),
        ("witness-convergence-k1", True, "0x1.14f845008e300p-8", "", 1),
        ("witness-convergence-k2", True, "0x1.91a0a33e76ec4p-44", "stabilized", 2),
        ("unit-directions", True, "0x0.0p+0", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
    ], "083d1b80a5accf917f26ffe5a4c2d38799d2f502f05dabda840eb75942a0b0ab"),
    "ex314-unitary": ([
        ("reconstruction", True, "0x1.12bd3246ec9d9p-54", "", None),
        ("gamma1-decay", True, "0x1.39792499b1a24p-58", "", 1),
        ("ratio-decay-k1", True, "0x1.44e51f113d4d6p-9", "", 2),
        ("ratio-decay-k2", True, "0x1.44e51f113d4d6p-9", "", 3),
        ("ratio-decay-k3", True, "0x1.44e51f113d4d6p-9", "", 4),
        ("ratio-decay-k4", True, "0x1.44e51f113d4d6p-9", "", 5),
        ("ratio-decay-k5", True, "0x1.44e51f113d4d6p-9", "", 6),
        ("witness-convergence-k1", True, "0x1.44e5607adb403p-9", "", 1),
        ("witness-convergence-k2", True, "0x1.44e5607adb402p-9", "", 2),
        ("witness-convergence-k3", True, "0x1.44e5607adb403p-9", "", 3),
        ("witness-convergence-k4", True, "0x1.44e5607adb401p-9", "", 4),
        ("witness-convergence-k5", True, "0x1.44e5607adb402p-9", "", 5),
        ("witness-convergence-k6", True, "0x1.44e5607adb401p-9", "", 6),
        ("unit-directions", True, "0x1.0000000000000p-53", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
    ], "5e0741c517a557227cb44471d949180154a66a5a9b5b0b8c3d740ed0a98255c1"),
    "ex314-degenerate": ([
        ("reconstruction", True, "0x1.11b19adc1a018p-53", "", None),
        ("gamma1-decay", True, "0x1.b993fe00d5376p-8", "", 1),
        ("ratio-decay-k1", True, "0x1.44e51f113d4d6p-9", "", 2),
        ("ratio-decay-k2", True, "0x1.44e51f113d4d6p-9", "", 3),
        ("ratio-decay-k3", True, "0x1.44e51f113d4d6p-9", "", 4),
        ("ratio-decay-k4", True, "0x1.44e51f113d4d6p-9", "", 5),
        ("ratio-decay-k5", True, "0x1.44e51f113d4d5p-9", "", 6),
        ("witness-convergence-k1", True, "0x1.0b6c70d545a54p-52", "", 1),
        ("witness-convergence-k2", True, "0x1.a56e6103f652ap-44", "", 2),
        ("witness-convergence-k3", True, "0x1.4c10bbd9b518dp-35", "", 3),
        ("witness-convergence-k4", True, "0x1.05a65d746b681p-26", "", 4),
        ("witness-convergence-k5", True, "0x1.9c5516b8731a9p-18", "", 5),
        ("witness-convergence-k6", True, "0x1.44e5607adb402p-9", "", 6),
        ("unit-directions", True, "0x0.0p+0", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
        ("degenerate-pattern", True, "0x0.0p+0", "", 1),
        ("degenerate-remainders", True, "0x1.44e5607adb403p-9", "", 1),
    ], "604cadcd4f8f00b45f09b79e6a52613c0f62eed3d66856335464779fbdf905bb"),
    "ex314-degenerate-n1": ([
        ("reconstruction", False, "0x1.5e4a923ce8c90p-2", "", 3),
        ("gamma1-decay", True, "0x1.39792499b1a24p-58", "", 1),
        ("ratio-decay-k1", True, "0x1.44e51f113d4d6p-9", "", 2),
        ("ratio-decay-k2", True, "0x1.44e51f113d4d6p-9", "", 3),
        ("witness-convergence-k1", True, "0x1.44e5607adb403p-9", "", 1),
        ("witness-convergence-k2", True, "0x1.0000338aa8075p+0", "", 2),
        ("witness-convergence-k3", True, "0x1.0000338aa8074p+0", "", 3),
        ("unit-directions", True, "0x1.0000000000000p-53", "", None),
        ("remainder-ratio", True, "0x0.0p+0", "", None),
        ("degenerate-pattern", True, "0x1.0000000000000p-53", "", 2),
        ("degenerate-remainders", False, "0x1.936e16a26c54ep+8", "", 2),
    ], "0f578fb235066fe0977fe6da16c1bb2d0a62b33a1d89b2f295a547861169be84"),
    "termless": ([
        ("reconstruction", False, "0x1.567e0bb433399p-2", "", 1),
    ], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_verify_and_remainder_ratios_are_pinned(ex45_data, ex45_extraction, ex314_window,
                                                 monkeypatch):
    got = _verify_pins(ex45_data, ex45_extraction, ex314_window, monkeypatch)
    assert list(got) == list(VERIFY_PINS)
    for name, pin in VERIFY_PINS.items():
        assert got[name] == pin, name
