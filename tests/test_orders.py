"""Order calculus and branch classifier tests."""

import re

import numpy as np
import pytest

from grashof_expand import expansion as ex
from grashof_expand import orders as od
from grashof_expand import spectral as sp

from conftest import make_stokes_family, make_v0_family

SQRT2PI = np.sqrt(2.0) * np.pi


def seq(label, values):
    return od.PositiveSequence(label, tuple(values))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_polynomial_rates():
    n = np.arange(1, 13, dtype=float)
    xi = seq("xi", n**-1.0)
    eta = seq("eta", n**-2.0)
    assert od.compare(xi, eta, n).verdict == "succ"
    assert od.compare(eta, xi, n).verdict == "prec"


def test_compare_sim_with_lambda():
    n = np.arange(1, 13, dtype=float)
    xi = seq("xi", 2.0 / n)
    eta = seq("eta", 1.0 / n)
    r = od.compare(xi, eta, n)
    assert r.verdict == "sim"
    assert r.lam == pytest.approx(2.0, rel=1e-12)


def test_compare_example45_constant_product(ex45_records):
    alphas = np.array([r.alpha for r in ex45_records])
    g1 = np.array([r.gamma1 for r in ex45_records])
    r = od.compare(seq("alpha*gamma(1)", alphas * g1), seq("one", np.ones_like(g1)),
                   alphas=alphas)
    assert r.verdict == "sim"
    assert r.lam == pytest.approx(SQRT2PI, rel=1e-12)


def test_compare_oscillating_ratio_undecided():
    n = np.arange(1, 13)
    xi = seq("xi", np.ones(12))
    eta = seq("eta", 2.0 + (-1.0) ** n)
    assert od.compare(xi, eta, n).verdict == "undecided"


def test_compare_window_too_short():
    with pytest.raises(ValueError):
        od.compare(seq("a", [1, 2, 3]), seq("b", [1, 2, 3]), np.arange(1, 4))


def test_compare_antisymmetry_on_corpus():
    n = np.arange(1, 13, dtype=float)
    corpus = [seq(f"n^-{a}", n**-a) for a in (0.0, 0.5, 1.0, 2.0)]
    corpus += [seq("2x", 2.0 * c.array) for c in corpus]
    inverse = {"succ": "prec", "prec": "succ", "sim": "sim", "undecided": "undecided"}
    for a in corpus:
        for b in corpus:
            r1 = od.compare(a, b, n)
            r2 = od.compare(b, a, n)
            assert r2.verdict == inverse[r1.verdict]


def test_compare_sim_scale_invariance():
    n = np.arange(1, 13, dtype=float)
    eta = seq("eta", 3.0 / n)
    base = od.compare(seq("xi", 1.5 / n), eta, n)
    assert base.verdict == "sim"
    for c in (0.5, 2.0, 10.0):
        r = od.compare(seq("cxi", c * 1.5 / n), eta, n)
        assert r.verdict == "sim"
        assert r.lam == pytest.approx(c * base.lam, rel=1e-12)


# ---------------------------------------------------------------------------
# build_S / total comparability
# ---------------------------------------------------------------------------


def test_build_s_example314_closed_form_gammas():
    ns = np.arange(1, 13)
    alphas = np.exp(ns).astype(float)
    gammas = [np.exp(-k * ns - ns * ns) for k in (1, 2, 3)]
    mat = od.build_S(alphas, gammas)
    for k in (1, 2):
        assert mat.relation(f"gamma({k})", f"gamma({k + 1})").verdict == "succ"
    ok, pairs = od.total_comparability(mat)
    assert ok, pairs


def test_build_s_single_level_constant_product(ex45_records):
    alphas = np.array([r.alpha for r in ex45_records])
    g1 = np.array([r.gamma1 for r in ex45_records])
    mat = od.build_S(alphas, [g1])
    assert mat.relation("alpha", "one").verdict == "succ"
    r = mat.relation("alpha*gamma(1)", "one")
    assert r.verdict == "sim"
    assert r.lam == pytest.approx(SQRT2PI, rel=1e-12)


def test_build_s_structural_relations_on_extraction(ex45_extraction, ex45_data):
    _, unitary = ex45_extraction
    alphas = np.array(ex45_data.alphas)
    mat = od.build_S(alphas, [t.gammas for t in unitary.terms])
    assert mat.relation("one", "gamma(1)").verdict == "succ"
    assert mat.relation("gamma(1)", "gamma(2)").verdict == "succ"
    assert mat.relation("alpha*gamma(1)", "alpha*gamma(2)").verdict == "succ"
    assert mat.relation("alpha*gamma(1)*gamma(1)", "alpha*gamma(1)*gamma(2)").verdict == "succ"
    ok, _ = od.total_comparability(mat)
    assert ok


def test_build_s_detects_inconsistent_gammas():
    ns = np.arange(1, 13)
    alphas = np.exp(ns).astype(float)
    g1 = np.exp(-ns)
    g2 = np.exp(-0.5 * ns)  # grows relative to g1: table relation must fail
    with pytest.raises(od.InconsistentRelationsError):
        od.build_S(alphas, [g1, g2])


def test_total_comparability_flags_oscillation():
    # Gamma decay relations stay decided, but alpha*Gamma_1 oscillates around 1.
    n = np.arange(1, 13)
    alphas = np.exp(n).astype(float)
    g1 = (1.0 + 0.3 * (-1.0) ** n) / alphas
    mat = od.build_S(alphas, [g1])
    ok, pairs = od.total_comparability(mat)
    assert not ok
    assert ("one", "alpha*gamma(1)") in pairs or ("alpha*gamma(1)", "one") in pairs


def test_empty_and_singleton_trivially_comparable():
    mat = od.RelationMatrix(sequences=[], relations={})
    ok, pairs = od.total_comparability(mat)
    assert ok and not pairs


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_laminar_trivial_branch():
    from conftest import shear_field
    from grashof_expand import steady as st

    g = sp.leray_project(dict(shear_field().modes))
    alphas = [float(10 * 2**j) for j in range(8)]
    reports = st.sweep(alphas, [g] * len(alphas), trunc=4)
    data = ex.SequenceData(tuple(r.solution for r in reports), tuple(alphas))
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    uni = ex.refine_unitary(strict, data, space=0.5)
    rep = od.classify(uni, g, alphas)
    assert rep.branch == "4.4(ii)"
    assert rep.residuals["Av=g"] <= 1e-12
    assert rep.residuals["B(v,v)=0"] <= 1e-12


def test_classify_example45_branch(ex45_extraction, ex45_data, ex45_records):
    _, unitary = ex45_extraction
    alphas = np.array(ex45_data.alphas)
    rep = od.classify(unitary, ex45_records[0].g, alphas)
    assert rep.branch == "4.4(iii)(a)"
    assert rep.constants["mu"] == pytest.approx(SQRT2PI, abs=1e-6)
    assert rep.residuals["Av+mu*Bs(v,w1)=g"] <= 1e-8
    assert rep.comparability


def test_classify_v0_family_branch_tree():
    data, _, g_limit, (g1, w1, g2, w2) = make_v0_family()
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    uni = ex.refine_unitary(strict, data, space=0.5)
    alphas = np.array(data.alphas)
    rep = od.classify(uni, g_limit, alphas)
    assert rep.branch == "4.6(ii)(1)"
    assert rep.constants["mu_star"] == pytest.approx(1.3**2, rel=1e-10)
    assert rep.chi_tag == "S1"
    assert rep.residuals["mu_star*B(w1,w1)=g"] <= 1e-8
    assert abs(rep.identities["<g,w1>"]) <= 1e-8


def test_classify_v0_subbranch_2b():
    # Gamma_2 = c / alpha makes alpha*Gamma_2 sim 1: routes to 4.6(ii)(2b).
    import conftest

    raw1 = {(0, 1): np.array([1 / 2j, 0]), (0, -1): np.array([-1 / 2j, 0]),
            (2, 0): np.array([0, 1 / 2j]), (-2, 0): np.array([0, -1 / 2j])}
    w1 = sp.leray_project(raw1)
    w1 = (1.0 / sp.norm_ds(w1, 0.5)) * w1
    w2 = conftest.x_wave(3)
    w2 = (1.0 / sp.norm_ds(w2, 0.5)) * w2
    alphas = np.array([3.0**n for n in range(1, 11)])
    g1 = 1.1 / np.sqrt(alphas)
    g2 = 0.8 / alphas
    fields = [sp.lin_comb([g1[i], g2[i]], [w1, w2]) for i in range(len(alphas))]
    data = ex.SequenceData(tuple(fields), tuple(alphas))
    g_limit = (1.1**2) * sp.bilinear_b(w1, w1)
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    uni = ex.refine_unitary(strict, data, space=0.5)
    rep = od.classify(uni, g_limit, alphas)
    assert rep.branch == "4.6(ii)(2b)"
    assert "mu_2" in rep.constants


def test_classify_stokes_family_branches():
    for branch, expect in (("ii", "4.7(ii)"), ("iii", "4.7(iii)")):
        data, _, g_limit, _ = make_stokes_family(branch)
        strict = ex.extract_strict(data, ex.default_scale_2dp(6))
        uni = ex.refine_unitary(strict, data, space=0.5)
        alphas = np.array(data.alphas)
        rep = od.classify(uni, g_limit, alphas)
        assert rep.branch == expect
        assert rep.residuals["Bs(v,w1)=0"] <= 1e-10
        eq = "Bs(v,w2)=0" if branch == "ii" else "B(w1,w1)=0"
        assert rep.residuals[eq] <= 1e-10


def test_classify_blocked_on_undecided():
    n = np.arange(1, 13)
    alphas = np.exp(n).astype(float)
    g1 = (1.0 + 0.3 * (-1.0) ** n) / alphas
    phi = sp.eigenfunction(5)
    term = ex.ExpansionTerm(gammas=g1, direction=phi,
                            witnesses=np.repeat(phi.coeffs.reshape(1, -1), 12, axis=0),
                            estimator="test")
    e = ex.ExpansionResult(
        limit=sp.eigenfunction(1), terms=[term], kind="infinite-unitary",
        form="unitary", scale=ex.constant_scale(0.5, 1), space=0.5,
        degenerate_n=None, depth_reason="test", limit_estimator="test",
        tols=ex.ToleranceSet(), keys=phi.keys, trunc=phi.trunc,
    )
    with pytest.raises(od.ClassificationBlockedError):
        # g chosen so the limit is neither 0 nor A^{-1} g: the generic route
        # must consult alpha*Gamma_1 vs 1, which is undecided here.
        od.classify(e, sp.eigenfunction(5), alphas)


# ---------------------------------------------------------------------------
# classify: every leaf of the branch tree on synthetic expansions
# ---------------------------------------------------------------------------


def _unit(w):
    return (1.0 / sp.norm_ds(w, 0.5)) * w


def _route(name):
    """(limit v, force g, directions) selecting the generic, v = 0 or v = A^{-1} g route."""
    import conftest

    if name == "stokes":
        v = conftest.x_wave(2, 0.5)
        return v, sp.apply_fractional(v, 1.0), (_unit(conftest.x_wave(4)),
                                                _unit(conftest.x_wave(3)))
    raw1 = {(0, 1): np.array([1 / 2j, 0]), (0, -1): np.array([-1 / 2j, 0]),
            (2, 0): np.array([0, 1 / 2j]), (-2, 0): np.array([0, -1 / 2j])}
    dirs = (_unit(sp.leray_project(raw1)), _unit(conftest.x_wave(3)))
    if name == "zero":
        return sp.zero_field(), (1.3**2) * sp.bilinear_b(dirs[0], dirs[0]), dirs
    return conftest.shear_field(), sp.eigenfunction(5), dirs


def _powers(*terms, base=3.0):
    """alpha_n = base^n (n = 1..10) and Gamma_k = c_k alpha^-p_k for each (c_k, p_k)."""
    alphas = base ** np.arange(1.0, 11.0)
    return alphas, [c * alphas**-p for c, p in terms]


def _chi_s2(p2, c2=1.0):
    """alpha Gamma_1^2 rises to a constant y whose last-three mean rounds above y,
    so chi = 1 - alpha Gamma_1^2 / mu_star is positive at every sample (S2)."""
    alphas, (g2,) = _powers((c2, p2), base=4.0)
    g1 = 1.1548 * 2.0 ** -np.arange(1.0, 11.0)
    g1[:7] *= 1.0 - 1e-3
    return alphas, [g1, g2]


def _no_w2(route):
    return f"{route} but no second direction extracted (this regime implies w2 exists)"


_MU_STAR = ["mu_star", "mu_star_dispersion"]
_RES_V0 = ["B(v,v)=0", "mu_star*B(w1,w1)=g"]
_RES_STOKES = ["B(v,v)=0", "Bs(v,w1)=0"]
_DEGENERATE_46 = "branch (ii)(1) concludes a degenerate expansion; kind is infinite-unitary"
_DEGENERATE_47 = "branch 4.7(i) concludes a degenerate expansion; kind is infinite-unitary"

# id, route, (alphas, gammas), kind,
#   branch, constant names, residual ids, identity ids, chi tag, warnings
# ("branch equation <id> residual" stands for that warning with its value cut).
_LEAVES = [
    ("4.4(ii)", "generic", _powers(), "trivial",
     "4.4(ii)", [], ["B(v,v)=0", "Av=g"], [], None,
     ["branch equation Av=g residual"]),
    ("4.4(iii)(a)-sim", "generic", _powers((SQRT2PI, 1.0)), "infinite-unitary",
     "4.4(iii)(a)", ["mu", "mu_dispersion"], ["B(v,v)=0", "Av+mu*Bs(v,w1)=g"], [], None,
     ["branch equation Av+mu*Bs(v,w1)=g residual"]),
    ("4.4(iii)(a)-prec", "generic", _powers((1.0, 1.5)), "infinite-unitary",
     "4.4(iii)(a)", ["mu", "mu_dispersion"], ["B(v,v)=0", "Av+mu*Bs(v,w1)=g"], [], None,
     ["branch equation Av+mu*Bs(v,w1)=g residual"]),
    ("4.4(iii)(b)", "generic", _powers((1.0, 0.5)), "infinite-unitary",
     "4.4(iii)(b)", [], ["B(v,v)=0", "Bs(v,w1)=0"], [], None,
     ["branch equation Bs(v,w1)=0 residual"]),
    ("4.6(i)-no-w2", "zero", _powers((1.0, 0.25)), "infinite-unitary",
     "4.6(i)", [], ["B(v,v)=0", "B(w1,w1)=0"], [], None,
     [_no_w2("v = 0"), "branch equation B(w1,w1)=0 residual"]),
    ("4.6(i)(1)", "zero", _powers((1.0, 0.25), (1.0, 0.5)), "infinite-unitary",
     "4.6(i)(1)", [], ["B(v,v)=0", "B(w1,w1)=0", "Bs(w1,w2)=0"], [], None,
     ["branch equation B(w1,w1)=0 residual", "branch equation Bs(w1,w2)=0 residual"]),
    ("4.6(i)(2)", "zero", _powers((1.0, 0.25), (1.0, 0.75)), "infinite-unitary",
     "4.6(i)(2)", ["mu"], ["B(v,v)=0", "B(w1,w1)=0", "mu*Bs(w1,w2)=g"], ["<g,w1>"], None,
     ["branch equation B(w1,w1)=0 residual", "branch equation mu*Bs(w1,w2)=g residual"]),
    ("4.6(i)-prec", "zero", _powers((1.0, 0.25), (1.0, 1.5)), "infinite-unitary",
     "4.6(i)", [], ["B(v,v)=0", "B(w1,w1)=0"], [], None,
     ["branch equation B(w1,w1)=0 residual",
      "alpha*Gamma_1*Gamma_2 prec 1 is impossible in this regime"]),
    ("4.6(ii)-mixed", "zero", _powers((1.0, 1.0)), "infinite-unitary",
     "4.6(ii)", _MU_STAR, _RES_V0, ["<g,w1>"], "mixed",
     [_no_w2("v = 0"), "alpha*Gamma_1^2 prec 1 is impossible for a v = 0 solution family",
      "branch equation mu_star*B(w1,w1)=g residual",
      "chi sign pattern mixed; sub-branch not classified"]),
    ("4.6(ii)-no-w2", "zero", _powers((1.3, 0.5)), "infinite-unitary",
     "4.6(ii)", _MU_STAR, _RES_V0, ["<g,w1>"], "S1", [_no_w2("v = 0")]),
    ("4.6(ii)(1)", "zero", _powers((1.3, 0.5), (1.0, 1.5)), "infinite-unitary",
     "4.6(ii)(1)", _MU_STAR, _RES_V0, ["<g,w1>"], "S1", [_DEGENERATE_46]),
    ("4.6(ii)(1)-degenerate", "zero", _powers((1.3, 0.5), (1.0, 1.5)), "degenerate",
     "4.6(ii)(1)", _MU_STAR, _RES_V0, ["<g,w1>"], "S1", []),
    ("4.6(ii)(2b)", "zero", _powers((1.3, 0.5), (0.8, 1.0)), "infinite-unitary",
     "4.6(ii)(2b)", ["mu_star", "mu_star_dispersion", "mu_2"],
     _RES_V0 + ["Aw1+mu2*Bs(w1,w2)=0"],
     ["<g,w1>", "mu_star*||w1||^2-mu2*<g,w2>"], "S1",
     ["branch equation Aw1+mu2*Bs(w1,w2)=0 residual"]),
    ("4.6(ii)(2b)-S2", "zero", _chi_s2(1.0, 0.8), "infinite-unitary",
     "4.6(ii)(2b)", ["mu_star", "mu_star_dispersion", "mu_2"],
     _RES_V0 + ["Aw1+mu2*Bs(w1,w2)=0"],
     ["<g,w1>", "mu_star*||w1||^2-mu2*<g,w2>"], "S2",
     ["branch equation mu_star*B(w1,w1)=g residual",
      "matrix with |chi| row is not totally comparable",
      "expected chi = 0 or Gamma_1 succ |chi| in branch (ii)(2b)",
      "branch equation Aw1+mu2*Bs(w1,w2)=0 residual"]),
    ("4.6(ii)(3b)", "zero", _powers((1.3, 0.5), (1.0, 0.75)), "infinite-unitary",
     "4.6(ii)(3b)", _MU_STAR, _RES_V0 + ["Bs(w1,w2)=0"],
     ["<g,w1>", "<g,w2>", "<B(w2,w2),w1>"], "S1",
     ["branch equation Bs(w1,w2)=0 residual"]),
    ("4.6(ii)(3b)-S2", "zero", _chi_s2(0.75), "infinite-unitary",
     "4.6(ii)(3b)", _MU_STAR, _RES_V0 + ["Bs(w1,w2)=0"],
     ["<g,w1>", "<g,w2>", "<B(w2,w2),w1>"], "S2",
     ["branch equation mu_star*B(w1,w1)=g residual",
      "matrix with |chi| row is not totally comparable",
      "expected chi = 0 or alpha*Gamma_1*Gamma_2 succ |chi|",
      "branch equation Bs(w1,w2)=0 residual"]),
    ("4.7-no-w2", "stokes", _powers((1.0, 1.0)), "infinite-unitary",
     "4.7", [], _RES_STOKES, [], None, [_no_w2("v = A^{-1}g")]),
    ("4.7(i)", "stokes", _powers((1.0, 1.5), (1.0, 3.0)), "infinite-unitary",
     "4.7(i)", [], _RES_STOKES, [], None, [_DEGENERATE_47]),
    ("4.7(i)-sim", "stokes", _powers((1.0, 1.0), (1.0, 2.5)), "degenerate",
     "4.7(i)", [], _RES_STOKES, [], None, []),
    ("4.7(ii)", "stokes", _powers((1.0, 1.0), (1.0, 1.5)), "infinite-unitary",
     "4.7(ii)", [], _RES_STOKES + ["Bs(v,w2)=0"], [], None, []),
    ("4.7(iii)", "stokes", _powers((1.0, 0.5), (1.0, 2.0)), "infinite-unitary",
     "4.7(iii)", [], _RES_STOKES + ["B(w1,w1)=0"], [], None, []),
    ("4.7(iv)", "stokes", _powers((1.0, 1.5), (1.0, 2.5)), "infinite-unitary",
     "4.7(iv)", ["mu"], _RES_STOKES + ["Aw1+mu*Bs(v,w2)=0"], [], None,
     ["branch equation Aw1+mu*Bs(v,w2)=0 residual"]),
    ("4.7(v)", "stokes", _powers((1.0, 0.5), (1.0, 1.0)), "infinite-unitary",
     "4.7(v)", ["mu"], _RES_STOKES + ["Bs(v,w2)+mu*B(w1,w1)=0"], [], None, []),
    ("4.7(vi)", "stokes", _powers((1.0, 1.0), (1.0, 2.0)), "infinite-unitary",
     "4.7(vi)", ["mu_1", "mu_2"], _RES_STOKES + ["Aw1+mu1*Bs(v,w2)+mu2*B(w1,w1)=0"],
     [], None, ["branch equation Aw1+mu1*Bs(v,w2)+mu2*B(w1,w1)=0 residual"]),
    # gamma(1) ~ alpha Gamma_2 ~ alpha Gamma_1^2 pairwise, yet alpha Gamma_2
    # prec alpha Gamma_1^2: slopes 0.08, -0.08 and -0.16 on a slow alpha grid.
    ("4.7-fallthrough", "stokes", _powers((1.0, 0.92), (1.0, 2.0), base=1.2),
     "infinite-unitary",
     "4.7", [], _RES_STOKES, [], None,
     ["relation pattern does not match any listed scenario"]),
]


@pytest.mark.parametrize("case", _LEAVES, ids=[c[0] for c in _LEAVES])
def test_classify_reaches_every_leaf(case):
    (_, route, (alphas, gammas), kind,
     branch, constants, residuals, identities, chi_tag, warnings) = case
    limit, g, dirs = _route(route)
    # Each term's witnesses are its direction, as rows on the directions' modes.
    keys = sp.key_union([w.keys for w in dirs])[0]
    terms = [ex.ExpansionTerm(gammas=gm, direction=w, estimator="test",
                              witnesses=np.repeat(ex._rows(keys, [w]), len(alphas), axis=0))
             for gm, w in zip(gammas, dirs)]
    e = ex.ExpansionResult(
        limit=limit, terms=terms, kind=kind, form="unitary",
        scale=ex.constant_scale(0.5, 1), space=0.5, degenerate_n=None,
        depth_reason="test", limit_estimator="test", tols=ex.ToleranceSet(),
        keys=keys, trunc=max([1] + [w.trunc for w in dirs]),
    )
    rep = od.classify(e, g, alphas)
    assert rep.branch == branch
    assert sorted(rep.constants) == sorted(constants)
    assert list(rep.residuals) == residuals
    assert list(rep.identities) == identities
    assert rep.chi_tag == chi_tag
    assert [re.sub(r" residual \S+$", " residual", w) for w in rep.warnings] == warnings


# ---------------------------------------------------------------------------
# chi trichotomy
# ---------------------------------------------------------------------------


def _gamma_matrix():
    n = np.arange(1, 13)
    alphas = np.exp(n).astype(float)
    return od.build_S(alphas, [np.exp(-n)]), n


def test_chi_all_zero_is_s1():
    mat, n = _gamma_matrix()
    tag, extended, ok = od.chi_trichotomy(np.zeros(12), mat)
    assert tag == "S1" and extended is None


def test_chi_positive_is_s2_with_row():
    mat, n = _gamma_matrix()
    tag, extended, ok = od.chi_trichotomy(1.0 / n, mat)
    assert tag == "S2"
    assert extended.relation("one", "abs_chi").verdict == "succ"
    assert ok


def test_chi_negative_is_s3():
    mat, n = _gamma_matrix()
    tag, extended, ok = od.chi_trichotomy(-1.0 / n, mat)
    assert tag == "S3"
    assert ok


def test_chi_alternating_is_mixed():
    mat, n = _gamma_matrix()
    tag, extended, ok = od.chi_trichotomy((-1.0) ** n / n, mat)
    assert tag == "mixed" and extended is None
