"""Order calculus and branch classifier tests."""

import hashlib
import itertools
import re

import numpy as np
import pytest

from grashof_expand import expansion as ex
from grashof_expand import orders as od
from grashof_expand import spectral as sp

from conftest import make_stokes_family, make_v0_family
from oracles import leray_project, sequence_data

SQRT2PI = np.sqrt(2.0) * np.pi


def one_pair(xi, eta, alphas):
    """``compare`` of the one pair (xi, eta), a batch of one row."""
    (r,) = od.compare(np.asarray(xi, dtype=float)[None], np.asarray(eta, dtype=float)[None], alphas)
    return r


INVERSE = {"succ": "prec", "prec": "succ", "sim": "sim", "undecided": "undecided"}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_polynomial_rates():
    n = np.arange(1, 13, dtype=float)
    xi, eta = n**-1.0, n**-2.0
    assert one_pair(xi, eta, n).verdict == "succ"
    assert one_pair(eta, xi, n).verdict == "prec"


def test_compare_sim_with_lambda():
    n = np.arange(1, 13, dtype=float)
    r = one_pair(2.0 / n, 1.0 / n, n)
    assert r.verdict == "sim"
    assert r.lam == pytest.approx(2.0, rel=1e-12)


def test_compare_example45_constant_product(ex45_records):
    alphas = np.array([r.alpha for r in ex45_records])
    g1 = np.array([r.gamma1 for r in ex45_records])
    r = one_pair(alphas * g1, np.ones_like(g1), alphas=alphas)
    assert r.verdict == "sim"
    assert r.lam == pytest.approx(SQRT2PI, rel=1e-12)


def test_compare_oscillating_ratio_undecided():
    n = np.arange(1, 13)
    assert one_pair(np.ones(12), 2.0 + (-1.0) ** n, n).verdict == "undecided"


def test_compare_window_too_short():
    with pytest.raises(ValueError, match="at least 6 samples"):
        od.compare(np.ones((1, 3)), np.ones((1, 3)), np.arange(1, 4))
    with pytest.raises(ValueError, match="must share the window"):
        od.compare(np.ones((1, 12)), np.ones((1, 1)), np.arange(1, 13))


def test_compare_antisymmetry_on_corpus():
    # Every ordered pair of the corpus is a row of one batch, both ways round.
    n = np.arange(1, 13, dtype=float)
    corpus = np.array([n**-a for a in (0.0, 0.5, 1.0, 2.0)])
    corpus = np.concatenate([corpus, 2.0 * corpus])
    i, j = np.divmod(np.arange(len(corpus) ** 2), len(corpus))
    for r1, r2 in zip(od.compare(corpus[i], corpus[j], n), od.compare(corpus[j], corpus[i], n)):
        assert r2.verdict == INVERSE[r1.verdict]


def test_compare_sim_scale_invariance():
    n = np.arange(1, 13, dtype=float)
    eta = 3.0 / n
    base = one_pair(1.5 / n, eta, n)
    assert base.verdict == "sim"
    for c in (0.5, 2.0, 10.0):
        r = one_pair(c * 1.5 / n, eta, n)
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
    pairs = mat.undecided_pairs()
    ok = len(pairs) == 0
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
    ok = len(mat.undecided_pairs()) == 0
    assert ok


def test_build_s_refuses_a_non_positive_sequence():
    # The first sequence in the table's order that is not positive is named.
    ns = np.arange(1, 13)
    alphas = np.exp(ns).astype(float)
    g1, g2 = np.exp(-ns), np.exp(-2.0 * ns)
    for k, value in ((1, 0.0), (2, -1e-3)):
        gammas = [g1.copy(), g2.copy()]
        gammas[k - 1][4] = value
        with pytest.raises(ValueError, match=rf"^sequence 'gamma\({k}\)' must be positive$"):
            od.build_S(alphas, gammas)
    with pytest.raises(ValueError, match=r"^sequence 'alpha' must be positive$"):
        od.build_S(-alphas, [g1])


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
    pairs = mat.undecided_pairs()
    ok = len(pairs) == 0
    assert not ok
    assert ("one", "alpha*gamma(1)") in pairs or ("alpha*gamma(1)", "one") in pairs


def test_empty_and_singleton_trivially_comparable():
    mat = od.RelationMatrix(relations={})
    pairs = mat.undecided_pairs()
    ok = len(pairs) == 0
    assert ok and not pairs


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_laminar_trivial_branch():
    from conftest import shear_field
    from grashof_expand import steady as st

    g = shear_field()
    alphas = [float(10 * 2**j) for j in range(8)]
    reports = st.sweep(alphas, [g] * len(alphas), trunc=4)
    data = sequence_data(tuple(r.solution for r in reports), tuple(alphas))
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    uni = ex.refine_unitary(strict, data)
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
    assert rep.totally_comparable


def test_classify_v0_family_branch_tree():
    data, _, g_limit, (g1, w1, g2, w2) = make_v0_family()
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    uni = ex.refine_unitary(strict, data)
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
    w1 = leray_project(raw1)
    w1 = (1.0 / sp.norm_ds(w1, 0.5)) * w1
    w2 = conftest.x_wave(3)
    w2 = (1.0 / sp.norm_ds(w2, 0.5)) * w2
    alphas = np.array([3.0**n for n in range(1, 11)])
    g1 = 1.1 / np.sqrt(alphas)
    g2 = 0.8 / alphas
    fields = [sp.lin_comb([g1[i], g2[i]], [w1, w2]) for i in range(len(alphas))]
    data = sequence_data(tuple(fields), tuple(alphas))
    g_limit = (1.1**2) * sp.bilinear_b(w1, w1)
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    uni = ex.refine_unitary(strict, data)
    rep = od.classify(uni, g_limit, alphas)
    assert rep.branch == "4.6(ii)(2b)"
    assert "mu_2" in rep.constants


def test_classify_stokes_family_branches():
    for branch, expect in (("ii", "4.7(ii)"), ("iii", "4.7(iii)")):
        data, _, g_limit, _ = make_stokes_family(branch)
        strict = ex.extract_strict(data, ex.default_scale_2dp(6))
        uni = ex.refine_unitary(strict, data)
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
    phi = sp.eigenfunctions(5)[-1]
    term = ex.ExpansionTerm(gammas=g1, direction=phi,
                            witnesses=np.repeat(phi.coeffs.reshape(1, -1), 12, axis=0),
                            estimator="test")
    e = ex.ExpansionResult(
        limit=sp.eigenfunctions(1)[-1], terms=[term], kind="infinite-unitary",
        form="unitary", scale=ex.constant_scale(0.5, 1),
        degenerate_n=None, depth_reason="test", limit_estimator="test",
        keys=phi.keys, trunc=phi.trunc,
    )
    with pytest.raises(od.ClassificationBlockedError):
        # g chosen so the limit is neither 0 nor A^{-1} g: the generic route
        # must consult alpha*Gamma_1 vs 1, which is undecided here.
        od.classify(e, sp.eigenfunctions(5)[-1], alphas)


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
    dirs = (_unit(leray_project(raw1)), _unit(conftest.x_wave(3)))
    if name == "zero":
        return sp.zero_field(), (1.3**2) * sp.bilinear_b(dirs[0], dirs[0]), dirs
    return conftest.shear_field(), sp.eigenfunctions(5)[-1], dirs


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
      "branch equation Aw1+mu2*Bs(w1,w2)=0 residual"]),
    ("4.6(ii)(3b)", "zero", _powers((1.3, 0.5), (1.0, 0.75)), "infinite-unitary",
     "4.6(ii)(3b)", _MU_STAR, _RES_V0 + ["Bs(w1,w2)=0"],
     ["<g,w1>", "<g,w2>", "<B(w2,w2),w1>"], "S1",
     ["branch equation Bs(w1,w2)=0 residual"]),
    ("4.6(ii)(3b)-S2", "zero", _chi_s2(0.75), "infinite-unitary",
     "4.6(ii)(3b)", _MU_STAR, _RES_V0 + ["Bs(w1,w2)=0"],
     ["<g,w1>", "<g,w2>", "<B(w2,w2),w1>"], "S2",
     ["branch equation mu_star*B(w1,w1)=g residual",
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


def _classify_leaf(case):
    """``classify``'s report on the synthetic expansion of the ``_LEAVES`` row ``case``."""
    _, route, (alphas, gammas), kind, *_ = case
    limit, g, dirs = _route(route)
    # Each term's witnesses are its direction, as rows on the directions' modes.
    keys = sp.key_union([w.keys for w in dirs])[0]
    terms = [ex.ExpansionTerm(gammas=gm, direction=w, estimator="test",
                              witnesses=np.repeat(ex._rows(keys, [w]), len(alphas), axis=0))
             for gm, w in zip(gammas, dirs)]
    e = ex.ExpansionResult(
        limit=limit, terms=terms, kind=kind, form="unitary",
        scale=ex.constant_scale(0.5, 1), degenerate_n=None,
        depth_reason="test", limit_estimator="test", keys=keys, trunc=max([1] + [w.trunc for w in dirs]),
    )
    return od.classify(e, g, alphas)


@pytest.mark.parametrize("case", _LEAVES, ids=[c[0] for c in _LEAVES])
def test_classify_reaches_every_leaf(case):
    branch, constants, residuals, identities, chi_tag, warnings = case[4:]
    rep = _classify_leaf(case)
    assert rep.branch == branch
    assert sorted(rep.constants) == sorted(constants)
    assert list(rep.residuals) == residuals
    assert list(rep.identities) == identities
    assert rep.chi_tag == chi_tag
    assert [re.sub(r" residual \S+$", " residual", w) for w in rep.warnings] == warnings
    # summary(): one line per constant, chi tag, residual, identity and warning.
    numeric = re.compile(r"^(  .*(?:: | = ))[-+0-9.e]+$")
    assert [numeric.sub(r"\1#", line) for line in rep.summary().splitlines()] == (
        [f"branch: {branch}"] + [f"  {k} = #" for k in rep.constants]
        + ([f"  chi pattern: {chi_tag}"] if chi_tag else [])
        + [f"  residual {k}: #" for k in residuals] + [f"  identity {k}: #" for k in identities]
        + [f"  totally comparable: {rep.totally_comparable}"] + [f"  warning: {w}" for w in rep.warnings])


# ---------------------------------------------------------------------------
# chi trichotomy
# ---------------------------------------------------------------------------


def test_chi_all_zero_is_s1():
    assert od.chi_trichotomy(np.zeros(12)) == "S1"


def test_chi_positive_is_s2():
    assert od.chi_trichotomy(1.0 / np.arange(1, 13)) == "S2"


def test_chi_negative_is_s3():
    assert od.chi_trichotomy(-1.0 / np.arange(1, 13)) == "S3"


def test_chi_alternating_is_mixed():
    n = np.arange(1, 13)
    assert od.chi_trichotomy((-1.0) ** n / n) == "mixed"


# ---------------------------------------------------------------------------
# build_S's one pass over all pairs against per-pair comparisons
# ---------------------------------------------------------------------------


def _labels(depth):
    """``build_S``'s sequence labels over ``depth`` gamma levels, in its table's order."""
    levels = range(1, depth + 1)
    return (["one", "alpha"] + [f"gamma({k})" for k in levels]
            + [f"alpha*gamma({k})" for k in levels]
            + [f"alpha*gamma({j})*gamma({k})" for j in levels for k in levels if j <= k])


def _sequence(label, alphas, gammas):
    """The sequence that ``label`` names, rebuilt from its factors left to right."""
    values = np.ones_like(alphas)
    for factor in label.split("*"):
        if factor != "one":
            values = values * (alphas if factor == "alpha" else gammas[int(factor[6:-1]) - 1])
    return values


def _compare_per_pair(x, y, alphas):
    """One comparison at a time: the oracle for ``compare`` and ``build_S``."""
    half = len(x) // 2
    tail = (x / y)[half:]
    grid = np.log(np.asarray(alphas, dtype=float)[half:])
    slope = float(np.polyfit(grid, np.log(tail), 1)[0])
    mean = float(np.mean(tail))
    dispersion = float(np.std(tail / mean))
    if slope > od.SLOPE_GATE and np.all(np.diff(tail) > 0):
        return od.OrderRelation("succ", None, slope, dispersion)
    if slope < -od.SLOPE_GATE and np.all(np.diff(tail) < 0):
        return od.OrderRelation("prec", None, slope, dispersion)
    if abs(slope) <= od.SLOPE_GATE and dispersion <= od.DISP_GATE:
        return od.OrderRelation("sim", mean, slope, dispersion)
    return od.OrderRelation("undecided", None, slope, dispersion)


def _ex45_gammas(coeffs):
    from grashof_expand import fixtures as fx

    recs = fx.example45_window(fx.Example45Config(coeffs=coeffs), range(1, 21), check=False)
    return (np.array([r.alpha for r in recs]),
            [np.array([r.gamma1 for r in recs]), np.array([r.gamma2 for r in recs])])


_WINDOWS = {case[0]: case[2] for case in _LEAVES if case[2][1]}
_WINDOWS.update({f"example45 {c}": _ex45_gammas(c) for c in (
    ((2, 1.0),), ((2, 0.7),), ((2, 1.27), (3, 0.9)), ((2, 1.1181), (3, 0.7442)))})


@pytest.mark.parametrize("name", sorted(_WINDOWS))
def test_build_s_matches_per_pair_compare(name):
    """Every relation of the one-pass build_S, and compare on its pair alone,
    equals the per-pair comparison of the sequences its labels name, to the bit;
    a pair asked the other way round is read backwards."""
    alphas, gammas = _WINDOWS[name]
    mat = od.build_S(alphas, gammas)
    assert list(mat.relations) == list(itertools.combinations(_labels(len(gammas)), 2))
    for (a, b), r in mat.relations.items():
        x, y = (_sequence(label, np.asarray(alphas, dtype=float), gammas) for label in (a, b))
        want = _compare_per_pair(x, y, alphas)
        assert r == want, (a, b)
        assert od.compare(x[None], y[None], alphas) == [want]
        back = mat.relation(b, a)
        assert (back.verdict, back.slope, back.dispersion) == (INVERSE[r.verdict], -r.slope,
                                                               r.dispersion)


# ---------------------------------------------------------------------------
# build_S's relations and classify's reports, pinned bit for bit
# ---------------------------------------------------------------------------


def _hex_sha256(value):
    """sha256 of the repr of ``value`` with every float (numpy's too) as its float.hex."""
    def bits(v):
        if isinstance(v, dict):
            return {k: bits(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [bits(x) for x in v]
        return float.hex(v) if isinstance(v, float) else v
    return hashlib.sha256(repr(bits(value)).encode()).hexdigest()


def _relation_pin(alphas, gammas):
    """The number of ``build_S``'s pairs and the ``_hex_sha256`` of every relation
    as (a, b, verdict, lam, slope, dispersion), in the table's pair order."""
    mat = od.build_S(alphas, gammas)
    rows = [(a, b, r.verdict, r.lam, r.slope, r.dispersion)
            for a, b in itertools.combinations(_labels(len(gammas)), 2)
            for r in [mat.relation(a, b)]]
    return len(rows), _hex_sha256(rows)


# ``_relation_pin`` of each ``_WINDOWS`` case and of the README strict form, and
# ``_hex_sha256(vars(report))`` of ``classify`` on each ``_LEAVES`` row, recorded
# when a relation matrix held one object per sequence and was read by index.
RELATION_PINS = {
    "4.4(iii)(a)-prec": (10, "c6e36b1e8c566dc06cfb004ed593069c10356d4cf9ea9a57c76907b7f9000ea9"),
    "4.4(iii)(a)-sim": (10, "01bd1d8cf6395b2f209148f9c03fb6a840507b2bee02496a7fe0d6abc58f6796"),
    "4.4(iii)(b)": (10, "c1d530dc0b1f0e240476c79afa23a0af37b42ff9b6c1db8b176aeb8ad19878eb"),
    "4.6(i)(1)": (36, "366e69fc235af6c29a2c89f119b480dd7fc8be4ee1f7ce1a88edf63adb83a1e2"),
    "4.6(i)(2)": (36, "7e8664b82f042f9d7b4a1e5350f9a7906e1e508a7cba41194be1ab3915323856"),
    "4.6(i)-no-w2": (10, "192653287792b91d53478daa13e9c86b1fb5214b4efe97812f507ac2684e56c0"),
    "4.6(i)-prec": (36, "fabc81469c66941c6fdf6b5d4ba9170bab7b17e5fff659b9907ec08a60788150"),
    "4.6(ii)(1)": (36, "a7d0256b2b69f57a8e3c2c1c6fd5910f0bd21886a5e7fcc5d404f0dd5dc81940"),
    "4.6(ii)(1)-degenerate": (
        36, "a7d0256b2b69f57a8e3c2c1c6fd5910f0bd21886a5e7fcc5d404f0dd5dc81940"),
    "4.6(ii)(2b)": (36, "90db3b93a7e99ac359f312822eb59d367e8f834983956551e7065170b751c0e3"),
    "4.6(ii)(2b)-S2": (36, "c66d38c07ce6a0e40f1542452f501798aea571513e268fe41b13a462e5eae645"),
    "4.6(ii)(3b)": (36, "06d3304cad4254aee49deffb5d20b79a3b120040248e3bd393003994dffd9145"),
    "4.6(ii)(3b)-S2": (36, "ed85257b979ee71bf56a2f57fe0970ae459697034a57c68d29bd147e4ce22850"),
    "4.6(ii)-mixed": (10, "61c3b2f94e6ad37a04aa774928ae08218355a664d89d47f4bef516ab3650e703"),
    "4.6(ii)-no-w2": (10, "248bbe6045936e9a713554470ef32cd5456de6c115c59f8ce2ebe6e0688d88ff"),
    "4.7(i)": (36, "9493bc71ee3cecab47dbb2528a224a349420ffbb6e1a6ea32c55dc3a8b09791c"),
    "4.7(i)-sim": (36, "4e9c632ef1ea6d87b6ea0fd93514a06c3c87e22961174d1d5cb022d57b1b237f"),
    "4.7(ii)": (36, "3b1af521d934d17e0f5c3c41be8b538a44cf17be5b056cef28d8a27fc60de87a"),
    "4.7(iii)": (36, "034fc2838de3f9b7041bb5e9e1336d48a1fd29b3110fd169c4aa8d5e14b86218"),
    "4.7(iv)": (36, "453df4fa289337bf3b4531451226bda859f0c4393fc85e42d84ba38f7f627e03"),
    "4.7(v)": (36, "1d516691a8c90b438bd86de22575e4ce62bd819a21bc5a53df3ba944877e8686"),
    "4.7(vi)": (36, "feebc92e3575e0032643b4a6c8fef2c76316fe833de0f53926f4fb53d3cc5438"),
    "4.7-fallthrough": (36, "30d5d7b61cc5f6f51616877580934c83b0853eaf704294d3c83603ee186c8e0d"),
    "4.7-no-w2": (10, "61c3b2f94e6ad37a04aa774928ae08218355a664d89d47f4bef516ab3650e703"),
    "example45 ((2, 0.7),)": (
        36, "6bf62958a2a5b4ccb5a18ad7e7f4307d472d65041a7aab620b01758bfdac7a92"),
    "example45 ((2, 1.0),)": (
        36, "f90e1d0f4cbad0ae7c244f7fd0d03313583bb4dd665d0c6732a7f4b8a3afd6f8"),
    "example45 ((2, 1.1181), (3, 0.7442))": (
        36, "8a0886fa5561f104071f2bfe17c3a567c1a5d61750b995d46960e09542d2b513"),
    "example45 ((2, 1.27), (3, 0.9))": (
        36, "8612a0e049c1fe3ae770416e3b001c4deaacce11363f3475a938dd02d146ae97"),
    "readme-strict": (595, "63011b341f2907b91e99830260c32020b204e389175f68b896d331697e323e67"),
}
CLASSIFY_PINS = {
    "4.4(ii)": "5213abbcecdca0277b613483787c4235d13deffa282f5ed87a6b4264b1d565d5",
    "4.4(iii)(a)-sim": "4f1de0e0af50c0aa9b128e83eb470141f21c50c051b95d7954fd8132ef1f8831",
    "4.4(iii)(a)-prec": "9bd4aee65ca42db701fed3b1fa8df6886964b8955d0750d5917f26e5c2a77764",
    "4.4(iii)(b)": "564306d59626632221c31be5c1bd73e6998bbdcedd579681899d4b60c72ad45a",
    "4.6(i)-no-w2": "9469d3613f19b73be73bc2d4e9923b63ae8468a2f55f4b315f5e293c927409ab",
    "4.6(i)(1)": "bf4b56545168abd4413d6b5856bf55d54eaa90d2ae7e9495e501206b842d24f8",
    "4.6(i)(2)": "0bd31769819aeb8a237d0bfb6bb656ab998c5e9940f74467c8a86c8ab4398155",
    "4.6(i)-prec": "81a513670988ab27cc2192f83de2002ae96536637ab7d0199944de4343196f13",
    "4.6(ii)-mixed": "935e0dd0a0dba6b7cd6d0250bde3f586c1fded92ec5787d10bec587594ed73e1",
    "4.6(ii)-no-w2": "6af67afc9fc763325e371a9bc9452326a9426608730f0612c1789556dcee903e",
    "4.6(ii)(1)": "b39716691dc026bf7d07b12a4e8506138987d814ef32522f300572727620e0d9",
    "4.6(ii)(1)-degenerate": "8b7d0c19618fa3690aed2bd9266c9ac3cf6529fdaf6600116737fea9a0fee3f9",
    "4.6(ii)(2b)": "426fc5282e3986f188aaed238a9c10631e44ff1f5ce8f2277d96b7edc52faef9",
    "4.6(ii)(2b)-S2": "db13d32e466ca5be2d74bbc5f81d9248bbea8ece14e024abd749dd47ad71ee62",
    "4.6(ii)(3b)": "590e657ac11bb59c193a9db0e5ae3298540dbd58e0e396abc6735c723bad5a8e",
    "4.6(ii)(3b)-S2": "1a0b6fff177bc988ccb2d5f4d794d3880c5acd63ec82b7cb47feffad4b7158aa",
    "4.7-no-w2": "22ad0bd01b23320d9d97686b4765f388f2f56960a420da5cf3d34c5c58c4c1f7",
    "4.7(i)": "22cb2e9f356f1afbca350549140f5dcd080f82e3a30790c4e591c97637181c09",
    "4.7(i)-sim": "c54eac93a2cc6c76b84b052b31f73e4e753fd7f9f9009900c16ae74baf265a70",
    "4.7(ii)": "abe4e8e6ce360d1b944e7469b901d65966cb5d48f81d390483ea7ea047a4ac4e",
    "4.7(iii)": "4823c60384cf7eebfa03cd54e0898e9249319a389a8a047f155de63aa21e40d7",
    "4.7(iv)": "b4617b27d2a5f85054a6a85f29f7a09d7053d4e558ed047f1378ac588ab0c7c9",
    "4.7(v)": "f7641727b4df50103035b4fe510739cd9e3e4f75e797534a044ef3d51307ec89",
    "4.7(vi)": "ecf63896b1a3e4cdd337d8318e7fb1f4ee8e430da8d32cb38ccecb042fc12428",
    "4.7-fallthrough": "854918701b0c46e620dc23b8ada2dd86ecb0978bdaa26781a9434337433599cd",
}


@pytest.mark.parametrize("name", sorted(_WINDOWS))
def test_build_s_relations_are_pinned(name):
    assert _relation_pin(*_WINDOWS[name]) == RELATION_PINS[name]


def test_build_s_relations_are_pinned_on_the_readme_strict_form(ex45_extraction, ex45_data):
    strict, _ = ex45_extraction
    got = _relation_pin(np.array(ex45_data.alphas), [t.gammas for t in strict.terms])
    assert got == RELATION_PINS["readme-strict"]


@pytest.mark.parametrize("case", _LEAVES, ids=[c[0] for c in _LEAVES])
def test_classify_reports_are_pinned(case):
    assert _hex_sha256(vars(_classify_leaf(case))) == CLASSIFY_PINS[case[0]]
