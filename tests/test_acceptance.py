"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import numpy as np
import pytest

from grashof_expand import expansion as ex
from grashof_expand import fixtures as fx
from grashof_expand import orders as od
from grashof_expand import spectral as sp
from grashof_expand import steady as st

from conftest import shear_field
from oracles import sequence_data, uniqueness_check
from test_expansion import (
    _assert_partial_sums_match,
    _assert_structurally_equal,
    _insert_zero_level,
    _scale_directions,
)

SQRT2PI = np.sqrt(2.0) * np.pi

_solve_corpus = []  # converged (report, |g|) pairs collected across criteria


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_operator_identities():
    rng = np.random.default_rng(2024)
    fields = [sp.random_divfree(8, rng) for _ in range(200)]
    worst_orth = 0.0
    worst_2d = 0.0
    for u, v in zip(fields[::2], fields[1::2]):
        b = sp.bilinear_b(u, v)
        worst_orth = max(
            worst_orth,
            abs(sp.inner_ds(b, v)) / (sp.norm_ds(u, 0.5) * sp.norm_ds(v, 0.5) ** 2),
        )
    for u in fields:
        b = sp.bilinear_b(u, u)
        au = sp.apply_fractional(u, 1.0)
        worst_2d = max(
            worst_2d,
            abs(sp.inner_ds(b, au)) / (sp.norm_ds(u, 0.5) ** 2 * sp.norm_ds(u, 1.0)),
        )
    poincare = all(
        sp.norm_ds(u, 1.0) >= sp.norm_ds(u, 0.5) >= sp.norm_ds(u, 0.0)
        for u in fields
    )
    ok = worst_orth <= 1e-12 and worst_2d <= 1e-12 and poincare
    _verdict(1, ok, f"orthogonality {worst_orth:.2e}, 2d-identity {worst_2d:.2e}, "
                    f"Poincare chain {'holds' if poincare else 'fails'} on 200 fields")


@pytest.fixture(scope="module")
def ex45_end_to_end():
    cfg = fx.Example45Config.single(2, 1.0)
    recs = fx.example45_window(cfg, range(1, 21))
    reports = st.sweep([r.alpha for r in recs], [r.g_n for r in recs], trunc=4)
    for rep, rec in zip(reports, recs):
        _solve_corpus.append((rep, sp.norm_ds(rec.g_n, 0)))
    data = sequence_data(tuple(r.solution for r in reports),
                              tuple(r.alpha for r in recs))
    strict = ex.extract_strict(data, ex.default_scale_2dp(6))
    unitary = ex.refine_unitary(strict, data)
    return cfg, recs, reports, data, strict, unitary


def test_criterion_2_example45_end_to_end(ex45_end_to_end):
    cfg, recs, reports, data, strict, unitary = ex45_end_to_end
    rng = np.random.default_rng(7)
    pert = sp.random_divfree(3, rng)
    pert = (1e-3 / sp.norm_ds(pert, 0.5)) * pert

    worst_recover = 0.0
    for rec in recs:
        p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=4)
        rep = st.solve_steady(p, initial=rec.v_n + pert)
        assert rep.converged
        _solve_corpus.append((rep, sp.norm_ds(rec.g_n, 0)))
        worst_recover = max(
            worst_recover,
            sp.norm_ds(sp.apply_fractional(rep.solution - rec.v_n, 1.0), 0),
        )

    g1 = np.array([r.gamma1 for r in recs])
    g2 = np.array([r.gamma2 for r in recs])
    t1, t2 = unitary.terms[0], unitary.terms[1]
    g1_err = float(np.max(np.abs(t1.gammas - g1) / g1))
    w1_norm_err = abs(sp.norm_ds(t1.direction, 0.5) - 1.0)
    w1_dir_err = min(sp.norm_ds(t1.direction - recs[0].w1, 0.5),
                     sp.norm_ds(t1.direction + recs[0].w1, 0.5))
    g2_err = float(np.max(np.abs(t2.gammas - g2) / g2))

    alphas = np.array(data.alphas)
    rep = od.classify(unitary, recs[0].g, alphas)
    mu_err = abs(rep.constants["mu"] - SQRT2PI)
    branch_res = rep.residuals["Av+mu*Bs(v,w1)=g"]

    ok = (worst_recover <= 1e-10 and g1_err <= 1e-8 and w1_norm_err <= 1e-10
          and w1_dir_err <= 1e-6 and g2_err <= 1e-6
          and rep.branch == "4.4(iii)(a)" and mu_err <= 1e-6 and branch_res <= 1e-8)
    _verdict(2, ok, f"recovery {worst_recover:.2e}, Gamma1 {g1_err:.2e}, "
                    f"||w1||-1 {w1_norm_err:.2e}, w1 dir {w1_dir_err:.2e}, "
                    f"Gamma2 {g2_err:.2e}, branch {rep.branch}, mu err {mu_err:.2e}, "
                    f"residual {branch_res:.2e}")


def test_criterion_3_example314_extraction():
    fields, alphas = fx.example314_window(range(1, 7), truncation=64)
    data = sequence_data(fields, alphas)
    strict = ex.extract_strict(data, ex.constant_scale(0.0, 3))
    unitary = ex.refine_unitary(strict, data)
    limit_norm = sp.norm_ds(unitary.limit, 0)
    ns = np.arange(1, 7)
    gamma_err = 0.0
    dir_err = 0.0
    for k, term in enumerate(unitary.terms[:3], start=1):
        expect = np.exp(-k * ns - ns * ns)
        gamma_err = max(gamma_err, float(np.max(np.abs(term.gammas - expect) / expect)))
        phi = sp.eigenfunctions(k)[-1]
        dir_err = max(dir_err, min(sp.norm_ds(term.direction - phi, 0),
                                   sp.norm_ds(term.direction + phi, 0)))
    den = fx.example314_degenerate_expansion(range(1, 7), 64, depth=6)
    den_report = ex.verify_expansion(den, data)
    den_ok = den_report.passed and any(
        c.axiom == "degenerate-remainders" and c.passed for c in den_report.checks
    )
    ok = (limit_norm <= 1e-12 and unitary.depth >= 3 and gamma_err <= 1e-12
          and dir_err <= 1e-10 and den_ok)
    _verdict(3, ok, f"|v| {limit_norm:.2e}, Gamma err {gamma_err:.2e}, "
                    f"direction err {dir_err:.2e}, degenerate verify "
                    f"{'passes' if den_ok else 'fails'}")


def test_criterion_4_enstrophy_and_energy_bounds(ex45_end_to_end):
    g = shear_field()
    for rep in st.sweep([1.0, 10.0, 100.0, 1000.0], [g] * 4, trunc=4):
        _solve_corpus.append((rep, sp.norm_ds(g, 0)))
    assert _solve_corpus, "corpus is filled by criteria 2 and 4"
    worst_enstrophy = 0.0
    worst_energy = 0.0
    for rep, gnorm in _solve_corpus:
        if not rep.converged:
            continue
        worst_enstrophy = max(
            worst_enstrophy,
            sp.norm_ds(sp.apply_fractional(rep.solution, 1.0), 0) / gnorm,
        )
        worst_energy = max(worst_energy, sp.norm_ds(rep.solution, 0.5) / gnorm)
    ok = worst_enstrophy <= 1 + 1e-10 and worst_energy <= 1 + 1e-10
    _verdict(4, ok, f"max |Av|/|g| = {worst_enstrophy:.12f}, "
                    f"max ||v||/|g| = {worst_energy:.12f} over "
                    f"{len(_solve_corpus)} converged solves")


def test_criterion_5_restructure_properties():
    rng = np.random.default_rng(99)
    base = fx.example314_unitary_expansion(depth=4)
    worst = 0.0
    for trial in range(50):
        factors = np.exp(rng.uniform(-1.0, 1.0, size=4))
        e = _scale_directions(base, list(factors))
        if trial % 2 == 0:
            e = _insert_zero_level(e, position=int(rng.integers(1, 4)))
        out = ex.restructure(e)
        twice = ex.restructure(out)
        _assert_structurally_equal(out, twice)
        _assert_partial_sums_match(e, out)
        worst = max(worst, _max_partial_sum_rel_diff(e, out))
    _verdict(5, True, f"50 randomized restructures idempotent; "
                      f"worst partial-sum drift {worst:.2e} <= 1e-12")


def _max_partial_sum_rel_diff(before, after):
    m = len(before.terms[0].gammas)
    live_b = [k for k, t in enumerate(before.terms) if sp.norm_ds(t.direction, 0) > 0]
    live_a = [k for k, t in enumerate(after.terms) if sp.norm_ds(t.direction, 0) > 0]
    worst = 0.0
    for n in range(m):
        for i in range(1, len(live_b) + 1):
            sb = sp.lin_comb([before.terms[k].gammas[n] for k in live_b[:i]],
                             [before.terms[k].direction for k in live_b[:i]])
            sa = sp.lin_comb([after.terms[k].gammas[n] for k in live_a[:i]],
                             [after.terms[k].direction for k in live_a[:i]])
            worst = max(worst, sp.norm_ds(sb - sa, 0) / max(sp.norm_ds(sb, 0), 1e-300))
    return worst


def test_criterion_6_order_calculus(ex45_end_to_end):
    n = np.arange(1, 13, dtype=float)
    rates = (0.0, 0.5, 1.0, 2.0)
    corpus = {}
    for a in rates:
        corpus[(a, 1.0)] = n**-a
        corpus[(a, 2.0)] = 2.0 * n**-a
    total = 0
    correct = 0
    for (a1, c1), xi in corpus.items():
        for (a2, c2), eta in corpus.items():
            if xi is eta:
                continue
            (r,) = od.compare(xi[None], eta[None], n)
            if a1 < a2:
                expected_ok = r.verdict == "succ"
            elif a1 > a2:
                expected_ok = r.verdict == "prec"
            else:
                expected_ok = (r.verdict == "sim"
                               and r.lam == pytest.approx(c1 / c2, rel=1e-10))
            total += 1
            correct += bool(expected_ok)
    (osc,) = od.compare(np.ones((1, 12)), (2.0 + (-1.0) ** n)[None], n)
    osc_ok = osc.verdict == "undecided"

    # table structural relations on every fixture extraction
    table_ok = True
    _, recs, _, data, _, uni45 = ex45_end_to_end
    extractions = [(np.array(data.alphas), [t.gammas for t in uni45.terms])]
    fields314, alphas314 = fx.example314_window()
    data314 = sequence_data(fields314, alphas314)
    strict314 = ex.extract_strict(data314, ex.constant_scale(0.0, 3))
    extractions.append((np.array(alphas314), [t.gammas for t in strict314.terms]))
    for alphas, gammas in extractions:
        try:
            mat = od.build_S(alphas, gammas)
        except od.InconsistentRelationsError:
            table_ok = False
            continue
        for j in range(len(gammas) - 1):
            table_ok &= mat.relation(f"gamma({j + 1})", f"gamma({j + 2})").verdict == "succ"
            table_ok &= (
                mat.relation(f"alpha*gamma({j + 1})", f"alpha*gamma({j + 2})").verdict
                == "succ"
            )
    ok = correct == total and osc_ok and table_ok
    _verdict(6, ok, f"forced verdicts {correct}/{total}, oscillating undecided: "
                    f"{osc_ok}, table relations hold: {table_ok}")


def test_criterion_7_uniqueness_across_windows(monkeypatch):
    fields, alphas = fx.example314_window()
    data = sequence_data(fields, alphas)
    scale = ex.constant_scale(0.0, 3)
    e1 = ex.extract_strict(data, scale)  # tail ceil(6/3) = 2
    monkeypatch.setattr(ex, "_tail", lambda m: 3)
    e2 = ex.extract_strict(data, scale)
    rep = uniqueness_check(e1, e2, tol=1e-10)
    detail = (f"limit diff {rep.limit_diff:.2e}, max Gamma diff "
              f"{max(rep.gamma_diffs, default=0.0):.2e}, max direction diff "
              f"{max(rep.direction_diffs, default=0.0):.2e}")
    _verdict(7, rep.match, detail)


def test_criterion_8_limit_equation_trend():
    cfg = fx.Example45Config.single(2, 1.0)
    ns = [2**j for j in range(15)]
    recs = [fx.example45(cfg, n, check=False) for n in ns]
    reports = st.sweep([r.alpha for r in recs], [r.g_n for r in recs], trunc=4)
    for rep, rec in zip(reports, recs):
        _solve_corpus.append((rep, sp.norm_ds(rec.g_n, 0)))
    gvp = sp.norm_ds(recs[0].g, -0.5)
    ratios = [sp.norm_ds(sp.bilinear_b(r.solution, r.solution), -0.5) / gvp
              for r in reports]
    tail = ratios[len(ratios) // 2:]
    monotone = all(b < a for a, b in zip(tail, tail[1:]))
    ok = monotone and ratios[-1] <= 1e-6
    _verdict(8, ok, f"||B(v,v)||_V' / ||g||_V' tail monotone: {monotone}, "
                    f"endpoint {ratios[-1]:.2e} <= 1e-6 at alpha "
                    f"{recs[-1].alpha:.3g}")
