"""Steady solver tests: residuals, Newton recovery, sweeps, bounds."""

import numpy as np
import pytest

from grashof_expand import fixtures as fx
from grashof_expand import kernels
from grashof_expand import spectral as sp
from grashof_expand import steady as st

from conftest import shear_field
from oracles import bilinear_at, manufactured_force, residual


@pytest.fixture(scope="module")
def shear_problem():
    g = shear_field()
    return st.SteadyProblem(g=g, alpha=25.0, trunc=4)


def test_residual_laminar_solution_is_zero(shear_problem):
    v = sp.apply_fractional(shear_problem.g, -1.0)
    r = residual(v, shear_problem)
    assert sp.norm_ds(r, 0) <= 1e-14 * sp.norm_ds(shear_problem.g, 0)


def test_residual_at_zero_is_minus_g(shear_problem):
    r = residual(sp.zero_field(4), shear_problem)
    diff = r + shear_problem.g
    assert sp.norm_ds(diff, 0) == 0.0


def test_residual_example45_analytic(ex45_cfg):
    for n in (1, 7, 20):
        rec = fx.example45(ex45_cfg, n, check=False)
        p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=2 * rec.v_n.trunc)
        r = residual(rec.v_n, p)
        assert sp.norm_ds(r, 0) <= 1e-12 * sp.norm_ds(rec.g_n, 0)


def norm_bits(norms):
    return np.array(norms, dtype=np.float64).tobytes()


def readme_sweep_case():
    g, alphas = readme_force(), [2.0**i for i in range(12)]
    problems = [st.SteadyProblem(g=g, alpha=a, trunc=8) for a in alphas]
    return [r.solution for r in st.sweep(alphas, [g] * 12, trunc=8)], problems


def shear_case():
    g = shear_field()
    v = sp.apply_fractional(g, -1.0)
    fields = [v, v + 1e-3 * sp.random_divfree(4, np.random.default_rng(2))]
    return fields, [st.SteadyProblem(g=g, alpha=25.0, trunc=4)] * 2


def example45_case(coeffs):
    def case():
        recs = fx.example45_window(fx.Example45Config(coeffs=coeffs), range(1, 21), check=False)
        n = 2 * recs[0].v_n.trunc
        return [r.v_n for r in recs], [st.SteadyProblem(g=r.g_n, alpha=r.alpha, trunc=n) for r in recs]
    return case


RESIDUAL_CASES = {
    "readme-sweep": readme_sweep_case,
    "shear": shear_case,
    "example45-one-coefficient": example45_case(((2, 1.0),)),
    "example45-two-coefficients": example45_case(((2, 0.93), (3, -0.6))),
}


@pytest.mark.parametrize("case", list(RESIDUAL_CASES))
def test_residual_is_the_norm_of_the_residual_field(case):
    """One ``residual`` call gives, per field, ``norm_ds`` of the residual
    field to the bit."""
    fields, problems = RESIDUAL_CASES[case]()
    want = [sp.norm_ds(residual(v, p), 0) for v, p in zip(fields, problems)]
    assert norm_bits(st.residual(fields, problems)) == norm_bits(want)


def test_residual_of_the_zero_field_is_the_norm_of_g(shear_problem):
    assert norm_bits(st.residual([sp.zero_field(4)], [shear_problem])) == \
        norm_bits([sp.norm_ds(shear_problem.g, 0)])


def test_solve_alpha_zero_is_stokes(shear_problem):
    p = st.SteadyProblem(g=shear_problem.g, alpha=0.0, trunc=4)
    rep = st.solve_steady(p)
    stokes = sp.project_trunc(sp.apply_fractional(p.g, -1.0), 4)
    assert rep.converged
    assert rep.newton_iters <= 2  # one Newton step plus the polish step
    assert sp.norm_ds(rep.solution - stokes, 1.0) <= 1e-14


def test_solve_laminar_any_alpha(shear_problem):
    rep = st.solve_steady(shear_problem)
    lam = sp.apply_fractional(shear_problem.g, -1.0)
    assert rep.converged
    assert sp.norm_ds(rep.solution - lam, 1.0) <= 1e-13


def test_solve_example45_perturbed_recovery(ex45_cfg):
    rec = fx.example45(ex45_cfg, 5)
    p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=4)
    start = sp.lin_comb([1.0, 1e-3], [rec.v_n, sp.eigenfunctions(7)[-1]])
    rep = st.solve_steady(p, initial=start)
    assert rep.converged
    diff = sp.apply_fractional(rep.solution - rec.v_n, 1.0)
    assert sp.norm_ds(diff, 0) <= 1e-10


def test_newton_quadratic_tail(ex45_cfg):
    rec = fx.example45(ex45_cfg, 10)
    p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=4)
    rng = np.random.default_rng(0)
    pert = sp.random_divfree(3, rng)
    start = rec.v_n + (0.05 / sp.norm_ds(pert, 0.5)) * pert
    rep = st.solve_steady(p, initial=start)
    hist = rep.residual_history
    checked = 0
    for prev, cur in zip(hist, hist[1:]):
        if 1e-12 < prev <= 1e-4:
            assert cur <= 1e3 * prev**2
            checked += 1
    assert checked >= 1


def test_solve_deterministic_bit_identical(ex45_cfg):
    rec = fx.example45(ex45_cfg, 4)
    p = st.SteadyProblem(g=rec.g_n, alpha=rec.alpha, trunc=4)
    start = sp.lin_comb([1.0, 1e-3], [rec.v_n, sp.eigenfunctions(3)[-1]])
    rep1 = st.solve_steady(p, initial=start)
    rep2 = st.solve_steady(p, initial=start)
    assert rep1.residual_h == rep2.residual_h
    assert rep1.newton_iters == rep2.newton_iters
    k1, c1 = rep1.solution.keys, rep1.solution.coeffs
    k2, c2 = rep2.solution.keys, rep2.solution.coeffs
    assert np.array_equal(k1, k2) and np.array_equal(c1, c2)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_dof_order_is_the_field_key_order(n):
    v = sp.random_divfree(n, np.random.default_rng(n))
    reps, sigmas = st._dof_maps(n)
    assert len(v.keys) == (2 * n + 1) ** 2 - 1  # every mode of radius n
    assert np.array_equal(reps, v.keys[sp.rep_half(len(v.keys))])
    w = st._vec_to_field(st._field_to_vec(v, reps, sigmas), reps, sigmas, n)
    assert np.array_equal(w.keys, v.keys)
    assert np.max(np.abs(w.coeffs - v.coeffs)) <= 1e-15 * np.max(np.abs(v.coeffs), initial=0.0)


def lattice_by_closure(gens, n):
    """Keys of radius n reached from 0 by steps +-g, g in ``gens``, without
    leaving the box of radius 4n: the brute-force span of the generators."""
    steps = [tuple(s) for s in np.concatenate([gens, -gens]).tolist() if any(s)]
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        reached = {(x + dx, y + dy) for x, y in frontier for dx, dy in steps}
        frontier = [k for k in reached if max(map(abs, k)) <= 4 * n and k not in seen]
        seen.update(frontier)
    return {k for k in seen if max(map(abs, k)) <= n}


def readme_force():
    """g_limit of ``fixtures example45 --c2 1``, the README sweep's forcing."""
    return fx.example45(fx.Example45Config.single(2, 1.0), 1).g


def two_mode_force():
    """The two-mode probe's forcing, c = (1.27, 0.9)."""
    return fx.example45(fx.Example45Config(coeffs=((2, 1.27), (3, 0.9))), 1).g


# Lattice bases; each case's generators are the basis and three integer
# combinations of it, shuffled, drawn from one seeded generator.
LATTICE_BASES = {
    "line-(0,k)": [[0, 2]],
    "line-(k,0)": [[3, 0]],
    "line-(k,k)": [[1, 1]],
    "2Z x Z": [[2, 1], [0, 1]],
    "2Z x 3Z": [[2, 0], [0, 3]],
    "index-3": [[1, 1], [1, -2]],
    "index-5": [[3, 1], [1, 2]],
    "full": [[2, 1], [3, 2]],
}


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("case", list(LATTICE_BASES))
def test_lattice_mask_is_the_span_of_the_generators(case, n):
    rng = np.random.default_rng(n)
    basis = np.array(LATTICE_BASES[case])
    combos = rng.integers(-1, 2, size=(3, len(basis))) @ basis
    gens = rng.permutation(np.concatenate([basis, combos]))
    reps = st._dof_maps(n)[0]
    on = st._on_lattice(reps, st._lattice(gens[2:], st._lattice(gens[:2])))
    want = lattice_by_closure(gens, n)
    assert on.tolist() == [tuple(k) in want for k in reps.tolist()]
    assert on.all() == (case == "full")


def test_dofs_are_the_forcing_lattice():
    """The README forcing lives on 2Z x Z (76 of the 144 representatives at
    N = 8), and its isotropy group of order 4 leaves 38 of those 152 unknowns;
    the two-mode forcing generates every wavevector, and its parity halves
    the 288 unknowns."""
    p = st.SteadyProblem(g=readme_force(), alpha=1.0, trunc=8)
    rep = st.solve_steady(p, initial=sp.apply_fractional(p.g, -1.0))
    assert (rep.dofs, rep.group_order) == (38, 4)
    q = st.SteadyProblem(g=two_mode_force(), alpha=1.0, trunc=8)
    rep = st.solve_steady(q, initial=sp.apply_fractional(q.g, -1.0))
    assert (rep.dofs, rep.group_order) == (144, 2)


def test_off_lattice_guess_solves_every_unknown():
    """A guess off the forcing's lattice widens the unknowns to all of them,
    and Newton lands on the same solution."""
    g = readme_force()
    alphas = [2.0**i for i in range(7)]
    on = st.sweep(alphas, [g] * len(alphas), trunc=8)[-1]
    assert on.dofs == 38
    pert = sp.random_divfree(3, np.random.default_rng(64))
    p = st.SteadyProblem(g=g, alpha=alphas[-1], trunc=8)
    off = st.solve_steady(p, initial=on.solution + 1e-3 * pert)
    assert off.converged and off.dofs == 288
    diff = sp.norm_ds(off.solution - on.solution, 0.5) / sp.norm_ds(on.solution, 0.5)
    assert diff <= 1e-12


def subspace_of(g, n, guess=None):
    """Lattice representatives, polarizations, ``kernels.Subspace`` and group
    order of the unknowns for forcing g and the guess A^-1 g (or ``guess``)
    at radius n."""
    v = sp.project_trunc(sp.apply_fractional(g, -1.0) if guess is None else guess, n)
    frame = st._frame(g, n, v)
    orbits, order = frame.restrict(st._field_to_vec(v, frame.reps, frame.sigmas))
    return frame.reps, frame.sigmas, orbits, order


def is_fixed(x, orbits):
    """Largest distance of x from the subspace vector with x's first unknowns."""
    return np.max(np.abs(x - orbits.expand(x[orbits.first])))


SYMMETRY_CASES = {
    # parity u(x) -> -u(-x) and the glide "y -> -y, then translate by (pi/2, pi)"
    "readme": (readme_force, 4, 38),
    # parity only
    "two-mode": (two_mode_force, 2, 144),
    # no symmetry: every unknown
    "random": (lambda: sp.random_divfree(4, np.random.default_rng(12), decay=1.5), 1, 288),
}


@pytest.mark.parametrize("case", list(SYMMETRY_CASES))
def test_isotropy_group_of_the_forcing(case):
    """The group's order counts distinct signed permutations of the unknowns:
    (R, tau) and (R, tau + (pi, 0)) act alike on the README's 2Z x Z."""
    make, order, dofs = SYMMETRY_CASES[case]
    g = make()
    reps, sigmas, orbits, got = subspace_of(g, 8)
    assert got == order and len(orbits.first) == dofs
    assert np.sum(orbits.sizes) + np.sum(orbits.orbit < 0) == 2 * len(reps)
    assert is_fixed(st._field_to_vec(g, reps, sigmas), orbits) == 0.0


@pytest.mark.parametrize("case", list(SYMMETRY_CASES))
def test_symmetric_fields_stay_symmetric_under_b(case):
    """Equivariance: for v on the fixed subspace, B(v, v) is on it too."""
    g = SYMMETRY_CASES[case][0]()
    reps, sigmas, orbits, _ = subspace_of(g, 8)
    x = orbits.expand(np.random.default_rng(5).standard_normal(len(orbits.first)))
    v = st._vec_to_field(x, reps, sigmas, 8)
    b = st._field_to_vec(bilinear_at(v, v, 8), reps, sigmas)
    assert is_fixed(x, orbits) == 0.0
    assert is_fixed(b, orbits) <= 1e-14 * np.max(np.abs(b))


def test_weighted_residual_norm_is_the_full_one():
    """The residual read off the reduced Jacobian, weighted by the root of
    each orbit's size, has the norm of the full residual."""
    g = readme_force()
    reps, sigmas, orbits, _ = subspace_of(g, 8)
    y = 0.05 * np.random.default_rng(8).standard_normal(len(orbits.first))
    v = st._vec_to_field(orbits.expand(y), reps, sigmas, 8)
    p = st.SteadyProblem(g=g, alpha=64.0, trunc=8)
    jac = kernels.assemble_linearized(y, sigmas, reps, p.alpha, orbits)
    stokes = np.tile(np.sum(reps * reps, axis=1), 2)[orbits.first]
    gvec = st._field_to_vec(g, reps, sigmas)[orbits.first]
    fx_ = 0.5 * (jac @ y + stokes * y) - gvec
    got = sp.TWO_PI * np.sqrt(2.0) * np.linalg.norm(np.sqrt(orbits.sizes) * fx_)
    want = sp.norm_ds(residual(v, p), 0)
    assert abs(got - want) <= 1e-13 * want


def test_symmetric_forcing_with_asymmetric_guess_keeps_every_unknown():
    g = two_mode_force()
    guess = sp.apply_fractional(g, -1.0) + 1e-3 * sp.random_divfree(3, np.random.default_rng(64))
    rep = st.solve_steady(st.SteadyProblem(g=g, alpha=4.0, trunc=8), initial=guess)
    assert rep.converged and rep.dofs == 288 and rep.group_order == 1
    assert type(rep.group_order) is int


@pytest.mark.parametrize("alpha", [0.0, 4.0, 1024.0])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_jacobian_gives_the_residual(n, alpha):
    """B is bilinear, so J(v) x = A x + 2 alpha B(v, v) on the DOFs x of v:
    the solver reads each residual off the Jacobian it assembles anyway."""
    rng = np.random.default_rng(10 * n + 1)
    g = sp.random_divfree(n, rng, decay=1.5)
    p = st.SteadyProblem(g=g, alpha=alpha, trunc=n)
    v = sp.random_divfree(n, rng)
    reps, sigmas = st._dof_maps(n)
    x = st._field_to_vec(v, reps, sigmas)
    jac = kernels.assemble_linearized(x, sigmas, reps, alpha, kernels.Subspace(reps, n))
    stokes = np.tile(np.sum(reps * reps, axis=1), 2)
    got = 0.5 * (jac @ x + stokes * x) - st._field_to_vec(g, reps, sigmas)
    want = st._field_to_vec(residual(v, p), reps, sigmas)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(jac)) * np.max(np.abs(x))


def test_one_jacobian_per_line_search_trial(monkeypatch):
    """The starting point and each line-search trial are linearized once; the
    polished iterate is not: assemblies = Newton iterations + step halvings.
    Each point Newton forms is expanded from its first unknowns once: the
    start, each trial and the reported solution. One exact residual is
    evaluated per solve, that of the reported solution."""
    counts = {"jacobians": 0, "iterates": 0, "residuals": 0}
    linearized, assemble_linearized = [], kernels.assemble_linearized
    expand = kernels.Subspace.expand

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def assemble(y, sigmas, reps, alpha, sub):
        v = st._vec_to_field(expand(sub, y), reps, sigmas, 8)  # the point, as the solution is
        linearized.append(v.keys.tobytes() + v.coeffs.tobytes())
        return assemble_linearized(y, sigmas, reps, alpha, sub)

    monkeypatch.setattr(kernels, "assemble_linearized", counted("jacobians", assemble))
    monkeypatch.setattr(kernels.Subspace, "expand",
                        counted("iterates", kernels.Subspace.expand))
    monkeypatch.setattr(st, "residual", counted("residuals", st.residual))
    g = readme_force()
    guess = sp.project_trunc(sp.apply_fractional(g, -1.0), 8)
    for alpha in [2.0**i for i in range(12)]:
        counts.update(jacobians=0, iterates=0, residuals=0)
        linearized.clear()
        rep = st.solve_steady(st.SteadyProblem(g=g, alpha=alpha, trunc=8), initial=guess)
        assert rep.converged
        # Iterates: the start, one per line-search trial, the polished one.
        halvings = (counts["iterates"] - 2) - (rep.newton_iters - 1)
        assert halvings >= 0
        assert counts["jacobians"] == rep.newton_iters + halvings
        assert len(set(linearized)) == len(linearized)  # no point linearized twice
        keys, coeffs = rep.solution.keys, rep.solution.coeffs
        assert keys.tobytes() + coeffs.tobytes() not in linearized
        assert counts["residuals"] == 1
        assert rep.residual_history[-1] == rep.residual_h
        assert len(rep.residual_history) == rep.newton_iters + 1
        guess = rep.solution


def report_bits(rep):
    """Every field of a SolveReport, the solution and the floats as bytes."""
    keys, coeffs = rep.solution.keys, rep.solution.coeffs
    floats = np.array([rep.residual_h, rep.bound_check, *rep.residual_history])
    return (rep.solution.trunc, keys.tobytes(), coeffs.tobytes(), floats.tobytes(),
            rep.newton_iters, rep.converged, rep.message, rep.condition, rep.dofs,
            rep.group_order, type(rep.group_order))


def fresh_solve(p, guess):
    """``solve_steady`` with the forcing's frame built anew."""
    st._FRAME.clear()
    return st.solve_steady(p, initial=guess)


@pytest.mark.parametrize("case", ["readme", "two-mode-stall"])
def test_warm_frame_solve_is_the_cold_one(case, monkeypatch):
    """A solve that reuses the forcing's frame gives the report, to the bit,
    of a solve that builds it: on the README forcing, and at the two-mode
    sweep's step 10, where Newton stalls."""
    if case == "readme":
        g, alpha = readme_force(), 64.0
        guess = sp.apply_fractional(g, -1.0)
    else:
        g, alphas = two_mode_force(), [2.0**i for i in range(12)]
        with pytest.raises(st.ContinuationError) as err:
            st.sweep(alphas, [g] * len(alphas), trunc=8)
        assert err.value.index == 10
        alpha, guess = alphas[10], err.value.reports[9].solution
    p = st.SteadyProblem(g=g, alpha=alpha, trunc=8)
    cold = fresh_solve(p, guess)
    calls = []

    def recorded(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(st, "_isotropy", recorded(st._isotropy))
    monkeypatch.setattr(kernels, "Subspace", recorded(kernels.Subspace))
    warm = st.solve_steady(p, initial=guess)
    assert calls == []  # neither g's group nor the Subspace is built again
    assert report_bits(warm) == report_bits(cold)
    assert cold.converged == (case == "readme")
    if case != "readme":
        assert cold.message == "Newton stalled (no residual decrease)"


def test_readme_sweep_builds_each_plan_once(monkeypatch):
    """The plan of the assembly, made from ``Subspace._weights``, is built once
    per subspace of the frame, however many Jacobians the sweep assembles."""
    planned, assembled = [], []
    weights, assemble_linearized = kernels.Subspace._weights, kernels.assemble_linearized

    def counted_weights(self):
        planned.append(self)
        return weights(self)

    def counted_assemble(*args):
        assembled.append(args[-1])
        return assemble_linearized(*args)

    monkeypatch.setattr(kernels.Subspace, "_weights", counted_weights)
    monkeypatch.setattr(kernels, "assemble_linearized", counted_assemble)
    st._FRAME.clear()
    g, alphas = readme_force(), [2.0**i for i in range(12)]
    st.sweep(alphas, [g] * len(alphas), trunc=8)
    (frame,) = st._FRAME.values()
    subspaces = [sub for sub, _ in frame.subspaces.values()]
    assert all(sub.keep for sub in subspaces)
    assert sorted(map(id, planned)) == sorted(map(id, subspaces))
    assert set(map(id, assembled)) == set(map(id, subspaces))
    assert len(assembled) > 4 * len(subspaces)


def test_frame_restricts_to_each_guess():
    """Parity fixes the two-mode forcing; a symmetric guess keeps it, an
    asymmetric one drops it, and the next symmetric guess has it back, each
    solve equal to one with a fresh frame."""
    g = two_mode_force()
    p = st.SteadyProblem(g=g, alpha=4.0, trunc=8)
    symmetric = sp.apply_fractional(g, -1.0)
    asymmetric = symmetric + 1e-3 * sp.random_divfree(3, np.random.default_rng(64))
    fresh = [report_bits(fresh_solve(p, guess)) for guess in (symmetric, asymmetric)]
    st._FRAME.clear()
    orders = []
    for guess, want in zip([symmetric, asymmetric, symmetric], fresh + fresh[:1]):
        rep = st.solve_steady(p, initial=guess)
        assert report_bits(rep) == want
        orders.append(rep.group_order)
    assert orders == [2, 1, 2]
    assert len(st._FRAME) == 1


def test_sweep_with_a_force_per_step_is_the_fresh_solves():
    """Each step of a per-n-force sweep builds its own frame, and its reports
    are those of solves with a fresh frame each."""
    recs = fx.example45_window(fx.Example45Config.single(2, 1.0), range(1, 7))
    alphas, forces = [r.alpha for r in recs], [r.g_n for r in recs]
    reports = st.sweep(alphas, forces, trunc=8)
    guess = sp.project_trunc(sp.apply_fractional(forces[0], -1.0), 8)
    for rep, a, g in zip(reports, alphas, forces):
        want = fresh_solve(st.SteadyProblem(g=g, alpha=a, trunc=8), guess)
        assert report_bits(rep) == report_bits(want)
        guess = want.solution


def fresh_chain(problems, guess):
    """Per-step ``solve_steady`` calls with a fresh frame each, every one
    seeded from the last solution: the reports up to the first failure, and
    its index (None if every step converges)."""
    reports = []
    for i, p in enumerate(problems):
        reports.append(fresh_solve(p, guess))
        if not reports[-1].converged:
            return reports, i
        guess = reports[-1].solution
    return reports, None


def exact_check_fails_at(steps, monkeypatch):
    """Make ``steady.residual`` report 1.0 for the members of the README
    sweep's ``steps``."""
    exact, alphas = st.residual, [2.0**k for k in steps]

    def failing(fields, problems):
        return [1.0 if p.alpha in alphas else h for h, p in zip(exact(fields, problems), problems)]

    monkeypatch.setattr(st, "residual", failing)


def readme_steps(n=8):
    return [2.0**i for i in range(12)], [readme_force()] * 12, n


def example45_steps():
    recs = fx.example45_window(fx.Example45Config.single(2, 1.0), range(1, 13))
    return [r.alpha for r in recs], [r.g_n for r in recs], 8


def two_mode_steps():
    return [2.0**i for i in range(12)], [two_mode_force()] * 12, 8


def max_iters(k):
    return lambda monkeypatch: monkeypatch.setattr(st, "MAX_ITERS", k)


# steps (alphas, forces, N), a patch of the solver or None, and the failing
# index and its message
SWEEP_CASES = {
    "readme-n8": (readme_steps, None, None, ""),
    "readme-n16": (lambda: readme_steps(16), None, None, ""),
    "two-mode-stall": (two_mode_steps, None, 10, "Newton stalled (no residual decrease)"),
    "force-per-step": (example45_steps, None, None, ""),
    # alpha >= 64 takes 6 Newton iterations: at 5 each of those steps ends
    # on MAX_ITERS and passes its certificate, at 4 step 6 fails it
    "max-iters-5": (readme_steps, max_iters(5), None, ""),
    "max-iters-4": (readme_steps, max_iters(4), 6, "no convergence after 4 iterations"),
    "exact-check-fails-at-5-and-8": (readme_steps, lambda mp: exact_check_fails_at([5, 8], mp), 5,
                                     "no convergence after the polish step"),
}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_sweep_certifies_as_per_step_solves(case, monkeypatch):
    """A sweep whose certificates are batched gives, to the bit, the reports
    of per-step solves with a fresh frame each, and breaks at the same index
    with the same reports. A step that ends without its polish step is
    certified before the next one is solved; a failure after the polish step
    is found when the last step is certified."""
    steps, patch, index, message = SWEEP_CASES[case]
    alphas, forces, n = steps()
    if patch is not None:
        patch(monkeypatch)
    problems = [st.SteadyProblem(g=g, alpha=a, trunc=n) for a, g in zip(alphas, forces)]
    want, failed = fresh_chain(problems, sp.project_trunc(sp.apply_fractional(forces[0], -1.0), n))
    assert failed == index
    solved, newton = [], st._newton
    monkeypatch.setattr(st, "_newton", lambda p, guess: solved.append(p) or newton(p, guess))
    if index is None:
        got = st.sweep(alphas, forces, trunc=n)
    else:
        with pytest.raises(st.ContinuationError) as err:
            st.sweep(alphas, forces, trunc=n)
        assert err.value.index == index
        got = err.value.reports
        assert got[-1].message == message
    assert [report_bits(r) for r in got] == [report_bits(r) for r in want]
    assert len(solved) == (len(alphas) if message.endswith("polish step") else len(got))


def test_sweep_on_one_key_set_is_one_residual_and_one_convolution(monkeypatch):
    """The README sweep's twelve solutions share one key set: their
    certificates are one ``residual`` call and one batched convolution."""
    calls = {"residual": 0, "convolve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    steps = readme_steps()  # the fixture that gives g checks itself with one of each
    monkeypatch.setattr(st, "residual", counted("residual", st.residual))
    monkeypatch.setattr(kernels, "advect_convolve", counted("convolve", kernels.advect_convolve))
    reports = st.sweep(*steps)
    assert len(reports) == 12 and all(r.converged for r in reports)
    assert len({r.solution.keys.tobytes() for r in reports}) == 1
    assert calls == {"residual": 1, "convolve": 1}


def test_frame_off_the_forcing_lattice_is_not_reused_on_it():
    """A frame built for a guess off g's lattice holds every unknown; a later
    guess on g's lattice must not reuse it, and solves as with a fresh frame."""
    g = readme_force()
    p = st.SteadyProblem(g=g, alpha=64.0, trunc=8)
    on = sp.apply_fractional(g, -1.0)
    off = on + 1e-3 * sp.random_divfree(3, np.random.default_rng(64))
    want = report_bits(fresh_solve(p, on))
    st._FRAME.clear()
    assert st.solve_steady(p, initial=off).dofs == 288
    rep = st.solve_steady(p, initial=on)
    assert rep.dofs == 38 and report_bits(rep) == want
    assert len(st._FRAME) == 1


def test_frame_is_keyed_on_the_forcing_content():
    """An equal forcing held in another object finds the frame; another
    forcing, radius or lattice builds a new one, and only one is kept."""
    g = readme_force()
    copy = sp.SpectralField.from_arrays(g.trunc, g.keys.copy(), g.coeffs.copy())
    assert copy is not g
    guess = sp.apply_fractional(g, -1.0)
    st._FRAME.clear()
    frame = st._frame(g, 8, guess)
    assert st._frame(copy, 8, guess) is frame
    assert st._frame(readme_force(), 8, guess) is frame
    assert st._frame(2.0 * g, 8, guess) is not frame
    assert st._frame(g, 9, guess) is not st._frame(g, 8, guess)
    off = guess + 1e-3 * sp.random_divfree(3, np.random.default_rng(64))
    assert st._frame(g, 8, off) is not st._frame(g, 8, guess)
    assert len(st._FRAME) == 1


@pytest.mark.parametrize("max_iters", [50, 0])
def test_residual_h_is_the_exact_residual(shear_problem, max_iters, monkeypatch):
    """The reported residual is one exact residual of the returned solution,
    not the Jacobian-derived one the Newton loop steps on."""
    monkeypatch.setattr(st, "MAX_ITERS", max_iters)
    p = st.SteadyProblem(g=shear_problem.g, alpha=50.0, trunc=3)
    rep = st.solve_steady(p, initial=sp.zero_field(3))
    assert rep.converged == (max_iters > 0)
    assert rep.residual_h == sp.norm_ds(residual(rep.solution, p), 0)


def test_solve_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr(st, "MAX_ITERS", 0)
    g = shear_field()
    p = st.SteadyProblem(g=g, alpha=50.0, trunc=3)
    rep = st.solve_steady(p, initial=sp.zero_field(3))
    assert not rep.converged
    assert "no convergence" in rep.message


def test_singular_newton_system_is_reported(shear_problem, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    p = st.SteadyProblem(g=shear_problem.g, alpha=50.0, trunc=3)
    rep = st.solve_steady(p, initial=sp.zero_field(3))
    assert not rep.converged
    assert rep.message == "singular Newton system"
    assert rep.newton_iters == 0
    assert np.isfinite(rep.condition)


def test_sweep_laminar_branch(shear_problem):
    g = shear_problem.g
    reports = st.sweep([1.0, 10.0, 100.0, 1000.0], [g] * 4, trunc=4)
    lam = sp.apply_fractional(g, -1.0)
    for rep in reports:
        assert sp.norm_ds(rep.solution - lam, 1.0) <= 1e-13
        assert rep.bound_check <= 1.0 + 1e-10


def test_sweep_example45_tracks_analytic(ex45_records):
    reports = st.sweep([r.alpha for r in ex45_records],
                       [r.g_n for r in ex45_records], trunc=4)
    for rep, rec in zip(reports, ex45_records):
        diff = sp.apply_fractional(rep.solution - rec.v_n, 1.0)
        assert sp.norm_ds(diff, 0) <= 1e-10
        assert rep.bound_check <= 1.0 + 1e-10


def test_sweep_requires_increasing_alphas(shear_problem):
    with pytest.raises(ValueError):
        st.sweep([2.0, 1.0], [shear_problem.g] * 2, trunc=4)


def test_sweep_propagates_failure_index(ex45_records, monkeypatch):
    recs = ex45_records[:3]
    monkeypatch.setattr(st, "RESIDUAL_TOL", 0.0)
    with pytest.raises(st.ContinuationError) as err:
        # tol = 0 is unreachable on this family, so the very first step fails
        st.sweep([r.alpha for r in recs], [r.g_n for r in recs], trunc=4)
    assert err.value.index == 0
    assert len(err.value.reports) == 1


def test_manufactured_force_trio(ex45_cfg):
    # v = 0 -> g = 0
    assert len(manufactured_force(sp.zero_field(2), 3.0).keys) == 0
    # laminar: v = A^{-1} g0 shear -> g = g0 for every alpha
    g0 = shear_field()
    v = sp.apply_fractional(g0, -1.0)
    for alpha in (1.0, 17.0):
        g = manufactured_force(v, alpha)
        assert sp.norm_ds(g - g0, 0) <= 1e-14 * sp.norm_ds(g0, 0)
    # Example 4.5: v_n with alpha_n gives g_n
    rec = fx.example45(ex45_cfg, 6, check=False)
    g = manufactured_force(rec.v_n, rec.alpha)
    assert sp.norm_ds(g - rec.g_n, 0) <= 1e-13 * sp.norm_ds(rec.g_n, 0)


def test_manufactured_force_zero_residual_by_construction():
    rng = np.random.default_rng(11)
    v = sp.random_divfree(3, rng)
    g = manufactured_force(v, 2.5)
    p = st.SteadyProblem(g=g, alpha=2.5, trunc=2 * v.trunc)
    assert sp.norm_ds(residual(v, p), 0) <= 1e-13 * sp.norm_ds(g, 0)


def test_enstrophy_and_energy_bounds_on_corpus(ex45_records):
    # |Av| <= |g| (1 + 1e-10) and ||v|| <= |g| (1 + 1e-10) on every converged solve.
    reports = st.sweep([r.alpha for r in ex45_records[:10]],
                       [r.g_n for r in ex45_records[:10]], trunc=4)
    for rep, rec in zip(reports, ex45_records):
        gn = sp.norm_ds(rec.g_n, 0)
        assert sp.norm_ds(sp.apply_fractional(rep.solution, 1.0), 0) <= gn * (1 + 1e-10)
        assert sp.norm_ds(rep.solution, 0.5) <= gn * (1 + 1e-10)


def test_problem_validation():
    g = shear_field()
    with pytest.raises(ValueError):
        st.SteadyProblem(g=sp.zero_field(2), alpha=1.0, trunc=4)
    with pytest.raises(ValueError):
        st.SteadyProblem(g=g, alpha=1.0, trunc=0)
