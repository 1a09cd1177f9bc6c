"""Kernel tests: the FFT convolution against the pairwise oracle (itself the
per-mode loop to the bit), the Jacobian assembly against the field-by-field
oracle."""

import copy
import tracemalloc

import numpy as np
import pytest

from grashof_expand import fixtures as fx
from grashof_expand import kernels
from grashof_expand import spectral as sp
from grashof_expand import steady as st

from oracles import bilinear_at, residual


def convolve_pairwise(ku, cu, kv, cv, nout, pair_budget=4096):
    """Oracle for ``kernels.advect_convolve``: the sum over every (p, q) pair,
    ``pair_budget`` pairs of a block of u modes at a time."""
    size = 2 * nout + 1
    reals = np.zeros(4 * size * size)  # per cell (kx, ky): 2 complex components
    block = max(1, pair_budget // max(len(kv), 1))
    for start in range(0, len(ku), block):
        kx = ku[start:start + block, 0, None] + kv[:, 0]
        ky = ku[start:start + block, 1, None] + kv[:, 1]
        # Pairs in (p, q) order: np.add.at sums every cell's terms in that order,
        # so the sum is the same to the bit for any block size.
        p, q = np.nonzero((np.abs(kx) <= nout) & (np.abs(ky) <= nout))
        cells = 4 * ((kx[p, q] + nout) * size + ky[p, q] + nout)
        p += start
        terms = (1j * (cu[p, 0] * kv[q, 0] + cu[p, 1] * kv[q, 1]))[:, None] * cv[q]
        np.add.at(reals, (cells[:, None] + np.arange(4)).ravel(), terms.view(np.float64).ravel())
    return reals.view(np.complex128).reshape(size, size, 2)


def convolve_per_mode(ku, cu, kv, cv, nout):
    """Slowest oracle: one u mode at a time."""
    size = 2 * nout + 1
    grid = np.zeros((size, size, 2), dtype=np.complex128)
    qdot = kv.astype(np.float64)
    for p in range(len(ku)):
        kx = ku[p, 0] + kv[:, 0]
        ky = ku[p, 1] + kv[:, 1]
        keep = (np.abs(kx) <= nout) & (np.abs(ky) <= nout)
        if not keep.any():
            continue
        dots = 1j * (cu[p, 0] * qdot[keep, 0] + cu[p, 1] * qdot[keep, 1])
        np.add.at(grid, (kx[keep] + nout, ky[keep] + nout), dots[:, None] * cv[keep])
    return grid


def linearized_by_fields(v, p, reps, sigmas):
    """Slow oracle for ``kernels.assemble_linearized``: the image of each DOF's
    field through ``spectral``'s own operators, one column at a time."""
    m = len(reps)
    cols = np.zeros((2 * m, 2 * m))
    for i, (kx, ky) in enumerate(reps.tolist()):
        for part in (0, 1):
            c = sigmas[i].astype(np.complex128) * (1.0 if part == 0 else 1j)
            z = sp.SpectralField(p.trunc, {(kx, ky): c, (-kx, -ky): np.conj(c)})
            img = sp.lin_comb([1.0, p.alpha], [sp.apply_fractional(z, 1.0),
                                               bilinear_at(v, z, p.trunc, symmetric=True)])
            cols[:, part * m + i] = st._field_to_vec(img, reps, sigmas)
    return cols


def one_mode(k):
    """Real field on the pair +-k with coefficient sigma(k)."""
    c = sp.sigma(k).astype(np.complex128)
    return sp.SpectralField(max(map(abs, k)), {k: c, (-k[0], -k[1]): c.conj()})


# (u, v, nout) drawn from one seeded generator.
CONVOLUTION_CASES = {
    "n8-nout8": lambda rng: (sp.random_divfree(8, rng), sp.random_divfree(8, rng), 8),
    "n8-nout16": lambda rng: (sp.random_divfree(8, rng), sp.random_divfree(8, rng), 16),
    "n3": lambda rng: (sp.random_divfree(3, rng), sp.random_divfree(3, rng), 6),
    "eigen2-eigen5": lambda rng: (sp.eigenfunctions(2)[-1], sp.eigenfunctions(5)[-1], 2),
    # every p + q lies outside the output box
    "all-pairs-outside": lambda rng: (one_mode((5, 0)), one_mode((0, 5)), 4),
    "zero-u": lambda rng: (sp.zero_field(4), sp.random_divfree(4, rng), 8),
}


@pytest.mark.parametrize("case", list(CONVOLUTION_CASES))
def test_convolution_is_the_per_mode_sum_to_the_bit(case):
    u, v, nout = CONVOLUTION_CASES[case](np.random.default_rng(2))
    got = convolve_pairwise(u.keys, u.coeffs, v.keys, v.coeffs, nout)
    assert np.array_equal(got, convolve_per_mode(u.keys, u.coeffs, v.keys, v.coeffs, nout))
    # the block size does not change a bit
    assert np.array_equal(got, convolve_pairwise(u.keys, u.coeffs, v.keys, v.coeffs, nout, 7))


# Cases beyond CONVOLUTION_CASES for the FFT grid of m >= r_u + r_v + nout + 1.
FFT_CASES = {
    **CONVOLUTION_CASES,
    # r_u = 8 is above m / 2 on the grid m = 15 that r_u + r_v + nout + 1 = 13
    # asks for: the grid must widen to m >= 2 r_u + 1 to hold every mode of u
    "wide-u": lambda rng: (sp.random_divfree(8, rng), sp.random_divfree(1, rng), 3),
    "wide-v": lambda rng: (sp.random_divfree(1, rng), sp.random_divfree(8, rng), 3),
    # nout > r_u + r_v: the grid is set by the output (m >= 2 nout + 1)
    "nout-above-sum": lambda rng: (sp.random_divfree(2, rng), sp.random_divfree(3, rng), 9),
    "zero-v": lambda rng: (sp.random_divfree(4, rng), sp.zero_field(4), 8),
    "zero-both": lambda rng: (sp.zero_field(2), sp.zero_field(3), 5),
}


def pair_count(ku, kv, nout):
    """The number of pairs (p, q) with p + q = k at each cell k of the
    radius-nout grid."""
    size = 2 * nout + 1
    count = np.zeros((size, size), dtype=np.int64)
    kx, ky = (ku[:, None, i] + kv[None, :, i] for i in (0, 1))
    keep = (np.abs(kx) <= nout) & (np.abs(ky) <= nout)
    np.add.at(count, (kx[keep] + nout, ky[keep] + nout), 1)
    return count


def assert_matches_the_pairwise_oracle(got, ku, cu, kv, cv, nout):
    """Deviation within 1e-14 of the largest entry, a Hermitian grid to the
    bit, exactly zero off the sum set of the two key sets, and a cell that
    one pair reaches the oracle's to the bit. Returns the oracle's grid."""
    want = convolve_pairwise(ku, cu, kv, cv, nout)
    assert got.shape == want.shape == (2 * nout + 1, 2 * nout + 1, 2)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)
    assert np.array_equal(got, np.conj(got[::-1, ::-1]))
    assert np.all(got[nout, nout].imag == 0)
    count = pair_count(ku, kv, nout)
    assert not np.any(got[count == 0])
    assert np.array_equal(got[count == 1], want[count == 1])
    return want


@pytest.mark.parametrize("case", list(FFT_CASES))
def test_fft_convolution_matches_the_pairwise_oracle(case):
    """The oracle's values and single-pair cells, also where that pair has p
    parallel to q and u_p . q is 0 for a divergence-free u (corners of "n3"
    and "nout-above-sum"), and its support: off (0, 0) nonzero exactly where
    the oracle is, as no cell of these cases has terms that cancel exactly."""
    u, v, nout = FFT_CASES[case](np.random.default_rng(2))
    got = kernels.advect_convolve(u.keys, u.coeffs, v.keys, v.coeffs, nout)
    want = assert_matches_the_pairwise_oracle(got, u.keys, u.coeffs, v.keys, v.coeffs, nout)
    off = np.ones(got.shape[:2], dtype=bool)
    off[nout, nout] = False
    assert np.array_equal(got[off] != 0, want[off] != 0)


def readme_n8_solution():
    """The README forcing's steady state at N = 8, alpha = 16."""
    g = fx.example45(fx.Example45Config.single(2, 1.0), 1).g
    return st.solve_steady(st.SteadyProblem(g=g, alpha=16.0, trunc=8)).solution


# (fields on one key set, output radius nout)
BATCH_CASES = {
    "example45-two-coefficients": lambda: (
        [r.v_n for r in fx.example45_window(fx.Example45Config(coeffs=((2, 0.93), (3, -0.6))),
                                            range(1, 21), check=False)], 6),
    "readme-n8-scaled": lambda: ([a * v for v in [readme_n8_solution()] for a in (1.0, -0.5, 3.0)], 8),
}


def norm_bits(norms):
    return np.array(norms, dtype=np.float64).tobytes()


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_convolution_is_per_field_calls_to_the_bit(case):
    """A batch of fields on one key set convolves, member by member, to the
    bits of one call per field, and each member still matches the pairwise
    oracle, and ``steady.residual`` of the batch gives each member's norm of
    the residual field to the bit."""
    fields, nout = BATCH_CASES[case]()
    keys = fields[0].keys
    assert len(fields) >= 3 and all(np.array_equal(f.keys, keys) for f in fields)
    rows = np.stack([f.coeffs for f in fields])
    got = kernels.advect_convolve(keys, rows, keys, rows, nout)
    assert got.shape == (len(fields), 2 * nout + 1, 2 * nout + 1, 2)
    for b, c in enumerate(rows):
        assert got[b].tobytes() == kernels.advect_convolve(keys, c, keys, c, nout).tobytes()
        assert_matches_the_pairwise_oracle(got[b], keys, c, keys, c, nout)
    problems = [st.SteadyProblem(g=fields[0], alpha=1.0 + b, trunc=nout) for b in range(len(fields))]
    want = [sp.norm_ds(residual(f, p), 0) for f, p in zip(fields, problems)]
    assert norm_bits(st.residual(fields, problems)) == norm_bits(want)


def test_residual_convolves_each_run_of_one_key_set(monkeypatch):
    """A list that mixes key sets and radii makes one batched convolution per
    run of consecutive fields on one key set and one radius, and each norm is
    the residual field's to the bit, a radius below v's included."""
    rng = np.random.default_rng(8)
    dense = [sp.random_divfree(3, rng) for _ in range(2)]  # every mode of radius 3
    pair = [sp.eigenfunctions(2)[-1], -2.0 * sp.eigenfunctions(2)[-1]]
    fields = [dense[0], dense[1], pair[0], pair[1], dense[1], dense[0]]
    g = sp.eigenfunctions(5)[-1]
    problems = [st.SteadyProblem(g=g, alpha=0.5 + i, trunc=t) for i, t in enumerate([6, 6, 6, 6, 6, 2])]
    batches, convolve = [], kernels.advect_convolve

    def counted(ku, cu, kv, cv, nout):
        batches.append((len(cu), nout))
        return convolve(ku, cu, kv, cv, nout)

    monkeypatch.setattr(kernels, "advect_convolve", counted)
    got = st.residual(fields, problems)
    assert batches == [(2, 6), (2, 6), (1, 6), (1, 2)]
    monkeypatch.setattr(kernels, "advect_convolve", convolve)
    want = [sp.norm_ds(residual(f, p), 0) for f, p in zip(fields, problems)]
    assert norm_bits(got) == norm_bits(want)


def test_convolution_keeps_the_exact_support():
    # e_2 and e_5 are one mode pair each: B(e_2, e_5) has the 4 sums p + q.
    assert len(sp.bilinear_b(sp.eigenfunctions(2)[-1], sp.eigenfunctions(5)[-1]).keys) == 4


def test_convolution_of_the_shear_is_exactly_zero():
    """(w1 . grad) w1 = sin y d_x (sin y) e1 = 0 for the example45 shear
    w1 = sin y e1: its u_y and d_x planes are exact zeros, so the product is."""
    w1 = fx.example45(fx.Example45Config.single(2, 1.0), 3).w1
    assert len(w1.keys) == 2
    assert len(sp.bilinear_b(w1, w1).keys) == 0


def test_convolution_memory_is_bounded():
    """One N = 16 convolution at its exact radius stays under 1 MB.

    Holding every (p, q) pair at once, over a million at N = 16, would take
    tens of megabytes.
    """
    rng = np.random.default_rng(5)
    u, v = sp.random_divfree(16, rng), sp.random_divfree(16, rng)
    tracemalloc.start()
    try:
        kernels.advect_convolve(u.keys, u.coeffs, v.keys, v.coeffs, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


# (radius N, alpha, v) for v drawn after g from one seeded generator.
JACOBIAN_CASES = {
    "n1": (1, 2.0, lambda rng: sp.random_divfree(1, rng)),
    "n5-alpha4": (5, 4.0, lambda rng: sp.random_divfree(5, rng)),
    "n8-alpha1024": (8, 1024.0, lambda rng: sp.random_divfree(8, rng)),
    # k - q reaches the edge of the radius-2N grid v is gathered from
    "n12-alpha64": (12, 64.0, lambda rng: sp.random_divfree(12, rng)),
    # v of a smaller truncation than the radius
    "n6-v3": (6, 8.0, lambda rng: sp.random_divfree(3, rng)),
    # v wider than 2N: the unknowns hold P_N v, which the oracle is given too
    "n3-v8": (3, 6.0, lambda rng: sp.random_divfree(8, rng)),
    # no v modes: only the Stokes diagonal remains
    "zero-v": (4, 3.0, lambda rng: sp.zero_field(4)),
    # one mode pair at k = (2, 1): most p +- k_r leave the box or miss a representative
    "eigenfunction-v": (3, 7.0, lambda rng: sp.eigenfunctions(19)[-1]),
}


@pytest.mark.parametrize("case", list(JACOBIAN_CASES))
def test_jacobian_kernel_matches_field_assembly(case):
    n, alpha, make_v = JACOBIAN_CASES[case]
    rng = np.random.default_rng(1)
    g = sp.random_divfree(min(n, 3), rng, decay=1.5)
    p = st.SteadyProblem(g=(1.0 / sp.norm_ds(g, 0)) * g, alpha=alpha, trunc=n)
    v = sp.project_trunc(make_v(rng), n)  # the field the unknowns on radius N hold
    reps, sigmas = st._dof_maps(n)
    a = kernels.assemble_linearized(st._field_to_vec(v, reps, sigmas), sigmas, reps, p.alpha,
                                    kernels.Subspace(reps, n))
    b = linearized_by_fields(v, p, reps, sigmas)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_jacobian_kernel_on_a_subset_of_representatives():
    """Each entry depends only on its row's and column's wavevectors, so the
    assembly on the kx-even representatives (the Newton unknowns of a forcing
    on 2Z x Z) is the block of the full assembly that they select."""
    n = 8
    v = sp.random_divfree(n, np.random.default_rng(6))
    reps, sigmas = st._dof_maps(n)
    even = np.flatnonzero(reps[:, 0] % 2 == 0)
    rows = np.concatenate([even, len(reps) + even])
    x = st._field_to_vec(v, reps, sigmas)
    full = kernels.assemble_linearized(x, sigmas, reps, 16.0, kernels.Subspace(reps, n))
    part = kernels.assemble_linearized(x[rows], sigmas[even], reps[even], 16.0,
                                       kernels.Subspace(reps[even], n))
    assert part.shape == (2 * len(even), 2 * len(even))
    assert np.max(np.abs(part - full[np.ix_(rows, rows)])) <= 1e-15 * np.max(np.abs(full))


def symmetrized(x, reps, n, element):
    """The sum of x over the powers of one element (R, tau) of the symmetry
    group: a vector that the element fixes, exactly when the sums are exact."""
    side = 2 * n + 1
    lookup = np.full(n * side + n + 1, 2 * len(reps))
    lookup[reps[:, 0] * side + reps[:, 1]] = np.arange(len(reps))
    dst, sgn = (a[0] for a in st._moves(reps, lookup, side, [element], np.arange(len(reps))))
    total, y = x.copy(), x
    for _ in range(15):  # (R, tau)^16 is the identity
        z = np.empty_like(y)
        z[dst] = sgn * y
        total, y = total + z, z
    return total


def subspace_field(case, n=8):
    """(x, reps, subspace): the unknowns x of a field on a group's fixed
    subspace at radius n, on the group's representatives."""
    reps, sigmas = st._dof_maps(n)
    rng = np.random.default_rng(9)
    if case in ("readme", "two-mode"):
        coeffs = ((2, 1.0),) if case == "readme" else ((2, 1.27), (3, 0.9))
        g = fx.example45(fx.Example45Config(coeffs=coeffs), 1).g
        on = st._on_lattice(reps, st._lattice(g.keys))
        reps, sigmas = reps[on], sigmas[on]
        gvec = st._field_to_vec(g, reps, sigmas)
        orbits, _ = st._Frame(reps, sigmas, n, gvec).restrict(gvec)
        x = orbits.expand(0.1 * rng.standard_normal(len(orbits.first)))
    else:
        # x <-> y, then translate by (pi/2, 0): amplitude a(kx, ky) goes to
        # a(ky, kx) times -e^{-i ky pi/2}, a phase -+i for odd ky
        x = symmetrized(rng.integers(-64, 65, 2 * len(reps)) / 512, reps, n, 6 * 16 + 4)
        orbits, _ = st._Frame(reps, sigmas, n, x).restrict(x)
    return x, reps, orbits


@pytest.mark.parametrize("case", ["readme", "quarter-glide"])
def test_reduced_jacobian_is_p_j_q(case):
    """On a fixed subspace the assembly is P J Q of the full one: the rows of
    the first unknowns, and each orbit's columns summed with their signs."""
    x, reps, orbits = subspace_field(case)
    m, sigmas = len(reps), sp.sigma(reps)
    live = np.flatnonzero(orbits.orbit >= 0)
    if case == "quarter-glide":  # some orbit holds a real and an imaginary part
        parts = np.zeros((len(orbits.first), 2), dtype=bool)
        parts[orbits.orbit[live], live // m] = True
        assert parts.all(axis=1).any()
    q = np.zeros((2 * m, len(orbits.first)))
    q[live, orbits.orbit[live]] = orbits.sign[live]
    full = kernels.assemble_linearized(x, sigmas, reps, 32.0, kernels.Subspace(reps, 8))
    want = full[orbits.first] @ q
    got = kernels.assemble_linearized(x[orbits.first], sigmas, reps, 32.0, orbits)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["readme", "trivial"])
def test_kept_subspace_assembles_as_a_fresh_one(case):
    """A Subspace serves many assemblies: v1 and then v2, each at two alphas,
    give the bits of a fresh Subspace per call, on the README frame (group
    order 4), which keeps its plan, and on the trivial group, which makes
    its weights at each call."""
    n = 8
    if case == "readme":
        _, reps, kept = subspace_field(case)
    else:
        reps = st._dof_maps(n)[0]
        kept = kernels.Subspace(reps, n)
    assert kept.keep == (case == "readme")

    def fresh():
        return subspace_field(case)[2] if case == "readme" else kernels.Subspace(reps, n)

    rng = np.random.default_rng(11)
    sigmas = sp.sigma(reps)
    for _ in range(2):
        y = 0.1 * rng.standard_normal(len(kept.first))
        for alpha in (3.0, 700.0):
            got = kernels.assemble_linearized(y, sigmas, reps, alpha, kept)
            want = kernels.assemble_linearized(y, sigmas, reps, alpha, fresh())
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, n", [("readme", 8), ("readme", 16), ("two-mode", 8),
                                     ("quarter-glide", 8)])
def test_kept_plan_is_the_per_call_path(case, n):
    """The kept plan gives the values and the memory layout of the per-call
    block path on the same subspace, which makes the weights anew and reads
    the images in complex arithmetic: every entry is equal, and where the
    bits differ both are zeros (their signs follow the arithmetic)."""
    x, reps, sub = subspace_field(case, n)
    assert sub.keep
    per_call = copy.copy(sub)
    per_call.keep = False
    sigmas, y = sp.sigma(reps), x[sub.first]
    for alpha in (3.0, 700.0):
        got = kernels.assemble_linearized(y, sigmas, reps, alpha, sub)
        want = kernels.assemble_linearized(y, sigmas, reps, alpha, per_call)
        assert np.array_equal(got, want)
        assert np.all((got.view(np.int64) == want.view(np.int64)) | (got == 0))
        assert (got.flags.f_contiguous, got.flags.c_contiguous) == \
            (want.flags.f_contiguous, want.flags.c_contiguous)
    assert "plan" not in vars(per_call)  # the per-call path built none


@pytest.mark.parametrize("case, n", [("readme", 32), ("two-mode", 16)])
def test_kept_plan_memory_is_bounded(case, n):
    """The plan takes at most 1.3x the bytes of the weights it replaces, and
    repeated assemblies on a kept subspace hold at most 1.5x their output
    beyond it, applying it a block of columns at a time. (A matrix of one
    block, the README frame's at N = 8, holds about 5.5x its 12 kB.)"""
    x, reps, sub = subspace_field(case, n)
    sigmas, y = sp.sigma(reps), x[sub.first]
    weights = sum(w.nbytes for w in sub._weights())
    assert sum(a.nbytes for a in sub.plan) <= 1.3 * weights
    tracemalloc.start()
    try:
        for _ in range(2):
            out = None
            out = kernels.assemble_linearized(y, sigmas, reps, 5.0, sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape[0] > kernels._KEPT_ENTRIES // out.shape[0]  # several blocks
    assert peak <= 1.5 * out.nbytes


@pytest.mark.parametrize("coeffs, order, column_major", [
    (((2, 1.0),), 4, True),  # the README frame
    (((2, 1.27), (3, 0.9)), 2, True),  # the two-mode parity frame
    (None, 1, False),  # the trivial group
])
def test_jacobian_memory_layout_is_pinned(coeffs, order, column_major):
    """The solver reads each residual as ``jac @ xv``, whose rounding follows
    J's memory layout: column-major from the column gather on a nontrivial
    group, row-major on the trivial one. A change of layout would move every
    ``SolveReport``'s bits, so it must fail here first."""
    n = 8
    reps, sigmas = st._dof_maps(n)
    if coeffs is None:
        v = sp.random_divfree(n, np.random.default_rng(12))
        sub, got_order = kernels.Subspace(reps, n), 1
        gvec = st._field_to_vec(v, reps, sigmas)
    else:
        v = fx.example45(fx.Example45Config(coeffs=coeffs), 1).g
        on = st._on_lattice(reps, st._lattice(v.keys))
        reps, sigmas = reps[on], sigmas[on]
        gvec = st._field_to_vec(v, reps, sigmas)
        sub, got_order = st._Frame(reps, sigmas, n, gvec).restrict(gvec)
    assert got_order == order
    jac = kernels.assemble_linearized(gvec[sub.first], sigmas, reps, 5.0, sub)
    assert jac.shape[0] > 1  # else both layouts at once
    assert jac.flags.f_contiguous == column_major
    assert jac.flags.c_contiguous != column_major


@pytest.mark.parametrize("n", [8, 16])
def test_jacobian_kernel_memory_is_one_matrix(n):
    """The assembly holds little beyond its (2m, 2m) output, also with a
    Subspace of the trivial group that serves several calls, as the solver
    holds one for a whole sweep.

    Materializing every (v mode, column) pair at once peaks at several
    times the output and shows in the solver's resident memory, and so
    would weights kept for every row and column.
    """
    rng = np.random.default_rng(4)
    v = sp.random_divfree(n, rng)
    reparr, sigmas = st._dof_maps(n)
    x = st._field_to_vec(v, reparr, sigmas)
    for kept in (False, True):
        tracemalloc.start()
        try:
            sub = kernels.Subspace(reparr, n) if kept else None
            for _ in range(2):
                out = None
                out = kernels.assemble_linearized(x, sigmas, reparr, 5.0,
                                                  sub or kernels.Subspace(reparr, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    g = sp.random_divfree(2, rng, decay=1.5)
    g = (1.0 / sp.norm_ds(g, 0)) * g
    p = st.SteadyProblem(g=g, alpha=3.0, trunc=3)
    v = sp.random_divfree(3, rng)
    reps, sigmas = st._dof_maps(3)
    x0 = st._field_to_vec(v, reps, sigmas)

    def fvec(x):
        fld = st._vec_to_field(x, reps, sigmas, 3)
        return st._field_to_vec(residual(fld, p), reps, sigmas)

    jac = kernels.assemble_linearized(x0, sigmas, reps, p.alpha, kernels.Subspace(reps, 3))
    f0 = fvec(x0)
    h = 1e-7
    for i in range(0, len(x0), 7):
        xp = x0.copy()
        xp[i] += h
        col = (fvec(xp) - f0) / h
        assert np.max(np.abs(col - jac[:, i])) <= 1e-5 * max(np.max(np.abs(jac)), 1.0)
