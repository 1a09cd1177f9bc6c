"""Kernel tests: Jacobian assembly against the field-by-field oracle."""

import tracemalloc

import numpy as np
import pytest

from grashof_expand import kernels
from grashof_expand import spectral as sp
from grashof_expand import steady as st


# (radius N, alpha, v) for v drawn after g from one seeded generator.
JACOBIAN_CASES = {
    "n1": (1, 2.0, lambda rng: sp.random_divfree(1, rng)),
    "n5-alpha4": (5, 4.0, lambda rng: sp.random_divfree(5, rng)),
    "n8-alpha1024": (8, 1024.0, lambda rng: sp.random_divfree(8, rng)),
    # no v modes: only the Stokes diagonal remains
    "zero-v": (4, 3.0, lambda rng: sp.zero_field(4)),
    # one mode pair at k = (2, 1): most p +- k_r leave the box or miss a representative
    "eigenfunction-v": (3, 7.0, lambda rng: sp.eigenfunction(19)),
}


@pytest.mark.parametrize("case", list(JACOBIAN_CASES))
def test_jacobian_kernel_matches_field_assembly(case):
    n, alpha, make_v = JACOBIAN_CASES[case]
    rng = np.random.default_rng(1)
    g = sp.random_divfree(min(n, 3), rng, decay=1.5)
    p = st.SteadyProblem(g=(1.0 / sp.norm_ds(g, 0)) * g, alpha=alpha, trunc=n)
    v = make_v(rng)
    maps = st._dof_maps(n)
    a = st._linearized_matrix(v, p, maps)
    b = st._linearized_matrix_fields(v, p, maps)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_jacobian_kernel_memory_is_one_matrix():
    """The assembly holds little beyond its (2m, 2m) output at N = 8.

    Materializing every (v mode, column) pair at once peaks at several
    times the output and shows in the solver's resident memory.
    """
    rng = np.random.default_rng(4)
    v = sp.random_divfree(8, rng)
    kv, cv = v.packed()
    _, sigmas, reparr, replut = st._dof_maps(8)
    tracemalloc.start()
    try:
        out = kernels.assemble_linearized(kv, cv, reparr, sigmas, replut, 5.0, 8)
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
    maps = st._dof_maps(3)
    reps, sigmas = maps[0], maps[1]
    x0 = st._field_to_vec(v, reps, sigmas)

    def fvec(x):
        fld = st._vec_to_field(x, reps, sigmas, 3)
        return st._field_to_vec(st.residual(fld, p), reps, sigmas)

    jac = st._linearized_matrix(v, p, maps)
    f0 = fvec(x0)
    h = 1e-7
    for i in range(0, len(x0), 7):
        xp = x0.copy()
        xp[i] += h
        col = (fvec(xp) - f0) / h
        assert np.max(np.abs(col - jac[:, i])) <= 1e-5 * max(np.max(np.abs(jac)), 1.0)
