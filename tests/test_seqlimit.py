"""Limit estimator unit tests: branch selection, exactness, zero snapping."""

import numpy as np

from grashof_expand.seqlimit import estimate_limit, shanks_limit

TAIL = 3


def inverse_n(vals):
    """Abscissas x_n = 1/n for a window; routes other than ls-poly ignore them."""
    return 1.0 / np.arange(1, len(vals) + 1)


def test_constant_sequence():
    vals = np.full((8, 2), 3.5)
    limit, method = estimate_limit(vals, inverse_n(vals), TAIL)
    assert method == "constant"
    assert np.array_equal(limit, [3.5, 3.5])


def test_shanks_exact_on_two_geometric_components():
    n = np.arange(1, 9)
    vals = (2.0 + 0.7 * 0.5**n - 0.3 * 0.2**n)[:, None]
    limit, method = estimate_limit(vals, inverse_n(vals), TAIL)
    assert method == "shanks"
    assert abs(limit[0] - 2.0) <= 1e-12


def test_shanks_kills_single_geometric_exactly():
    n = np.arange(1, 7)
    vals = (0.25**n)[:, None]
    est = shanks_limit(vals)
    assert abs(est[0]) <= 1e-18


def test_freefall_snaps_decaying_component_to_zero():
    n = np.arange(1, 7, dtype=float)
    # still falling geometrically at the window end; limit indistinguishable from 0
    vals = (np.exp(-n) * np.sqrt(1 - np.exp(-2 * n)))[:, None]
    limit, _ = estimate_limit(vals, inverse_n(vals), TAIL)
    assert limit[0] == 0.0


def test_nonzero_limit_survives_snap():
    n = np.arange(1, 7, dtype=float)
    vals = (1.0 + 0.01 * np.exp(-n))[:, None]
    limit, method = estimate_limit(vals, inverse_n(vals), TAIL)
    assert method == "shanks"
    assert abs(limit[0] - 1.0) <= 1e-10
    assert limit[0] != 0.0


def test_ls_poly_branch_for_algebraic_decay():
    n = np.arange(1, 21, dtype=float)
    xs = 1.0 / (3.0 * n)
    vals = (0.8 + 1.7 * xs + 0.4 * xs**3)[:, None]
    limit, method = estimate_limit(vals, xs, 7)
    assert method == "ls-poly"
    assert abs(limit[0] - 0.8) <= 1e-12


def test_complex_components_estimated_independently():
    n = np.arange(1, 7, dtype=float)
    vals = (np.sqrt(1 - np.exp(-2 * n)) + 1j * np.exp(-n))[:, None]
    limit, _ = estimate_limit(vals, inverse_n(vals), TAIL)
    assert limit[0].imag == 0.0          # free-falling imaginary part snapped
    assert abs(limit[0].real - 1.0) <= 1e-10
