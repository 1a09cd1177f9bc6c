"""Shared test fixtures: analytic windows and manufactured solution families."""

import os

# The suite's bit and sha256 pins hold at one BLAS thread count: set it before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from grashof_expand import expansion as ex
from grashof_expand import fixtures as fx
from grashof_expand import spectral as sp

from oracles import leray_project, manufactured_force, sequence_data


def shear_field(amplitude=1.0):
    """(amplitude * sin y, 0): the laminar forcing/solution workhorse."""
    c = np.array([amplitude / 2j, 0.0j])
    return sp.SpectralField(1, {(0, 1): c, (0, -1): np.conj(c)})


def x_wave(m, amplitude=1.0):
    """(0, amplitude * sin(mx)): unidirectional, B(u, u) = 0 exactly."""
    c = np.array([0.0j, amplitude / 2j])
    return sp.SpectralField(m, {(m, 0): c, (-m, 0): np.conj(c)})


def witness_fields(e, term):
    """The witnesses of ``term``, a term of the expansion ``e``, as fields."""
    return [sp.SpectralField.from_arrays(e.trunc, e.keys, w.reshape(-1, 2)) for w in term.witnesses]


@pytest.fixture(scope="session")
def ex45_cfg():
    return fx.Example45Config.single(2, 1.0)


@pytest.fixture(scope="session")
def ex45_records(ex45_cfg):
    return fx.example45_window(ex45_cfg, range(1, 21))


@pytest.fixture(scope="session")
def ex45_data(ex45_records):
    return sequence_data(
        tuple(r.v_n for r in ex45_records), tuple(r.alpha for r in ex45_records)
    )


@pytest.fixture(scope="session")
def ex45_extraction(ex45_data):
    strict = ex.extract_strict(ex45_data, ex.default_scale_2dp(6))
    unitary = ex.refine_unitary(strict, ex45_data)
    return strict, unitary


@pytest.fixture(scope="session")
def ex314_window():
    fields, alphas = fx.example314_window()
    data = sequence_data(fields, alphas)
    return fields, data


@pytest.fixture(scope="session")
def ex314_extraction(ex314_window):
    _, data = ex314_window
    strict = ex.extract_strict(data, ex.constant_scale(0.0, 3))
    unitary = ex.refine_unitary(strict, data)
    return strict, unitary


def make_v0_family(mu_hat=1.3, mu2_hat=1.0, count=10, base=3.0):
    """v_n = Gamma_1 w1 + Gamma_2 w2 with alpha Gamma_1^2 constant and
    manufactured forces; the limit force is mu_hat^2 B(w1, w1) != 0."""
    raw1 = {(0, 1): np.array([1 / 2j, 0]), (0, -1): np.array([-1 / 2j, 0]),
            (2, 0): np.array([0, 1 / 2j]), (-2, 0): np.array([0, -1 / 2j])}
    w1 = leray_project(raw1)
    w1 = (1.0 / sp.norm_ds(w1, 0.5)) * w1
    w2 = x_wave(3)
    w2 = (1.0 / sp.norm_ds(w2, 0.5)) * w2
    alphas = np.array([base**n for n in range(1, count + 1)])
    g1 = mu_hat / np.sqrt(alphas)
    g2 = mu2_hat / alphas**1.5
    fields = [sp.lin_comb([g1[i], g2[i]], [w1, w2]) for i in range(count)]
    forces = [manufactured_force(fields[i], alphas[i]) for i in range(count)]
    g_limit = (mu_hat**2) * sp.bilinear_b(w1, w1)
    data = sequence_data(tuple(fields), tuple(alphas))
    return data, forces, g_limit, (g1, w1, g2, w2)


def make_stokes_family(branch="ii", count=10, base=3.0):
    """v = A^{-1} g with a nontrivial expansion, all directions x-unidirectional
    (every advection term vanishes identically, so the branch equations hold
    exactly and the branch is decided purely by the Gamma relations)."""
    v = x_wave(2, 0.5)
    w1 = x_wave(4)
    w1 = (1.0 / sp.norm_ds(w1, 0.5)) * w1
    w2 = x_wave(3)
    w2 = (1.0 / sp.norm_ds(w2, 0.5)) * w2
    alphas = np.array([base**n for n in range(1, count + 1)])
    if branch == "ii":
        g1 = 1.0 / alphas
        g2 = 1.0 / alphas**1.5
    elif branch == "iii":
        g1 = 1.0 / np.sqrt(alphas)
        g2 = 1.0 / alphas**2
    else:
        raise ValueError(branch)
    fields = [sp.lin_comb([1.0, g1[i], g2[i]], [v, w1, w2]) for i in range(count)]
    forces = [manufactured_force(fields[i], alphas[i]) for i in range(count)]
    g_limit = sp.apply_fractional(v, 1.0)
    data = sequence_data(tuple(fields), tuple(alphas))
    return data, forces, g_limit, (g1, w1, g2, w2)
