"""The terminal-sample route of a Levy cell against its earlier forms, bit for bit.

`levy_route_reference` keeps the earlier draws and kernels; every family's
realization, every kernel form and the terminal sums must give the same bytes
from the same streams. The last test wraps the two module attributes that
an outside counter of atoms and marks replaces, and checks that every Levy
path is drawn through them.
"""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import levyheat as lh
from levyheat import measures, noise, solver
from levyheat import stats as st
from levyheat.streams import stream

from conftest import small_sim
import levy_route_reference as ref

# family, eps, eta, T: about 40k atoms for the stable and remark cells
_CELLS = {
    "stable": (lambda: lh.SymmetricStable(1.5), 0.1, 1e-3, 0.3),
    "gamma": (lambda: lh.GammaSubordinator(), 0.1, 1e-4, 1.0),
    "remark": (lambda: lh.RemarkDensityFamily(), 0.1, 1e-3, 4.0),
    "custom": (lambda: lh.CustomDensity(lambda z: np.exp(-np.abs(z)), (-1.0, 0.5)), 1.0, 0.01, 30.0),
    "custom_one_sided": (lambda: lh.CustomDensity(lambda z: np.exp(-z), (0.0, 2.0)), 2.0, 0.01, 30.0),
    "compound_few": (lambda: lh.CompoundPoisson(((0.5, 1.0), (-0.2, 2.0), (0.05, 0.5))), 1.0, 0.0, 3.0),
    "compound_many": (lambda: lh.CompoundPoisson(
        tuple(((-1) ** i * 0.01 * (i + 1), 1.0 + i % 3) for i in range(40))), 1.0, 0.0, 3.0),
}


@pytest.mark.parametrize("cell", list(_CELLS))
def test_realization_matches_earlier_route(cell):
    make, eps, eta, T = _CELLS[cell]
    model = lh.LevyModel(make())
    sampler = model.sampler(eps, eta)
    if cell.startswith("compound"):
        # both sides of the counting pass: at most _COUNT_PASS_MAX atoms, and more
        assert (len(sampler.cdf) <= measures._COUNT_PASS_MAX) == (cell == "compound_few")
    for i in range(3):
        rng, old = stream(31, i, cell), stream(31, i, cell)
        real = noise.simulate_levy_noise(model, eps, eta, T, rng, rho_budget=1.0)
        for got, want in zip((real.t, real.x, real.z), ref.realization_arrays(model, eps, eta, T, old)):
            assert got.tobytes() == want.tobytes()
        assert rng.random() == old.random()  # the same draws were taken
    assert len(real) > 0


def _kernel_inputs():
    """Atoms over three kernel blocks whose tau includes 0, +-inf and NaN."""
    rng = np.random.default_rng(12)
    n = 2 * solver._ATOM_BLOCK + 9
    x = np.pi * rng.random(n)
    x[:3] = (0.0, -0.0, 4.0)  # sin(x) of +0, -0 and a negative value
    tau = rng.random(n) ** 4
    tau[3:9] = (0.0, np.inf, np.nan, -np.inf, 1e300, -0.0)
    tau[:3] = np.inf
    return x, tau


def _coefficient_sets():
    point = lh.point_functional(math.pi / 2, 64).coefficients
    wide = np.zeros((3, 64))
    wide[0, 0], wide[1] = 1.0, point
    wide[2, :5] = (-0.3, 0.0, 2.0, 0.0, -1.0)
    return {
        "mode1": np.eye(1, 64),
        "mode1_signed": np.array([[1.0], [-0.3], [0.0]]),
        "many_modes": wide,
        "zero": np.zeros((2, 8)),
    }


@pytest.mark.parametrize("rows", list(_coefficient_sets()))
@pytest.mark.parametrize("factors", ["x_tau", "x", "tau"])
def test_atom_kernel_matches_blocked_form(rows, factors):
    coeffs = _coefficient_sets()[rows]
    x, tau = _kernel_inputs()
    x = x if "x" in factors else None
    tau = tau if "tau" in factors else None
    with np.errstate(all="ignore"):
        got = solver._atom_kernel(coeffs, x, tau)
        want = ref.atom_kernel(coeffs, x, tau)
    assert got.tobytes() == want.tobytes()  # -0.0 and NaN included


@pytest.mark.parametrize("gapped", [False, True])
@pytest.mark.parametrize("factors", ["x_tau", "x", "tau"])
def test_atom_kernel_partial_rows_match_blocked_form(factors, gapped):
    # finite inputs, tau >= 0: each block adds only the nonzero rows of a
    # partial mode, a slice of rows or (gapped) an index array; the second
    # block is small enough to run every mode in place
    point = np.array(lh.point_functional(math.pi / 2, 64).coefficients)
    coeffs = np.array([np.eye(1, 64)[0], point, -0.5 * point])
    if gapped:
        coeffs = coeffs[[1, 0, 2]]
    rng = np.random.default_rng(14)
    n = solver._ATOM_BLOCK + 700
    x = np.pi * rng.random(n) if "x" in factors else None
    tau = rng.random(n) if "tau" in factors else None
    if tau is not None:
        tau[:2] = (0.0, -0.0)
    assert isinstance(solver._row_picks(coeffs)[2], slice) != gapped
    got = solver._atom_kernel(coeffs, x, tau)
    assert got.tobytes() == ref.atom_kernel(coeffs, x, tau).tobytes()


def _gamma_cell(gamma_model, normalization, initial):
    cfg = small_sim(gamma_model, 1e-2, "atoms:200", modes=64, collocation=256, steps=64,
                    normalization=normalization, rho=1.0)
    if initial:
        cfg = replace(cfg, initial=tuple(np.cos(np.arange(64)) / np.arange(1, 65)))
    return cfg


@pytest.mark.parametrize("initial", [False, True], ids=["no_initial", "initial"])
@pytest.mark.parametrize("noise_kind", ["model", "retained", "gaussian"])
def test_terminal_samples_match_earlier_route(gamma_model, monkeypatch, noise_kind, initial):
    # mode 1 and the point at pi/2 (kmax 64, the cut kernel, partial rows at every
    # odd k >= 3) over two atom blocks of ~200-atom gamma paths
    cfg = _gamma_cell(gamma_model, "model" if noise_kind == "gaussian" else noise_kind, initial)
    if noise_kind == "gaussian":
        cfg = replace(cfg, noise=lh.GaussianNoiseSpec())
    fns = [st.mode_functional(1, 64), st.point_functional(math.pi / 2, 64)]
    monkeypatch.setattr(st, "_available_cores", lambda: 1)
    got = st.collect_terminal_samples(cfg, fns, 100, 8, purpose="route")
    want = ref.terminal_samples(cfg, fns, 100, 8, purpose="route")
    for f in fns:
        assert got[f.name].tobytes() == want[f.name].tobytes()


@pytest.mark.parametrize("rows", ["mode1", "mode1_signed", "many_modes"])
def test_terminal_sums_match_blocked_form(stable_model, rows):
    coeffs = _coefficient_sets()[rows]
    T = 1.0
    reals = [noise.simulate_levy_noise(stable_model, 1e-2, eta, T, stream(33, i, "sums"), rho_budget=1.0)
             for i, eta in enumerate((1e-3, 3e-3, 5e-3, 5e-3))]
    assert len(reals[0]) > solver._ATOM_BLOCK
    empty = np.empty(0)
    reals[2] = replace(reals[2], t=empty, x=empty, z=empty)
    # atoms at tau = T - t = 0, +inf, -inf and NaN in the last path
    t = reals[3].t.copy()
    t[:4] = (T, -np.inf, np.inf, np.nan)
    reals[3] = replace(reals[3], t=t)
    for batch in (reals, reals[:1], reals[1:], reals[2:3]):
        with np.errstate(all="ignore"):
            got = st._terminal_sums(batch, coeffs, T)
            want = ref.terminal_sums(batch, coeffs, T)
        assert got.tobytes() == want.tobytes()
    # the realizations' own arrays are left as they were
    again = noise.simulate_levy_noise(stable_model, 1e-2, 1e-3, T, stream(33, 0, "sums"), rho_budget=1.0)
    assert all(np.array_equal(getattr(reals[0], a), getattr(again, a)) for a in "txz")


def test_every_levy_path_is_drawn_through_the_module_attributes(stable_model, gamma_model, monkeypatch):
    # wrappers with the signatures of an outside atom and mark counter: five
    # positional arguments and keywords for the noise, exactly five for the marks
    draw, marks = noise.simulate_levy_noise, measures.sample_marks
    lock = threading.Lock()
    atoms, counted = [], []

    def count_atoms(model, eps, eta, T, rng, **kw):
        real = draw(model, eps, eta, T, rng, **kw)
        with lock:
            atoms.append(len(real))
        return real

    def count_marks(model, eps, eta, count, rng):
        with lock:
            counted.append(count)
        return marks(model, eps, eta, count, rng)

    cfg = small_sim(stable_model, 1e-3, "atoms:6000", modes=16, collocation=64, steps=64,
                    normalization="retained", rho=1.0)
    assert st._expected_atoms(cfg) >= st._FAN_OUT_MIN_ATOMS
    fns = [st.mode_functional(1, 16)]
    monkeypatch.setattr(st, "_available_cores", lambda: 1)
    plain = st.collect_terminal_samples(cfg, fns, 6, 4)
    # a gamma cell: one map of sign +1, whose marks are drawn without a pick
    gamma = _gamma_cell(gamma_model, "model", False)
    assert gamma_model.sampler(gamma.noise.eps, gamma.noise.resolve_eta(1.0)).one_positive_map
    gamma_fns = [st.mode_functional(1, 64), st.point_functional(math.pi / 2, 64)]
    gamma_plain = st.collect_terminal_samples(gamma, gamma_fns, 6, 4)
    monkeypatch.setattr(noise, "simulate_levy_noise", count_atoms)
    monkeypatch.setattr(measures, "sample_marks", count_marks)
    for cores in (1, 2):
        monkeypatch.setattr(st, "_available_cores", lambda: cores)
        atoms.clear(), counted.clear()
        got = st.collect_terminal_samples(cfg, fns, 6, 4)
        assert np.array_equal(got["mode1"], plain["mode1"])
        assert len(atoms) == 6 and sorted(counted) == sorted(atoms)
    atoms.clear(), counted.clear()
    got = st.collect_terminal_samples(gamma, gamma_fns, 6, 4)
    assert all(got[f.name].tobytes() == gamma_plain[f.name].tobytes() for f in gamma_fns)
    assert len(atoms) == 6 and counted == atoms
    small = replace(cfg, noise=replace(cfg.noise, eta="atoms:200"))
    for f in (lh.constant_f(1.0), lh.affine_f(0.5, 1.0)):
        atoms.clear(), counted.clear()
        path = lh.simulate_path(replace(small, f=f), stream(5, 0, "atoms"))
        assert atoms == [len(path.atom_log)] == counted
