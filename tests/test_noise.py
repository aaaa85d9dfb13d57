import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, gamma as gamma_dist

import levyheat as lh
from levyheat import noise
from levyheat.errors import (
    AtomCapExceededError,
    BudgetExceededError,
    EmptyRestrictionError,
    InfiniteActivityError,
)
from levyheat.streams import stream

from conftest import small_sim


def test_atom_count_poisson_mean():
    # total mass 2 -> expected atom count 2*T*pi
    model = lh.LevyModel(lh.CompoundPoisson(((1.0, 2.0),)))
    n_real = 10_000
    counts = np.array([
        len(lh.simulate_levy_noise(model, 2.0, 0.0, 1.0, stream(11, i, "atoms")))
        for i in range(n_real)
    ])
    target = 2.0 * math.pi
    se = counts.std(ddof=1) / math.sqrt(n_real)
    assert abs(counts.mean() - target) <= 3.0 * se


def test_symmetric_model_has_zero_drift():
    model = lh.LevyModel(lh.CompoundPoisson(((-1.0, 0.5), (1.0, 0.5))))
    real = lh.simulate_levy_noise(model, 2.0, 0.0, 1.0, stream(3, 0, "atoms"))
    assert real.cell.m_restricted == 0.0


def _refused(error, model, eps, eta, **kw):
    """Assert that simulate_levy_noise raises `error` and leaves its generator untouched."""
    rng = stream(1, 0, "atoms")
    with pytest.raises(error):
        lh.simulate_levy_noise(model, eps, eta, 1.0, rng, **kw)
    assert rng.random() == stream(1, 0, "atoms").random()


def test_degenerate_cutoff_budget_error(gamma_model):
    # eta = eps drops everything: dropped fraction 1 -> budget error, and
    # within a budget of 1 the restriction is refused as empty
    _refused(BudgetExceededError, gamma_model, 0.1, 0.1)
    _refused(EmptyRestrictionError, gamma_model, 0.1, 0.1, rho_budget=1.0)


def test_atom_cap_error(stable_model):
    _refused(AtomCapExceededError, stable_model, 0.1, 1e-9, rho_budget=1.0, atom_cap=1e6)


@pytest.mark.parametrize("arg,error", [("T", ValueError), ("eta", ValueError)])
def test_nan_fails_every_guard(stable_model, arg, error):
    # a NaN parameter fails its guard, and the error names it
    kw = dict(model=stable_model, eps=0.1, eta=0.01, T=1.0, rng=stream(1, 0, "atoms"),
              rho_budget=1.0, atom_cap=1e6)
    lh.simulate_levy_noise(**kw)
    kw[arg] = math.nan
    with pytest.raises(error, match=arg):
        lh.simulate_levy_noise(**kw)


@pytest.mark.parametrize("arg,value", [
    ("rho_budget", math.nan), ("rho_budget", -1.0),
    ("atom_cap", math.nan), ("atom_cap", -1.0), ("atom_cap", 0.0),
])
def test_budget_and_cap_arguments_are_checked(stable_model, arg, value):
    # unless rho_budget >= 0 and atom_cap > 0 (NaN fails both), the spec and
    # every call raise a ValueError that names the argument, before any draw
    kw = {"rho_budget": 1.0, "atom_cap": 1e6, arg: value}
    with pytest.raises(ValueError, match=arg):
        lh.LevyNoiseSpec(stable_model, 0.1, eta=0.01, **kw)
    _refused(ValueError, stable_model, 0.1, 0.01, **kw)


def test_infinite_activity_error(stable_model):
    _refused(InfiniteActivityError, stable_model, 0.1, 0.0, rho_budget=1.0)


def test_gamma_at_infinite_eps_is_refused_before_any_draw(gamma_model):
    # the restriction has finite mass, but its log-uniform proposal needs a
    # finite eps: the cell is refused when resolved, naming eps
    eta = lh.eta_for_atom_budget(gamma_model, math.inf, 1.0, 200.0)
    with pytest.raises(InfiniteActivityError, match=r"\[sample_marks\].*eps=inf"):
        noise.noise_cell(gamma_model, math.inf, eta, 1.0)
    _refused(InfiniteActivityError, gamma_model, math.inf, eta, rho_budget=1.0)


def test_cell_constants_are_computed_once_per_cell(monkeypatch):
    # the cell of (model, eps, eta, T) is resolved once and kept on the model,
    # so one path evaluates the family's moments as often as six do
    calls, resolved = [], []
    moment, resolve = lh.GammaSubordinator.abs_moment, noise._resolve_cell

    def counted(self, *args):
        calls.append(args)
        return moment(self, *args)

    def counted_cell(model, *args):
        resolved.append(args)
        return resolve(model, *args)

    monkeypatch.setattr(lh.GammaSubordinator, "abs_moment", counted)
    monkeypatch.setattr(noise, "_resolve_cell", counted_cell)
    eps, eta = 0.5, 1e-3
    counts, firsts = [], []
    for n_paths in (1, 6):
        model = lh.LevyModel(lh.GammaSubordinator())
        calls.clear(), resolved.clear()
        reals = [lh.simulate_levy_noise(model, eps, eta, 1.0, stream(21, i, "atoms")) for i in range(n_paths)]
        counts.append(len(calls))
        firsts.append(reals[0])
        assert resolved == [(eps, eta, 1.0)] and all(r.cell is reals[0].cell for r in reals)
    assert counts[0] == counts[1] > 0
    # another horizon is another cell
    lh.simulate_levy_noise(model, eps, eta, 2.0, stream(21, 0, "atoms"))
    assert resolved == [(eps, eta, 1.0), (eps, eta, 2.0)]
    a, b = firsts
    assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    # the kept values are those of the module operations, bit for bit
    cell = b.cell
    assert (cell.eps, cell.eta, cell.T) == (eps, eta, 1.0)
    assert cell.sigma == math.sqrt(lh.variance(model, eps))
    assert cell.sigma_retained == math.sqrt(lh.restricted_moment2(model, eps, eta))
    assert cell.intensity == lh.restricted_mass(model, eps, eta)
    assert cell.expected_atoms == cell.intensity * 1.0 * math.pi
    assert cell.dropped_variance_fraction == (
        max(0.0, 1.0 - lh.restricted_moment2(model, eps, eta) / lh.variance(model, eps)))
    assert cell.m_restricted == lh.restricted_mean(model, eps, eta) != 0.0
    assert cell.sampler is model.sampler(eps, eta)
    # the budget and the atom cap are still checked on every call, before any draw
    _refused(BudgetExceededError, model, eps, eta, rho_budget=1e-12)
    _refused(AtomCapExceededError, model, eps, eta, atom_cap=1.0)


@pytest.mark.parametrize("n", [0, 1, 130, 40_000])
@pytest.mark.parametrize("T", [1.0, 0.7, math.pi])
def test_scaled_random_is_bitwise_uniform(n, T):
    # simulate_levy_noise draws times and positions as high * rng.random(n):
    # bitwise the draws of rng.uniform(0.0, high, n) on the same stream
    a, b = stream(17, 0, "atoms"), stream(17, 0, "atoms")
    for high in (T, math.pi):
        assert (high * a.random(n)).tobytes() == b.uniform(0.0, high, n).tobytes()
    model = lh.LevyModel(lh.CompoundPoisson(((1.0, 2.0),)))
    real = lh.simulate_levy_noise(model, 2.0, 0.0, T, stream(17, 1, "atoms"))
    rng = stream(17, 1, "atoms")
    m = int(rng.poisson(real.cell.intensity * T * math.pi))
    assert rng.uniform(0.0, T, m).tobytes() == real.t.tobytes()
    assert rng.uniform(0.0, math.pi, m).tobytes() == real.x.tobytes()


def test_realization_sorted_and_in_domain(gamma_model):
    # realizations come in draw order; the path solver's atom log is in time order
    eta = lh.auto_inner_cutoff(gamma_model, 0.1, 1.0)
    real = lh.simulate_levy_noise(gamma_model, 0.1, eta, 1.0, stream(5, 2, "atoms"))
    assert np.all((real.t >= 0) & (real.t <= 1.0))
    assert np.all((real.x > 0) & (real.x < math.pi))
    assert np.all((np.abs(real.z) > eta) & (np.abs(real.z) <= 0.1))
    assert real.cell.dropped_variance_fraction <= 1e-3
    path = lh.simulate_path(small_sim(gamma_model, 0.1, eta), stream(5, 2, "atoms"))
    log = path.atom_log
    assert np.all(np.diff(log.t) >= 0)
    assert sorted(zip(log.t, log.x, log.z)) == sorted(zip(real.t, real.x, real.z))


def test_determinism(gamma_model):
    eta = lh.auto_inner_cutoff(gamma_model, 0.1, 1.0)
    a = lh.simulate_levy_noise(gamma_model, 0.1, eta, 1.0, stream(9, 1, "atoms"))
    b = lh.simulate_levy_noise(gamma_model, 0.1, eta, 1.0, stream(9, 1, "atoms"))
    assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)


def test_compensated_sum_variance(gamma_model):
    # f == 1: Var[ sigma^-1 (sum z_j - m T pi) ] = (1 - dropped) T pi
    eps, eta, n_real = 0.1, 2e-3, 10_000
    vals = np.empty(n_real)
    for i in range(n_real):
        real = lh.simulate_levy_noise(gamma_model, eps, eta, 1.0, stream(21, i, "atoms"))
        vals[i] = (real.z.sum() - real.cell.m_restricted * 1.0 * math.pi) / real.cell.sigma
    dropped = noise.noise_cell(gamma_model, eps, eta, 1.0).dropped_variance_fraction
    target = (1.0 - dropped) * 1.0 * math.pi
    v = vals.var(ddof=1)
    # SE of the sample variance from the sample fourth moment
    m4 = np.mean((vals - vals.mean()) ** 4)
    se = math.sqrt(max(m4 - v ** 2, 0.0) / n_real)
    assert abs(v - target) <= 3.0 * se


def test_position_uniformity_chi_square(gamma_model):
    # flaky-test guard: fixed seed
    xs = []
    for i in range(400):
        real = lh.simulate_levy_noise(gamma_model, 0.1, 2e-3, 1.0, stream(33, i, "atoms"))
        xs.append(real.x)
    xs = np.concatenate(xs)
    counts, _ = np.histogram(xs, bins=20, range=(0.0, math.pi))
    expected = len(xs) / 20.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(1.0 - 1e-3, df=19)


def test_auto_inner_cutoff_budget(gamma_model, stable_model):
    eta = lh.auto_inner_cutoff(gamma_model, 0.1, 1.0, rho_budget=1e-3)
    assert noise.noise_cell(gamma_model, 0.1, eta, 1.0).dropped_variance_fraction <= 1e-3
    # just-below-threshold: slightly larger eta violates the budget
    assert noise.noise_cell(gamma_model, 0.1, eta * 1.01, 1.0).dropped_variance_fraction > 1e-3 * 0.9
    with pytest.raises(AtomCapExceededError):
        lh.auto_inner_cutoff(stable_model, 1e-3, 1.0, rho_budget=1e-3, atom_cap=1e6)


def test_eta_for_atom_budget(stable_model):
    eta = lh.eta_for_atom_budget(stable_model, 1e-2, 1.0, 30_000.0)
    lam = lh.restricted_mass(stable_model, 1e-2, eta)
    assert lam * math.pi == pytest.approx(30_000.0, rel=1e-6)
    # finite-activity family: budget above total mass -> eta = 0
    cp = lh.LevyModel(lh.CompoundPoisson(((1.0, 1.0),)))
    assert lh.eta_for_atom_budget(cp, 2.0, 1.0, 100.0) == 0.0


def test_eta_for_atom_budget_below_search_floor(gamma_model):
    # gamma needs eta ~ 2e-28 * eps for 200 atoms, below the initial bracket eps * 1e-18
    for eps in (1e-1, 1e-2, 1e-3):
        eta = lh.eta_for_atom_budget(gamma_model, eps, 1.0, 200.0)
        assert math.pi * lh.restricted_mass(gamma_model, eps, eta) == pytest.approx(200.0, rel=1e-9)


_LAPLACE_AT_INFINITY = """
import math, sys
import numpy as np
import levyheat as lh
model = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-np.abs(z)), (-math.inf, math.inf)))
call = sys.argv[1]
if call == "auto":
    print(repr(lh.auto_inner_cutoff(model, math.inf, 1.0)))
else:
    print(repr(lh.eta_for_atom_budget(model, math.inf, 1.0, 3.0)))
"""


@pytest.mark.parametrize("call, expected", [
    # dropped fraction 2 int_0^eta z^2 e^-z dz / 4 = P(Gamma(3) <= eta) = 1e-3
    ("auto", gamma_dist.ppf(1e-3, 3)),
    # expected atoms pi * 2 e^-eta = 3
    ("atoms", math.log(2.0 * math.pi / 3.0)),
])
def test_eta_search_with_unbounded_support_at_infinite_eps(call, expected):
    # each call runs in its own interpreter so that a search that never ends fails here
    src = str(Path(lh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", _LAPLACE_AT_INFINITY, call], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert float(done.stdout) == pytest.approx(expected, rel=0, abs=1e-11)


def test_atom_dump_roundtrip(tmp_path, gamma_model):
    real = lh.simulate_levy_noise(gamma_model, 0.1, 2e-3, 1.0, stream(5, 0, "atoms"))
    fp = tmp_path / "atoms.bin"
    lh.dump_atoms(real, str(fp))
    t, x, z = lh.load_atoms(str(fp))
    assert np.array_equal(t, real.t) and np.array_equal(x, real.x) and np.array_equal(z, real.z)
    # triplet little-endian layout: 24 bytes per atom
    assert fp.stat().st_size == 24 * len(real)
