import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, gamma as gamma_dist

import levyheat as lh
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
    assert real.m_restricted == 0.0


def test_degenerate_cutoff_budget_error(gamma_model):
    # eta = eps drops everything: dropped fraction 1 -> budget error
    with pytest.raises(BudgetExceededError):
        lh.simulate_levy_noise(gamma_model, 0.1, 0.1, 1.0, stream(1, 0, "atoms"))


def test_atom_cap_error(stable_model):
    with pytest.raises(AtomCapExceededError):
        lh.simulate_levy_noise(stable_model, 0.1, 1e-9, 1.0, stream(1, 0, "atoms"),
                               rho_budget=1.0, atom_cap=1e6)


@pytest.mark.parametrize("arg,error", [
    ("T", ValueError), ("eta", ValueError),
    ("rho_budget", BudgetExceededError), ("atom_cap", AtomCapExceededError),
])
def test_nan_fails_every_guard(stable_model, arg, error):
    # a NaN parameter fails its guard, and the error names it
    kw = dict(model=stable_model, eps=0.1, eta=0.01, T=1.0, rng=stream(1, 0, "atoms"),
              rho_budget=1.0, atom_cap=1e6)
    lh.simulate_levy_noise(**kw)
    kw[arg] = math.nan
    with pytest.raises(error, match=arg):
        lh.simulate_levy_noise(**kw)


def test_infinite_activity_error(stable_model):
    with pytest.raises(InfiniteActivityError):
        lh.simulate_levy_noise(stable_model, 0.1, 0.0, 1.0, stream(1, 0, "atoms"),
                               rho_budget=1.0)


def test_cell_constants_are_computed_once_per_cell(monkeypatch):
    # sigma^2, lambda and the restricted moments are kept per (eps, eta) on the
    # model, so one path evaluates the family's moments as often as six do
    calls = []
    moment = lh.GammaSubordinator.abs_moment

    def counted(self, *args):
        calls.append(args)
        return moment(self, *args)

    monkeypatch.setattr(lh.GammaSubordinator, "abs_moment", counted)
    eps, eta = 0.5, 1e-3
    counts, firsts = [], []
    for n_paths in (1, 6):
        model = lh.LevyModel(lh.GammaSubordinator())
        calls.clear()
        reals = [lh.simulate_levy_noise(model, eps, eta, 1.0, stream(21, i, "atoms")) for i in range(n_paths)]
        counts.append(len(calls))
        firsts.append(reals[0])
    assert counts[0] == counts[1] > 0
    a, b = firsts
    assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    # the kept values are those of the module operations, bit for bit
    assert b.sigma == math.sqrt(lh.variance(model, eps))
    assert b.sigma_retained == math.sqrt(lh.restricted_moment2(model, eps, eta))
    assert b.intensity == lh.restricted_mass(model, eps, eta)
    assert b.m_restricted == lh.restricted_mean(model, eps, eta) != 0.0
    # the budget and the atom cap are still checked on every call
    with pytest.raises(BudgetExceededError):
        lh.simulate_levy_noise(model, eps, eta, 1.0, stream(21, 0, "atoms"), rho_budget=1e-12)
    with pytest.raises(AtomCapExceededError):
        lh.simulate_levy_noise(model, eps, eta, 1.0, stream(21, 0, "atoms"), atom_cap=1.0)


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
    m = int(rng.poisson(real.intensity * T * math.pi))
    assert rng.uniform(0.0, T, m).tobytes() == real.t.tobytes()
    assert rng.uniform(0.0, math.pi, m).tobytes() == real.x.tobytes()


def test_realization_sorted_and_in_domain(gamma_model):
    # realizations come in draw order; the path solver's atom log is in time order
    eta = lh.auto_inner_cutoff(gamma_model, 0.1, 1.0)
    real = lh.simulate_levy_noise(gamma_model, 0.1, eta, 1.0, stream(5, 2, "atoms"))
    assert np.all((real.t >= 0) & (real.t <= 1.0))
    assert np.all((real.x > 0) & (real.x < math.pi))
    assert np.all((np.abs(real.z) > eta) & (np.abs(real.z) <= 0.1))
    assert real.dropped_variance_fraction <= 1e-3
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
        vals[i] = (real.z.sum() - real.m_restricted * 1.0 * math.pi) / real.sigma
    dropped = lh.dropped_variance_fraction(gamma_model, eps, eta)
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
    assert lh.dropped_variance_fraction(gamma_model, 0.1, eta) <= 1e-3
    # just-below-threshold: slightly larger eta violates the budget
    assert lh.dropped_variance_fraction(gamma_model, 0.1, eta * 1.01) > 1e-3 * 0.9
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
