import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import levyheat as lh
from levyheat import stats as st
from levyheat.errors import AtomCapExceededError, ConfigMismatchError, EmptySampleError, MissingAtomLogError
from levyheat.streams import stream

from conftest import small_sim
import psi_reference


# ---------------------------------------------------------------------------
# KS and ECF
# ---------------------------------------------------------------------------

def test_ks_identical_zero():
    x = np.linspace(0, 1, 50)
    d, p = lh.ks_two_sample(x, x.copy())
    assert d == 0.0 and p == 1.0


def test_ks_disjoint_one():
    d, _ = lh.ks_two_sample(np.zeros(40), np.ones(40))
    assert d == 1.0


def test_ks_null_level():
    rng = np.random.default_rng(2024)
    a, b = rng.normal(size=10_000), rng.normal(size=10_000)
    d, p = lh.ks_two_sample(a, b)
    assert d < 0.03
    assert 0.0 <= p <= 1.0


def test_ks_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=500), rng.normal(0.3, 1.2, size=400)
    d1, p1 = lh.ks_two_sample(a, b)
    d2, p2 = lh.ks_two_sample(b, a)
    assert d1 == d2 and p1 == p2
    f = lambda x: np.exp(0.7 * x) + x  # strictly monotone
    d3, _ = lh.ks_two_sample(f(a), f(b))
    assert d3 == pytest.approx(d1, abs=1e-15)


def test_ks_empty_raises():
    with pytest.raises(EmptySampleError):
        lh.ks_two_sample(np.array([]), np.ones(3))


@pytest.mark.parametrize("bad", [[], [np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0]], ids=["empty", "nan", "inf"])
@pytest.mark.parametrize("operation", ["ks_two_sample", "ecf_distance"])
def test_two_sample_statistics_reject_empty_and_non_finite(operation, bad):
    good = np.array([0.0, 1.0, 2.0])
    for a, b in ((np.array(bad), good), (good, np.array(bad))):
        with pytest.raises(EmptySampleError) as err:
            getattr(lh, operation)(a, b)
        assert err.value.operation == operation


def test_ecf_examples():
    rng = np.random.default_rng(4)
    a = rng.normal(size=20_000)
    assert lh.ecf_distance(a, a.copy()) == 0.0
    shifted = a + 10.0
    grid = np.linspace(0.05, 3.0, 60)
    d = lh.ecf_distance(a, shifted, grid)
    assert 1.8 <= d <= 2.0
    b = rng.normal(size=100) * 50
    assert lh.ecf_distance(a[:100], b, grid) <= 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ecf_rejects_non_finite_grid(bad):
    # max(best, nan) keeps best, so a NaN frequency would read as distance 0
    a, b = np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.0, 7.0])
    with pytest.raises(ValueError, match="xi grid must be finite"):
        lh.ecf_distance(a, b, [bad, 1.0])


# ---------------------------------------------------------------------------
# martingale diagnostics
# ---------------------------------------------------------------------------

def test_martingale_zero_paths(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, f=lh.constant_f(0.0), steps=256)
    probe = lh.MartingaleProbe(0.7, lh.SmoothBump(), 0.25, 0.75)
    paths = (lh.simulate_path(cfg, stream(1, i, "t")) for i in range(5))
    rows = lh.martingale_residual(paths, probe)
    for r in rows:
        assert abs(r.estimate) == pytest.approx(0.0, abs=1e-12)
        assert r.z_score == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_martingale_probe_needs_a_finite_frequency(xi):
    with pytest.raises(ValueError, match="xi must be finite"):
        lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75)


def test_martingale_s_equals_t(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, steps=256)
    probe = lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.5, 0.5)
    paths = (lh.simulate_path(cfg, stream(2, i, "t")) for i in range(4))
    rows = lh.martingale_residual(paths, probe)
    for r in rows:
        assert r.estimate == 0.0


def test_martingale_small_mc(gamma_model):
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 60.0)
    cfg = small_sim(gamma_model, 0.1, eta, steps=1024, modes=32, collocation=128)
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (0.5, 1.0)]
    paths = (lh.simulate_path(cfg, stream(31, i, "atoms")) for i in range(200))
    rows = lh.martingale_residual(paths, probes)
    assert len(rows) == 6
    for r in rows:
        assert r.z_score <= 4.0  # generous at 200 paths; acceptance tightens this


def test_martingale_second_moment_bounded_across_eps(gamma_model):
    # sup_eps E|M_t|^2 proxy: no growth trend over the eps grid
    bounds = []
    probe = lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.25, 0.75)
    for eps in (1e-1, 1e-2, 1e-3):
        eta = lh.eta_for_atom_budget(gamma_model, eps, 1.0, 60.0)
        cfg = small_sim(gamma_model, eps, eta, steps=512, modes=32, collocation=128)
        coeffs = probe.coefficients(32)
        cdd = -(np.arange(1, 33, dtype=float) ** 2) * coeffs
        vals = []
        for i in range(60):
            path = lh.simulate_path(cfg, stream(37, i, f"m2:{eps}"))
            [psi] = st._compensator_psis(
                gamma_model, eps, path.atom_log.eta,
                [lambda x: probe.xi * st.phi_values(np.arange(1, 33), x).T @ coeffs])
            [(dM, _)] = st._probe_values(path, [probe], [psi], [coeffs], [cdd])
            vals.append(abs(dM) ** 2)
        bounds.append(np.mean(vals))
    assert max(bounds) < 4.0
    assert max(bounds) / min(bounds) < 2.0


def test_martingale_config_mismatch(cp_symmetric, gamma_model):
    cfg1 = small_sim(cp_symmetric, 2.0, 0.0, steps=256)
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 50.0)
    cfg2 = small_sim(gamma_model, 0.1, eta, steps=256)
    probe = lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.25, 0.75)
    paths = [lh.simulate_path(cfg1, stream(0, 0, "t")), lh.simulate_path(cfg2, stream(0, 0, "t"))]
    with pytest.raises(ConfigMismatchError):
        lh.martingale_residual(paths, probe)


def test_martingale_rejects_gaussian_paths():
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), T=1.0,
                       modes=8, collocation=32, steps=128)
    probe = lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.25, 0.75)
    with pytest.raises(MissingAtomLogError):
        lh.martingale_residual([lh.simulate_path(cfg, stream(0, 0, "g"))], probe)


_PSI_CELLS = {
    "stable": (lambda: lh.LevyModel(lh.SymmetricStable(1.5)), 0.1, 1e-3),
    "gamma": (lambda: lh.LevyModel(lh.GammaSubordinator()), 0.1, 1e-4),
    "compound": (lambda: lh.LevyModel(lh.CompoundPoisson(((0.5, 1.0), (-0.2, 2.0), (0.05, 0.5), (1.5, 1.0)))),
                 1.0, 0.1),
    "custom": (lambda: lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-z), (-0.5, 1.0))), 1.0, 0.01),
    "remark": (lambda: lh.LevyModel(lh.RemarkDensityFamily()), 0.1, 0.05),
}


@pytest.mark.parametrize("family", list(_PSI_CELLS))
def test_psi_table_matches_direct_quadrature(family):
    make, eps, eta = _PSI_CELLS[family]
    model = make()
    a_max = 2.0 / lh.sigma(model, eps)  # a probe with |xi f phi| up to 2
    a = np.concatenate(([-a_max, 0.0, a_max], np.random.default_rng(7).uniform(-a_max, a_max, 200)))
    got = st._psi_table(model, eps, eta, a_max)(a)
    expect = psi_reference.psi_direct(model, eps, eta, a)
    err = np.abs(got - expect)
    if family == "remark":
        # the tail runs to measures._TAIL_CAP, so psi / a^2 has a 1 / log(1/|a|)
        # term near 0 and the series converges only algebraically: 1.9e-7 of
        # max |psi| at the 128-node cap, while the pointwise relative error
        # near a = 0 stays at ~6e-4
        assert err.max() <= 5e-7 * np.abs(expect).max()
    else:
        assert np.all(err <= 1e-12 * np.abs(expect))


def test_stable_expm1i_matches_mpmath():
    # the series runs to |theta| = 0.1; the direct sin(theta) - theta above it
    mpmath = pytest.importorskip("mpmath")
    theta = np.geomspace(1e-8, 10.0, 600)
    theta = np.concatenate((theta, [1e-4, 1.01e-4, np.nextafter(0.1, 0.0), 0.1], -theta[::7]))
    got = st._stable_expm1i(theta)
    with mpmath.workdps(40):
        want_im = np.array([float(mpmath.sin(t) - t) for t in map(mpmath.mpf, theta)])
        want_re = np.array([float(mpmath.cos(t) - 1) for t in map(mpmath.mpf, theta)])
    assert np.all(np.abs(got.imag - want_im) <= 1e-13 * np.abs(want_im))
    assert np.all(np.abs(got.real - want_re) <= 1e-14 * np.abs(want_re))


def test_martingale_psi_on_segment_from_origin(monkeypatch):
    # a finite-mass density on (0, 1) at eta = 0: its segment starts at 0
    from scipy.integrate import quad

    model = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-z), (0.0, 1.0)))
    cfg = small_sim(model, 1.0, 0.0, steps=256, modes=16, collocation=64)
    paths = [lh.simulate_path(cfg, stream(3, i, "origin")) for i in range(4)]
    assert sum(len(p.atom_log) for p in paths) > 0
    tables = []

    def kept(*args):
        tables.append((args[-1], table(*args)))
        return tables[-1][1]

    table = st._psi_table
    monkeypatch.setattr(st, "_psi_table", kept)
    rows = lh.martingale_residual(paths, lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.25, 0.75))
    assert all(math.isfinite(abs(r.estimate)) for r in rows)
    [(a_max, psi)] = tables
    a = a_max * np.array([-1.0, -0.43, -0.17, 0.02, 0.17, 0.57, 1.0])

    def integral(g):
        return quad(lambda z: g(z) * math.exp(-z), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]

    want = np.array([integral(lambda z: -2.0 * math.sin(0.5 * x * z) ** 2)
                     + 1j * integral(lambda z: math.sin(x * z) - x * z) for x in a])
    assert np.all(np.abs(psi(a) - want) <= 1e-12 * np.abs(want))


def _martingale_paths(gamma_model, n):
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 60.0)
    cfg = small_sim(gamma_model, 0.1, eta, steps=512)
    return [lh.simulate_path(cfg, stream(53, i, "psi")) for i in range(n)]


def test_martingale_zero_frequency_probe(gamma_model):
    probe = lh.MartingaleProbe(0.0, lh.SmoothBump(), 0.25, 0.75)
    assert st._compensator_psis(gamma_model, 0.1, 1e-4, [lambda x: 0.0 * x])[0] == 0.0
    with np.errstate(divide="raise", invalid="raise"):
        rows = lh.martingale_residual(_martingale_paths(gamma_model, 4), probe)
    for r in rows:
        assert r.estimate == 0.0 and r.se_re == 0.0 and r.se_im == 0.0


def test_martingale_negative_frequency_conjugates(gamma_model):
    paths = _martingale_paths(gamma_model, 6)
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (1.0, -1.0)]
    rows = lh.martingale_residual(paths, probes)
    for plus, minus in zip(rows[:3], rows[3:]):
        assert plus.estimate.imag != 0.0
        assert minus.estimate == plus.estimate.conjugate()
        assert (minus.se_re, minus.se_im) == (plus.se_re, plus.se_im)


def test_martingale_one_psi_table_per_call(gamma_model, monkeypatch):
    builds = []

    def counted(*args):
        builds.append(args)
        return table(*args)

    table = st._psi_table
    monkeypatch.setattr(st, "_psi_table", counted)
    paths = _martingale_paths(gamma_model, 4)
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (0.5, 1.0, -2.0)]
    first = lh.martingale_residual(paths, probes)
    assert len(builds) == 1
    second = lh.martingale_residual(paths, probes)
    assert len(builds) == 2
    assert second == first  # nothing carries over between calls


def test_martingale_rows_match_reference_psi(monkeypatch):
    # the criterion-7 configuration at 16 paths, Psi by the direct per-x quadrature
    gamma = lh.LevyModel(lh.GammaSubordinator())
    eta = lh.eta_for_atom_budget(gamma, 0.1, 1.0, 100.0)
    cfg = lh.SimConfig(noise=lh.LevyNoiseSpec(model=gamma, eps=0.1, eta=eta), f=lh.constant_f(1.0),
                       T=1.0, modes=64, collocation=256, steps=4096)
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (0.5, 1.0)]
    paths = [lh.simulate_path(cfg, stream(12345, i, "crit7")) for i in range(16)]
    rows = lh.martingale_residual(paths, probes)
    monkeypatch.setattr(st, "_compensator_psis", lambda model, eps, eta, amps: [
        psi_reference.compensator_psi(model, eps, eta, amp) for amp in amps])
    expect = lh.martingale_residual(paths, probes)
    for r, e in zip(rows, expect):
        assert abs(r.estimate - e.estimate) <= 1e-12 * abs(e.estimate)
        assert r.se_re == pytest.approx(e.se_re, rel=1e-12)
        assert r.se_im == pytest.approx(e.se_im, rel=1e-12)


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------

def test_characteristics_fast_route_agreement(gamma_model):
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 80.0)
    cfg = small_sim(gamma_model, 0.1, eta, steps=512, modes=32, collocation=128)
    phihat = lh.SmoothBump().sine_coefficients(32)
    quad, bigs = st.characteristics_sample(cfg, phihat, 0.5, 5, 43)
    for i in range(5):
        path = lh.simulate_path(cfg, stream(43, i, "atoms"))
        real = path.atom_log
        # the solver's jumps of <u, phi>, in time order
        jumps = path.f_at_atoms * lh.solver.sine_series(phihat, real.x) * real.z / real.sigma
        small = np.abs(jumps) <= 0.5
        assert float(np.sum(jumps[small] ** 2)) == pytest.approx(quad[i], abs=1e-10)
        assert int(np.sum(~small)) == bigs[i]
        # both routes evaluate <phi, basis> with sine_series: the jump sizes agree
        # exactly, the solver's in time order and the fast route's in draw order,
        # so the fast route's sum is reproduced bit for bit from them
        drawn = cfg.noise.simulate(cfg.T, stream(43, i, "atoms"))
        drawn_jumps = lh.solver.sine_series(phihat, drawn.x) * drawn.z / drawn.sigma
        assert np.array_equal(np.sort(jumps), np.sort(drawn_jumps))
        assert quad[i] == float(np.sum(np.where(np.abs(drawn_jumps) <= 0.5, drawn_jumps**2, 0.0)))


def _per_path_characteristics(cfg, phihat, h, n_paths, seed):
    """characteristics_sample path by path, in the form of the agreement test above."""
    quad, bigs = np.zeros(n_paths), np.zeros(n_paths, dtype=int)
    c = lh.solver.fit_coefficients(phihat, cfg.modes)
    for i in range(n_paths):
        drawn = cfg.noise.simulate(cfg.T, stream(seed, i, "atoms"))
        jumps = (cfg.f.constant_value * lh.solver.sine_series(c, drawn.x) * drawn.z
                 / drawn.jump_scale(cfg.noise.normalization))
        small = np.abs(jumps) <= h
        quad[i], bigs[i] = float(np.sum(np.where(small, jumps**2, 0.0))), int(np.sum(~small))
    return quad, bigs


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("case", ["gamma_blocks", "compound_empty", "stable_large"])
def test_characteristics_match_per_path_form_bitwise(gamma_model, stable_model, monkeypatch, case, cores):
    phihat = lh.SmoothBump().sine_coefficients(64)
    if case == "gamma_blocks":
        # ~1000 atoms per path: the 40 paths span several atom blocks
        cfg, n_paths, h = small_sim(gamma_model, 0.1, "atoms:1000", modes=64, collocation=256, steps=64), 40, 0.5
        assert n_paths * 1000 > 2 * lh.solver._ATOM_BLOCK
    elif case == "compound_empty":
        # ~0.94 atoms per path: some paths hold none
        cp = lh.LevyModel(lh.CompoundPoisson(((1.0, 0.3),)))
        cfg, n_paths, h = small_sim(cp, 2.0, 0.0, modes=32, collocation=128, steps=64), 30, 1e-3
        phihat = phihat[:32]
    else:
        cfg, n_paths, h = _stable_cell(stable_model), 3, 9e-3
    monkeypatch.setattr(st, "_available_cores", lambda: cores)
    quad, bigs = st.characteristics_sample(cfg, phihat, h, n_paths, 7)
    want_quad, want_bigs = _per_path_characteristics(cfg, phihat, h, n_paths, 7)
    assert quad.tobytes() == want_quad.tobytes()
    assert bigs.tobytes() == want_bigs.tobytes()
    # h leaves both small and big jumps
    assert quad.any() and bigs.any()
    counts = [len(cfg.noise.simulate(cfg.T, stream(7, i, "atoms"))) for i in range(n_paths)]
    if case == "compound_empty":
        assert min(counts) == 0 < max(counts)
    if case == "stable_large":
        assert min(counts) > lh.solver._ATOM_BLOCK


@pytest.mark.parametrize("arg,coeffs,h", [
    ("phi_coefficients", (1.0,) * 9, 0.5), ("h", (1.0,), math.nan), ("h", (1.0,), 0.0), ("h", (1.0,), -1.0),
], ids=["long_phi", "nan_h", "zero_h", "negative_h"])
def test_characteristics_check_their_arguments_before_any_path(gamma_model, monkeypatch, arg, coeffs, h):
    cfg = small_sim(gamma_model, 0.1, "atoms:60", modes=8)

    def no_paths(*args, **kw):
        raise AssertionError("a path was drawn before the arguments were checked")

    monkeypatch.setattr(st, "stream", no_paths)
    with pytest.raises(ValueError, match=arg):
        st.characteristics_sample(cfg, coeffs, h, 2, 1)


# ---------------------------------------------------------------------------
# terminal samplers and the dichotomy experiment
# ---------------------------------------------------------------------------

def test_terminal_sampler_matches_path_solver(gamma_model):
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 80.0)
    cfg = small_sim(gamma_model, 0.1, eta, modes=16, collocation=64, steps=128)
    fns = [st.mode_functional(1, 16), st.point_functional(math.pi / 2, 16)]
    fast = st.collect_terminal_samples(cfg, fns, 6, 99, purpose="atoms")
    for i in range(6):
        path = lh.simulate_path(cfg, stream(99, i, "atoms"))
        e1 = np.zeros(16)
        e1[0] = 1.0
        assert fast["mode1"][i] == pytest.approx(lh.pairing(path, 1.0, e1), abs=1e-12)
        assert fast[fns[1].name][i] == pytest.approx(
            lh.evaluate(path, 1.0, math.pi / 2), abs=1e-12)


@pytest.mark.parametrize("initial", [False, True], ids=["no_initial", "initial"])
@pytest.mark.parametrize("noise_kind", ["gaussian", "gamma"])
def test_short_functionals_give_their_zero_padded_values(gamma_model, noise_kind, initial):
    # fewer coefficients than config.modes: every route zero-pads them
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), modes=16)
    if noise_kind == "gamma":
        cfg = small_sim(gamma_model, 0.1, "atoms:50", modes=16, collocation=64, steps=64)
    if initial:
        cfg = replace(cfg, initial=tuple(1.0 / np.arange(1, 17)))
    shorts = [st.mode_functional(1, 8), st.TerminalFunctional("wave", (0.5, 0.0, -1.0, 2.0, 0.25))]
    padded = [st.TerminalFunctional(f.name, f.coefficients + (0.0,) * (16 - len(f.coefficients)))
              for f in shorts]
    got = st.collect_terminal_samples(cfg, shorts, 4, 1)
    want = st.collect_terminal_samples(cfg, padded, 4, 1)
    for f in shorts:
        assert got[f.name].tobytes() == want[f.name].tobytes()


def test_noise_draws_look_up_simulate_levy_noise_at_call_time(gamma_model, monkeypatch):
    # path solver, terminal sampler and characteristics all draw through the
    # module attribute, at the resolved eta and with the first five arguments positional
    cfg = small_sim(gamma_model, 0.1, "atoms:50", modes=8, collocation=32, steps=64)
    eta = cfg.noise.resolve_eta(cfg.T)
    original, calls = lh.noise.simulate_levy_noise, []

    def spy(model, eps, eta, T, rng, **kw):
        calls.append((model, eps, eta, T, sorted(kw)))
        return original(model, eps, eta, T, rng, **kw)

    monkeypatch.setattr(lh.noise, "simulate_levy_noise", spy)
    lh.simulate_path(cfg, stream(1, 0, "atoms"))
    st.collect_terminal_samples(cfg, [st.mode_functional(1, 8)], 2, 1)
    st.characteristics_sample(cfg, (1.0,), 0.5, 2, 1)
    assert calls == [(gamma_model, 0.1, eta, 1.0, ["atom_cap", "rho_budget"])] * 5


def test_terminal_sampler_workers_invariant(gamma_model, monkeypatch):
    # ~1000 atoms per path, so the 40 paths span several atom blocks and a
    # path's block depends on the run: its value must not
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 1000.0)
    cfg = small_sim(gamma_model, 0.1, eta, modes=8, collocation=32, steps=64)
    assert 40 * 1000 > 2 * lh.solver._ATOM_BLOCK
    fns = [st.mode_functional(1, 8), st.point_functional(math.pi / 2, 8, name="point")]
    monkeypatch.setattr(st, "_available_cores", lambda: 1)
    one = st.collect_terminal_samples(cfg, fns, 40, 5, purpose="atoms")
    head = st.collect_terminal_samples(cfg, fns, 20, 5, purpose="atoms")
    monkeypatch.setattr(st, "_available_cores", lambda: 2)
    two = st.collect_terminal_samples(cfg, fns, 40, 5, purpose="atoms")
    for f in fns:
        assert np.array_equal(one[f.name], two[f.name])
        assert np.array_equal(one[f.name][:20], head[f.name])
    for i in (0, 17, 39):  # each path alone in its block
        alone = {f.name: np.full(40, np.nan) for f in fns}
        st._terminal_block(cfg, fns, 5, "atoms", alone, i, i + 1, threading.Event())
        for f in fns:
            assert alone[f.name][i] == one[f.name][i]


def test_terminal_sampler_memory_bounded_in_paths(stable_model, monkeypatch):
    # ~40k atoms per path: each path is its own block, so the peak does not grow with the path count.
    # Two cores on any machine: each thread holds a path, so only the path count may change here
    monkeypatch.setattr(st, "_available_cores", lambda: 2)
    cfg = small_sim(stable_model, 1e-3, "atoms:40000", modes=64, collocation=256, steps=4096,
                    normalization="retained", rho=1.0)
    fns = [st.mode_functional(1, 64)]
    st.collect_terminal_samples(cfg, fns, 1, 6, purpose="warm")  # eta and mark table are cached
    # the two threads draw their paths in step, so that both hold a path at once
    # in either call: a 4-path call could otherwise run its two blocks apart
    draw, in_step = lh.noise.simulate_levy_noise, threading.Barrier(2, timeout=60)

    def draw_in_step(model, eps, eta, T, rng, **kw):
        real = draw(model, eps, eta, T, rng, **kw)
        in_step.wait()
        return real

    monkeypatch.setattr(lh.noise, "simulate_levy_noise", draw_in_step)
    peaks = []
    for n_paths in (4, 16):
        tracemalloc.start()
        try:
            st.collect_terminal_samples(cfg, fns, n_paths, 6, purpose="mem")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2e6


# ---------------------------------------------------------------------------
# thread fan-out over path blocks
# ---------------------------------------------------------------------------

@pytest.fixture
def executors(monkeypatch):
    """Two available cores on any machine; the list of thread pools that stats creates."""
    monkeypatch.setattr(st, "_available_cores", lambda: 2)
    made = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(st, "ThreadPoolExecutor", Spy)
    return made


def _stable_cell(stable_model, eta="atoms:40000"):
    cfg = small_sim(stable_model, 1e-3, eta, modes=64, collocation=256, steps=4096,
                    normalization="retained", rho=1.0)
    assert st._expected_atoms(cfg) >= st._FAN_OUT_MIN_ATOMS
    return cfg


@pytest.mark.parametrize("eta,n_paths", [
    ("atoms:40000", 5),  # every path alone in its atom block
    ("atoms:6000", 7),   # serial atom blocks {0, 1}, {2, 3}, ...; the threads split at path 3
])
def test_threaded_cell_matches_serial_bitwise(stable_model, executors, monkeypatch, eta, n_paths):
    # mode1 and point: kmax 64, the kernel's mode-cut path
    cfg = _stable_cell(stable_model, eta)
    fns = [st.mode_functional(1, 64), st.point_functional(math.pi / 2, 64, name="point")]
    phihat = lh.SmoothBump().sine_coefficients(64)
    monkeypatch.setattr(st, "_available_cores", lambda: 1)
    serial = st.collect_terminal_samples(cfg, fns, n_paths, 11)
    quad1, bigs1 = st.characteristics_sample(cfg, phihat, 1.0, n_paths, 11)
    monkeypatch.setattr(st, "_available_cores", lambda: 2)
    assert executors == []
    before = threading.active_count()
    threaded = st.collect_terminal_samples(cfg, fns, n_paths, 11)
    quad2, bigs2 = st.characteristics_sample(cfg, phihat, 1.0, n_paths, 11)
    assert len(executors) == 2
    assert threading.active_count() == before
    for f in fns:
        assert np.array_equal(serial[f.name], threaded[f.name])
    assert np.array_equal(quad1, quad2) and np.array_equal(bigs1, bigs2)


def test_more_threads_than_cores_fill_their_own_paths(stable_model, monkeypatch):
    # four threads on any machine, switching often: every range writes only
    # its own paths of the shared outputs, so the serial bits come back
    cfg = _stable_cell(stable_model, "atoms:6000")
    fns = [st.mode_functional(1, 64), st.point_functional(math.pi / 2, 64, name="point")]
    phihat = lh.SmoothBump().sine_coefficients(64)
    monkeypatch.setattr(st, "_available_cores", lambda: 1)
    serial = st.collect_terminal_samples(cfg, fns, 9, 3)
    quad1, bigs1 = st.characteristics_sample(cfg, phihat, 9e-3, 9, 3)
    monkeypatch.setattr(st, "_available_cores", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = st.collect_terminal_samples(cfg, fns, 9, 3)
        quad4, bigs4 = st.characteristics_sample(cfg, phihat, 9e-3, 9, 3)
    finally:
        sys.setswitchinterval(interval)
    for f in fns:
        assert serial[f.name].tobytes() == threaded[f.name].tobytes()
    assert quad1.tobytes() == quad4.tobytes() and bigs1.tobytes() == bigs4.tobytes()


@pytest.mark.parametrize("fails_in", ["pool", "caller"])
def test_a_failing_block_reaches_the_caller_and_stops_the_other(stable_model, executors, monkeypatch, fails_in):
    # 40 paths, 20 per thread: the first path of one block exceeds its atom
    # cap; the error reaches the caller, and the other block stops at its next
    # path instead of running its 20
    cfg = _stable_cell(stable_model)
    original = lh.noise.simulate_levy_noise
    simulated = {"pool": 0, "caller": 0}

    def spy(model, eps, eta, T, rng, **kw):
        side = "caller" if threading.current_thread() is threading.main_thread() else "pool"
        simulated[side] += 1
        if side == fails_in:
            kw["atom_cap"] = 1.0
        return original(model, eps, eta, T, rng, **kw)

    monkeypatch.setattr(lh.noise, "simulate_levy_noise", spy)
    before = threading.active_count()
    with pytest.raises(AtomCapExceededError) as got:
        st.collect_terminal_samples(cfg, [st.mode_functional(1, 64)], 40, 2)
    assert got.value.operation == "simulate_levy_noise"
    with pytest.raises(AtomCapExceededError):
        st.characteristics_sample(cfg, (1.0,), 0.5, 40, 2)
    assert simulated[fails_in] == 2 and len(executors) == 2
    assert simulated["caller" if fails_in == "pool" else "pool"] < 2 * 20
    assert threading.active_count() == before


def test_cells_below_the_gate_run_on_the_calling_thread(gamma_model, executors):
    cfg = small_sim(gamma_model, 1e-3, "atoms:200", modes=16, collocation=64, steps=64,
                    normalization="retained", rho=1.0)
    assert st._expected_atoms(cfg) < st._FAN_OUT_MIN_ATOMS
    gauss = replace(cfg, noise=lh.GaussianNoiseSpec())
    fns = [st.mode_functional(1, 16)]
    st.collect_terminal_samples(cfg, fns, 8, 1)
    st.collect_terminal_samples(gauss, fns, 8, 1)
    st.characteristics_sample(cfg, (1.0,), 0.5, 8, 1)
    assert executors == []


@pytest.mark.parametrize("k", [0, -1, 9, 1.0])
def test_mode_functional_needs_a_mode_of_the_solver(k):
    assert st.mode_functional(8, 8).coefficients == (0.0,) * 7 + (1.0,)
    with pytest.raises(ValueError, match=f"k={k!r}"):
        st.mode_functional(k, 8)


@pytest.mark.parametrize("x0", [math.nan, 4.0, -0.1, math.inf])
def test_point_functional_needs_a_point_of_the_domain(x0):
    assert st.point_functional(math.pi, 4).coefficients[0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match=f"x0={x0!r}"):
        st.point_functional(x0, 8)


@pytest.mark.parametrize("kind", ["levy", "gaussian"])
@pytest.mark.parametrize("case,arg", [
    ("none", "functionals"), ("twice", "names"), ("wide", "config.modes"), ("negative", "n_paths"),
])
def test_terminal_sampler_checks_its_arguments_before_any_path(gamma_model, monkeypatch, kind, case, arg):
    cfg = small_sim(gamma_model, 0.1, "atoms:60", modes=8)
    if kind == "gaussian":
        cfg = replace(cfg, noise=lh.GaussianNoiseSpec())
    fns, n_paths = {
        "none": ([], 2),
        "twice": ([st.mode_functional(1, 8), st.mode_functional(2, 8, name="mode1")], 2),
        "wide": ([st.mode_functional(1, 9)], 2),
        "negative": ([st.mode_functional(1, 8)], -1),
    }[case]

    def no_paths(*args, **kw):
        raise AssertionError("a path was drawn before the arguments were checked")

    monkeypatch.setattr(st, "stream", no_paths)
    with pytest.raises(ValueError, match=arg):
        st.collect_terminal_samples(cfg, fns, n_paths, 1)
    if case == "negative" and kind == "levy":
        with pytest.raises(ValueError, match=arg):
            st.characteristics_sample(cfg, (1.0,), 0.5, n_paths, 1)
    assert st.collect_terminal_samples(cfg, [st.mode_functional(1, 8)], 0, 1)["mode1"].shape == (0,)


def test_thread_count_is_capped_at_cores_and_paths(stable_model, monkeypatch):
    # a cell above the gate: one contiguous range per thread; no path is drawn
    cfg = _stable_cell(stable_model)
    for cores, n_paths, ranges in [
        (2, 12, [(0, 6), (6, 12)]),            # capped at the cores
        (3, 12, [(0, 4), (4, 8), (8, 12)]),
        (1, 12, [(0, 12)]),
        (2, 1, [(0, 1)]),                      # capped at the paths
        (2, 0, [(0, 0)]),                      # at least one thread
    ]:
        monkeypatch.setattr(st, "_available_cores", lambda: cores)
        got, lock = [], threading.Lock()

        def fill(lo, hi, stop):
            with lock:
                got.append((lo, hi))

        st._path_blocks(fill, cfg, n_paths)
        assert sorted(got) == ranges, (cores, n_paths)


def test_gaussian_control_ks():
    # two independent Gaussian-driven samples: the null level of the KS battery
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), T=1.0,
                       modes=8, collocation=32, steps=64)
    fn = st.mode_functional(1, 8)
    a = st.collect_terminal_samples(cfg, [fn], 10_000, 1, purpose="ctrl_a")["mode1"]
    b = st.collect_terminal_samples(cfg, [fn], 10_000, 1, purpose="ctrl_b")["mode1"]
    d, p = lh.ks_two_sample(a, b)
    assert d < 0.03


def test_gamma_limit_law_non_gaussian(gamma_model):
    # the spec's oracle: the limiting compensated-gamma functional stays away
    # from the Gaussian law; measured distance is ~0.05 in KS (not 0.1)
    var1 = (1.0 - math.exp(-2.0)) / 2.0
    for eps in (1e-1, 1e-3):
        eta = lh.eta_for_atom_budget(gamma_model, eps, 1.0, 120.0)
        spec = lh.LevyNoiseSpec(model=gamma_model, eps=eps, eta=eta,
                                rho_budget=1.0, normalization="retained")
        cfg = lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=16,
                           collocation=64, steps=64)
        sm = st.collect_terminal_samples(cfg, [st.mode_functional(1, 16)], 4000, 17,
                                         purpose=f"lim:{eps}")["mode1"]
        d = kstest(sm, "norm", args=(0.0, math.sqrt(var1))).statistic
        assert d > 0.03


def test_dichotomy_experiment_small(gamma_model):
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 60.0)
    template = lh.LevyNoiseSpec(model=gamma_model, eps=0.1, eta=eta,
                                rho_budget=1.0, normalization="retained")
    cfg = lh.SimConfig(noise=template, f=lh.constant_f(1.0), T=1.0, modes=16,
                       collocation=64, steps=64)
    fns = [st.mode_functional(1, 16)]
    rep = lh.dichotomy_experiment([gamma_model], [0.1, 0.05], fns, cfg, 500, 3)
    assert len(rep.rows) == 2
    row = rep.cell("gamma", 0.1, "mode1")
    assert 0.0 <= row.ks <= 1.0 and row.ecf >= 0.0
    assert row.ar_stat == pytest.approx(lh.ar_statistic(gamma_model, 0.1, 1.0))
    import io
    buf = io.StringIO()
    rep.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "model,epsilon,kappa_ref,ar_stat,functional,ks,ks_p,ecf,paths,se"
    assert len(lines) == 3
