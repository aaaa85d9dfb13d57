import math
import multiprocessing
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, gammainc

import levyheat as lh
from levyheat import noise
from levyheat.errors import (
    InvalidDeltaError,
    MissingAtomLogError,
    NonFiniteStateError,
    OutOfRangeError,
)
from levyheat.solver import _collocation, flat_projection, phi_values, sine_series
from levyheat.streams import stream

import solver_loop_reference as loops
from conftest import small_sim


def _sorted_noise(config, rng):
    """The noise realization of simulate_path(config, rng), sorted by time as the solver sorts it."""
    real = config.noise.simulate(config.T, rng)
    order = np.argsort(real.t, kind="stable")
    return replace(real, t=real.t[order], x=real.x[order], z=real.z[order])


def _realization(t, x, z):
    """Symmetric unit-scale noise with the given atoms (t sorted)."""
    return noise.LevyNoiseRealization(t=t, x=x, z=z, T=1.0, eps=2.0, eta=0.0, sigma=1.0,
                                      sigma_retained=1.0, m_restricted=0.0,
                                      dropped_variance_fraction=0.0, intensity=1.0)


# ---------------------------------------------------------------------------
# green kernel
# ---------------------------------------------------------------------------

def test_green_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t, = rng.uniform(0.01, 1.0, 1)
        x, y = rng.uniform(0.0, math.pi, 2)
        assert lh.green_kernel(t, x, y, 64) == pytest.approx(lh.green_kernel(t, y, x, 64), rel=1e-14)


def test_green_center_value():
    # frozen from the direct partial sum (2/pi) sum_{k odd} e^{-k^2/2}
    k = np.arange(1, 51)
    oracle = (2.0 / math.pi) * np.sum(np.sin(k * math.pi / 2) ** 2 * np.exp(-(k ** 2) * 0.5))
    assert oracle == pytest.approx(0.3932039898432947, abs=1e-13)
    assert lh.green_kernel(0.5, math.pi / 2, math.pi / 2, 50) == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("t", [math.nan, -0.1, [0.5, math.nan]])
def test_green_kernel_needs_non_negative_time(t):
    with pytest.raises(ValueError, match="t >= 0"):
        lh.green_kernel(t, 1.0, 1.0, 8)


def test_green_semigroup_quadrature():
    # interior-node rectangle rule is exact for products of the sine modes
    K, M = 200, 1000
    y = (np.arange(M) + 0.5) * (math.pi / M)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x0, z0 = rng.uniform(0, math.pi, 2)
        t, s = rng.uniform(0.01, 1.0, 2)
        lhs = np.sum(lh.green_kernel(t, x0, y, K) * lh.green_kernel(s, y, z0, K)) * (math.pi / M)
        assert lhs == pytest.approx(lh.green_kernel(t + s, x0, z0, K), abs=1e-10)


# ---------------------------------------------------------------------------
# basis helpers
# ---------------------------------------------------------------------------

def test_dst_roundtrip():
    # evaluate at collocation points then project back: recovers modes to 1e-10
    K, M = 32, 128
    x, S = _collocation(K, M)
    rng = np.random.default_rng(2)
    modes = rng.normal(size=K)
    u = modes @ S
    recovered = (S * (math.pi / M)) @ u
    assert np.max(np.abs(recovered - modes)) < 1e-10


def test_sine_series_matches_dense():
    rng = np.random.default_rng(3)
    c = rng.normal(size=48)
    x = rng.uniform(0, math.pi, 500)
    dense = c @ phi_values(np.arange(1, 49), x)
    assert np.max(np.abs(sine_series(c, x) - dense)) < 1e-12


def test_flat_projection_close_to_exact():
    # discrete midpoint projection of 1 agrees with the analytic coefficients
    K, M = 16, 256
    exact = lh.flat_coefficients(K)
    disc = flat_projection(K, M)
    assert np.max(np.abs(disc - exact)) < 1e-3
    assert disc[0] == pytest.approx(exact[0], rel=1e-4)


# ---------------------------------------------------------------------------
# deterministic paths
# ---------------------------------------------------------------------------

def test_zero_noise_zero_path(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, f=lh.constant_f(0.0))
    path = lh.simulate_path(cfg, stream(0, 0, "t"))
    assert np.all(path.modes == 0.0)


def test_heat_semigroup_exactness(cp_symmetric):
    # f == 0, u0 = phi_1: mode 1 decays exactly, others stay zero
    init = tuple([1.0] + [0.0] * 31)
    spec = lh.LevyNoiseSpec(model=cp_symmetric, eps=2.0, eta=0.0)
    cfg = lh.SimConfig(noise=spec, f=lh.constant_f(0.0), T=1.0, modes=32,
                       collocation=128, steps=256, initial=init)
    path = lh.simulate_path(cfg, stream(0, 0, "t"))
    assert np.max(np.abs(path.modes[:, 0] - np.exp(-path.times))) < 1e-12
    assert np.max(np.abs(path.modes[:, 1:])) == 0.0
    # same for the Gaussian branch with zero multiplier
    gcfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(0.0), T=1.0,
                        modes=32, collocation=128, steps=256, initial=init)
    gpath = lh.simulate_path(gcfg, stream(0, 0, "t"))
    assert np.max(np.abs(gpath.modes[:, 0] - np.exp(-gpath.times))) < 1e-12


def test_evaluate_boundary_and_series(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0)
    path = lh.simulate_path(cfg, stream(4, 0, "t"))
    assert lh.evaluate(path, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert lh.evaluate(path, 1.0, math.pi) == pytest.approx(0.0, abs=1e-12)
    # single-mode path evaluates to c * sqrt(2/pi) sin(x)
    path.modes[:] = 0.0
    path.modes[:, 0] = 0.7
    x = 1.234
    assert lh.evaluate(path, 0.5, x) == pytest.approx(0.7 * math.sqrt(2 / math.pi) * math.sin(x), rel=1e-12)


def test_evaluate_errors(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0)
    path = lh.simulate_path(cfg, stream(4, 0, "t"))
    with pytest.raises(OutOfRangeError):
        lh.evaluate(path, 1.5, 1.0)
    with pytest.raises(OutOfRangeError):
        lh.evaluate(path, 0.5, -0.1)
    with pytest.raises(OutOfRangeError):
        lh.evaluate(path, 0.12345678, 1.0)  # off-grid instant


# NaN compares False both ways: each guard asks that the value lie inside
@pytest.mark.parametrize("call,match", [
    (lambda p: lh.evaluate(p, 0.5, math.nan), r"\[evaluate\] x=nan"),
    (lambda p: lh.evaluate(p, 0.5, [1.0, math.nan]), r"\[evaluate\] x=\[1.0, nan\]"),
    (lambda p: lh.factorization_check(p, 0.2, 0.5, math.nan), r"\[factorization_check\] x=nan"),
    (lambda p: lh.factorization_check(p, 0.2, 0.5, 4.0), r"\[factorization_check\] x=4.0"),
    (lambda p: lh.solver.grid_index(p, math.nan, "some_op"), r"\[some_op\] t=nan"),
], ids=["evaluate", "evaluate_array", "factorization_check", "factorization_check_above_pi", "grid_index"])
def test_nan_fails_the_range_guards(cp_symmetric, call, match):
    path = lh.simulate_path(small_sim(cp_symmetric, 2.0, 0.0), stream(4, 0, "t"))
    with pytest.raises(OutOfRangeError, match=match):
        call(path)


@pytest.mark.parametrize("arg,value", [
    ("T", math.nan), ("T", math.inf), ("T", 0.0), ("modes", 8.5), ("collocation", 64.0), ("steps", "256"),
    ("steps", 0),
])
def test_sim_config_checks_its_arguments(arg, value):
    kw = dict(noise=lh.GaussianNoiseSpec(), T=1.0, modes=8, collocation=64, steps=256)
    assert lh.SimConfig(**{**kw, arg: np.int64(64) if arg != "T" else np.float64(0.5)}) is not None
    with pytest.raises(ValueError, match=f"{arg}={value!r}"):
        lh.SimConfig(**{**kw, arg: value})


# bool is an int subclass; each count check turns it away with its usual message
@pytest.mark.parametrize("call,match", [
    (lambda p: lh.SimConfig(noise=lh.GaussianNoiseSpec(), modes=True), "modes=True"),
    (lambda p: lh.SimConfig(noise=lh.GaussianNoiseSpec(), steps=True), "steps=True"),
    (lambda p: lh.mode_functional(True, 8), "k=True"),
    (lambda p: lh.factorization_check(p, 0.2, 0.5, 1.0, time_nodes=True), "time_nodes"),
], ids=["modes", "steps", "mode_functional", "time_nodes"])
def test_counts_reject_bool(cp_symmetric, call, match):
    path = lh.simulate_path(small_sim(cp_symmetric, 2.0, 0.0), stream(4, 0, "t"))
    with pytest.raises(ValueError, match=match):
        call(path)


@pytest.mark.parametrize("check", [lh.mode_decomposition_check, lh.mode_decomposition_budget])
@pytest.mark.parametrize("k", [True, 2.5, np.float64(1.0), 0, 33], ids=["True", "2.5", "float64", "0", "K+1"])
def test_mode_decomposition_needs_an_int_mode_index(cp_symmetric, check, k):
    path = lh.simulate_path(small_sim(cp_symmetric, 2.0, 0.0, modes=32), stream(4, 0, "t"))
    with pytest.raises(ValueError, match=rf"{check.__name__}.*1 <= k <= 32, got k={re.escape(repr(k))}"):
        check(path, k)
    assert check(path, np.int64(1)) == check(path, 1)


# ---------------------------------------------------------------------------
# branch agreement and moments
# ---------------------------------------------------------------------------

def test_additive_equals_general_branch(gamma_model):
    eta = lh.auto_inner_cutoff(gamma_model, 0.1, 1.0)
    fast = lh.simulate_path(small_sim(gamma_model, 0.1, eta), stream(1, 0, "t"))
    slow_cfg = small_sim(gamma_model, 0.1, eta, f=lh.affine_f(0.0, 1.0))
    slow = lh.simulate_path(slow_cfg, stream(1, 0, "t"))
    assert np.max(np.abs(fast.modes - slow.modes)) < 1e-12


def test_additive_drift_fill_matches_per_path_recurrence(gamma_model, stable_model):
    # two grids; gamma carries a drift, stable none. The recurrence fill rounds
    # more (up to ~1e-13 of max |grid|), so the two agree to a tolerance
    drifts = []
    for modes, steps in ((40, 2048), (32, 1000)):
        initial = tuple(np.linspace(0.5, -0.3, modes) / np.arange(1, modes + 1))
        for model, eta in ((gamma_model, "atoms:150"), (stable_model, "atoms:300")):
            cfg = small_sim(model, 0.1, eta, f=lh.constant_f(1.3), modes=modes, collocation=128, steps=steps,
                            rho=1.0)
            cfg = replace(cfg, initial=initial)
            for i in range(2):
                real = _sorted_noise(cfg, stream(13, i, "drift"))
                got = lh.simulate_path(cfg, stream(13, i, "drift")).modes
                want = loops.levy_path_additive(cfg, real)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                drifts.append(real.m_restricted)
    assert drifts[0] != 0.0 and drifts[2] == 0.0 and drifts[4] != 0.0


def _fill_reference(path):
    """The long-double grid of `path` from the states the fill starts from, and the drift shift d."""
    real, times = path.atom_log, path.times
    if path.atom_states is None:  # general branch without a drift: row 0 and each active step's end stay
        rows = np.concatenate(([0], np.unique(lh.solver.atom_steps(times, real.t)) + 1))
        return loops.long_double_fill(path.modes[rows].T, times[rows], times), 0.0
    cfg, shift = path.config, None
    if real.m_restricted != 0.0:
        rate = real.m_restricted / real.jump_scale(cfg.noise.normalization)
        shift = lh.solver._drift_modes(rate * cfg.f.constant_value, cfg.modes, cfg.collocation)
    want = loops.long_double_fill(path.atom_states, np.concatenate(([0.0], real.t)), times, shift)
    return want, 0.0 if shift is None else shift


@pytest.mark.parametrize("T, steps, modes", [(1.0, 4096, 64), (1.0, 2048, 40), (0.75, 1000, 32)],
                         ids=["crit7_grid", "dyadic", "rounded_instants"])
def test_grid_fill_matches_long_double_reference(gamma_model, stable_model, T, steps, modes):
    # within 4e-15 of max |grid| where the grid instants i T / N are doubles
    # (the recurrence fill misses this by up to ~30x). Where they are rounded
    # (0.75 / 1000), the powers e^{-k^2 t_n} stand for e^{-k^2 (t_{a+n} - t_a)},
    # instants that differ by up to 1.5 ulp of T: k^2 times that of |u + d| more
    k2 = np.arange(1, modes + 1, dtype=float) ** 2
    grid_rounding = 0.0 if T == 1.0 else 1.5 * np.spacing(T) * k2
    initial = tuple(np.linspace(0.5, -0.3, modes) / np.arange(1, modes + 1))
    # additive paths with and without a drift; general paths (the fill runs
    # only without a drift) with a few and with many atoms
    cases = [(gamma_model, "atoms:100", lh.constant_f(1.0))]
    for eta in ("atoms:300", "atoms:4000"):
        cases += [(stable_model, eta, lh.constant_f(1.0)), (stable_model, eta, lh.affine_f(0.25, 1.0))]
    for model, eta, f in cases:
        cfg = small_sim(model, 0.1, eta, f=f, modes=modes, collocation=4 * modes, steps=steps, rho=1.0)
        cfg = replace(cfg, T=T, initial=initial)
        for i in range(2):
            path = lh.simulate_path(cfg, stream(29, i, "fill"))
            want, shift = _fill_reference(path)
            err = np.abs(path.modes - want)
            assert np.all(err <= 4e-15 * np.max(np.abs(want)) + grid_rounding * np.abs(want + shift))


def test_decay_powers_match_exp_and_flush_below_normal():
    K, tiny = 64, np.finfo(float).tiny
    t = np.array([0.0, 1e-300, 2.0**-12, 0.1, 0.17, 0.5, 1.0, 700.0, np.inf, np.nan])
    got = lh.solver._decay_powers(t, K)
    want = np.exp(-np.multiply.outer(t, np.arange(1, K + 1, dtype=float) ** 2))
    assert got.shape == (len(t), K)
    normal = want >= tiny
    assert np.array_equal(got[normal], want[normal])  # the same np.exp where it is normal
    assert np.all(got[~normal & ~np.isnan(want)] == 0.0)  # 0, never a denormal
    assert np.all(np.isnan(got[-1]))
    # no underflow anywhere: the plain exponential
    assert np.array_equal(lh.solver._decay_powers(t[:4], K), want[:4])


@pytest.mark.parametrize("f", [lh.affine_f(0.25, 1.0), lh.bounded_smooth_f(0.5, 1.0)], ids=["affine", "smooth"])
def test_gaussian_branch_matches_step_loop(f):
    # one chunk (nothing is drawn ahead), full chunks only, and two full chunks and a partial one
    for steps in (100, 2 * lh.solver._NOISE_CHUNK, 600):
        cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=f, T=1.0, modes=16, collocation=64, steps=steps,
                           initial=tuple(np.linspace(0.5, 0.0, 16)))
        for i in range(3):
            rng_got, rng_want = stream(7, i, "g"), stream(7, i, "g")
            got = lh.simulate_path(cfg, rng_got).modes
            assert np.array_equal(got, loops.gaussian_path(cfg, rng_want))
            assert rng_got.random() == rng_want.random()  # the same draws, nothing more


def _gaussian_modes(cfg, seed):
    return lh.simulate_path(cfg, stream(seed, 0, "fork")).modes


def test_gaussian_path_in_forked_child_matches_parent():
    # the parent's path starts and joins a draw-ahead thread; a forked child
    # (as a caller's process pool makes it) must start its own
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.affine_f(0.25, 1.0), T=1.0, modes=16,
                       collocation=64, steps=3 * lh.solver._NOISE_CHUNK)
    want = _gaussian_modes(cfg, 5)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_gaussian_modes, (cfg, 5)).get(timeout=60)
    assert np.array_equal(got, want)


def test_gaussian_draw_ahead_joined_on_error():
    # the blow-up is found in the first chunk while the second is being drawn
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.affine_f(1e260, 1e260), T=1.0, modes=4,
                       collocation=16, steps=3 * lh.solver._NOISE_CHUNK)
    before = threading.active_count()
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteStateError) as got:
            lh.simulate_path(cfg, stream(0, 0, "boom"))
        with pytest.raises(NonFiniteStateError) as want:
            loops.gaussian_path(cfg, stream(0, 0, "boom"))
    assert str(got.value) == str(want.value)
    assert threading.active_count() == before


@pytest.mark.parametrize("c, modes, steps, initial", [
    (1.0, 64, 4096, False),   # K^2 dt = 1: eight scan chunks
    (0.7, 16, 600, True),     # a step count that is not a multiple of 256
    (0.0, 8, 100, True),      # f = 0: the initial data decays, the draws are still taken
], ids=["chunks", "initial", "zero_f"])
def test_exact_gaussian_path_matches_step_loop(c, modes, steps, initial):
    init = tuple(np.linspace(1.0, -0.5, modes)) if initial else None
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(c), T=1.0, modes=modes,
                       collocation=4 * modes, steps=steps, initial=init)
    for i in range(2):
        rng_got, rng_want = stream(7, i, "exact"), stream(7, i, "exact")
        got = lh.simulate_path(cfg, rng_got).modes
        want = loops.exact_gaussian_path(cfg, rng_want)
        assert rng_got.random() == rng_want.random()  # the same draws, nothing more
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(got[0], want[0])


def test_exact_gaussian_path_memory_bounded_by_grid():
    # the draw is scaled in place and scanned into the grid (~2.1 grids); a
    # separate amplitude array would peak at ~3.1 grids
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), T=1.0,
                       modes=64, collocation=256, steps=8192)
    tracemalloc.start()
    try:
        path = lh.simulate_path(cfg, stream(10, 0, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.modes.nbytes


def test_general_branch_matches_step_loop(stable_model, gamma_model, cp_symmetric):
    f = lh.affine_f(0.25, 1.0)
    cases = []
    for model, eps, eta in ((stable_model, 0.1, "atoms:300"), (gamma_model, 0.5, "atoms:200")):
        cfg = small_sim(model, eps, eta, f=f, modes=16, collocation=64, steps=512, rho=1.0)
        cases += [(cfg, _sorted_noise(cfg, stream(8, i, "general"))) for i in range(2)]
    # the same noise under a bounded smooth f
    cases += [(replace(cfg, f=lh.bounded_smooth_f(0.5, 1.0)), real) for cfg, real in cases]
    assert cases[0][1].m_restricted == 0.0 and cases[-1][1].m_restricted != 0.0
    # no atoms: the whole path is the decay fill of the initial data
    cfg = small_sim(cp_symmetric, 2.0, 0.0, f=f, modes=16, collocation=64, steps=512)
    cfg = replace(cfg, initial=tuple(np.linspace(1.0, 0.1, 16)))
    cases.append((cfg, _realization(np.empty(0), np.empty(0), np.empty(0))))
    # atoms on grid times, one ulp either side of them, at 0 and at T
    times = cfg.times()
    grid = times[np.arange(3, 512, 61)]
    t = np.concatenate(([0.0, 1.0], grid, np.nextafter(grid, 0.0), np.nextafter(grid, 2.0)))
    rng = np.random.default_rng(9)
    cases.append((cfg, _realization(np.sort(t), rng.uniform(0.0, np.pi, len(t)), rng.choice([-1.0, 1.0], len(t)))))
    for cfg, real in cases:
        path = lh.solver._levy_path_general(cfg, real)
        # the same arithmetic as the allocating active-step loop, bit for bit
        modes, f_at = loops.levy_path_general_active(cfg, real)
        assert np.array_equal(path.modes, modes)
        assert np.array_equal(path.f_at_atoms, f_at)
        modes, f_at = loops.levy_path_general(cfg, real)
        scale = max(1.0, np.max(np.abs(modes)))
        assert np.max(np.abs(path.modes - modes)) <= 1e-12 * scale
        assert np.allclose(path.f_at_atoms, f_at, rtol=1e-12, atol=1e-12 * scale)


def test_general_branch_memory_bounded_by_grid(stable_model):
    # the atom-free rows are filled a block of rows at a time, with decay
    # powers only up to the block length (peak ~1.3 grids); a fill through an
    # (N+1) x K decay matrix peaks at ~3 grids
    cfg = small_sim(stable_model, 0.1, "atoms:300", f=lh.affine_f(0.25, 1.0), modes=64, collocation=256,
                    steps=8192, rho=1.0)
    real = _sorted_noise(cfg, stream(10, 0, "memory"))
    assert real.m_restricted == 0.0 and len(real) > 200
    lh.solver._collocation(64, 256)
    tracemalloc.start()
    try:
        path = lh.solver._levy_path_general(cfg, real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * path.modes.nbytes


@pytest.mark.parametrize("eta", ["atoms:300", "atoms:0.5"], ids=["atoms", "almost_none"])
def test_additive_branch_memory_bounded_by_grid(gamma_model, eta):
    # the grid, the atom states and block temporaries: no (N+1) x K array of
    # decays or drift fractions besides the grid (peak ~1.3 grids)
    cfg = small_sim(gamma_model, 0.1, eta, modes=64, collocation=256, steps=8192, rho=1.0)
    real = _sorted_noise(cfg, stream(10, 0, "memory"))
    assert real.m_restricted != 0.0 and len(real) < 400
    lh.solver._collocation(64, 256)
    tracemalloc.start()
    try:
        path = lh.solver._levy_path_additive(cfg, real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * path.modes.nbytes


def test_gaussian_mode_variance_mc():
    # Ito isometry for mode 1: Var = (1 - e^{-2})/2
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), T=1.0,
                       modes=8, collocation=64, steps=256)
    n = 600
    vals = np.array([
        lh.simulate_path(cfg, stream(50, i, "g")).modes[-1, 0] for i in range(n)
    ])
    target = (1.0 - math.exp(-2.0)) / 2.0
    se = vals.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert vals.var(ddof=1) == pytest.approx(target, abs=3 * se)


def test_gaussian_multiplicative_matches_additive_law():
    # constant multiplier through the grid branch reproduces the additive law
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.affine_f(0.0, 2.0), T=1.0,
                       modes=4, collocation=64, steps=512)
    n = 600
    vals = np.array([
        lh.simulate_path(cfg, stream(51, i, "g")).modes[-1, 0] for i in range(n)
    ])
    target = 4.0 * (1.0 - math.exp(-2.0)) / 2.0
    se = vals.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    # grid branch carries an O(k^2 dt) weak bias; tolerance covers it at k=1
    assert vals.var(ddof=1) == pytest.approx(target, abs=3 * se + 4 * target / 512)


def test_levy_mode_variance_mc(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, steps=64, modes=4, collocation=32)
    n = 4000
    vals = np.array([
        lh.simulate_path(cfg, stream(52, i, "t")).modes[-1, 0] for i in range(n)
    ])
    target = (1.0 - math.exp(-2.0)) / 2.0
    v = vals.var(ddof=1)
    m4 = np.mean((vals - vals.mean()) ** 4)
    se = math.sqrt(max(m4 - v * v, 0.0) / n)
    assert v == pytest.approx(target, abs=3 * se)


def test_nonfinite_state_detected(stable_model):
    # both multiplicative branches name the step at which the per-step loops stop
    f = lh.affine_f(1e260, 1e260)
    gauss = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=f, T=1.0, modes=4, collocation=16, steps=64)
    levy = small_sim(stable_model, 0.1, "atoms:50", f=f, modes=4, collocation=16, steps=64, rho=1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteStateError) as got:
            lh.simulate_path(gauss, stream(0, 0, "boom"))
        with pytest.raises(NonFiniteStateError) as want:
            loops.gaussian_path(gauss, stream(0, 0, "boom"))
        assert str(got.value) == str(want.value)
        with pytest.raises(NonFiniteStateError) as got:
            lh.simulate_path(levy, stream(0, 0, "boom"))
        with pytest.raises(NonFiniteStateError) as want:
            loops.levy_path_general(levy, _sorted_noise(levy, stream(0, 0, "boom")))
        assert str(got.value) == str(want.value)
    assert "step" in str(got.value)


def test_uniform_second_moment_bound_across_eps(gamma_model):
    # sup_grid E[u^2] shows no growth trend over eps in {1e-1, 1e-2, 1e-3}
    sups = []
    ses = []
    for eps in (1e-1, 1e-2, 1e-3):
        eta = lh.eta_for_atom_budget(gamma_model, eps, 1.0, 200.0)
        cfg = small_sim(gamma_model, eps, eta, steps=256, modes=32, collocation=128)
        n = 250
        sq = np.zeros((n, 9, 11))
        xs = np.linspace(0.1, math.pi - 0.1, 11)
        tidx = np.linspace(16, 256, 9).astype(int)
        for i in range(n):
            p = lh.simulate_path(cfg, stream(60, i, f"u2:{eps}"))
            vals = p.modes[tidx] @ phi_values(np.arange(1, 33), xs)
            sq[i] = vals ** 2
        mean_sq = sq.mean(axis=0)
        j = np.unravel_index(np.argmax(mean_sq), mean_sq.shape)
        sups.append(mean_sq[j])
        ses.append(sq[:, j[0], j[1]].std(ddof=1) / math.sqrt(n))
    spread = max(sups) - min(sups)
    assert spread <= 3.0 * (max(ses) + min(ses))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def test_mode_decomposition_zero_noise(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, f=lh.constant_f(0.0))
    path = lh.simulate_path(cfg, stream(0, 0, "t"))
    assert lh.mode_decomposition_check(path, 1) == pytest.approx(0.0, abs=1e-14)


def test_mode_decomposition_residual_and_refinement():
    model = lh.LevyModel(lh.CompoundPoisson(((-1.0, 2.0), (1.0, 2.0))))
    coarse = small_sim(model, 2.0, 0.0, steps=1024, modes=32, collocation=128)
    fine = small_sim(model, 2.0, 0.0, steps=2048, modes=32, collocation=128)
    # same stream -> identical atoms -> deterministic quadrature-error ratio;
    # one path's ratio scatters with its atoms, so the band holds the median
    # over 8 paths, as in criterion 8
    ratios = []
    for i in range(8):
        p1 = lh.simulate_path(coarse, stream(7, i, "atoms"))
        p2 = lh.simulate_path(fine, stream(7, i, "atoms"))
        r1 = lh.mode_decomposition_check(p1, 2)
        assert r1 <= lh.mode_decomposition_budget(p1, 2), i
        ratios.append(r1 / lh.mode_decomposition_check(p2, 2))
    assert 1.6 <= np.median(ratios) <= 2.4


@pytest.mark.parametrize("f", [lh.constant_f(1.0), lh.affine_f(0.25, 1.0)], ids=["constant", "affine"])
def test_mode_decomposition_with_compensator(f, gamma_model):
    # asymmetric gamma noise, so the compensator drift enters X. The residual
    # stays within its derived budget on every stream label tried, although
    # with the largest jumps it reaches 1.26e-2 / 1.44e-2 (constant / affine)
    # on "identities"; the refinement band is the one of `levyheat identities`
    cfg = small_sim(gamma_model, 0.5, "atoms:120", f=f, steps=1024, modes=32, collocation=128, rho=1.0)
    for seed, label in ((12345, "md"), (12345, "identities"), (1, "atoms"), (0, "t"), (12345, "crit8")):
        ratios = []
        for i in range(8):
            p1 = lh.simulate_path(cfg, stream(seed, i, label))
            assert p1.atom_log.m_restricted != 0.0
            p2 = lh.simulate_path(replace(cfg, steps=2048), stream(seed, i, label)) if label == "md" else None
            for k in (1, 2, 5):
                r1 = lh.mode_decomposition_check(p1, k)
                assert r1 <= lh.mode_decomposition_budget(p1, k), (label, i, k)
                if p2 is not None:
                    ratios.append(r1 / lh.mode_decomposition_check(p2, k))
        if label == "md":
            assert 1.4 <= np.median(ratios) <= 3.0


def test_identity_checks_account_for_initial_data():
    # the criterion-8 compound-Poisson configuration with u0 = 0.5 phi_1
    model = lh.LevyModel(lh.CompoundPoisson(((-1.0, 2.0), (1.0, 2.0))))
    cfg = small_sim(model, 2.0, 0.0, steps=1024, modes=32, collocation=128)
    warm = replace(cfg, initial=(0.5,) + (0.0,) * 31)
    cold_path = lh.simulate_path(cfg, stream(12345, 0, "crit8"))
    warm_path = lh.simulate_path(warm, stream(12345, 0, "crit8"))
    for k in (1, 2, 5):
        want = lh.mode_decomposition_check(cold_path, k)
        assert lh.mode_decomposition_check(warm_path, k) == pytest.approx(want, rel=1e-9)
    for t, x in ((0.5, 1.3), (0.875, 0.9)):
        want = lh.factorization_check(cold_path, 0.2, t, x, time_nodes=192)
        assert lh.factorization_check(warm_path, 0.2, t, x, time_nodes=192) == pytest.approx(want, rel=1e-9)


def test_trapezoid_convolution_matches_step_loop():
    # k^2 dt from 2.4e-4 to 16: from one scan chunk up to 8 of them
    rng = np.random.default_rng(11)
    for k2, dt, n in ((1.0, 1 / 4096, 4097), (25.0, 1 / 4096, 4097), (4096.0, 1 / 4096, 4097),
                      (4096.0, 1 / 256, 257), (1.0, 1 / 64, 2), (1.0, 1 / 64, 1)):
        X = rng.standard_normal(n).cumsum()
        got = lh.solver._trapezoid_convolution(X, k2, dt)
        want = loops.trapezoid_convolution(X, k2, dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1e-300, np.max(np.abs(want)))


def test_mode_decomposition_rejects_gaussian():
    cfg = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), T=1.0,
                       modes=8, collocation=32, steps=64)
    path = lh.simulate_path(cfg, stream(0, 0, "g"))
    with pytest.raises(MissingAtomLogError):
        lh.mode_decomposition_check(path, 1)


def test_factorization_zero_path(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, f=lh.constant_f(0.0))
    path = lh.simulate_path(cfg, stream(0, 0, "t"))
    assert lh.factorization_check(path, 0.2, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_factorization_invalid_delta(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0)
    path = lh.simulate_path(cfg, stream(0, 0, "t"))
    # 0.3 > 1/4 violates the hypothesis delta in (0, 1/4)
    with pytest.raises(InvalidDeltaError):
        lh.factorization_check(path, 0.3, 0.5, 1.0)
    with pytest.raises(InvalidDeltaError):
        lh.factorization_check(path, 0.25, 0.5, 1.0)
    assert np.isfinite(lh.factorization_check(path, 0.2, 0.5, 1.0))


@pytest.mark.parametrize("time_nodes", [0, -3, 2.5])
def test_factorization_rejects_bad_time_nodes(cp_symmetric, time_nodes):
    path = lh.simulate_path(small_sim(cp_symmetric, 2.0, 0.0), stream(0, 0, "t"))
    with pytest.raises(ValueError, match="time_nodes"):
        lh.factorization_check(path, 0.2, 0.5, 1.0, time_nodes=time_nodes)


def _weights_log(J, seed, lo=0.0, hi=0.75):
    return np.sort(np.random.default_rng(seed).uniform(lo, hi, J))


def test_factorization_weights_match_node_loop():
    t, delta = 0.75, 0.2
    block = lh.solver._ATOM_BLOCK
    for nodes in (192, 384):
        s, w = lh.solver._factorization_nodes(t, delta, nodes)
        on_node = _weights_log(120, 1)
        on_node[[0, 40, 119]] = s[[1, nodes // 2, nodes - 1]]  # atoms exactly at node times
        logs = {
            "120 atoms": _weights_log(120, 0),
            "4000 atoms": _weights_log(4000, 0),
            "atoms at nodes": np.sort(on_node),
            "none before node 100": _weights_log(4000, 2, lo=s[100]),  # the first blocks hold no atom
            "one atom": np.array([0.3]),
            "two atoms": np.array([0.3, 0.3]),
            "none before the last node": _weights_log(5, 3, lo=s[-1]),
            "empty": np.zeros(0),
        }
        assert block // 4000 < nodes  # the 4000-atom log spans many node blocks
        for name, t_atoms in logs.items():
            got = lh.solver._factorization_weights(t_atoms, s, w, delta)
            want = loops.factorization_weights(t_atoms, s, w, delta)
            assert np.array_equal(got, want), (name, nodes)


def test_factorization_check_values_match_node_loop(gamma_model, stable_model, monkeypatch):
    # the criterion-8 gamma path (~120 atoms) and a 4000-atom stable log
    paths = [lh.simulate_path(small_sim(gamma_model, 0.5, "atoms:120", rho=1.0), stream(14, 0, "crit8")),
             lh.simulate_path(small_sim(stable_model, 0.1, "atoms:4000", rho=1.0), stream(3, 0, "big"))]
    assert len(paths[1].atom_log) > 3500
    points = [(p, t, x, n) for p in paths for t, x in ((0.75, 1.3), (0.5, 2.0)) for n in (192, 384)]
    got = [lh.factorization_check(p, 0.2, t, x, time_nodes=n) for p, t, x, n in points]
    monkeypatch.setattr(lh.solver, "_factorization_weights", loops.factorization_weights)
    assert got == [lh.factorization_check(p, 0.2, t, x, time_nodes=n) for p, t, x, n in points]


def test_factorization_refines(gamma_model):
    eta = lh.eta_for_atom_budget(gamma_model, 0.1, 1.0, 40.0)
    cfg = small_sim(gamma_model, 0.1, eta, steps=1024, modes=32, collocation=128)
    path = lh.simulate_path(cfg, stream(1, 0, "atoms"))
    r1 = lh.factorization_check(path, 0.2, 0.75, 1.3, time_nodes=192)
    r2 = lh.factorization_check(path, 0.2, 0.75, 1.3, time_nodes=384)
    assert r1 / r2 >= 1.5


def _factorization_tensor_reference(path, delta, t, x, time_nodes):
    """The factorization check as one (time_nodes+1) x K x J tensor (the former formula)."""
    real, sigma = path.atom_log, path.atom_log.sigma
    K = path.n_modes
    kvec = np.arange(1, K + 1, dtype=float)
    k2 = kvec ** 2
    s_grid = np.linspace(0.0, t, time_nodes + 1)
    keep = real.t < t
    tj, xj, zj, fj = real.t[keep], real.x[keep], real.z[keep], path.f_at_atoms[keep]
    gaps = s_grid[:, None] - tj[None, :]
    mask = gaps > 0.0
    gp = np.where(mask, gaps, 1.0)
    kern = np.exp(-np.einsum("k,sj->skj", k2, gp, optimize=True))
    sing = np.where(mask, gp ** (-delta), 0.0)
    amp = fj * zj / sigma * phi_values(kvec, xj)
    Y = np.einsum("skj,sj,kj->sk", kern, sing * mask, amp, optimize=True)
    if real.m_restricted != 0.0:
        cflat = path.config.f.constant_value * flat_projection(K, path.config.collocation)
        sc = s_grid[:, None] * k2[None, :]
        part = gamma_fn(1.0 - delta) * gammainc(1.0 - delta, sc) * k2[None, :] ** (delta - 1.0)
        Y = Y - real.m_restricted / sigma * cflat[None, :] * part
    a, b = t - s_grid[:-1], t - s_grid[1:]
    g = np.exp(-np.outer(t - s_grid[:-1], k2)) * Y[:-1]
    recon_modes = (math.sin(delta * math.pi) / math.pi) * (((a ** delta - b ** delta) / delta) @ g)
    recon = float(recon_modes @ phi_values(kvec, np.atleast_1d(x))[:, 0])
    return abs(recon - lh.evaluate(path, t, x))


def test_factorization_matches_tensor_reference(gamma_model, stable_model):
    # asymmetric gamma noise, so the compensator part is exercised too; ~430 atoms
    gamma_cfg = small_sim(gamma_model, 0.5, 1e-60, steps=1024, modes=32, collocation=128, rho=1.0)
    # symmetric stable noise under affine f, so f(u(t_j-, x_j)) differs per atom
    stable_cfg = small_sim(stable_model, 0.1, "atoms:300", f=lh.affine_f(0.25, 1.0),
                           steps=1024, modes=32, collocation=128, rho=1.0)
    for cfg in (gamma_cfg, stable_cfg):
        path = lh.simulate_path(cfg, stream(2, 0, "atoms"))
        assert len(path.atom_log) > 200
        for t, x in ((0.75, 1.3), (0.5, 2.0), (1.0, 0.9)):
            for nodes in (64, 192):
                want = _factorization_tensor_reference(path, 0.2, t, x, nodes)
                got = lh.factorization_check(path, 0.2, t, x, time_nodes=nodes)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert np.ptp(path.f_at_atoms) > 0.1  # on the stable path f(u(t_j-, x_j)) varies


def test_factorization_compensator_cache(gamma_model):
    comp = lh.solver._factorization_compensator
    keys = [(0.75, 0.2, 192, 32), (0.5, 0.2, 384, 32), (0.75, 0.2, 384, 32), (0.75, 0.1, 192, 16)]
    cold = []
    for key in keys:
        comp.cache_clear()
        cold.append(comp(*key))
    for key, want in zip(keys[::-1] + keys, cold[::-1] + cold):
        got = comp(*key)
        assert np.array_equal(got, want) and not got.flags.writeable
    with pytest.raises(ValueError):
        got[0] = 0.0
    # the residuals of an asymmetric path do not depend on what the cache holds
    path = lh.simulate_path(small_sim(gamma_model, 0.5, "atoms:120", rho=1.0), stream(14, 0, "crit8"))
    assert path.atom_log.m_restricted != 0.0
    points = [(0.75, 1.3, 192), (0.5, 2.0, 384), (0.75, 1.3, 384), (0.875, 0.9, 192)]
    warm = [lh.factorization_check(path, 0.2, t, x, time_nodes=n) for t, x, n in points]
    for (t, x, n), want in zip(points, warm):
        comp.cache_clear()
        assert lh.factorization_check(path, 0.2, t, x, time_nodes=n) == want


def test_factorization_memory_bounded_in_atoms(stable_model):
    cfg = small_sim(stable_model, 0.1, "atoms:4000", steps=1024, modes=32, collocation=128, rho=1.0)
    path = lh.simulate_path(cfg, stream(3, 0, "big"))
    assert len(path.atom_log) > 3500
    tracemalloc.start()
    try:
        lh.factorization_check(path, 0.2, 0.75, 1.3, time_nodes=384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tensor form needs ~300 MB here
    assert peak < 50e6


def test_eta_resolved_once_per_spec(monkeypatch):
    calls = []
    search = noise.eta_for_atom_budget

    def counted(*args, **kw):
        calls.append(args)
        return search(*args, **kw)

    monkeypatch.setattr(noise, "eta_for_atom_budget", counted)
    model = lh.LevyModel(lh.GammaSubordinator())  # a fresh model caches nothing yet
    cfg = small_sim(model, 0.1, "atoms:50", steps=64, modes=8, collocation=32)
    for i in range(3):
        lh.simulate_path(cfg, stream(4, i, "atoms"))
    assert len(calls) == 1


def test_atom_steps_shared_at_grid_times(cp_symmetric):
    # steps = 1000: t / dt rounds across an integer for some grid times, where
    # the former replay rule ceil(t / dt) - 1 picked the neighbouring step
    cfg = small_sim(cp_symmetric, 2.0, 0.0, f=lh.affine_f(0.0, 1.0), modes=4, collocation=8, steps=1000)
    times = cfg.times()
    inner = times[1:-1]
    t = np.concatenate((np.nextafter(inner, 0.0), inner, np.nextafter(inner, 2.0)))
    steps = lh.solver.atom_steps(times, t)
    ceil_rule = np.clip(np.ceil(t / cfg.dt).astype(int) - 1, 0, cfg.steps - 1)
    picked = np.flatnonzero(ceil_rule != steps)
    assert len(picked) > 0
    picked = np.concatenate((picked, np.arange(0, len(t), 331)))  # and some where both rules agree

    def realization(ts):
        n = len(ts)
        return _realization(np.sort(ts), np.full(n, 1.0), np.ones(n))

    # the general branch: the first grid state that holds the atom closes its step
    for j in picked:
        modes = lh.solver._levy_path_general(cfg, realization(t[j:j + 1])).modes
        assert np.flatnonzero(np.any(modes != 0.0, axis=1))[0] - 1 == steps[j]

    # the martingale replay assigns the same atoms with atom_steps, as the step-by-step replay does
    import atom_replay_reference as ref
    const_cfg = small_sim(cp_symmetric, 2.0, 0.0, modes=4, collocation=8, steps=1000)
    path = lh.solver._levy_path_additive(const_cfg, realization(t[picked]))
    probe = lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.0, 1.0)
    c = probe.coefficients(4)
    cdd = -(np.arange(1.0, 5.0) ** 2) * c
    [(dM, _)] = lh.stats._probe_values(path, [probe], [0.2j], [c], [cdd])
    want, _ = ref.probe_values(path, probe, 0.2j, c, cdd)
    assert abs(dM - want) <= 1e-12 * max(1.0, abs(want))
