"""The atom kernel against the per-atom loops it replaced (tests/atom_replay_reference.py).

Each constant-f replay (terminal pairings, the additive path, the martingale
replay) must agree with its loop form to 1e-12 relative to the largest value
compared, on a gamma cell with three functionals, nonzero initial data and the
asymmetric compensator, on compound-Poisson paths some of which hold no atom,
on a 40k-atom stable path and on a run spread over several atom blocks.
The martingale replay projects the additive path's own atom states over the
probe window only; it must meet the step-by-step replay on the window's edges
too, give the F_s bits of the whole-grid replay that scanned the atom log a
second time and its M_t - M_s to 1e-13, and keep its temporaries to a few
atom blocks.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import levyheat as lh
from levyheat import noise, solver
from levyheat import stats as st
from levyheat.streams import stream

import atom_replay_reference as ref
from conftest import small_sim

REL = 1e-12


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


def _config(case):
    if case == "gamma":
        spec = lh.LevyNoiseSpec(model=lh.LevyModel(lh.GammaSubordinator()), eps=0.1, eta="atoms:200",
                                rho_budget=1.0)
        initial = tuple(0.3 / np.arange(1.0, 65.0))
        return lh.SimConfig(noise=spec, f=lh.constant_f(1.3), T=1.0, modes=64, collocation=256,
                            steps=1024, initial=initial)
    if case == "compound":
        # one positive jump size, 0.3 pi ~ 0.94 atoms per path: ~40% of the paths hold none
        spec = lh.LevyNoiseSpec(model=lh.LevyModel(lh.CompoundPoisson(((1.0, 0.3),))), eps=2.0, eta=0.0)
        return lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=32, collocation=128, steps=512)
    spec = lh.LevyNoiseSpec(model=lh.LevyModel(lh.SymmetricStable(1.5)), eps=1e-3, eta="atoms:40000",
                            rho_budget=1.0, normalization="retained")
    return lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=64, collocation=256, steps=4096)


def _functionals(K):
    return [st.mode_functional(1, K), st.point_functional(math.pi / 2, K, name="point"),
            st.bump_functional(lh.SmoothBump(), K)]


@pytest.mark.parametrize("case,n_paths", [("gamma", 30), ("compound", 30), ("stable", 2)])
def test_terminal_pairings_match_reference(case, n_paths):
    cfg = _config(case)
    fns = _functionals(cfg.modes)
    got = st.collect_terminal_samples(cfg, fns, n_paths, 8)
    want = ref.terminal_samples(cfg, fns, n_paths, 8)
    for f in fns:
        assert _close(got[f.name], want[f.name]), f.name
    if case == "compound":
        spec = cfg.noise
        counts = [len(noise.simulate_levy_noise(spec.model, spec.eps, spec.eta, cfg.T, stream(8, i, "atoms")))
                  for i in range(n_paths)]
        assert min(counts) == 0 < max(counts)


def test_terminal_pairings_across_atom_blocks():
    # ~1000 atoms per path: the 40 paths fill several atom blocks
    spec = lh.LevyNoiseSpec(model=lh.LevyModel(lh.GammaSubordinator()), eps=0.1, eta="atoms:1000",
                            rho_budget=1.0)
    cfg = lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=32, collocation=128, steps=256)
    assert 40 * 1000 > 2 * solver._ATOM_BLOCK
    fns = _functionals(32)
    got = st.collect_terminal_samples(cfg, fns, 40, 9)
    want = ref.terminal_samples(cfg, fns, 40, 9)
    for f in fns:
        assert _close(got[f.name], want[f.name]), f.name


@pytest.mark.parametrize("case,seeds", [("gamma", (0, 1, 2)), ("compound", (0, 1, 2, 3, 4, 5)),
                                        ("stable", (0,))])
def test_additive_path_and_replay_match_reference(case, seeds):
    cfg = _config(case)
    K = cfg.modes
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (0.5, 1.0)]
    if case == "stable":
        probes = probes[:1]  # the step-by-step replay takes ~1 s per probe on 40k atoms
    coeffs = [p.coefficients(K) for p in probes]
    coeffs_dd = [-(np.arange(1.0, K + 1.0) ** 2) * c for c in coeffs]
    psis = [0.1 + 0.3j, -0.2 + 0.05j][:len(probes)]
    sizes = []
    for seed in seeds:
        path = lh.simulate_path(cfg, stream(10, seed, "replay"))
        real = path.atom_log
        sizes.append(len(real))
        assert _close(path.modes, ref.additive_modes(cfg, real))
        # the path keeps the states of its own scan, bit for bit
        a = cfg.f.constant_value * (real.z / real.jump_scale(cfg.noise.normalization))
        states = solver._atom_states(real.t, real.x, a, solver._initial_state(cfg))
        assert path.atom_states.shape == (K, len(real) + 1)
        assert path.atom_states.tobytes() == states.tobytes()
        got = st._probe_values(path, probes, psis, coeffs, coeffs_dd)
        for (dM, F_s), probe, psi, c, cd in zip(got, probes, psis, coeffs, coeffs_dd):
            want_dM, want_F = ref.probe_values(path, probe, psi, c, cd)
            assert abs(dM - want_dM) <= REL * max(1.0, abs(want_dM))
            assert abs(F_s - want_F) <= REL * max(1.0, abs(want_F))
    if case == "compound":
        assert min(sizes) == 0 < max(sizes)
    if case == "stable":
        assert sizes[0] > 2 * solver._ATOM_BLOCK


def _replay_case(case):
    """(config, paths, probes) of one replay case; the criterion-7 cell when case is "crit7"."""
    if case == "crit7":
        gamma = lh.LevyModel(lh.GammaSubordinator())
        eta = noise.eta_for_atom_budget(gamma, 0.1, 1.0, 100.0)
        cfg = lh.SimConfig(noise=lh.LevyNoiseSpec(model=gamma, eps=0.1, eta=eta), f=lh.constant_f(1.0),
                           T=1.0, modes=64, collocation=256, steps=4096)
        n_paths = 16
    else:
        cfg = _config(case)
        n_paths = {"gamma": 3, "compound": 8, "stable": 1}[case]
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (0.5, 1.0)]
    if case == "stable":
        probes = probes[:1]
    paths = [lh.simulate_path(cfg, stream(12, i, "replay")) for i in range(n_paths)]
    return cfg, paths, probes


def _long_double_left_limits(path, proj):
    """proj.T times the field just before each atom, from the kept states decayed in long double,
    and the scale of its terms, sum_k |proj_k| (|state_k| + |drift terms_k|)."""
    ld = np.longdouble
    real, sigma_used = solver.jump_log(path, "test")
    cfg = path.config
    k2 = np.arange(1, path.n_modes + 1, dtype=ld) ** 2
    t = real.t.astype(ld)
    before = path.atom_states[:, :-1].astype(ld) * np.exp(-np.outer(k2, np.diff(t, prepend=ld(0.0))))
    size = np.abs(before)
    rate = real.m_restricted / sigma_used
    if rate != 0.0:
        r = solver._drift_modes(rate * cfg.f.constant_value, path.n_modes, cfg.collocation).astype(ld)
        t_n = path.times[solver.atom_steps(path.times, real.t)].astype(ld)
        since_step, since_0 = np.exp(-np.outer(k2, t - t_n)), np.exp(-np.outer(k2, t))
        before -= r[:, None] * (since_step - since_0)
        size += np.abs(r)[:, None] * (since_step + since_0)
    return proj.astype(ld).T @ before, np.abs(proj).T @ size


@pytest.mark.parametrize("case", ["crit7", "compound", "gamma", "stable"])
def test_replay_of_kept_states_matches_two_scan_replay(case, monkeypatch):
    # The windowed replay sums each probe's own pieces on [i_s, i_t) where the
    # two-scan replay differenced a whole-grid cumsum, and its left limits
    # decay the kept states where the two-scan replay took each atom's jump
    # back: dM moves by rounding only (measured up to 1.8e-15 relative).
    cfg, paths, probes = _replay_case(case)
    K = cfg.modes
    sizes = [len(p.atom_log) for p in paths]
    if case == "compound":
        assert min(sizes) == 0 < max(sizes)
    if case == "gamma":
        assert cfg.initial is not None
    if case == "stable":
        assert sizes[0] > 2 * solver._ATOM_BLOCK
    coeffs = [p.coefficients(K) for p in probes]
    coeffs_dd = [-(np.arange(1.0, K + 1.0) ** 2) * c for c in coeffs]
    proj = np.column_stack([v for c, cd in zip(coeffs, coeffs_dd) for v in (c, cd)])
    psis = [0.1 + 0.3j, -0.2 + 0.05j][:len(probes)]
    scale = 1.0
    for path in paths:
        got = st._probe_values(path, probes, psis, coeffs, coeffs_dd)
        want = ref.two_scan_probe_values(path, probes, psis, coeffs, coeffs_dd)
        for (dM, F_s), (want_dM, want_F) in zip(got, want):
            assert np.float64(F_s).tobytes() == np.float64(want_F).tobytes()
            assert abs(dM - want_dM) <= 1e-13 * max(1.0, abs(dM))
            scale = max(scale, abs(dM))
        # the left limits at every atom, against a long-double decay of the same kept states
        J = len(path.atom_log)
        left, _ = st._atom_limits(path, proj, 0, J, solver.atom_steps(path.times, path.atom_log.t))
        want_left, state_scale = _long_double_left_limits(path, proj)
        assert np.all(np.abs(left - want_left) <= 1e-14 * np.max(state_scale, initial=0.0))
    rows = st.martingale_residual(paths, probes)
    monkeypatch.setattr(st, "_probe_values", ref.two_scan_probe_values)
    want_rows = st.martingale_residual(paths, probes)
    # each row is a mean and two standard errors of values that moved by at most 1e-13 * scale
    for row, want in zip(rows, want_rows, strict=True):
        assert (row.xi, row.conditioner, row.n_paths) == (want.xi, want.conditioner, want.n_paths)
        assert abs(row.estimate - want.estimate) <= 1e-13 * scale
        assert abs(row.se_re - want.se_re) <= 2e-13 * scale
        assert abs(row.se_im - want.se_im) <= 2e-13 * scale


def _window_case(kind, layout):
    """(config, path) for a replay-window edge case: atoms on the window edges, one ulp
    either side of them, only outside the window (0.25, 0.75], or none; "symmetric" on a
    grid of rounded instants (steps = 1000), "gamma" with its compensator drift, f = 1.3
    and initial data on a binary grid."""
    if kind == "gamma":
        cfg = _config("gamma")
        real = cfg.noise.simulate(cfg.T, stream(14, 0, "window"))
    else:
        spec = lh.LevyNoiseSpec(model=lh.LevyModel(lh.CompoundPoisson(((-1.0, 0.5), (1.0, 0.5)))), eps=2.0, eta=0.0)
        cfg = lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=32, collocation=128, steps=1000)
        real = cfg.noise.simulate(cfg.T, stream(14, 1, "window"))
        real = replace(real, x=np.random.default_rng(15).uniform(0.0, math.pi, 300),
                       z=np.random.default_rng(16).choice([-1.0, 1.0], 300))
    times = cfg.times()
    N = cfg.steps
    edges = times[[N // 4, N // 2, 3 * N // 4]]
    rng = np.random.default_rng(17)
    if layout == "on_edges":
        # on each probe edge, each the only atom of the step it closes, and spread between them
        t = np.concatenate((edges, rng.uniform(0.2, 0.8, 40)))
    elif layout == "ulps":
        # one ulp either side of each probe edge, and spread between them
        t = np.concatenate((np.nextafter(edges, 0.0), np.nextafter(edges, 2.0), rng.uniform(0.2, 0.8, 40)))
    elif layout == "outside":
        # on the left edge (the step before the window) and above the right one
        t = np.concatenate(([edges[0], 0.0], rng.uniform(0.0, edges[0], 20),
                            [np.nextafter(edges[2], 2.0), 1.0], rng.uniform(edges[2], 1.0, 20)))
    else:
        t = np.empty(0)
    t = np.sort(t)
    real = replace(real, t=t, x=real.x[:len(t)], z=real.z[:len(t)])
    assert (real.m_restricted != 0.0) == (kind == "gamma")
    return cfg, solver._levy_path_additive(cfg, real)


@pytest.mark.parametrize("layout", ["on_edges", "ulps", "outside", "none"])
@pytest.mark.parametrize("kind", ["symmetric", "gamma"])
def test_replay_window_edges_match_reference(kind, layout):
    cfg, path = _window_case(kind, layout)
    K = cfg.modes
    times, t = path.times, path.atom_log.t
    inside = (t > 0.25) & (t <= 0.75)
    assert (len(t) == 0) == (layout == "none") and inside.any() == (layout in ("on_edges", "ulps"))
    if layout == "on_edges":
        N = cfg.steps
        edge_steps = solver.atom_steps(times, times[[N // 4, N // 2, 3 * N // 4]])
        assert np.all(np.bincount(solver.atom_steps(times, t))[edge_steps] == 1)
    # one call with windows (0.25, 0.75), (0.25, 0.5), (0.5, 0.75) and the empty (0.5, 0.5)
    spans = [(0.25, 0.75), (0.25, 0.5), (0.5, 0.75), (0.5, 0.5)]
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), s, u) for (s, u), xi in zip(spans, (0.5, 1.0, 1.5, 1.0))]
    coeffs = [p.coefficients(K) for p in probes]
    coeffs_dd = [-(np.arange(1.0, K + 1.0) ** 2) * c for c in coeffs]
    psis = [0.1 + 0.3j, -0.2 + 0.05j, 0.3 - 0.1j, 0.2j]
    got = st._probe_values(path, probes, psis, coeffs, coeffs_dd)
    for (dM, F_s), probe, psi, c, cd in zip(got, probes, psis, coeffs, coeffs_dd):
        want_dM, want_F = ref.probe_values(path, probe, psi, c, cd)
        assert abs(dM - want_dM) <= REL * max(1.0, abs(want_dM)), probe
        assert abs(F_s - want_F) <= REL * max(1.0, abs(want_F)), probe
        # alone, each probe's window is its own (s, t]
        [(alone, _)] = st._probe_values(path, [probe], [psi], [c], [cd])
        assert abs(alone - want_dM) <= REL * max(1.0, abs(want_dM)), probe
    assert got[3][0] == 0.0


def test_replay_temporaries_bounded_by_atom_block():
    # the 40k-atom stable path of the replay cases; one probe spans all of it,
    # so the window takes every atom. The left limits are formed _ATOM_BLOCK
    # atoms at a time, one (atoms, K) array of decay powers each: the peak is
    # held to 1.5 such blocks (measured 1.23; about 9 MB on the window (0.25, 0.75]
    # alone, 10.3 MB here), where the whole (K, J) decay would take 2.45
    cfg, [path], _ = _replay_case("stable")
    K, J = cfg.modes, len(path.atom_log)
    block = 8 * K * solver._ATOM_BLOCK
    assert 8 * K * J > 2.4 * block
    probes = [lh.MartingaleProbe(0.5, lh.SmoothBump(), 0.25, 0.75), lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.0, 1.0)]
    coeffs = [p.coefficients(K) for p in probes]
    coeffs_dd = [-(np.arange(1.0, K + 1.0) ** 2) * c for c in coeffs]
    st._probe_values(path, probes, [0.1j, 0.2j], coeffs, coeffs_dd)  # warm any first-call caches
    tracemalloc.start()
    try:
        st._probe_values(path, probes, [0.1j, 0.2j], coeffs, coeffs_dd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block


def test_only_additive_paths_keep_atom_states(cp_symmetric):
    general = small_sim(cp_symmetric, 2.0, 0.0, f=lh.affine_f(0.5, 1.0), steps=256)
    gauss = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.constant_f(1.0), T=1.0, modes=32,
                         collocation=128, steps=256)
    for cfg in (general, gauss, replace(gauss, f=lh.affine_f(0.5, 1.0))):
        path = lh.simulate_path(cfg, stream(3, 0, "states"))
        assert path.atom_states is None


def test_replay_without_atom_states_names_the_operation(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, steps=256)
    kept = lh.simulate_path(cfg, stream(3, 1, "states"))
    assert len(kept.atom_log) > 0
    # a constant-f path with its atom log but no atom states
    path = lh.FieldPath(kept.times, kept.modes, kept.config, kept.atom_log, kept.f_at_atoms)
    probe = lh.MartingaleProbe(1.0, lh.SmoothBump(), 0.25, 0.75)
    with pytest.raises(lh.MissingAtomLogError, match="martingale_residual") as err:
        lh.martingale_residual([path], probe)
    assert err.value.operation == "martingale_residual"


# ---------------------------------------------------------------------------
# per-atom mode cut of the terminal kernel
# ---------------------------------------------------------------------------

def _tail_bound(c, with_x=True):
    """The documented bound on the dropped modes of one atom and row (solver._atom_kernel)."""
    kmax = np.flatnonzero(c)[-1] + 1
    scale = math.sqrt(2.0 / math.pi) if with_x else 1.0
    return 2.0 ** -53 * scale * np.max(np.abs(c)) / (1.0 - math.exp(-2.0 * solver._HEAT_CUT / kmax))


def _uncut_kernel(coeffs, x, tau):
    """Every mode up to the highest nonzero column for every atom: the kernel without the cut."""
    kmax = np.flatnonzero(coeffs.any(axis=0))[-1] + 1
    out = np.zeros((len(coeffs), len(tau)))
    for k, row in enumerate(solver._mode_rows(x, tau, kmax)):
        out += coeffs[:, k, None] * row
    return out if x is None else out * math.sqrt(2.0 / math.pi)


def _spread_atoms(n, T, seed=3):
    """n atoms with times uniform on [0, T] (so tau = T - t spread over [0, T]), tau = 0 and T included."""
    rng = np.random.default_rng(seed)
    t, x = T * rng.random(n), math.pi * rng.random(n)
    t[:3], x[:3] = (T, 0.0, T), math.pi / 2
    return t, x


def _coefficient_rows(K):
    rows = [f.coefficients for f in _functionals(K)] + [np.random.default_rng(4).standard_normal(K)]
    return np.array([solver.fit_coefficients(c, K) for c in rows])


def test_cut_kernel_matches_untruncated_sum():
    K, T = 64, 1.0
    n = 40_000
    assert n > 2 * solver._ATOM_BLOCK
    t, x = _spread_atoms(n, T)
    t[2 * solver._ATOM_BLOCK:] *= 0.5  # the last block holds only atoms of age >= T / 2
    coeffs = _coefficient_rows(K)
    tau = T - t
    assert tau.min() == 0.0 and tau.max() == T
    # the first two blocks run the reordered path, the last one every atom to
    # the block's largest count in place
    counts = [solver._mode_counts(tau[lo:lo + solver._ATOM_BLOCK], K) for lo in range(0, n, solver._ATOM_BLOCK)]
    assert [2 * int(c.sum()) <= int(c.max()) * len(c) for c in counts] == [True, True, False]
    assert counts[-1].max() < K
    got = solver._atom_kernel(coeffs, x, tau)
    uncut = _uncut_kernel(coeffs, x, tau)
    for p, c in enumerate(coeffs):
        # the cut moves each weight by at most the documented tail bound
        tol = _tail_bound(c) + 1e-15 * np.max(np.abs(c))
        assert np.max(np.abs(got[p] - uncut[p])) <= tol, p
        # and against the direct untruncated sum it adds no more than that to
        # the recurrence's own rounding (up to ~1e-12 where |w| ~ 20)
        want = ref.terminal_kernel_weights(c, T, t, x)
        assert np.all(np.abs(got[p] - want) <= np.abs(uncut[p] - want) + tol), p
        assert _close(got[p], want), p


def test_cut_decay_only_kernel():
    # the x = None form of the martingale drift: sum_k c_k e^{-k^2 tau}
    K, T = 64, 1.0
    t, _ = _spread_atoms(3 * solver._ATOM_BLOCK, T, seed=5)
    tau = T - t
    coeffs = _coefficient_rows(K)
    got = solver._atom_kernel(coeffs, None, tau)
    uncut = _uncut_kernel(coeffs, None, tau)
    k = np.arange(1.0, K + 1.0)
    for p, c in enumerate(coeffs):
        tol = _tail_bound(c, with_x=False) + 1e-15 * np.max(np.abs(c))
        assert np.max(np.abs(got[p] - uncut[p])) <= tol, p
        want = np.array([c @ np.exp(-k * k * s) for s in tau[:2000]])
        assert _close(got[p, :2000], want), p


def test_mode_counts_keep_every_mode_without_a_finite_positive_tau():
    tau = np.array([0.0, np.inf, np.nan, -np.inf, -0.5, 5e-324, 1.0, 1e300])
    # tau = 1: ceil(sqrt(53 ln 2)) = 7; a huge tau keeps mode 1
    assert solver._mode_counts(tau, 63).tolist() == [63, 63, 63, 63, 63, 63, 7, 1]
    # a non-finite tau in a reordered block: the atom runs every mode, the others are unmoved
    K, T = 64, 1.0
    t, x = _spread_atoms(5000, T, seed=6)
    tau = T - t
    tau[10], tau[11] = np.nan, np.inf
    coeffs = _coefficient_rows(K)
    got = solver._atom_kernel(coeffs, x, tau)
    uncut = _uncut_kernel(coeffs, x, tau)
    assert np.all(np.isnan(got[:, 10])) and np.all(got[:, 11] == 0.0)
    keep = np.isfinite(tau)
    assert np.max(np.abs(got[:, keep] - uncut[:, keep])) <= 1e-15 * np.max(np.abs(coeffs))


def test_mode1_kernel_is_unchanged():
    # kmax = 1 (the stable mode-1 pairing) never cuts: bitwise the one-mode product
    t, x = _spread_atoms(2 * solver._ATOM_BLOCK + 7, 1.0, seed=7)
    tau = 1.0 - t
    coeffs = np.zeros((2, 64))
    coeffs[:, 0] = (1.0, -0.3)
    got = solver._atom_kernel(coeffs, x, tau)
    sin_x, _ = solver._half_angle(x, two_cos=False)
    want = (0.0 + coeffs[:, :1] * (sin_x * np.exp(-tau))) * np.sqrt(2.0 / np.pi)
    assert np.array_equal(got, want)
