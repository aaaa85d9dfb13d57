"""The atom kernel against the per-atom loops it replaced (tests/atom_replay_reference.py).

Each constant-f replay (terminal pairings, the additive path, the martingale
replay) must agree with its loop form to 1e-12 relative to the largest value
compared, on a gamma cell with three functionals, nonzero initial data and the
asymmetric compensator, on compound-Poisson paths some of which hold no atom,
on a 40k-atom stable path and on a run spread over several atom blocks.
"""

import math

import numpy as np
import pytest

import levyheat as lh
from levyheat import noise, solver
from levyheat import stats as st
from levyheat.streams import stream

import atom_replay_reference as ref

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
        sizes.append(len(path.atom_log))
        assert _close(path.modes, ref.additive_modes(cfg, path.atom_log))
        got = st._probe_values(path, probes, psis, coeffs, coeffs_dd)
        for (dM, F_s), probe, psi, c, cd in zip(got, probes, psis, coeffs, coeffs_dd):
            want_dM, want_F = ref.probe_values(path, probe, psi, c, cd)
            assert abs(dM - want_dM) <= REL * max(1.0, abs(want_dM))
            assert abs(F_s - want_F) <= REL * max(1.0, abs(want_F))
    if case == "compound":
        assert min(sizes) == 0 < max(sizes)
    if case == "stable":
        assert sizes[0] > 2 * solver._ATOM_BLOCK
