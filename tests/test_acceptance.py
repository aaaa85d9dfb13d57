"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at the fixed base seed 12345. Criterion 6b checks
that the gamma-driven law of <u_T, phi_1> stays away from the Gaussian law at
every eps: its two-sample KS statistic must reach D(eps) - 3 se, where D(eps)
is the exact Kolmogorov distance of the simulated gamma law from
N(0, (1 - e^{-2})/2) (0.0497, 0.0485, 0.0484 at eps = 1e-1, 1e-2, 1e-3; see
`gamma_limit_law.py`) and se is the null-scale sd of the statistic. The bound,
about 0.033, lies above the null 99% quantile of the statistic (0.0326 at
5000 + 5000 paths), so a Gaussian-converging gamma sample fails it.

Criterion 6a checks the stable cells two ways. Each cell's two-sample KS
p-value must reach 1e-3 / 3 (Bonferroni over the three cells, so a correct
implementation fails with probability about 1e-3), and the exact distance
D(eps) of the simulated stable law from the Gaussian one must stay below
1e-4 in every cell. D(eps) is the Edgeworth term of the closed-form cumulants
(`stable_limit_law.py`): 3.1e-5, 2.4e-6 and 1.1e-6 here, far below what 5000
paths resolve (null KS ~0.017). The bound sits threefold above the largest
of them and ninefold below the 9.0e-4 that a 50-atom budget gives.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import levyheat as lh
from levyheat import stats as st
from levyheat.streams import stream

from gamma_limit_law import gamma_mode1_ks
from stable_limit_law import stable_mode1_edgeworth

SEED = 12345
VAR_MODE1 = (1.0 - math.exp(-2.0)) / 2.0  # Ito isometry, T=1, k=1
GAMMA_ATOMS = 200  # expected-atom budget of the gamma dichotomy cells
STABLE_ATOMS = 40000  # and of the stable ones
STABLE_KS_LEVEL = 1e-3 / 3  # per-cell p-value floor of criterion 6a
STABLE_D_BOUND = 1e-4  # bound of criterion 6a on the exact distance D(eps)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. AR evaluator exactness on the counterexample family
# ---------------------------------------------------------------------------

def test_criterion_1_remark_exactness():
    t0 = time.time()
    model = lh.LevyModel(lh.RemarkDensityFamily())
    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        assert math.sqrt(lh.variance(model, eps)) > eps  # kappa*sigma(eps) > eps at kappa=1
        expect = eps ** 2 / (eps + eps ** 2)
        worst = max(worst, abs(lh.ar_statistic(model, eps, 1.0) - expect) / expect)
    divergent = all(lh.delta_statistic(model, 0.05, d) == math.inf for d in (0.1, 0.5, 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and divergent and elapsed < 1.0
    assert _report("1", ok, f"ar rel err {worst:.2e} (tol 1e-8), "
                            f"delta divergent={divergent}, runtime {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 2. gamma/stable dichotomy at the condition level
# ---------------------------------------------------------------------------

def test_criterion_2_condition_dichotomy():
    t0 = time.time()
    gamma = lh.LevyModel(lh.GammaSubordinator())
    stable = lh.LevyModel(lh.SymmetricStable(1.5))
    g_closed = lh.ar_statistic(gamma, 1e-4, 1.0)
    g_quad = lh.ar_statistic(gamma, 1e-4, 1.0, method="quadrature")
    s_val = lh.ar_statistic(stable, 1e-3, 1.0)
    elapsed = time.time() - t0
    ok = (abs(g_closed - 0.5) <= 0.02 and abs(g_closed - g_quad) <= 1e-6
          and s_val <= 1e-12 and elapsed < 1.0)
    assert _report("2", ok, f"gamma ar={g_closed:.4f} (0.5 +/- 0.02, quad oracle {g_quad:.4f}), "
                            f"stable ar={s_val:.1e} <= 1e-12, runtime {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# 3. delta-condition implies AR-condition, numerically
# ---------------------------------------------------------------------------

def test_criterion_3_implication_property():
    rng = np.random.default_rng(SEED)
    gamma = lh.LevyModel(lh.GammaSubordinator())
    cp = lh.LevyModel(lh.CompoundPoisson(((-1.0, 0.5), (0.4, 0.7), (1.3, 0.2))))
    checked = 0
    worst_margin = math.inf
    while checked < 200:
        pick = rng.integers(3)
        if pick == 0:
            model = gamma
        elif pick == 1:
            model = lh.LevyModel(lh.SymmetricStable(float(rng.uniform(0.3, 1.9))))
        else:
            model = cp
        eps = float(10.0 ** rng.uniform(-3.0, 0.4))
        kappa = float(10.0 ** rng.uniform(-0.6, 0.6))
        delta = float(rng.uniform(0.05, 2.0))
        try:
            dstat = lh.delta_statistic(model, eps, delta)
        except lh.ZeroVarianceError:
            continue
        if not math.isfinite(dstat):
            continue
        ar = lh.ar_statistic(model, eps, kappa)
        bound = dstat / kappa ** delta
        worst_margin = min(worst_margin, bound - ar)
        assert ar <= bound + 1e-10
        checked += 1
    assert _report("3", True, f"{checked} random finite cells, min slack {worst_margin:.3e}")


# ---------------------------------------------------------------------------
# 4. Green-kernel semigroup identity
# ---------------------------------------------------------------------------

def test_criterion_4_green_semigroup():
    t0 = time.time()
    K, M = 200, 1000
    y = (np.arange(M) + 0.5) * (math.pi / M)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        x0, z0 = rng.uniform(0.0, math.pi, 2)
        t, s = rng.uniform(0.01, 1.0, 2)
        lhs = np.sum(lh.green_kernel(t, x0, y, K) * lh.green_kernel(s, y, z0, K)) * (math.pi / M)
        worst = max(worst, abs(lhs - lh.green_kernel(t + s, x0, z0, K)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _report("4", ok, f"max semigroup defect {worst:.2e} <= 1e-8, runtime {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 5. solver moment oracle (additive), Gaussian and normalized Levy
# ---------------------------------------------------------------------------

def _stepped_gaussian_mode_sample(n_paths: int, steps: int, modes: int, seed: int) -> np.ndarray:
    """Batch exponential integrator for the additive Gaussian branch, modes 1..`modes`; returns mode 1.

    For constant f the modes are independent, so `modes=1` steps mode 1 alone with its law unchanged.
    """
    rng = stream(seed, 0, "gauss_var_batch")
    k = np.arange(1, modes + 1, dtype=float)
    dt = 1.0 / steps
    decay = np.exp(-k * k * dt)
    conv_sd = np.sqrt((1.0 - decay ** 2) / (2.0 * k * k))
    state = np.zeros((n_paths, modes))
    for _ in range(steps):
        state = decay * state + conv_sd * rng.standard_normal((n_paths, modes))
    return state[:, 0]


def test_criterion_5_moment_oracle():
    t0 = time.time()
    n = 5000
    gvals = _stepped_gaussian_mode_sample(n, steps=4096, modes=1, seed=SEED)
    gv = gvals.var(ddof=1)
    g_se = gv * math.sqrt(2.0 / (n - 1))
    g_ok = abs(gv - VAR_MODE1) <= 3.0 * g_se

    cp = lh.LevyModel(lh.CompoundPoisson(((-1.0, 0.5), (1.0, 0.5))))
    spec = lh.LevyNoiseSpec(model=cp, eps=2.0, eta=0.0)
    cfg = lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=64,
                       collocation=256, steps=4096)
    lvals = st.collect_terminal_samples(cfg, [st.mode_functional(1, 64)], n, SEED,
                                        purpose="crit5")["mode1"]
    lv = lvals.var(ddof=1)
    m4 = float(np.mean((lvals - lvals.mean()) ** 4))
    l_se = math.sqrt(max(m4 - lv * lv, 0.0) / n)
    l_ok = abs(lv - VAR_MODE1) <= 3.0 * l_se
    elapsed = time.time() - t0
    ok = g_ok and l_ok and elapsed < 120.0
    assert _report("5", ok, f"gauss var {gv:.5f} ({abs(gv - VAR_MODE1) / g_se:.2f} se), "
                            f"levy var {lv:.5f} ({abs(lv - VAR_MODE1) / l_se:.2f} se), "
                            f"target {VAR_MODE1:.6f}, runtime {elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
# 6. dichotomy experiment (Theorem 2.1 at desk scale)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dichotomy_report():
    t0 = time.time()
    K = 64
    eps_grid = [1e-1, 1e-2, 1e-3]
    fns = [st.mode_functional(1, K)]
    stable = lh.LevyModel(lh.SymmetricStable(1.5))
    gamma = lh.LevyModel(lh.GammaSubordinator())
    stable_spec = lh.LevyNoiseSpec(model=stable, eps=eps_grid[0], eta=f"atoms:{STABLE_ATOMS}",
                                   rho_budget=1.0, normalization="retained")
    gamma_spec = lh.LevyNoiseSpec(model=gamma, eps=eps_grid[0], eta=f"atoms:{GAMMA_ATOMS}",
                                  rho_budget=1.0, normalization="retained")
    base = lh.SimConfig(noise=stable_spec, f=lh.constant_f(1.0), T=1.0, modes=K,
                        collocation=256, steps=4096)
    rep_s = lh.dichotomy_experiment([stable], eps_grid, fns, base, 5000, SEED)
    rep_g = lh.dichotomy_experiment([gamma], eps_grid, fns,
                                    replace(base, noise=gamma_spec), 5000, SEED)
    return rep_s, rep_g, eps_grid, time.time() - t0


def test_criterion_6a_stable_law(dichotomy_report):
    rep_s, _, eps_grid, elapsed = dichotomy_report
    ok = elapsed < 900.0
    cells = []
    for eps in eps_grid:
        row = rep_s.cell("stable(alpha=1.5)", eps, "mode1")
        exact = stable_mode1_edgeworth(eps, STABLE_ATOMS)
        ok = ok and row.ks_p >= STABLE_KS_LEVEL and exact < STABLE_D_BOUND
        cells.append(f"eps={eps:g} KS {row.ks:.4f} (p {row.ks_p:.2g} >= {STABLE_KS_LEVEL:.1e}), "
                     f"D {exact:.2e} < {STABLE_D_BOUND:.0e}")
    assert _report("6a", ok, f"stable {'; '.join(cells)}; experiment runtime {elapsed:.0f}s < 900s")


def test_criterion_6b_gamma_bound(dichotomy_report):
    _, rep_g, eps_grid, elapsed = dichotomy_report
    ok = elapsed < 900.0
    cells = []
    for eps in eps_grid:
        row = rep_g.cell("gamma", eps, "mode1")
        exact = gamma_mode1_ks(eps, GAMMA_ATOMS)
        bound = exact - 3.0 * row.se
        ok = ok and row.ks >= bound
        cells.append(f"eps={eps:g} KS {row.ks:.4f} vs D {exact:.4f} - 3se = {bound:.4f} "
                     f"(p {row.ks_p:.1e})")
    assert _report("6b", ok, f"gamma {'; '.join(cells)}; experiment runtime {elapsed:.0f}s < 900s")


# ---------------------------------------------------------------------------
# 7. martingale residual
# ---------------------------------------------------------------------------

def test_criterion_7_martingale_residual():
    t0 = time.time()
    gamma = lh.LevyModel(lh.GammaSubordinator())
    eta = lh.eta_for_atom_budget(gamma, 0.1, 1.0, 100.0)
    spec = lh.LevyNoiseSpec(model=gamma, eps=0.1, eta=eta)
    cfg = lh.SimConfig(noise=spec, f=lh.constant_f(1.0), T=1.0, modes=64,
                       collocation=256, steps=4096)
    probes = [lh.MartingaleProbe(xi, lh.SmoothBump(), 0.25, 0.75) for xi in (0.5, 1.0)]
    n = 5000
    paths = (lh.simulate_path(cfg, stream(SEED, i, "crit7")) for i in range(n))
    rows = lh.martingale_residual(paths, probes)
    zmax = max(r.z_score for r in rows)
    elapsed = time.time() - t0
    ok = zmax <= 3.0 and len(rows) == 6 and elapsed < 600.0
    detail = ", ".join(f"xi={r.xi} g={r.conditioner} z={r.z_score:.2f}" for r in rows)
    assert _report("7", ok, f"{detail}; max |z| {zmax:.2f} <= 3 (Bonferroni level 1e-3), "
                            f"runtime {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 8. identity suite
# ---------------------------------------------------------------------------

def test_criterion_8_identity_suite():
    t0 = time.time()
    modes = 32
    cp = lh.LevyModel(lh.CompoundPoisson(((-1.0, 2.0), (1.0, 2.0))))
    sim = lh.SimConfig(noise=lh.LevyNoiseSpec(model=cp, eps=2.0, eta=0.0),
                       f=lh.constant_f(1.0), T=1.0, modes=modes, collocation=128, steps=1024)
    md_ratios, md_res = [], []
    for i in range(8):
        p_c = lh.simulate_path(sim, stream(SEED, i, "crit8"))
        p_f = lh.simulate_path(replace(sim, steps=2048), stream(SEED, i, "crit8"))
        for k in (1, 2, 5):
            rc = lh.mode_decomposition_check(p_c, k)
            rf = lh.mode_decomposition_check(p_f, k)
            md_res.append(rc / lh.mode_decomposition_budget(p_c, k))
            md_ratios.append(rc / rf)
    md_ratio = float(np.median(md_ratios))
    md_ok = max(md_res) <= 1.0 and 1.6 <= md_ratio <= 2.4

    gamma = lh.LevyModel(lh.GammaSubordinator())
    gsim = lh.SimConfig(noise=lh.LevyNoiseSpec(model=gamma, eps=0.5, eta="atoms:120", rho_budget=1.0),
                        f=lh.constant_f(1.0), T=1.0, modes=modes, collocation=128, steps=1024)
    fac_ratios = []
    for i in range(8):
        p = lh.simulate_path(gsim, stream(SEED, i, "crit8"))
        for (tt, xx) in ((0.75, 1.3), (0.5, 2.0), (0.875, 0.9), (0.625, 1.9)):
            rc = lh.factorization_check(p, 0.2, tt, xx, time_nodes=192)
            rf = lh.factorization_check(p, 0.2, tt, xx, time_nodes=384)
            fac_ratios.append(rc / rf)
    fac_ratio = float(np.median(fac_ratios))
    fac_ok = 1.6 <= fac_ratio <= 2.4

    hij_worst = 0.0
    for i in range(1, 11):
        for j in range(1, 11):
            for s, y in ((0.3, 1.0), (0.77, 2.2)):
                hij_worst = max(hij_worst, abs(
                    lh.h_ij_closed_form(i, j, s, y, 1.0) - lh.h_ij_quadrature(i, j, s, y, 1.0)))
    hij_ok = hij_worst <= 1e-10

    times = np.linspace(0.0, 1.0, 1025)
    grid = np.zeros((1025, modes))
    for (i, j), a in {(1, 1): 1.0, (3, 2): 0.4, (5, 4): -0.25}.items():
        grid[:, j - 1] += a * math.sqrt(2.0) * np.sin(i * math.pi * times)
    synth = lh.FieldPath(times, grid, config=None)
    lhs, rhs = lh.space_time_parseval(synth)
    par_rel = abs(lhs - rhs) / rhs
    par_ok = par_rel <= 1e-6

    elapsed = time.time() - t0
    ok = md_ok and fac_ok and hij_ok and par_ok and elapsed < 120.0
    assert _report("8", ok, f"mode-decomp max res/budget {max(md_res):.3f} (<=1), halving {md_ratio:.2f}; "
                            f"factorization halving {fac_ratio:.2f} (both in [1.6,2.4]); "
                            f"H_ij defect {hij_worst:.1e} <= 1e-10; Parseval {par_rel:.1e} <= 1e-6; "
                            f"runtime {elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
# 9. characteristics convergence, condition (i)
# ---------------------------------------------------------------------------

def test_criterion_9_characteristics():
    t0 = time.time()
    K, n = 64, 5000
    bump = lh.SmoothBump()
    phihat = bump.sine_coefficients(K)
    target = float(np.sum(phihat ** 2))  # C_T = T * ||phi_K||^2, T = 1

    stable = lh.LevyModel(lh.SymmetricStable(1.5))
    sspec = lh.LevyNoiseSpec(model=stable, eps=1e-3, eta="atoms:40000",
                             rho_budget=1.0, normalization="retained")
    scfg = lh.SimConfig(noise=sspec, f=lh.constant_f(1.0), T=1.0, modes=K,
                        collocation=256, steps=4096)
    quad, _ = st.characteristics_sample(scfg, phihat, 1.0, n, SEED, purpose="crit9s")
    mean = float(quad.mean())
    se = float(quad.std(ddof=1)) / math.sqrt(n)
    s_ok = abs(mean - target) <= 3.0 * se

    gamma = lh.LevyModel(lh.GammaSubordinator())
    gspec = lh.LevyNoiseSpec(model=gamma, eps=1e-3, eta="atoms:200",
                             rho_budget=1.0, normalization="retained")
    gcfg = lh.SimConfig(noise=gspec, f=lh.constant_f(1.0), T=1.0, modes=K,
                        collocation=256, steps=4096)
    _, bigs = st.characteristics_sample(gcfg, phihat, 1.0, n, SEED, purpose="crit9g")
    frac = float(np.mean(bigs > 0))
    g_ok = frac >= 0.05

    elapsed = time.time() - t0
    ok = s_ok and g_ok and elapsed < 600.0
    assert _report("9", ok, f"stable quad sum {mean:.5f} vs C_T {target:.5f} "
                            f"({abs(mean - target) / se:.2f} se); gamma big-jump path "
                            f"fraction {frac:.3f} >= 0.05; runtime {elapsed:.0f}s < 600s")
