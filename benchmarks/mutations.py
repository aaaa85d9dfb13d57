"""Show that every output check of the benchmark fails on a deliberately wrong input.

    python3 benchmarks/mutations.py [--workload NAME] [--seed 7] [--seconds 20]

For each workload: set up, run the timed rounds for `--seconds` (the
benchmark's own run length, so the checks see the same sample sizes), and
confirm that every check passes apart from the known faults. Then, for each
check, apply one wrong input to a copy of the collected outputs (or, for the
martingale rows, to the paths themselves) and confirm that the check fails.
Exits 1 if any check passes on its wrong input or fails on the right one.
"""

from __future__ import annotations

import argparse
import copy
import sys

import numpy as np

import run

RNG = np.random.default_rng(2024)


def shuffle_times(log):
    """Atom log with the times permuted against positions and marks."""
    t, *rest = log
    return (RNG.permutation(t), *rest)


def squeeze_times(log):
    """Atom times drawn on [0, 0.95 T] instead of [0, T]."""
    t, *rest = log
    return (0.95 * t, *rest)


def scale_marks(log, factor):
    t, x, z, *rest = log
    return (t, x, factor * z, *rest)


def cells(data, fn):
    for cell in data["cells"].values():
        fn(cell)
    return data


def per_round(data, key, fn):
    """Replace each round's `key` entry by fn(entry)."""
    for rd in data["rounds"]:
        rd[key] = fn(rd[key])
    return data


def each(fn):
    return lambda items: [fn(item) for item in items]


def normal_like(v):
    return RNG.normal(0.0, v.std(), size=v.size)


def rows(cell, col, delta):
    cell["rows"] = [r[:col] + (r[col] + delta,) + r[col + 1:] for r in cell["rows"]]


def scale_values(cell, name, factor):
    cell["values"][name] = cell["values"][name] * factor


DICHOTOMY = [
    ("atom_budget", "realized atom counts 10% low",
     lambda d: cells(d, lambda c: c.update(atoms=[0.9 * a for a in c["atoms"]]))),
    ("ar_statistic", "AR statistic off by 1e-6",
     lambda d: cells(d, lambda c: rows(c, 0, 1e-6))),
    ("ks_ecf_recomputed", "reported KS statistic off by 1e-8",
     lambda d: cells(d, lambda c: rows(c, 1, 1e-8))),
    ("terminal_atom_sum", "atom log with times shuffled against positions and marks",
     lambda d: cells(d, lambda c: c.update(logs=[shuffle_times(g) for g in c["logs"]]))),
    ("atom_law", "atom times compressed to [0, 0.95 T]",
     lambda d: cells(d, lambda c: c.update(logs=[squeeze_times(g) for g in c["logs"]]))),
]

MUTATIONS = {
    "stable_dichotomy": DICHOTOMY + [
        ("ito_isometry[eps", "Levy variance scaled by 2",
         lambda d: cells(d, lambda c: scale_values(c, "mode1", np.sqrt(2.0)))),
        ("ito_isometry[gauss", "Gaussian reference variance scaled by 2",
         lambda d: d["ref"].update(mode1=d["ref"]["mode1"] * np.sqrt(2.0)) or d),
        ("ks_null", "Levy values folded to |values|",
         lambda d: cells(d, lambda c: c["values"].update(mode1=np.abs(c["values"]["mode1"])))),
    ],
    "gamma_dichotomy": DICHOTOMY[1:] + [
        ("atom_law", "marks scaled by 10",
         lambda d: cells(d, lambda c: c.update(logs=[scale_marks(g, 10.0) for g in c["logs"]]))),
        ("ito_isometry[eps", "Levy variance scaled by 1.5",
         lambda d: cells(d, lambda c: scale_values(c, "mode1", np.sqrt(1.5)))),
        ("ito_isometry[gauss", "Gaussian reference variance scaled by 1.5",
         lambda d: d["ref"].update({n: v * np.sqrt(1.5) for n, v in d["ref"].items()}) or d),
        ("third_cumulant", "gamma terminal values replaced by exact normal draws",
         lambda d: cells(d, lambda c: c["values"].update(mode1=normal_like(c["values"]["mode1"])))),
    ],
    "replay_diagnostics": [
        ("grid_atom_sum[crit7]", "atom logs with times shuffled",
         lambda d: per_round(d, "kept", each(shuffle_times))),
        ("grid_atom_sum[large_log]", "large atom log with times shuffled",
         lambda d: per_round(d, "big", shuffle_times)),
        ("factorization_recomputed", "factorization residual off by 1e-6 relative",
         lambda d: per_round(d, "residuals", each(lambda r: r * (1 + 1e-6)))),
        ("factorization_halving", "refined sub-grid no more accurate than the coarse one",
         lambda d: per_round(d, "ratios", each(lambda r: 1.0))),
        ("atom_budget", "realized atom counts 10% low",
         lambda d: d.update(atoms={k: [0.9 * a for a in v] for k, v in d["atoms"].items()}) or d),
        ("ito_isometry", "terminal mode-1 variance scaled by 2",
         lambda d: per_round(d, "kept", each(lambda k: k[:3] + (k[3] * np.sqrt(2.0),) + k[4:]))),
        ("atom_law", "atom times compressed to [0, 0.95 T]",
         lambda d: per_round(d, "kept", each(squeeze_times))),
    ],
    "multiplicative": [
        ("terminal_atom_replay", "atom logs with times shuffled",
         lambda d: per_round(d, "levy", each(shuffle_times))),
        ("second_moment[levy", "Levy terminal variance scaled by 3",
         lambda d: per_round(d, "levy", each(lambda p: p[:3] + (p[3] * np.sqrt(3.0),)))),
        ("second_moment[gauss", "Gaussian terminal variance scaled by 3",
         lambda d: per_round(d, "gauss", each(lambda g: g * np.sqrt(3.0)))),
        ("mode_decomposition_residual", "residuals 10 times larger",
         lambda d: per_round(d, "md", each(lambda m: (10 * m[0], 10 * m[1])))),
        ("mode_decomposition_halving", "refined grid no more accurate than the coarse one",
         lambda d: per_round(d, "md", each(lambda m: (m[0], m[0])))),
        ("atom_budget", "realized atom counts 10% low",
         lambda d: d.update(atoms=[0.9 * a for a in d["atoms"]]) or d),
        ("atom_law", "atom times compressed to [0, 0.95 T]",
         lambda d: per_round(d, "levy", each(squeeze_times))),
    ],
}


def drift_omitted_paths(workload, seconds):
    """Criterion-7 paths with the compensator drift added back, as if the solver omitted it."""
    from levyheat import solver

    import oracles as orc
    import workloads

    sigma = np.sqrt(orc.GammaMeasure().moment(2, 0.1, 0.0))
    rate = orc.GammaMeasure().moment(1, 0.1, workload.eta7) / sigma
    k2 = np.arange(1, 65, dtype=float) ** 2
    flat = orc.flat_projection(64, 256)
    original = solver.simulate_path

    def wrong(config, rng, **kw):
        path = original(config, rng, **kw)
        if config is workload.cfg7:
            path.modes = path.modes + rate * flat * -np.expm1(-np.outer(path.times, k2)) / k2
        return path

    solver.simulate_path = wrong
    try:
        wrong_wl = workloads.ReplayDiagnostics(workload.seed, workload.probe)
        wrong_wl.__dict__.update({k: v for k, v in workload.__dict__.items() if k != "rounds"})
        wrong_wl.rounds = []
        run.timed_rounds(wrong_wl, workload.probe, None, seconds)
    finally:
        solver.simulate_path = original
    return [res for res in wrong_wl.checks(wrong_wl.collect()) if res[0].startswith("martingale")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(MUTATIONS), action="append")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    bad = 0
    for name in args.workload or list(MUTATIONS):
        workload, probe, _, _ = run.load(name, args.seed, traced=False)
        probe.reset()
        run.timed_rounds(workload, probe, None, args.seconds)
        probe.close()
        data = workload.collect()
        known = run.KNOWN_FAULTS.get(name, set())
        for check_name, ok, detail in workload.checks(data):
            if not ok and check_name not in known:
                bad += 1
                print(f"[{name}] UNEXPECTED FAIL {check_name}: {detail}")
        for prefix, what, mutate in MUTATIONS[name]:
            results = [res for res in workload.checks(mutate(copy.deepcopy(data)))
                       if res[0].startswith(prefix)]
            missed = [res for res in results if res[1]]
            bad += bool(missed) or not results
            for check_name, ok, detail in results:
                print(f"[{name}] {'MISSED' if ok else 'caught'} {what}: {check_name}: {detail}")
        if name == "replay_diagnostics":
            results = drift_omitted_paths(workload, args.seconds)
            bad += any(ok for _, ok, _ in results) or not results
            for check_name, ok, detail in results:
                print(f"[{name}] {'MISSED' if ok else 'caught'} compensator drift omitted: "
                      f"{check_name}: {detail}")
    print(f"{bad} check(s) not shown to fail" if bad else "every check failed on its wrong input")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
