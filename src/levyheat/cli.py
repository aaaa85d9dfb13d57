"""Command-line orchestration: ar-scan, simulate, compare, identities.

Experiments are described by a flat key-value config file with dotted keys
(diff-friendly, one `key = value` pair per line, `#` comments). Every output
CSV starts with a comment line carrying the package version and a hash of
the canonical config + seed, so identical inputs are recognizable by their
identical headers.

Exit codes: 0 success, 1 identity-check failure, 2 validation failure,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, LevyHeatError
from .measures import (
    CompoundPoisson,
    GammaSubordinator,
    LevyModel,
    RemarkDensityFamily,
    SymmetricStable,
    ar_scan,
)
from .sobolev import SmoothBump, h_ij_closed_form, h_ij_quadrature, space_time_parseval
from .solver import (
    FieldPath,
    GaussianNoiseSpec,
    LevyNoiseSpec,
    SimConfig,
    affine_f,
    bounded_smooth_f,
    constant_f,
    factorization_check,
    green_kernel,
    mode_decomposition_budget,
    mode_decomposition_check,
    simulate_path,
)
from . import noise as noise_mod
from . import stats as stats_mod
from .streams import stream

_FLOAT_LIST = "float_list"
_SCHEMA: dict[str, str] = {
    "model.family": "str",        # gamma | stable | compound_poisson | remark
    "model.alpha": "float",
    "model.atoms": "atoms",       # "z:w, z:w, ..."
    "epsilon.grid": _FLOAT_LIST,
    "kappa.grid": _FLOAT_LIST,
    "solver.horizon": "float",
    "solver.modes": "int",
    "solver.collocation": "int",
    "solver.steps": "int",
    "f.kind": "str",              # constant | affine | bounded_smooth
    "f.a": "float",
    "f.b": "float",
    "f.c": "float",
    "f.d": "float",
    "noise.kind": "str",          # levy | gaussian (simulate); compare takes levy only
    "noise.eta": "eta",           # auto | atoms:<count> | <float>
    "noise.normalization": "str",  # model | retained
    "budget.rho": "float",
    "budget.atom_cap": "float",
    "paths": "int",
    "seed": "int",
    "out.dir": "str",
    "compare.functionals": "str_list",
    "compare.kappa_ref": "float",
    "compare.ecf_grid": _FLOAT_LIST,
    "simulate.paths": "int",
    "identities.steps": "int",
    "identities.modes": "int",
    "identities.delta": "float",
}

_DEFAULTS = {
    "solver.horizon": 1.0,
    "solver.modes": 64,
    "solver.collocation": 256,
    "solver.steps": 4096,
    "f.kind": "constant",
    "f.c": 1.0,
    "noise.kind": "levy",
    "noise.eta": "auto",
    "noise.normalization": "model",
    "budget.rho": 1e-3,
    "budget.atom_cap": 1e8,
    "paths": 1000,
    "seed": 12345,
    "out.dir": ".",
    "compare.functionals": ["mode1"],
    "compare.kappa_ref": 1.0,
    "simulate.paths": 1,
    "identities.steps": 1024,
    "identities.modes": 32,
    "identities.delta": 0.2,
}


def _cast(key: str, raw: str):
    kind = _SCHEMA[key]
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == _FLOAT_LIST:
            return [float(v) for v in raw.replace(";", ",").split(",") if v.strip()]
        if kind == "str_list":
            return [v.strip() for v in raw.split(",") if v.strip()]
        if kind == "atoms":
            atoms = []
            for part in raw.split(","):
                z, w = part.split(":")
                atoms.append((float(z), float(w)))
            return atoms
        if kind == "eta":
            if raw == "auto" or raw.startswith("atoms:"):
                return raw
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}: {exc}") from exc
    raise ConfigError(f"unhandled schema kind {kind}")


def parse_config(text: str) -> dict:
    """Parse the flat key-value format; unknown keys are rejected."""
    out = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _cast(key, raw)
    return out


def config_hash(cfg: dict, command: str, seed: int) -> str:
    canon = "\n".join(f"{k}={cfg[k]!r}" for k in sorted(cfg)) + f"\ncmd={command}\nseed={seed}\nv={__version__}"
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _header(cfg: dict, command: str, seed: int) -> str:
    return f"# levyheat {__version__} command={command} seed={seed} config_hash={config_hash(cfg, command, seed)}\n"


def build_model(cfg: dict) -> LevyModel:
    fam = cfg.get("model.family")
    if fam is None:
        raise ConfigError("model.family is required")
    if fam == "gamma":
        return LevyModel(GammaSubordinator())
    if fam == "stable":
        if "model.alpha" not in cfg:
            raise ConfigError("stable family needs model.alpha")
        return LevyModel(SymmetricStable(cfg["model.alpha"]))
    if fam == "compound_poisson":
        if "model.atoms" not in cfg:
            raise ConfigError("compound_poisson family needs model.atoms")
        return LevyModel(CompoundPoisson(tuple(cfg["model.atoms"])))
    if fam == "remark":
        return LevyModel(RemarkDensityFamily())
    raise ConfigError(f"unknown model.family {fam!r}")


def build_multiplier(cfg: dict):
    kind = cfg["f.kind"]
    if kind == "constant":
        return constant_f(cfg["f.c"])
    if kind == "affine":
        if "f.a" not in cfg or "f.b" not in cfg:
            raise ConfigError("affine multiplier needs f.a and f.b")
        return affine_f(cfg["f.a"], cfg["f.b"])
    if kind == "bounded_smooth":
        if "f.d" not in cfg:
            raise ConfigError("bounded_smooth multiplier needs f.d")
        return bounded_smooth_f(cfg["f.c"], cfg["f.d"])
    raise ConfigError(f"unknown f.kind {kind!r}")


def _levy_spec(cfg: dict, model, eps: float) -> LevyNoiseSpec:
    """The Levy noise of `model` at `eps` under the config's cutoff, budgets and normalization."""
    # "auto" selects eta per cell from the budget; a float or "atoms:<count>" resolves per cell downstream
    eta = cfg["noise.eta"]
    return LevyNoiseSpec(
        model=model, eps=eps, eta=None if eta == "auto" else eta,
        rho_budget=cfg["budget.rho"], atom_cap=cfg["budget.atom_cap"],
        normalization=cfg["noise.normalization"],
    )


def _sim_config(cfg: dict, noise_spec) -> SimConfig:
    return SimConfig(
        noise=noise_spec,
        f=build_multiplier(cfg),
        T=cfg["solver.horizon"],
        modes=cfg["solver.modes"],
        collocation=cfg["solver.collocation"],
        steps=cfg["solver.steps"],
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ar_scan(cfg: dict, out_dir: Path, seed: int) -> int:
    if not cfg.get("epsilon.grid"):
        raise ConfigError("ar-scan needs a nonempty epsilon.grid")
    if not cfg.get("kappa.grid"):
        raise ConfigError("ar-scan needs a nonempty kappa.grid")
    model = build_model(cfg)
    report = ar_scan(model, cfg["epsilon.grid"], cfg["kappa.grid"])
    out = out_dir / "ar_scan.csv"
    with out.open("w") as fh:
        fh.write(_header(cfg, "ar-scan", seed))
        fh.write("model,epsilon,kappa,ar_stat,status\n")
        for row in report.rows():
            fh.write(f"{row['model']},{row['epsilon']:.10g},{row['kappa']:.10g},"
                     f"{row['ar_stat']},{row['status']}\n")
    print(f"wrote {out}")
    return 0


def cmd_simulate(cfg: dict, out_dir: Path, seed: int) -> int:
    if cfg["simulate.paths"] < 1:
        raise ConfigError(f"simulate.paths must be >= 1, got {cfg['simulate.paths']}")
    kind = cfg["noise.kind"]
    if kind not in ("levy", "gaussian"):
        raise ConfigError(f"unknown noise.kind {kind!r} (levy | gaussian)")
    if kind == "gaussian":
        noise_spec = GaussianNoiseSpec()
    else:
        model = build_model(cfg)
        grid = cfg.get("epsilon.grid")
        if not grid:
            raise ConfigError("simulate needs epsilon.grid (first entry is used)")
        noise_spec = _levy_spec(cfg, model, grid[0])
    sim = _sim_config(cfg, noise_spec)
    for i in range(cfg["simulate.paths"]):
        path = simulate_path(sim, stream(seed, i, "simulate"))
        out = out_dir / f"path_{i}.csv"
        with out.open("w") as fh:
            fh.write(_header(cfg, "simulate", seed))
            fh.write("t,k,coefficient\n")
            for n, t in enumerate(path.times):
                for k in range(path.n_modes):
                    fh.write(f"{t:.10g},{k + 1},{path.modes[n, k]:.17g}\n")
        if path.atom_log is not None:
            noise_mod.dump_atoms(path.atom_log, str(out_dir / f"atoms_{i}.bin"))
        print(f"wrote {out}")
    return 0


def _functional_battery(cfg: dict):
    K = cfg["solver.modes"]
    out = []
    for name in cfg["compare.functionals"]:
        if name.startswith("mode"):
            out.append(stats_mod.mode_functional(int(name[4:]), K))
        elif name == "point":
            out.append(stats_mod.point_functional(math.pi / 2.0, K, name="point"))
        elif name == "bump":
            out.append(stats_mod.bump_functional(SmoothBump(), K))
        else:
            raise ConfigError(f"unknown functional {name!r}")
    return out


def cmd_compare(cfg: dict, out_dir: Path, seed: int) -> int:
    if cfg["noise.kind"] != "levy":
        raise ConfigError(f"compare needs noise.kind = levy, got {cfg['noise.kind']!r}")
    grid = cfg.get("epsilon.grid")
    if not grid:
        raise ConfigError("compare needs a nonempty epsilon.grid")
    model = build_model(cfg)
    sim = _sim_config(cfg, _levy_spec(cfg, model, grid[0]))
    report = stats_mod.dichotomy_experiment(
        [model], grid, _functional_battery(cfg), sim, cfg["paths"], seed,
        kappa_ref=cfg["compare.kappa_ref"],
        ecf_grid=cfg.get("compare.ecf_grid", stats_mod._DEFAULT_ECF_GRID),
    )
    out = out_dir / "compare.csv"
    with out.open("w") as fh:
        fh.write(_header(cfg, "compare", seed))
        report.write_csv(fh)
    print(f"wrote {out}")
    return 0


def _band_limited_path(sim: SimConfig, amplitudes: dict):
    """Synthetic FieldPath u = sum a_ij psi_ij for exact-transform checks."""
    times = sim.times()
    modes = np.zeros((len(times), sim.modes))
    T = sim.T
    for (i, j), a in amplitudes.items():
        modes[:, j - 1] += a * math.sqrt(2.0 / T) * np.sin(i * math.pi * times / T)
    return FieldPath(times, modes, sim)


def cmd_identities(cfg: dict, out_dir: Path, seed: int) -> int:
    """Deterministic identity suite; exits 1 if any residual exceeds its threshold."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, float]] = []  # (name, residual, threshold)

    # Green semigroup: int G_t(x, y) G_s(y, z) dy = G_{t+s}(x, z)
    K, M = 200, 1000
    y = (np.arange(M) + 0.5) * (np.pi / M)
    worst = 0.0
    for _ in range(100):
        x0, z0 = rng.uniform(0, np.pi, 2)
        t0, s0 = rng.uniform(0.01, 1.0, 2)
        lhs = np.sum(green_kernel(t0, x0, y, K) * green_kernel(s0, y, z0, K)) * (np.pi / M)
        worst = max(worst, abs(lhs - green_kernel(t0 + s0, x0, z0, K)))
    checks.append(("green_semigroup", worst, 1e-8))

    # H_ij closed form vs quadrature
    worst = 0.0
    for i in range(1, 11):
        for j in range(1, 11):
            for s0, y0 in ((0.3, 1.0), (0.77, 2.2)):
                worst = max(worst, abs(h_ij_closed_form(i, j, s0, y0, 1.0)
                                       - h_ij_quadrature(i, j, s0, y0, 1.0)))
    checks.append(("h_ij_closed_vs_quadrature", worst, 1e-10))

    # identity-check paths, additive noise; refinement ratios are medians over a
    # (path x probe) battery, which suppresses sign-cancellation outliers of
    # the pointwise quadrature error
    steps = cfg["identities.steps"]
    modes = cfg["identities.modes"]
    cp = LevyModel(CompoundPoisson(((-1.0, 2.0), (1.0, 2.0))))
    sim = SimConfig(noise=LevyNoiseSpec(model=cp, eps=2.0, eta=0.0), f=constant_f(1.0),
                    T=1.0, modes=modes, collocation=max(4 * modes, 128), steps=steps)
    md_ratios, md_res = [], []
    for i in range(8):
        p_c = simulate_path(sim, stream(seed, i, "identities"))
        p_f = simulate_path(replace(sim, steps=2 * steps), stream(seed, i, "identities"))
        for k in (1, 2, 5):
            rc = mode_decomposition_check(p_c, k)
            rf = mode_decomposition_check(p_f, k)
            md_ratios.append(rc / max(rf, 1e-300))
            md_res.append(rc / mode_decomposition_budget(p_c, k))
    # the check is first-order in dt; each residual is taken in units of its
    # path's derived budget (k^2 dt and the jumps of X)
    checks.append(("mode_decomposition_residual_over_budget", max(md_res), 1.0))
    ratio_checks = [("mode_decomposition_refinement", float(np.median(md_ratios)), 1.4, 3.0)]

    gmodel = LevyModel(GammaSubordinator())
    gsim = SimConfig(noise=LevyNoiseSpec(model=gmodel, eps=0.5, eta="atoms:120", rho_budget=1.0),
                     f=constant_f(1.0), T=1.0, modes=modes,
                     collocation=max(4 * modes, 128), steps=steps)
    fac_ratios = []
    delta = cfg["identities.delta"]
    for i in range(8):
        p = simulate_path(gsim, stream(seed, i, "identities"))
        for (t0, x0) in ((0.75, 1.3), (0.5, 2.0), (0.875, 0.9), (0.625, 1.9)):
            rc = factorization_check(p, delta, t0, x0, time_nodes=192)
            rf = factorization_check(p, delta, t0, x0, time_nodes=384)
            fac_ratios.append(rc / max(rf, 1e-300))
    ratio_checks.append(("factorization_refinement", float(np.median(fac_ratios)), 1.4, 3.0))

    # Parseval on a synthetic band-limited path (jump paths are not band-limited in time)
    synth = _band_limited_path(sim, amplitudes={(1, 1): 1.0, (3, 2): 0.4, (5, 4): -0.25})
    lhs, rhs = space_time_parseval(synth)
    checks.append(("parseval_relative", abs(lhs - rhs) / max(rhs, 1e-300), 1e-6))

    out = out_dir / "identities.txt"
    failed = False
    with out.open("w") as fh:
        fh.write(_header(cfg, "identities", seed))
        for name, resid, thresh in checks:
            ok = resid <= thresh
            failed |= not ok
            fh.write(f"check={name} residual={resid:.3g} threshold={thresh:.3g} "
                     f"status={'PASS' if ok else 'FAIL'}\n")
        for name, ratio, lo, hi in ratio_checks:
            ok = lo <= ratio <= hi
            failed |= not ok
            fh.write(f"check={name} ratio={ratio:.3g} band=[{lo:g},{hi:g}] "
                     f"status={'PASS' if ok else 'FAIL'}\n")
    print(out.read_text(), end="")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="levyheat", description=__doc__)
    parser.add_argument("command", choices=["ar-scan", "simulate", "compare", "identities"])
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides out.dir)")
    parser.add_argument("--seed", type=int, default=None, help="base seed (overrides seed)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out if args.out is not None else cfg["out.dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = cfg["seed"]
        handler = {
            "ar-scan": cmd_ar_scan,
            "simulate": cmd_simulate,
            "compare": cmd_compare,
            "identities": cmd_identities,
        }[args.command]
        return handler(cfg, out_dir, seed)
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except LevyHeatError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
