import numpy as np
import pytest

import levyheat as lh
from levyheat import cli
from levyheat.cli import main, parse_config
from levyheat.errors import ConfigError


REMARK_CFG = """
# counterexample family scan
model.family = remark
epsilon.grid = 1e-1, 1e-2, 1e-3
kappa.grid = 1.0
"""

GAMMA_COMPARE_CFG = """
model.family = gamma
epsilon.grid = 0.1
solver.modes = 16
solver.collocation = 64
solver.steps = 64
noise.eta = atoms:60
noise.normalization = retained
budget.rho = 1.0
paths = 300
compare.functionals = mode1
"""


def test_parse_config_defaults_and_types():
    cfg = parse_config("model.family = stable\nmodel.alpha = 1.5\nepsilon.grid = 1e-2, 2e-2\n")
    assert cfg["model.family"] == "stable"
    assert cfg["model.alpha"] == 1.5
    assert cfg["epsilon.grid"] == [1e-2, 2e-2]
    assert cfg["solver.modes"] == 64  # default


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("model.famly = gamma\n")
    with pytest.raises(ConfigError):
        parse_config("not a pair\n")


def test_parse_config_atoms():
    cfg = parse_config("model.family = compound_poisson\nmodel.atoms = 1:0.5, -1:0.5\n")
    assert cfg["model.atoms"] == [(1.0, 0.5), (-1.0, 0.5)]


def test_ar_scan_remark_column(tmp_path):
    cfg_file = tmp_path / "scan.cfg"
    cfg_file.write_text(REMARK_CFG)
    assert main(["ar-scan", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ar_scan.csv").read_text().splitlines()
    assert lines[0].startswith("# levyheat")
    assert lines[1] == "model,epsilon,kappa,ar_stat,status"
    rows = {float(l.split(",")[1]): float(l.split(",")[3]) for l in lines[2:]}
    for eps in (1e-1, 1e-2, 1e-3):
        assert rows[eps] == pytest.approx(eps / (1.0 + eps), rel=1e-9)


def test_ar_scan_empty_grid_exit_2(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("model.family = remark\nepsilon.grid =\nkappa.grid = 1.0\n")
    assert main(["ar-scan", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("grid", ["kappa.grid = nan, 1.0", "kappa.grid = inf", "epsilon.grid = 0.1, nan"])
def test_ar_scan_non_finite_grid_exit_2(tmp_path, capsys, grid):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"model.family = gamma\nepsilon.grid = 0.1\nkappa.grid = 1.0\n{grid}\n")
    assert main(["ar-scan", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "finite and strictly positive" in capsys.readouterr().err
    assert not (tmp_path / "ar_scan.csv").exists()


def test_numeric_failure_exit_3(tmp_path):
    # compound Poisson fully truncated away -> ZeroVariance during simulate
    cfg_file = tmp_path / "zero.cfg"
    cfg_file.write_text(
        "model.family = compound_poisson\nmodel.atoms = 1:1\nepsilon.grid = 0.5\n"
        "solver.modes = 4\nsolver.collocation = 16\nsolver.steps = 8\nnoise.eta = 0.0\n"
    )
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 3


def test_simulate_deterministic_and_replayable(tmp_path):
    cfg_file = tmp_path / "sim.cfg"
    cfg_file.write_text(
        "model.family = compound_poisson\nmodel.atoms = 1:2, -1:2\nepsilon.grid = 2\n"
        "solver.modes = 8\nsolver.collocation = 32\nsolver.steps = 32\nnoise.eta = 0.0\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "path_0.csv").read_bytes() == (out2 / "path_0.csv").read_bytes()
    t, x, z = lh.load_atoms(str(out1 / "atoms_0.bin"))
    assert np.all(np.isin(z, (-1.0, 1.0)))
    header = (out1 / "path_0.csv").read_text().splitlines()[:2]
    assert header[0].startswith("# levyheat") and header[1] == "t,k,coefficient"


def test_simulate_gaussian_branch(tmp_path):
    cfg_file = tmp_path / "sim.cfg"
    cfg_file.write_text(
        "noise.kind = gaussian\nsolver.modes = 4\nsolver.collocation = 16\nsolver.steps = 16\n"
    )
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "atoms_0.bin").exists()


def test_simulate_rejects_unknown_noise_kind(tmp_path, capsys):
    cfg_file = tmp_path / "sim.cfg"
    cfg_file.write_text(
        "model.family = compound_poisson\nmodel.atoms = 1:2, -1:2\nepsilon.grid = 2\nnoise.eta = 0.0\n"
        "noise.kind = gausian\nsolver.modes = 4\nsolver.collocation = 16\nsolver.steps = 16\n"
    )
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "noise.kind" in capsys.readouterr().err
    assert not any(tmp_path.glob("path_*")) and not any(tmp_path.glob("atoms_*"))


@pytest.mark.parametrize("paths", [0, -2])
def test_simulate_needs_a_positive_path_count(tmp_path, capsys, monkeypatch, paths):
    def no_paths(*args, **kw):
        raise AssertionError("a path was drawn before the path count was checked")

    monkeypatch.setattr(cli, "simulate_path", no_paths)
    cfg_file = tmp_path / "sim.cfg"
    cfg_file.write_text(f"noise.kind = gaussian\nsolver.modes = 4\nsolver.collocation = 16\n"
                        f"solver.steps = 16\nsimulate.paths = {paths}\n")
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "simulate.paths" in capsys.readouterr().err


def test_compare_runs_and_emits_schema(tmp_path):
    cfg_file = tmp_path / "cmp.cfg"
    cfg_file.write_text(GAMMA_COMPARE_CFG)
    assert main(["compare", "--config", str(cfg_file), "--out", str(tmp_path), "--seed", "3"]) == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[1] == "model,epsilon,kappa_ref,ar_stat,functional,ks,ks_p,ecf,paths,se"
    fields = lines[2].split(",")
    assert fields[0] == "gamma" and int(fields[8]) == 300
    # byte-identical rerun
    again = tmp_path / "again"
    assert main(["compare", "--config", str(cfg_file), "--out", str(again), "--seed", "3"]) == 0
    assert (tmp_path / "compare.csv").read_bytes() == (again / "compare.csv").read_bytes()


def test_compare_rejects_non_levy_noise_kind(tmp_path, capsys):
    cfg_file = tmp_path / "cmp.cfg"
    cfg_file.write_text(GAMMA_COMPARE_CFG + "noise.kind = gaussian\n")
    assert main(["compare", "--config", str(cfg_file), "--out", str(tmp_path), "--seed", "3"]) == 2
    assert "noise.kind" in capsys.readouterr().err
    assert not (tmp_path / "compare.csv").exists()


@pytest.mark.parametrize("eta", ["atoms:abc", "atoms:0", "atoms:-5", "atoms:inf", "atoms:nan", "atom:60"])
def test_compare_rejects_bad_atom_budget_before_running(tmp_path, capsys, eta):
    # the spec rejects the count when it is built, before the Gaussian reference runs
    with pytest.raises(ValueError, match=eta):
        lh.LevyNoiseSpec(model=lh.LevyModel(lh.GammaSubordinator()), eps=0.1, eta=eta)
    cfg_file = tmp_path / "cmp.cfg"
    cfg_file.write_text(GAMMA_COMPARE_CFG + f"noise.eta = {eta}\n")
    assert main(["compare", "--config", str(cfg_file), "--out", str(tmp_path), "--seed", "3"]) == 2
    assert eta in capsys.readouterr().err
    assert not (tmp_path / "compare.csv").exists()


def test_compare_rejects_non_finite_ecf_grid_before_running(tmp_path, capsys, monkeypatch):
    def no_paths(*args, **kw):
        raise AssertionError("paths drawn before the ECF grid was checked")

    monkeypatch.setattr(lh.stats, "collect_terminal_samples", no_paths)
    cfg_file = tmp_path / "cmp.cfg"
    cfg_file.write_text(GAMMA_COMPARE_CFG + "compare.ecf_grid = nan, 1.0\n")
    assert main(["compare", "--config", str(cfg_file), "--out", str(tmp_path), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "xi grid must be finite" in err
    assert not (tmp_path / "compare.csv").exists()


@pytest.mark.parametrize("functionals,message", [
    ("mode0, mode1", "k=0"), ("mode17", "k=17"), ("mode-1", "k=-1"), ("mode1, mode1", "distinct"),
])
def test_compare_rejects_bad_functionals_before_running(tmp_path, capsys, monkeypatch, functionals, message):
    # mode0 once wrote a row of mode 16 under its name, and mode1 twice wrote one row twice
    def no_paths(*args, **kw):
        raise AssertionError("paths drawn before the functionals were checked")

    monkeypatch.setattr(lh.noise, "simulate_levy_noise", no_paths)
    monkeypatch.setattr(lh.stats, "_stream_block", no_paths)
    cfg_file = tmp_path / "cmp.cfg"
    cfg_file.write_text(GAMMA_COMPARE_CFG + f"compare.functionals = {functionals}\n")
    assert main(["compare", "--config", str(cfg_file), "--out", str(tmp_path), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and message in err
    assert not (tmp_path / "compare.csv").exists()


def test_compare_threaded_stable_cell_matches_serial(tmp_path, monkeypatch):
    # 6000 atoms per path is above the fan-out gate, so a run on two cores
    # splits each Levy cell over two threads; a run on one core is serial
    from concurrent.futures import ThreadPoolExecutor
    from levyheat import stats
    pools = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            pools.append(self)

    monkeypatch.setattr(stats, "ThreadPoolExecutor", Spy)
    cfg_file = tmp_path / "stable.cfg"
    cfg_file.write_text("model.family = stable\nmodel.alpha = 1.5\nepsilon.grid = 1e-2, 1e-3\n"
                        "solver.modes = 64\nsolver.collocation = 256\nsolver.steps = 4096\n"
                        "noise.eta = atoms:6000\nnoise.normalization = retained\nbudget.rho = 1.0\n"
                        "paths = 9\ncompare.functionals = mode1, point\n")
    one, auto = tmp_path / "w1", tmp_path / "auto"
    monkeypatch.setattr(stats, "_available_cores", lambda: 1)
    assert main(["compare", "--config", str(cfg_file), "--out", str(one), "--seed", "3"]) == 0
    assert pools == []
    monkeypatch.setattr(stats, "_available_cores", lambda: 2)
    assert main(["compare", "--config", str(cfg_file), "--out", str(auto), "--seed", "3"]) == 0
    assert len(pools) == 2  # one per Levy cell
    assert (one / "compare.csv").read_bytes() == (auto / "compare.csv").read_bytes()


def test_thread_count_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    # threads follow the CPU affinity mask (taskset -c 0 runs serially)
    cfg_file = tmp_path / "cmp.cfg"
    cfg_file.write_text(GAMMA_COMPARE_CFG)
    with pytest.raises(SystemExit) as flag:
        main(["compare", "--config", str(cfg_file), "--out", str(tmp_path), "--workers", "2"])
    assert flag.value.code == 2
    assert "--workers" in capsys.readouterr().err
    cfg_file.write_text(GAMMA_COMPARE_CFG + "workers = 2\n")
    assert main(["compare", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "unknown key 'workers'" in capsys.readouterr().err
    assert not (tmp_path / "compare.csv").exists()


def test_identities_pass(tmp_path):
    cfg_file = tmp_path / "id.cfg"
    cfg_file.write_text("identities.steps = 1024\nidentities.modes = 32\n")
    assert main(["identities", "--config", str(cfg_file), "--out", str(tmp_path), "--seed", "12345"]) == 0
    text = (tmp_path / "identities.txt").read_text()
    assert "FAIL" not in text and text.count("PASS") >= 6
