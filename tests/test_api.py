"""The public surface: `__all__` lists only real names, and the package re-exports only them."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import levyheat

INIT = Path(levyheat.__file__)


def _package_imports():
    """(module, name) for every `from .module import name` in levyheat/__init__.py."""
    tree = ast.parse(INIT.read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


def test_every_all_entry_resolves():
    for path in sorted(INIT.parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"levyheat.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"levyheat.{path.stem}.__all__ names undefined {missing}"


def test_package_imports_only_exported_names():
    imports = list(_package_imports())
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"levyheat.{module_name}")
        assert name in getattr(module, "__all__", ()), f"levyheat.{module_name}.__all__ lacks {name}"


_FOOTPRINT = """
import json, sys
import numpy as np
import levyheat as lh
from levyheat.streams import stream

def lazy():
    return [m for m in ("scipy.integrate", "scipy.interpolate") if m in sys.modules]

after = {"import": lazy(), "scipy at import": [m for m in sys.modules if m.split(".")[0] == "scipy"]}
stable = lh.SimConfig(noise=lh.LevyNoiseSpec(lh.LevyModel(lh.SymmetricStable(1.5)), 0.1, eta="atoms:300",
                                                  rho_budget=1.0),
                      modes=16, collocation=64, steps=64)
samples = lh.collect_terminal_samples(
    stable, [lh.mode_functional(1, 16), lh.bump_functional(lh.SmoothBump(), 16)], 8, 1)
gauss = lh.SimConfig(noise=lh.GaussianNoiseSpec(), f=lh.affine_f(0.25, 1.0), modes=16, collocation=64, steps=64)
path = lh.simulate_path(gauss, stream(1, 0, "gauss"))
lh.ks_two_sample(samples["mode1"], path.modes[1:, 0])
after["runs"] = lazy()
gamma = lh.LevyModel(lh.GammaSubordinator())
lh.sample_marks(gamma, 0.1, 1e-3, 5, stream(1, 0, "marks"))
after["gamma"] = lazy()
remark = lh.LevyModel(lh.RemarkDensityFamily())
lh.sample_marks(remark, 0.1, 1e-3, 5, stream(1, 0, "marks"))
after["remark"] = lazy()
custom = lh.LevyModel(lh.CustomDensity(lambda z: np.exp(-z), (0.1, 1.0)))
lh.sample_marks(custom, 1.0, 0.1, 5, stream(1, 0, "marks"))
after["custom"] = lazy()
print(json.dumps(after))
"""


def test_stable_and_gaussian_runs_leave_scipy_integrate_and_interpolate_unloaded():
    # a run loads scipy.integrate (adaptive quadrature) and scipy.interpolate
    # (tabulated inverse CDFs) only when it calls them. The built-in families
    # draw their marks exactly and build no table; a custom density does
    src = str(INIT.resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded["import"] == [] and loaded["runs"] == []
    assert loaded["scipy at import"] == []  # scipy.special too loads on first use
    assert "scipy.interpolate" not in loaded["gamma"] and "scipy.interpolate" not in loaded["remark"]
    assert "scipy.interpolate" in loaded["custom"]


def test_readme_library_tour_runs():
    # every name the README's library tour shows must stay importable and callable
    root = INIT.resolve().parents[2]
    readme = (root / "README.md").read_text()
    [tour] = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", tour], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
