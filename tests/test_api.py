"""The public surface: `__all__` lists only real names, and the package re-exports only them."""

import ast
import importlib
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
