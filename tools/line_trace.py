"""List the statement lines of the package that no test executes.

    python3 tools/line_trace.py [pytest arguments]

Runs from the root of a source checkout (the package is imported from its
`src/`). It runs pytest in this process with the given arguments (default:
the whole suite, quietly) under a `sys.settrace` tracer, which
`threading.settrace` also installs in every thread started afterwards, and
which records line events only in the files of `src/levyheat`. It then
prints, per module, the statements that never ran, as line ranges. A simple
statement counts as run when any of its lines ran, a compound statement
(`if`, `for`, `with`, ...) when a line of its header ran. Docstrings and
`def`, `class` and `import` statements are left out: they run at import,
or not at all. The script exits with pytest's exit code.

The stdlib tracer slows the suite down several times (about 160 s for the
whole suite on 2 cores); it stands in for `coverage`, which the package does
not depend on.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "levyheat"
# statements that run at import or have no code of their own (a try runs its body)
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try, ast.Global, ast.Nonlocal)


def _statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each counted statement; the header lines of a compound one."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        for name in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, name, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if not isinstance(stmt, ast.stmt) or isinstance(stmt, SKIPPED):
                    continue
                if (i == 0 and name == "body" and isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)):
                    continue  # a docstring
                inner = [s for attr in ("body", "orelse", "finalbody", "handlers")
                         for s in getattr(stmt, attr, None) or [] if hasattr(s, "lineno")]
                last = min(s.lineno for s in inner) - 1 if inner else stmt.end_lineno
                spans.append((stmt.lineno, max(last, stmt.lineno)))
    return sorted(set(spans))


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    hit: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        keep = ours.get(name)
        if keep is None:
            keep = ours[name] = os.path.realpath(name).startswith(prefix)
        return local if keep else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for name, line in hit:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        missed = [first for first, last in _statements(path.read_text())
                  if not lines.intersection(range(first, last + 1))]
        total += len(missed)
        print(f"{path.name}: {len(missed)} statements not run" + (f": {_ranges(missed)}" if missed else ""))
    print(f"total: {total} statements not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
