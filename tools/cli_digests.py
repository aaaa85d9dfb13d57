"""Check the sha256 of every file that the five shipped CLI commands write.

    python3 tools/cli_digests.py

Runs from the root of a source checkout (the package is imported from its
`src/`). Each command runs at its config's own seed, in a fresh temporary
directory, one at a time:

    ar-scan    configs/remark_scan.cfg
    identities configs/remark_scan.cfg
    simulate   configs/gamma_dichotomy.cfg
    compare    configs/gamma_dichotomy.cfg
    compare    configs/stable_dichotomy.cfg   (about a minute on 2 cores)

Each output line is `<command> <config> <file> <sha256>`. The lines are then
compared with `tools/cli_digests.txt`, the digests committed beside this
script: every difference is reported on standard error and the script exits
with 1, so "the bytes are unchanged" is an exit status of 0. A change that
alters a digest on purpose rewrites the file with

    python3 tools/cli_digests.py > tools/cli_digests.txt

and says so. A command that exits nonzero stops the script with its exit
code.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = Path(__file__).with_suffix(".txt")
RUNS = (
    ("ar-scan", "remark_scan.cfg"),
    ("identities", "remark_scan.cfg"),
    ("simulate", "gamma_dichotomy.cfg"),
    ("compare", "gamma_dichotomy.cfg"),
    ("compare", "stable_dichotomy.cfg"),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lines = []
    for command, config in RUNS:
        with tempfile.TemporaryDirectory() as out:
            cmd = [sys.executable, "-m", "levyheat.cli", command,
                   "--config", str(ROOT / "configs" / config), "--out", out]
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            for path in sorted(Path(out).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{command} {config} {path.name} {digest}")
                print(lines[-1], flush=True)
    committed = COMMITTED.read_text().splitlines() if COMMITTED.exists() else []
    if lines == committed:
        return 0
    for line in sorted(set(committed) - set(lines)):
        sys.stderr.write(f"committed, not produced: {line}\n")
    for line in sorted(set(lines) - set(committed)):
        sys.stderr.write(f"produced, not committed: {line}\n")
    if set(lines) == set(committed):
        sys.stderr.write(f"the digests of {COMMITTED.name} are listed in another order\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
