"""Print the sha256 of every file that the five shipped CLI commands write.

    python3 tools/cli_digests.py

Runs from the root of a source checkout (the package is imported from its
`src/`). Each command runs at its config's own seed, in a fresh temporary
directory, one at a time:

    ar-scan    configs/remark_scan.cfg
    identities configs/remark_scan.cfg
    simulate   configs/gamma_dichotomy.cfg
    compare    configs/gamma_dichotomy.cfg
    compare    configs/stable_dichotomy.cfg   (about a minute on 2 cores)

Each output line is `<command> <config> <file> <sha256>`, so the output of two
checkouts can be compared with `diff`. A command that exits nonzero stops the
script with its exit code.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = (
    ("ar-scan", "remark_scan.cfg"),
    ("identities", "remark_scan.cfg"),
    ("simulate", "gamma_dichotomy.cfg"),
    ("compare", "gamma_dichotomy.cfg"),
    ("compare", "stable_dichotomy.cfg"),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
                print(f"{command} {config} {path.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
