"""Run every benchmark workload at fixed seeds and write one snapshot file.

    python3 tools/bench_snapshot.py BENCH_<n>.json

Runs from the root of a source checkout. For each workload named in
`BENCHMARK.json` it runs `benchmarks/run.py` untraced at seeds 1, 2 and 3 and
traced (`--trace 1`) at seed 1, each for the benchmark's `run_seconds`, one
run at a time, and keeps the result object each run prints last. A failing
run stops the script before anything is written.

The snapshot is one JSON object:

    {
      "command": ["python3", "benchmarks/run.py"],
      "seconds": 20,
      "seeds": [1, 2, 3],
      "trace_seed": 1,
      "environment": {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6",
                      "scipy": "1.17.1", "platform": "Linux-..."},
      "workloads": {
        "<workload>": {
          "end_to_end": {"<metric>": {"median": 3.5e6, "unit": "atoms/s",
                                      "runs": [v1, v2, v3], "spread": 1.04}, ...},
          "per_layer": {"<metric>": {"value": 0.29, "unit": "s"}, ...},
          "runs": [{"seed": 1, "trace": 0, "correct": true, "attempted": 22,
                    "failed": 0}, ...]
        }, ...
      }
    }

`end_to_end` holds the medians and the single values of the untraced runs,
`per_layer` the rows of the traced run, in the units `benchmarks/run.py`
reports them in. `spread` is max/min of a metric's untraced runs (null when
the smallest is not positive). Above SPREAD_WARN (1.25) the script prints a
warning to stderr and still writes the snapshot: runs that far apart at
different seeds usually mean the host was loaded while they ran, so the
median may not be the program's level; run the snapshot again.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
TRACE_SEED = 1
SPREAD_WARN = 1.25


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The result object of one `benchmarks/run.py` run."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    print("$", " ".join(cmd[1:]), flush=True)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def status(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed")}


def snapshot(spec: dict) -> dict:
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = [run(spec, name, s, 0) for s in SEEDS]
        traced = run(spec, name, TRACE_SEED, 1)
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in untraced]
            spread = max(values) / min(values) if min(values) > 0 else None
            if spread is None or spread > SPREAD_WARN:
                print(f"warning: {name} {m['name']} runs {values} spread {spread} (max/min) "
                      f"above {SPREAD_WARN}", file=sys.stderr, flush=True)
            end_to_end[m["name"]] = {"median": statistics.median(values), "unit": m["unit"], "runs": values,
                                     "spread": spread}
        runs = [{"seed": s, "trace": 0, **status(r)} for s, r in zip(SEEDS, untraced)]
        runs.append({"seed": TRACE_SEED, "trace": 1, **status(traced)})
        workloads[name] = {"end_to_end": end_to_end, "per_layer": traced["metrics"], "runs": runs}
    return {
        "command": spec["command"],
        "seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "environment": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "platform": platform.platform()},
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/bench_snapshot.py BENCH_<n>.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = snapshot(spec)
    out = Path(argv[0])
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
