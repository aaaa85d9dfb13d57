"""Spans and counts around levyheat's public calls, recorded from outside the package.

`Probe` is always on: it counts the atoms each `simulate_levy_noise` call
returns and keeps what each `collect_terminal_samples` call returns, so that
`atoms_per_s` and the output checks need no tracing. `Tracer` adds spans
(name, start, end, parent) at the layer boundaries while it is installed.
Both replace module attributes that levyheat looks up at call time and put
the originals back on exit; no file under src/ changes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from levyheat import measures, noise, solver, stats, streams


class _Patches:
    """Module attributes replaced by wrappers; `close` restores them."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Probe(_Patches):
    """Atom counts per eps and captured terminal samples, for every run."""

    def __init__(self):
        super().__init__()
        self.atoms = defaultdict(list)      # (model name, eps) -> atoms per realization
        self.samples = []                   # (config, base_seed, purpose, {name: values})

        def count_atoms(original):
            def wrapper(model, eps, eta, T, rng, **kw):
                real = original(model, eps, eta, T, rng, **kw)
                self.atoms[(model.name, eps)].append(len(real))
                return real
            return wrapper

        def keep_samples(original):
            def wrapper(config, functionals, n_paths, base_seed, **kw):
                out = original(config, functionals, n_paths, base_seed, **kw)
                self.samples.append((config, base_seed, kw.get("purpose", "atoms"), out))
                return out
            return wrapper

        self.wrap(noise, "simulate_levy_noise", count_atoms)
        self.wrap(stats, "collect_terminal_samples", keep_samples)

    def total_atoms(self) -> int:
        return sum(sum(v) for v in self.atoms.values())

    def reset(self):
        self.atoms.clear()
        self.samples.clear()


def _path_span(config) -> str:
    if config.noise.kind == "gaussian":
        return "solver.path.gaussian"
    return "solver.path.additive" if config.f.is_constant else "solver.path.general"


class Tracer(_Patches):
    """Spans at the layer boundaries plus the counts recorded at them.

    `install` wraps the calls and `close` unwraps them, so untraced rounds
    run the package's own functions. Spans accumulate across installs.
    """

    def __init__(self):
        super().__init__()
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.tensor_mb = 0.0     # largest factorization tensor, computed from its shape
        self._stack = []

    def install(self):
        def span(name_of, count=None):
            def make(original):
                def wrapper(*args, **kw):
                    name = name_of(*args, **kw) if callable(name_of) else name_of
                    idx = len(self.spans)
                    self.spans.append([name, time.perf_counter(), None,
                                       self._stack[-1] if self._stack else -1])
                    self._stack.append(idx)
                    try:
                        out = original(*args, **kw)
                    finally:
                        self._stack.pop()
                        self.spans[idx][2] = time.perf_counter()
                    self.counts[name + ".calls"] += 1
                    if count is not None:
                        count(out, *args, **kw)
                    return out
                return wrapper
            return make

        def noise_counts(real, *a, **kw):
            self.counts["noise.atoms"] += len(real)

        def mark_counts(out, model, eps, eta, count, rng):
            self.counts["measures.sample_marks.marks"] += count

        def path_counts(path, config, *a, **kw):
            self.counts["solver.path.grid_bytes"] += path.modes.nbytes + path.times.nbytes

        def tensor_counts(out, path, delta, t, x, *, time_nodes=256):
            atoms = int((path.atom_log.t < t).sum())
            self.tensor_mb = max(self.tensor_mb, (time_nodes + 1) * path.n_modes * atoms * 8 / 1e6)

        def terminal_name(config, *a, **kw):
            return "stats.gauss_reference" if config.noise.kind == "gaussian" else "stats.terminal"

        self.wrap(streams, "stream", span("streams.stream"))
        self.wrap(stats, "stream", span("streams.stream"))
        self.wrap(measures, "_MarkSampler", span("measures.sampler_build"))
        self.wrap(measures, "sample_marks", span("measures.sample_marks", mark_counts))
        self.wrap(noise, "eta_for_atom_budget", span("noise.eta_select"))
        self.wrap(noise, "auto_inner_cutoff", span("noise.eta_select"))
        self.wrap(noise, "simulate_levy_noise", span("noise.simulate_levy_noise", noise_counts))
        self.wrap(solver, "simulate_path", span(lambda cfg, *a, **kw: _path_span(cfg), path_counts))
        self.wrap(solver, "factorization_check", span("solver.factorization_check", tensor_counts))
        self.wrap(solver, "mode_decomposition_check", span("solver.mode_decomposition_check"))
        self.wrap(stats, "collect_terminal_samples", span(terminal_name))
        self.wrap(stats, "martingale_residual", span("stats.martingale_residual"))
        self.wrap(stats, "ks_two_sample", span("stats.ks"))
        self.wrap(stats, "ecf_distance", span("stats.ecf"))

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to the next phase."""
        return len(self.spans)

    def times(self, lo: int, hi: int) -> tuple[dict, dict]:
        """Total and self seconds per span name over spans[lo:hi]."""
        total, child = defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans[lo:hi]:
            total[name] += end - start
            if parent >= lo:
                child[self.spans[parent][0]] += end - start
        return total, {n: total[n] - child[n] for n in total}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
