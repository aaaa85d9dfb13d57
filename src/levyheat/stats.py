"""Distributional comparison and martingale-problem diagnostics.

The weak-convergence dichotomy is probed through finite-dimensional
functionals of the solution (terminal pairings and point values):
per (model, eps) a Levy sample is compared against a Gaussian-driven
reference via the two-sample Kolmogorov-Smirnov statistic and an empirical
characteristic-function distance, reported next to the measure-level AR
statistic.

The martingale diagnostics rebuild, per path,

    M_t = e^{i xi <u_t, phi>} - int_0^t e^{i xi <u_s, phi>}
          (i xi <u_s, phi''> + Psi) ds,

where Psi is the jump compensator integral of the simulated measure, and
test E[(M_t - M_s) g] = 0 against bounded conditioning statistics g.
Each call builds one characteristic exponent psi(a) = int (e^{iaz} - 1 - iaz)
Q(dz) for all its probes, as Chebyshev series in a^2 of Re psi / a^2 and
Im psi / a^3, which match the direct z-quadrature to rounding for measures of
bounded support and to ~2e-7 of max |psi| for the remark family, whose tail
runs to |z| = 1e8; each probe's Psi is a 384-node x-quadrature over it.
All probe test functions live in the solver's K-mode space (phi is used
through its truncated sine coefficients), which makes M a martingale of the
simulated system exactly, up to time quadrature.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import ConfigMismatchError, EmptySampleError, MissingAtomLogError
from .measures import LevyModel, ar_statistic
from .quadrature import legendre_nodes
from .sobolev import SmoothBump
from .solver import (
    FieldPath,
    LevyNoiseSpec,
    SimConfig,
    fit_coefficients,
    grid_index,
    jump_log,
    phi_values,
)
from . import noise as noise_mod
from . import solver as solver_mod
# `stream` is not called here; it stays an attribute because benchmarks/tracing.py wraps stats.stream
from .streams import _stream_block, stream  # noqa: F401

__all__ = [
    "ks_two_sample",
    "ecf_distance",
    "MartingaleProbe",
    "MartingaleResidualRow",
    "martingale_residual",
    "characteristics_sample",
    "TerminalFunctional",
    "mode_functional",
    "point_functional",
    "bump_functional",
    "DichotomyRow",
    "ComparisonReport",
    "dichotomy_experiment",
    "collect_terminal_samples",
]

_DEFAULT_ECF_GRID = tuple(np.linspace(0.25, 5.0, 20))
# conditioning statistics g(F_s) = 1, cos F_s, sin F_s of the martingale test, F_s = <u_s, phi>
_CONDITIONERS = ("one", "cos", "sin")
# Chebyshev nodes of the psi table: doubled from the first count up to the cap
# until the trailing coefficients fall below _PSI_TOL of the series' scale
_PSI_MIN_NODES, _PSI_MAX_NODES = 16, 128
_PSI_TOL = 1e-14
# expected atoms per path (pi T lambda) from which a Levy cell runs its path
# blocks on threads (_path_blocks). A long path is numpy work, which releases
# the GIL; a short one is mostly interpreter work, which threads serialize.
# Measured on 2 cores (stable and compound Poisson cells, K = 64, mode1 alone
# and with the point functional), 2 threads took 0.74-0.92x the serial time
# at 4000 atoms per path and 0.97-1.33x at 2000; 1.45-1.58x on 200-atom gamma paths
_FAN_OUT_MIN_ATOMS = 2**12


# ---------------------------------------------------------------------------
# two-sample statistics
# ---------------------------------------------------------------------------

def _values(sample, operation: str) -> np.ndarray:
    """The sample as a float array; empty or non-finite input raises naming `operation`."""
    vals = np.asarray(sample, dtype=float)
    if vals.size == 0:
        raise EmptySampleError("empty sample", operation=operation)
    if not np.isfinite(vals).all():
        raise EmptySampleError("sample values must be finite", operation=operation)
    return vals


def ks_two_sample(a, b) -> tuple[float, float]:
    """Classical two-sample KS statistic with the asymptotic Kolmogorov p-value."""
    from scipy.special import kolmogorov  # on first use: only the KS p-value needs it

    xa, xb = np.sort(_values(a, "ks_two_sample")), np.sort(_values(b, "ks_two_sample"))
    n, m = len(xa), len(xb)
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / n
    fb = np.searchsorted(xb, grid, side="right") / m
    d = float(np.max(np.abs(fa - fb)))
    en = math.sqrt(n * m / (n + m))
    p = float(min(1.0, max(0.0, kolmogorov(en * d))))
    return d, p


def _xi_grid(xi_grid) -> np.ndarray:
    """The ECF frequencies as a float array; ValueError naming the grid unless it is nonempty and finite.

    A NaN frequency would vanish from the distance, as max(best, nan) keeps best.
    """
    xi = np.asarray(xi_grid, dtype=float)
    if xi.size == 0:
        raise ValueError("xi grid must be nonempty")
    if not np.isfinite(xi).all():
        raise ValueError(f"xi grid must be finite, got {xi.tolist()!r}")
    return xi


def ecf_distance(a, b, xi_grid: Sequence[float] = _DEFAULT_ECF_GRID) -> float:
    """max_xi |ecf_a(xi) - ecf_b(xi)|; bounded by 2 for any input."""
    xa, xb = _values(a, "ecf_distance"), _values(b, "ecf_distance")
    xi = _xi_grid(xi_grid)
    best = 0.0
    for lo in range(0, len(xi), 64):
        chunk = xi[lo:lo + 64][:, None]
        ca = np.mean(np.exp(1j * chunk * xa[None, :]), axis=1)
        cb = np.mean(np.exp(1j * chunk * xb[None, :]), axis=1)
        best = max(best, float(np.max(np.abs(ca - cb))))
    return best


# ---------------------------------------------------------------------------
# martingale probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleProbe:
    """Frequency xi, test function phi (as a bump or sine coefficients), times s < t."""

    xi: float
    phi: SmoothBump | tuple[float, ...]
    s: float
    t: float

    def __post_init__(self):
        if not 0.0 <= self.s <= self.t:
            raise ValueError("need 0 <= s <= t")

    def coefficients(self, n_modes: int) -> np.ndarray:
        if isinstance(self.phi, SmoothBump):
            return self.phi.sine_coefficients(n_modes)
        return fit_coefficients(self.phi, n_modes)


@dataclass(frozen=True)
class MartingaleResidualRow:
    xi: float
    conditioner: str
    estimate: complex
    se_re: float
    se_im: float
    n_paths: int

    @property
    def z_score(self) -> float:
        zr = abs(self.estimate.real) / self.se_re if self.se_re > 0 else (
            0.0 if self.estimate.real == 0 else math.inf)
        zi = abs(self.estimate.imag) / self.se_im if self.se_im > 0 else (
            0.0 if self.estimate.imag == 0 else math.inf)
        return max(zr, zi)


def _stable_expm1i(theta: np.ndarray) -> np.ndarray:
    """e^{i theta} - 1 - i theta, cancellation-safe for small theta.

    Im = sin(theta) - theta is the odd Taylor series through theta^13 below
    |theta| = 0.1 (truncation ~1e-24 relative there) and the direct
    difference above, where the cancellation costs at most ~6e-14 relative.
    """
    re = -2.0 * np.sin(0.5 * theta) ** 2
    t2 = theta * theta
    series = 1.0 - t2 / 156.0                   # (sin x - x) / (-x^3 / 6) by Horner in x^2
    for d in (110.0, 72.0, 42.0, 20.0):         # (2n)(2n + 1) for n = 5, 4, 3, 2
        series = 1.0 - t2 / d * series
    im = np.where(np.abs(theta) < 0.1, -(theta * t2) / 6.0 * series, np.sin(theta) - theta)
    return re + 1j * im


def _psi_table(model: LevyModel, eps: float, eta: float, a_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """psi(a) = int (e^{iaz} - 1 - iaz) Q_eps|_{|z|>eta}(dz) for |a| <= a_max, as a vectorized callable.

    The z-rule is the atoms plus the nodes of each segment's panel rule
    (`_Segment.panels`, which the mark sampler's segment CDF also uses) at 8
    geometric panels per decade, at least 8; the first panel (0, 1e-12 hi] of
    a segment from the origin keeps its Gauss nodes. Re psi(a) / a^2 and
    Im psi(a) / a^3 are even in a and are interpolated as Chebyshev series in
    a^2 on [0, a_max^2], at 16, 32, ... first-kind nodes until the trailing
    coefficients fall below _PSI_TOL of the series' scale, or at
    _PSI_MAX_NODES; psi(-a) = conj psi(a).
    """
    if a_max == 0.0:
        return lambda a: np.zeros(np.shape(a), dtype=complex)
    atoms, weights = model.base.point_masses(eps)
    mask = np.abs(atoms) > eta
    z, w = [atoms[mask]], [weights[mask]]
    for seg in model.base.segments(eps, eta):
        _, zz, half, zw = seg.panels(max(8, int(np.ceil(np.log10(seg.hi / seg.geometric_lo) * 8))))
        zz = zz.ravel()
        z.append(seg.sign * zz)
        w.append((half[:, None] * zw[None, :]).ravel() * seg.density(zz))
    z, w = np.concatenate(z), np.concatenate(w)
    n = _PSI_MIN_NODES
    while True:
        angles = math.pi * (np.arange(n) + 0.5) / n
        a = a_max * np.cos(0.5 * angles)  # a^2 = a_max^2 (1 + s) / 2 at the nodes s = cos(angle)
        psi = _stable_expm1i(a[:, None] * z) @ w
        # c_k = (2 / n) sum_j f(s_j) T_k(s_j), halved at k = 0
        basis = np.cos(np.outer(np.arange(n), angles)) * (2.0 / n)
        basis[0] *= 0.5
        re, im = basis @ (psi.real / a**2), basis @ (psi.imag / a**3)
        # each term's bound on |psi(a)| / a^2, as |T_k| <= 1 and |a| <= a_max
        scale = np.maximum(np.abs(re), a_max * np.abs(im))
        if scale[-4:].max() <= _PSI_TOL * scale.max() or n >= _PSI_MAX_NODES:
            break
        n *= 2

    def table(amp: np.ndarray) -> np.ndarray:
        a2 = np.square(amp)
        s = 2.0 * a2 / a_max**2 - 1.0
        return a2 * (chebval(s, re) + 1j * amp * chebval(s, im))

    return table


def _compensator_psis(model: LevyModel, eps: float, eta: float,
                      amps_of_x: Sequence[Callable[[np.ndarray], np.ndarray]]) -> list[complex]:
    """int_0^pi psi(a(x)) dx for each amplitude profile a, over one shared psi table."""
    xg, xw = legendre_nodes(384)
    x = 0.5 * math.pi * (xg + 1.0)
    wx = 0.5 * math.pi * xw
    amps = [amp_of_x(x) for amp_of_x in amps_of_x]
    psi = _psi_table(model, eps, eta, max(float(np.max(np.abs(a))) for a in amps))
    return [complex(wx @ psi(a)) for a in amps]


def _probe_values(path: FieldPath, probes: Sequence[MartingaleProbe], psis: Sequence[complex],
                  coeffs: Sequence[np.ndarray], coeffs_dd: Sequence[np.ndarray]):
    """Per-path (M_t - M_s, <u_s, phi>) for each probe.

    The ds-integral uses trapezoidal quadrature on the stored grid; steps
    containing atoms are integrated piecewise at the exact jump times, from
    the left and right limits of <u, phi> and <u, phi''> at the atoms. The
    right limits are the projections of the path's own atom states
    (FieldPath.atom_states), less the compensator drift, and the left limits
    take back each atom's jump through the atom kernel, for all probes at
    once; as in the solver, a step's compensator drift is subtracted at its
    end.
    """
    real, sigma_used = jump_log(path, "martingale_residual")
    if path.atom_states is None:
        raise MissingAtomLogError("needs the atom states of an additive Levy path",
                                  operation="martingale_residual")
    cfg = path.config
    times = path.times
    dt = times[1] - times[0]
    proj = np.column_stack([v for c, cd in zip(coeffs, coeffs_dd) for v in (c, cd)])  # (K, 2P)
    grid = proj.T @ path.modes.T
    t = real.t
    if len(t):
        a = path.f_at_atoms * (real.z / sigma_used)
        steps = solver_mod.atom_steps(times, t)
        right = proj.T @ path.atom_states[:, 1:]
        drift_rate = real.m_restricted / sigma_used
        if drift_rate != 0.0:
            # inside step n the state carries the grid drift D(t_n) decayed to t,
            # D_k(t_n) e^{-k^2 (t - t_n)} = r_k (e^{-k^2 (t - t_n)} - e^{-k^2 t})
            r = solver_mod._drift_modes(drift_rate * cfg.f.constant_value, path.n_modes, cfg.collocation)
            decays = solver_mod._atom_kernel(proj.T * r, None, np.concatenate((t - times[steps], t)))
            right -= decays[:, :len(t)] - decays[:, len(t):]
        left = right - solver_mod._atom_kernel(proj.T, real.x, None) * a
        # trapezoid segments: step start (or previous atom of the step) -> atom,
        # and last atom of a step -> step end
        first = np.concatenate(([True], steps[1:] != steps[:-1]))
        last = np.concatenate((steps[1:] != steps[:-1], [True]))
        t_from = np.where(first, times[steps], np.concatenate(([0.0], t[:-1])))
        n_last = steps[last]
        span_in = 0.5 * (t - t_from)
        span_out = 0.5 * (times[n_last + 1] - t[last])
    out = []
    for p, (probe, psi) in enumerate(zip(probes, psis)):
        xi = probe.xi

        def v(values):
            return np.exp(1j * xi * values[2 * p]) * (1j * xi * values[2 * p + 1] + psi)

        vals = v(grid)
        piece = 0.5 * dt * (vals[:-1] + vals[1:])
        if len(t):
            v_right = v(right)
            v_from = np.where(first, vals[steps], np.concatenate(([0.0], v_right[:-1])))
            seg = span_in * (v_from + v(left))
            piece[n_last] = (np.add.reduceat(seg, np.flatnonzero(first))
                             + span_out * (v_right[last] + vals[n_last + 1]))
        cum = np.concatenate(([0.0 + 0.0j], np.cumsum(piece)))
        F = grid[2 * p]
        i_s = grid_index(path, probe.s, "martingale_residual")
        i_t = grid_index(path, probe.t, "martingale_residual")
        M_s = np.exp(1j * xi * F[i_s]) - cum[i_s]
        M_t = np.exp(1j * xi * F[i_t]) - cum[i_t]
        out.append((M_t - M_s, F[i_s]))
    return out


def martingale_residual(
    paths: Iterable[FieldPath],
    probes: MartingaleProbe | Sequence[MartingaleProbe],
) -> list[MartingaleResidualRow]:
    """Monte Carlo test of E[(M_t - M_s) g(path up to s)] = 0.

    `paths` may be a generator; all paths must share one configuration.
    Returns one row per (probe, conditioning statistic).
    """
    if isinstance(probes, MartingaleProbe):
        probes = [probes]
    probes = list(probes)
    acc: list[list[list[complex]]] = [[[] for _ in _CONDITIONERS] for _ in probes]
    cfg_ref = None
    n_paths = 0
    for path in paths:
        if cfg_ref is None:
            # Psi depends on the shared configuration and the probe only
            cfg_ref = path.config
            real, sigma_used = jump_log(path, "martingale_residual")
            if not cfg_ref.f.is_constant:
                raise ConfigMismatchError(
                    "martingale_residual currently supports constant multipliers; "
                    "use small path counts with the generic solver otherwise"
                )
            K = path.n_modes
            coeffs = [p.coefficients(K) for p in probes]
            k2 = np.arange(1, K + 1, dtype=float) ** 2
            coeffs_dd = [-(k2) * c for c in coeffs]
            cval = cfg_ref.f.constant_value
            psis = _compensator_psis(
                cfg_ref.noise.model, real.eps, real.eta,
                [lambda x, c=c, xi=p.xi: xi * cval * (c @ phi_values(np.arange(1, K + 1), x)) / sigma_used
                 for p, c in zip(probes, coeffs)])
        elif path.config != cfg_ref:
            raise ConfigMismatchError("all paths must share one configuration")
        per_probe = _probe_values(path, probes, psis, coeffs, coeffs_dd)
        for pi, (dM, F_s) in enumerate(per_probe):
            for gi, gval in enumerate((1.0, math.cos(F_s), math.sin(F_s))):
                acc[pi][gi].append(dM * gval)
        n_paths += 1
        # drop the path, and with it its atom states, before a generator builds the next one
        del path
    if n_paths == 0:
        raise EmptySampleError("no paths supplied", operation="martingale_residual")
    rows = []
    for pi, probe in enumerate(probes):
        for gi, g in enumerate(_CONDITIONERS):
            vals = np.asarray(acc[pi][gi])
            est = complex(np.mean(vals))
            se_re = float(np.std(vals.real, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
            se_im = float(np.std(vals.imag, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
            rows.append(MartingaleResidualRow(probe.xi, g, est, se_re, se_im, n_paths))
    return rows


# ---------------------------------------------------------------------------
# semimartingale characteristics from the atom log
# ---------------------------------------------------------------------------

def characteristics_sample(
    config: SimConfig,
    phi_coefficients,
    h: float,
    n_paths: int,
    base_seed: int,
    *,
    purpose: str = "atoms",
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal truncated quadratic sums and big-jump counts over many paths.

    Constant-f fast route: jump sizes of <u, phi> depend only on the atom log,
    so no field solve is needed; path i draws the atoms that `simulate_path`
    draws on the same stream. Before any path is drawn, a ValueError names
    the argument unless n_paths is an int >= 0, `phi_coefficients` has at
    most `config.modes` entries (fewer are zero-padded) and h > 0. The paths
    run in batches on threads as in `collect_terminal_samples` with its
    default `workers`, one `sine_series` pass per batch; the result does not
    depend on the thread count.
    """
    if not config.f.is_constant:
        raise ConfigMismatchError("fast characteristics sampling needs a constant multiplier")
    spec: LevyNoiseSpec = config.noise
    if spec.kind != "levy":
        raise ConfigMismatchError("characteristics need Levy noise")
    _check_path_count(n_paths)
    if len(phi_coefficients) > config.modes:
        raise ValueError(f"phi_coefficients has {len(phi_coefficients)} entries, more than {config.modes} modes")
    if not h > 0:
        raise ValueError(f"h must be positive, got {h!r}")
    c = fit_coefficients(phi_coefficients, config.modes)
    cval = config.f.constant_value
    quad, bigs = np.empty(n_paths), np.empty(n_paths, dtype=int)

    def fill(lo, hi, stop):
        for first, reals in _levy_batches(config, lo, hi, base_seed, purpose, stop):
            jumps = (cval * solver_mod.sine_series(c, _gather(reals, "x")) * _gather(reals, "z")
                     / reals[0].jump_scale(spec.normalization))
            small = np.abs(jumps) <= h
            ends = np.cumsum([0] + [len(r) for r in reals]).tolist()
            for i, a, b in zip(range(first, first + len(reals)), ends, ends[1:]):
                quad[i] = np.sum(np.where(small[a:b], jumps[a:b] ** 2, 0.0))
                bigs[i] = np.sum(~small[a:b])
            del jumps, small  # before the next path is drawn

    _path_blocks(fill, config, n_paths, None)
    return quad, bigs


# ---------------------------------------------------------------------------
# dichotomy experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalFunctional:
    """Functional <u_T, phi> given by sine coefficients of phi."""

    name: str
    coefficients: tuple[float, ...]


def mode_functional(k: int, n_modes: int, name: str | None = None) -> TerminalFunctional:
    """The functional <u_T, phi_k>; ValueError naming k unless 1 <= k <= n_modes."""
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n_modes):
        raise ValueError(f"mode functional needs an int k with 1 <= k <= n_modes = {n_modes}, got k={k!r}")
    c = np.zeros(n_modes)
    c[k - 1] = 1.0
    return TerminalFunctional(name or f"mode{k}", tuple(c))


def point_functional(x0: float, n_modes: int, name: str | None = None) -> TerminalFunctional:
    c = phi_values(np.arange(1, n_modes + 1), np.atleast_1d(float(x0)))[:, 0]
    return TerminalFunctional(name or f"point({x0:.3g})", tuple(c))


def bump_functional(bump: SmoothBump, n_modes: int, name: str = "bump") -> TerminalFunctional:
    return TerminalFunctional(name, tuple(bump.sine_coefficients(n_modes)))


@dataclass(frozen=True)
class DichotomyRow:
    model: str
    epsilon: float
    kappa_ref: float
    ar_stat: float
    functional: str
    ks: float
    ks_p: float
    ecf: float
    paths: int
    se: float


@dataclass
class ComparisonReport:
    rows: list[DichotomyRow]

    HEADER = "model,epsilon,kappa_ref,ar_stat,functional,ks,ks_p,ecf,paths,se"

    def write_csv(self, fh) -> None:
        fh.write(self.HEADER + "\n")
        for r in self.rows:
            fh.write(
                f"{r.model},{r.epsilon:.10g},{r.kappa_ref:.10g},{r.ar_stat:.12g},"
                f"{r.functional},{r.ks:.12g},{r.ks_p:.12g},{r.ecf:.12g},{r.paths},{r.se:.6g}\n"
            )

    def cell(self, model: str, epsilon: float, functional: str) -> DichotomyRow:
        for r in self.rows:
            if r.model == model and r.functional == functional and math.isclose(r.epsilon, epsilon):
                return r
        raise KeyError((model, epsilon, functional))


def collect_terminal_samples(
    config: SimConfig,
    functionals: Sequence[TerminalFunctional],
    n_paths: int,
    base_seed: int,
    *,
    purpose: str = "atoms",
    workers: int | None = None,
) -> dict[str, np.ndarray]:
    """Samples of <u_T, phi> for additive (constant-f) configurations.

    For constant f the terminal pairings are exact sums over the atom log
    (Levy) or exact Gaussian mode draws (white noise). Before any path is
    drawn, a ValueError names the argument unless `functionals` is nonempty,
    with distinct names and at most `config.modes` coefficients each (fewer
    are zero-padded), and n_paths is an int >= 0.

    `workers` (None, or an int >= 1) bounds the threads that run the paths:
    None takes every core available to the process, and the count is capped
    at the cores and the paths. Only a Levy cell with at least
    _FAN_OUT_MIN_ATOMS expected atoms per path is split over threads, one
    contiguous block of paths per thread, in one call that joins its threads
    before it returns; every other cell runs on the calling thread, whatever
    `workers` says. A block takes its Levy paths in batches of at most
    _ATOM_BLOCK atoms (`_levy_batches`), one kernel pass each. Path i draws
    what stream(base_seed, i, purpose) draws; a block derives the stream keys
    of all its paths in one pass (`streams._stream_block`), at a fixed cost
    per block. Per-path streams make the result independent of the split and
    of the batches: `workers=1` gives the same bits. Each thread holds its
    own batch in flight, so peak memory grows with the thread count (a
    `tracemalloc` peak of about 2.3 MB per thread at 40000 atoms per path
    and 64 modes).
    """
    if not config.f.is_constant:
        raise ConfigMismatchError("fast terminal sampling needs a constant multiplier")
    _check_path_count(n_paths)
    if len(functionals) == 0:
        raise ValueError("functionals must be nonempty")
    names = [f.name for f in functionals]
    if len(set(names)) < len(names):
        raise ValueError(f"functional names must be distinct, got {names!r}")
    for f in functionals:
        if len(f.coefficients) > config.modes:
            raise ValueError(f"functional {f.name!r} has {len(f.coefficients)} coefficients, "
                             f"more than config.modes = {config.modes}")
    out = {f.name: np.empty(n_paths) for f in functionals}
    _path_blocks(partial(_terminal_block, config, functionals, base_seed, purpose, out), config, n_paths, workers)
    return out


def _check_path_count(n_paths: int) -> None:
    """ValueError naming n_paths unless it is an int >= 0."""
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)) or n_paths < 0:
        raise ValueError(f"n_paths must be an int >= 0, got {n_paths!r}")


def _path_blocks(fill: Callable[[int, int, threading.Event], None], config: SimConfig,
                 n_paths: int, workers: int | None) -> None:
    """fill(lo, hi, stop) over contiguous ranges of the paths 0..n_paths-1, into the caller's outputs.

    A Levy cell of at least _FAN_OUT_MIN_ATOMS expected atoms per path takes
    one range per thread (`_thread_count`); any other cell, or one thread,
    takes the single range (0, n_paths). The pool threads are started and
    joined inside the call, and an error raised in a range reaches the caller.
    `stop` is set once any range raises (an interrupt of the calling thread
    too); a range checks it before each path and returns early, so a failure
    waits for one path per thread, not for the other ranges.
    """
    threads = _thread_count(workers, n_paths)
    stop = threading.Event()
    if threads == 1 or config.noise.kind != "levy" or _expected_atoms(config) < _FAN_OUT_MIN_ATOMS:
        fill(0, n_paths, stop)
        return
    cuts = [n_paths * j // threads for j in range(threads + 1)]

    def run(lo, hi):
        try:
            fill(lo, hi, stop)
        except BaseException:
            stop.set()
            raise

    # the calling thread runs the first range: one thread fewer to start, and
    # a lower peak RSS than with every range on a pool thread (measured)
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in zip(cuts[1:], cuts[2:])]
        run(cuts[0], cuts[1])
        for f in futures:
            f.result()


def _expected_atoms(config: SimConfig) -> float:
    """Expected atom count pi T lambda of one path of a Levy configuration."""
    spec: LevyNoiseSpec = config.noise
    return noise_mod._cell(spec.model, spec.eps, spec.resolve_eta(config.T))[1] * config.T * math.pi


def _thread_count(workers: int | None, n_paths: int) -> int:
    """Threads for n_paths paths: `workers`, or every available core for None,
    capped at the available cores and at n_paths, and at least one."""
    if workers is not None and (isinstance(workers, bool) or not isinstance(workers, int) or workers < 1):
        raise ValueError(f"workers must be None or an int >= 1, got {workers!r}")
    cores = _available_cores()
    return max(1, min(cores, workers or cores, n_paths))


def _available_cores() -> int:
    """CPU cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _terminal_block(config: SimConfig, functionals: Sequence[TerminalFunctional], base_seed: int,
                    purpose: str, out: dict[str, np.ndarray], lo: int, hi: int, stop: threading.Event) -> None:
    """Terminal samples of paths lo..hi-1 into out[name][lo:hi]; a set `stop` ends it before its next path."""
    cval = config.f.constant_value
    K, T = config.modes, config.T
    coeffs = np.array([fit_coefficients(f.coefficients, K) for f in functionals])
    decay_T = np.exp(-np.arange(1, K + 1, dtype=float) ** 2 * T)
    if config.noise.kind == "gaussian":
        sd = solver_mod._gaussian_sd(cval, K, T)
        mean_modes = np.zeros(K)
        if config.initial is not None:
            mean_modes = np.asarray(config.initial) * decay_T
        for i, rng in enumerate(_stream_block(base_seed, lo, hi, purpose), lo):
            modes_T = mean_modes + sd * rng.standard_normal(K)
            for f, c in zip(functionals, coeffs):
                out[f.name][i] = float(modes_T @ c)
        return
    init_terms = [0.0] * len(coeffs)
    if config.initial is not None:
        decayed = np.asarray(config.initial) * decay_T
        init_terms = [float(decayed @ c) for c in coeffs]
    # each functional of the drift at T, per unit compensator rate
    drifts = coeffs @ (solver_mod._drift_modes(cval, K, config.collocation) * (1.0 - decay_T))
    for first, reals in _levy_batches(config, lo, hi, base_seed, purpose, stop):
        # one kernel pass over the batch's atoms, summed per path; every path
        # of the cell has the same jump scale and compensator rate
        sums = _terminal_sums(reals, coeffs, T)
        sigma_used = reals[0].jump_scale(config.noise.normalization)
        rate = reals[0].m_restricted / sigma_used
        for f, s, dr, it in zip(functionals, sums, drifts, init_terms):
            value = out[f.name][first:first + len(reals)]
            np.multiply(s, cval, out=value)
            value /= sigma_used
            value += it
            value -= rate * dr


def _levy_batches(config: SimConfig, lo: int, hi: int, base_seed: int, purpose: str, stop: threading.Event):
    """Yield (first path, realizations) for the paths lo..hi-1 of a Levy cell, in path order.

    Path i draws what stream(base_seed, i, purpose) draws, at the inner
    cutoff, resolved once. Its generator comes from one `_stream_block` over
    lo..hi-1, which derives the keys of all the block's paths in one pass, at
    a fixed cost per block instead of a `SeedSequence` per path. Consecutive
    paths share a batch of at most _ATOM_BLOCK atoms; a path is never split,
    and a larger path comes alone. A set `stop` ends the batches before the
    next path. The yielded list is emptied when the generator resumes; only
    the batch's last path lives on into the next draw.
    """
    spec: LevyNoiseSpec = config.noise
    eta = spec.resolve_eta(config.T)
    batch, n_atoms = [], 0
    for i, rng in enumerate(_stream_block(base_seed, lo, hi, purpose), lo):
        if stop.is_set():
            return
        real = noise_mod.simulate_levy_noise(spec.model, spec.eps, eta, config.T, rng,
                                             rho_budget=spec.rho_budget, atom_cap=spec.atom_cap)
        if batch and n_atoms + len(real) > solver_mod._ATOM_BLOCK:
            yield i - len(batch), batch
            batch.clear()
            n_atoms = 0
        batch.append(real)
        n_atoms += len(real)
        if n_atoms >= solver_mod._ATOM_BLOCK:
            yield i + 1 - len(batch), batch
            batch.clear()
            n_atoms = 0
    if batch:
        yield hi - len(batch), batch


def _gather(reals, name: str) -> np.ndarray:
    """The realizations' arrays `name` ("t", "x" or "z") end to end; one realization's own array."""
    return getattr(reals[0], name) if len(reals) == 1 else np.concatenate([getattr(r, name) for r in reals])


def _terminal_sums(reals, coeffs: np.ndarray, T: float) -> np.ndarray:
    """sum_j w_p(t_j, x_j) z_j per realization, w_p(t, x) = sum_k c_pk e^{-k^2 (T - t)} phi_k(x)."""
    counts = np.array([len(r) for r in reals])
    sums = np.zeros((len(coeffs), len(reals)))
    if not counts.any():
        return sums
    w = solver_mod._atom_kernel(coeffs, _gather(reals, "x"), T - _gather(reals, "t"))
    w *= _gather(reals, "z")
    filled = counts > 0
    sums[:, filled] = np.add.reduceat(w, (np.cumsum(counts) - counts)[filled], axis=1)
    return sums


def dichotomy_experiment(
    models: Sequence[LevyModel],
    eps_grid: Sequence[float],
    functionals: Sequence[TerminalFunctional],
    config: SimConfig,
    path_count: int,
    seed: int,
    *,
    kappa_ref: float = 1.0,
    ecf_grid: Sequence[float] = _DEFAULT_ECF_GRID,
    workers: int | None = None,
) -> ComparisonReport:
    """Per-(model, eps) distributional comparison against one Gaussian reference.

    `config` provides the solver resolution, multiplier and noise budgets;
    its noise model/eps are replaced per cell. `workers` is passed to
    `collect_terminal_samples`; the report does not depend on it.
    """
    base_spec: LevyNoiseSpec = config.noise
    if base_spec.kind != "levy":
        raise ConfigMismatchError("dichotomy config must carry a Levy noise spec as template")
    _xi_grid(ecf_grid)  # a bad grid fails before any path is drawn
    gauss_cfg = replace(config, noise=solver_mod.GaussianNoiseSpec())
    ref = collect_terminal_samples(gauss_cfg, functionals, path_count, seed,
                                   purpose="gauss_ref", workers=workers)
    rows = []
    for model in models:
        for eps in eps_grid:
            spec = replace(base_spec, model=model, eps=eps)
            cell_cfg = replace(config, noise=spec)
            ar_val = ar_statistic(model, eps, kappa_ref)
            samples = collect_terminal_samples(cell_cfg, functionals, path_count, seed,
                                               purpose=f"levy:{model.name}:{eps:.6g}", workers=workers)
            for f in functionals:
                d, p = ks_two_sample(samples[f.name], ref[f.name])
                e = ecf_distance(samples[f.name], ref[f.name], ecf_grid)
                n, m = len(samples[f.name]), len(ref[f.name])
                se = 0.26 * math.sqrt((n + m) / (n * m))  # null-scale sd of the KS statistic
                rows.append(DichotomyRow(model.name, eps, kappa_ref, ar_val, f.name, d, p, e, n, se))
    return ComparisonReport(rows)

