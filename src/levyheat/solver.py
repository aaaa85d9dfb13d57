"""Sine-spectral exponential integrator for the stochastic heat equation.

State is the vector of sine-mode coefficients  u_k(t) = <u(t, .), phi_k>,
phi_k(x) = sqrt(2/pi) sin(kx).  The heat semigroup acts diagonally
(u_k -> e^{-k^2 dt} u_k) and is therefore exact; the driving noise enters as

* Gaussian branch: per step the modes decay and receive the collocation
  projection of f(u) times the white-noise cell increments (variance dt*dx).
  The increments are drawn _NOISE_CHUNK steps at a time, one (chunk, M)
  draw, which is the same stream as one draw of M per step. The next chunk
  is drawn, into the other of two chunk buffers, on a helper thread created
  and joined inside the call, while the current one is stepped: the same
  stream and the same draws, and the steps reuse their buffers instead of
  allocating. For constant f
  the stochastic convolution is sampled exactly instead (same law, no
  time-discretization bias): one (N, K) draw, the same stream as one draw
  of K per step, is scaled by the exact convolution sd and scanned.
* Levy branch: the noise realization comes in draw order and is sorted by
  time here, once per path; atoms are applied at their exact times through
  exact exponential gaps; each atom (t_j, x_j, z_j) adds
  f(u(t_j-, x_j)) * (z_j / sigma) * phi_k(x_j) to every mode, with u(t_j-, .)
  evaluated by the truncated sine series. Asymmetric measures subtract the
  restricted-mean compensator once per step using the step-start field.
  For non-constant f only the active steps are stepped: those that hold an
  atom, or every step when the compensator drift is nonzero. Every other grid
  row is the last computed state decayed to its time. One fill does this for
  both Levy branches (_decay_fill): row by row, grid row a + n of a run that
  starts at row a is the run's state vector times one row of decay powers
  e^{-k^2 t_n} (_decay_powers, formed per call only up to the longest run and
  0 below the smallest normal double). The additive path's vectors are the
  states of the last atom before each run, decayed to its first instant;
  its compensator drift, which settles as d_k (1 - e^{-k^2 t}), enters as a
  shift: u + d decays purely between atoms, so the vectors carry d e^{-k^2 t}
  and the fill subtracts d.

For constant f the field is linear in the atoms,
u_k(t) = sum_{t_j <= t} a_j phi_k(x_j) e^{-k^2 (t - t_j)} minus the drift, and
one atom kernel (_mode_rows, _atom_kernel, _atom_states) evaluates it for the
additive path, the terminal pairings and, with the recorded f(u(t_j-, x_j))
per atom, the jump part of the factorization check (whose singular weights
W_j are summed a block of sub-grid nodes at a time, _factorization_weights).
The martingale replay calls no kernel: it projects the additive path's kept
atom states, decayed by _decay_powers to each atom's left limit.
The kernel's sin(kx) rows start from sin x and 2 cos x, both formed from one
tangent tan(x/2) per atom (_half_angle): numpy's float64 tan runs as a SIMD
kernel, its sin and cos as scalar libm calls.
Evaluated at one time, atom j of age tau_j runs only the modes up to
ceil(sqrt(53 ln 2 / tau_j)): every later mode is damped by e^{-k^2 tau_j} < 2^-53
(_atom_kernel states the bound on what this drops).
Every exact scan y <- e^{-k^2 dt} y + b is _atom_states: the additive path
(which keeps its states for the martingale replay to project), the exact
Gaussian path (grid steps as atoms, one amplitude per mode) and the
mode-decomposition convolution (one mode).

Identity checks (semimartingale mode decomposition, factorization-method
reconstruction) rebuild the field, initial data included, from the atom log.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from .errors import (
    ConfigMismatchError,
    InvalidDeltaError,
    MissingAtomLogError,
    NonFiniteStateError,
    OutOfRangeError,
)
from .measures import LevyModel
from . import noise as noise_mod

__all__ = [
    "MultiplicativeFunction",
    "constant_f",
    "affine_f",
    "bounded_smooth_f",
    "LevyNoiseSpec",
    "GaussianNoiseSpec",
    "SimConfig",
    "FieldPath",
    "green_kernel",
    "simulate_path",
    "evaluate",
    "grid_index",
    "jump_log",
    "mode_decomposition_check",
    "mode_decomposition_budget",
    "factorization_check",
    "phi_values",
    "flat_coefficients",
    "fit_coefficients",
    "flat_projection",
    "sine_series",
    "atom_steps",
]

# atoms per block of the atom kernels (_atom_kernel, _atom_states) and of the
# martingale replay's limits: their temporaries are O(K * _ATOM_BLOCK) floats
# whatever the atom count
_ATOM_BLOCK = 2**14
# largest exponent k^2 (t_i - t_c) inside one scan chunk of _atom_states
# (e^512 ~ 1e222, far from overflow)
_SCAN_GROWTH = 512.0
# grid rows per block of _decay_fill: its temporaries are O(K * _FILL_ROWS) floats
_FILL_ROWS = 1024
# log of the smallest normal double: np.exp below it returns a denormal or 0,
# about 17x (0) and 145x (denormal) slower per element than a normal result
# (numpy 2.4.6 on AVX-512)
_EXP_FLOOR = math.log(np.finfo(float).tiny)
# grid steps per noise draw of the Gaussian Euler branch
_NOISE_CHUNK = 256
# 53 ln 2: a mode with k^2 tau above it is damped by e^{-k^2 tau} < 2^-53, below
# double precision; the terminal kernel drops it (_mode_counts)
_HEAT_CUT = 53.0 * math.log(2.0)
# mode steps (kmax * atoms) below which a kernel block runs every mode in place:
# counting and ordering the atoms costs ~0.1 ms, more than the cut saves there
_CUT_MIN_STEPS = 2**16


# ---------------------------------------------------------------------------
# multiplicative function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicativeFunction:
    """Lipschitz multiplier f in du = u_xx + f(u) dNoise."""

    kind: str  # "constant" | "affine" | "bounded_smooth"
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("constant", "affine", "bounded_smooth"):
            raise ValueError(f"unknown multiplicative kind {self.kind!r}")
        # the params as 0-d arrays for _in_place: numpy converts a Python float
        # operand anew on every ufunc call, which costs more than the operation
        # itself on the few hundred values of one solver step
        object.__setattr__(self, "_operands", tuple(np.array(p) for p in self.params))

    def __call__(self, u):
        if np.ndim(u) == 0:
            return self._scalar(u)
        return self._in_place(np.array(u, dtype=float))

    def _scalar(self, u):
        """f(u) for one number."""
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "affine":
            a, b = self.params
            return a * u + b
        c, d = self.params
        return c * np.sin(u) + d

    def _in_place(self, u: np.ndarray) -> np.ndarray:
        """Overwrite the float array u with f(u), by the operations of _scalar, and return it."""
        if self.kind == "constant":
            u.fill(self.params[0])
        elif self.kind == "affine":
            a, b = self._operands
            np.multiply(u, a, u)
            np.add(u, b, u)
        else:
            c, d = self._operands
            np.sin(u, u)
            np.multiply(u, c, u)
            np.add(u, d, u)
        return u

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("not a constant multiplier")
        return self.params[0]


def constant_f(c: float) -> MultiplicativeFunction:
    return MultiplicativeFunction("constant", (float(c),))


def affine_f(a: float, b: float) -> MultiplicativeFunction:
    return MultiplicativeFunction("affine", (float(a), float(b)))


def bounded_smooth_f(c: float, d: float) -> MultiplicativeFunction:
    """f(u) = c sin(u) + d."""
    return MultiplicativeFunction("bounded_smooth", (float(c), float(d)))


# ---------------------------------------------------------------------------
# configuration and path containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyNoiseSpec:
    model: LevyModel
    eps: float
    # inner cutoff: explicit float, None for the dropped-variance-budget
    # bisection, or "atoms:<count>" for a fixed expected-atom budget
    eta: float | str | None = None
    rho_budget: float = 1e-3
    atom_cap: float = 1e8
    # "model": divide jumps by sigma(eps); "retained": divide by the exact
    # standard deviation of the simulated restriction (removes the known
    # drop-with-compensation variance deficit; used by the experiments).
    normalization: str = "model"

    kind = "levy"

    def __post_init__(self):
        if self.normalization not in ("model", "retained"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if isinstance(self.eta, str):
            object.__setattr__(self, "_atom_budget", _atom_count(self.eta))

    def resolve_eta(self, T: float) -> float:
        """Inner cutoff at horizon T; a searched cutoff is computed once per spec value."""
        if self.eta is None:
            search = partial(noise_mod.auto_inner_cutoff, self.model, self.eps, T,
                             rho_budget=self.rho_budget, atom_cap=self.atom_cap)
        elif isinstance(self.eta, str):
            search = partial(noise_mod.eta_for_atom_budget, self.model, self.eps, T, self._atom_budget)
        else:
            return float(self.eta)
        return self.model.memo(("eta", self.eps, self.eta, self.rho_budget, self.atom_cap, T), search)

    def simulate(self, T: float, rng: np.random.Generator) -> "noise_mod.LevyNoiseRealization":
        """One noise realization on [0, T] at the resolved inner cutoff."""
        return noise_mod.simulate_levy_noise(self.model, self.eps, self.resolve_eta(T), T, rng,
                                             rho_budget=self.rho_budget, atom_cap=self.atom_cap)


def _atom_count(eta: str) -> float:
    """The count of eta = "atoms:<count>"; ValueError naming eta unless it is finite and positive."""
    prefix, _, count = eta.partition(":")
    try:
        value = float(count) if prefix == "atoms" else math.nan
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"eta must be 'atoms:<count>' with a finite positive count, got {eta!r}")
    return value


@dataclass(frozen=True)
class GaussianNoiseSpec:
    kind = "gaussian"


@dataclass(frozen=True)
class SimConfig:
    """Discretization and model parameters for one experiment."""

    noise: LevyNoiseSpec | GaussianNoiseSpec
    f: MultiplicativeFunction = field(default_factory=lambda: constant_f(1.0))
    T: float = 1.0
    modes: int = 64          # K sine modes
    collocation: int = 256   # M midpoint collocation cells
    steps: int = 4096        # N_t time steps
    initial: tuple[float, ...] | None = None  # sine coefficients of u0

    def __post_init__(self):
        for name in ("modes", "collocation", "steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be an int >= 1, got {name}={value!r}")
        if self.modes > self.collocation:
            raise ValueError("need modes <= collocation points")
        if not (0.0 < self.T < math.inf):
            raise ValueError(f"horizon must be finite and positive, got T={self.T!r}")
        if self.initial is not None and len(self.initial) != self.modes:
            raise ValueError("initial coefficients must have length `modes`")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)


@dataclass
class FieldPath:
    """Time-indexed sine-mode coefficients of one solution path."""

    times: np.ndarray                 # (steps+1,)
    modes: np.ndarray                 # (steps+1, K)
    config: SimConfig
    atom_log: "noise_mod.LevyNoiseRealization | None" = None  # the realization, sorted by time
    f_at_atoms: np.ndarray | None = None  # f(u(t_j-, x_j)) recorded per atom
    # (K, J+1) mode states of the additive (constant-f Levy) path, before the
    # compensator drift: column 0 the initial state, column j+1 right after
    # atom j (_atom_states); None on general and Gaussian paths
    atom_states: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]


# ---------------------------------------------------------------------------
# basis helpers
# ---------------------------------------------------------------------------

def phi_values(k: np.ndarray | int, x: np.ndarray | float) -> np.ndarray:
    """phi_k(x) = sqrt(2/pi) sin(kx), broadcast over modes and points."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    x = np.asarray(x, dtype=float)
    return np.sqrt(2.0 / np.pi) * np.sin(np.multiply.outer(k, x))


def flat_coefficients(n_modes: int) -> np.ndarray:
    """Sine coefficients of the constant function 1 on [0, pi]."""
    k = np.arange(1, n_modes + 1)
    return np.sqrt(2.0 / np.pi) * (1.0 - np.cos(k * np.pi)) / k


def fit_coefficients(coefficients, n_modes: int) -> np.ndarray:
    """Sine coefficients zero-padded or truncated to exactly `n_modes` entries."""
    c = np.asarray(coefficients, dtype=float)
    if len(c) < n_modes:
        c = np.pad(c, (0, n_modes - len(c)))
    return c[:n_modes]


def sine_series(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k phi_k(x) evaluated by the sin(kx) two-term recurrence.

    Equivalent to coefficients @ phi_values(...) but O(K) numpy passes instead
    of K x len(x) transcendental calls. The recurrence starts from the
    half-angle forms of sin x and 2 cos x (_half_angle); at 64 modes its error
    is below 1e-13 of sqrt(2/pi) sum_k |c_k| on [0, pi].
    """
    return _atom_kernel(coefficients, np.asarray(x, dtype=float), None)[0]


def _mode_rows(x, tau, kmax: int, sizes=None):
    """Yield sin(kx) e^{-k^2 tau} for k = 1..kmax, elementwise over atoms.

    Either factor may be left out by passing None. sin(kx) follows the
    two-term recurrence sin((k+1)x) = 2 cos(x) sin(kx) - sin((k-1)x), and
    e^{-k^2 tau} = e^{-(k-1)^2 tau} e^{-(2k-1) tau} with e^{-(2k-1) tau}
    advanced by the factor e^{-2 tau}: one tangent (_half_angle) and one
    exponential per atom for any number of modes. With `sizes`
    (non-increasing, one per mode) row k covers only the first sizes[k-1]
    atoms, and the recurrence state shrinks to that prefix. A yielded row is
    overwritten by the next one.
    """
    if tau is not None:
        odd = np.empty_like(tau)  # the half-angle d = 1 + tan^2(x/2), then e^{-(2k-1) tau}
    if x is not None:
        s_prev = np.zeros_like(x) if kmax > 1 else None
        s_cur, two_cos = _half_angle(x, scratch=None if tau is None else odd, two_cos=kmax > 1)
    if tau is not None:
        np.negative(tau, out=odd)
        np.exp(odd, out=odd)                # e^{-(2k-1) tau}
        decay = odd.copy() if kmax > 1 else odd  # e^{-k^2 tau}
        step = odd * odd if kmax > 1 else None
    n = len(x if tau is None else tau)
    for k in range(1, kmax + 1):
        if k > 1:
            if sizes is not None and sizes[k - 1] < n:
                n = sizes[k - 1]
                if x is not None:
                    s_prev, s_cur, two_cos = s_prev[:n], s_cur[:n], two_cos[:n]
                if tau is not None:
                    odd, decay, step = odd[:n], decay[:n], step[:n]
            if x is not None:
                s_prev, s_cur = s_cur, two_cos * s_cur - s_prev
            if tau is not None:
                odd *= step
                decay *= odd
        if tau is None:
            yield s_cur
        elif x is None:
            yield decay
        else:
            # the last row takes the buffer of sin(kx), which is not needed after it
            yield s_cur * decay if k < kmax else np.multiply(s_cur, decay, out=s_cur)


def _half_angle(x, out=None, scratch=None, two_cos=True):
    """(sin x, 2 cos x) from one tangent: t = tan(x/2), d = 1 + t^2,
    sin x = 2t/d and 2 cos x = 2 - 4t^2/d (None when `two_cos` is False).

    sin x is written to `out` and d to `scratch`, each allocated when None;
    2 cos x takes one new array. float64 np.tan is a SIMD kernel in numpy
    2.x on x86-64, where np.sin and np.cos call scalar libm (numpy 2.4.6 on
    AVX-512: 1.7 ns per element against 11.5 and 12.9 ns), so this is about
    3x cheaper than np.sin alone; on a numpy build without a SIMD float64 tan
    it can be slower than np.sin and np.cos.

    On [0, pi], sin x is within 4 ulp (2.46 measured on 1e6 points) and
    2 cos x within 1e-15 absolute. 2 - 4t^2/d keeps 2 cos x accurate near x = 0, where the
    sin(kx) recurrence amplifies its error most; the form 4/d - 2 made the
    64-mode sine series 4.7x less accurate. inf and NaN give NaN.
    """
    s = np.multiply(x, 0.5, out=out)
    np.tan(s, out=s)
    d = np.multiply(s, s, out=scratch)
    c = np.multiply(d, 4.0) if two_cos else None
    d += 1.0
    s += s
    s /= d
    if c is not None:
        c /= d
        np.subtract(2.0, c, out=c)
    return s, c


def _mode_counts(tau, kmax: int) -> np.ndarray:
    """Modes each atom needs: min(kmax, ceil(sqrt(_HEAT_CUT / tau))), kmax for tau <= 0 or non-finite.

    Every mode k above the count has k^2 tau > _HEAT_CUT, so e^{-k^2 tau} < 2^-53.
    """
    with np.errstate(all="ignore"):
        counts = np.fmin(np.ceil(np.sqrt(_HEAT_CUT / tau)), kmax)  # fmin maps NaN to kmax
    counts[~(counts > 0)] = kmax  # tau = +inf (and -0.0 from tau = -inf)
    return counts.astype(np.int16 if kmax < 2**15 else np.intp)  # 16-bit keys sort by radix


def _atom_kernel(coeffs, x, tau) -> np.ndarray:
    """w[p, j] = sum_k coeffs[p, k-1] phi_k(x_j) e^{-k^2 tau_j} for every atom j.

    `coeffs` holds one row of sine coefficients per output row; kmax is its
    highest nonzero column. Passing x or tau as None leaves out phi_k(x) or
    e^{-k^2 tau}. Atoms are taken _ATOM_BLOCK at a time, so the temporaries
    are O(rows * _ATOM_BLOCK) floats; coefficients of mode 1 alone (kmax = 1)
    take whole-array passes instead (`_one_mode_kernel`), with the same bits.

    With tau, atom j keeps only its first min(kmax, ceil(sqrt(53 ln 2 / tau_j)))
    modes (_mode_counts; all kmax for tau_j = 0 or non-finite): every
    dropped mode is damped by e^{-k^2 tau_j} < 2^-53. A block of at least
    _CUT_MIN_STEPS mode steps stops its recurrence at its largest count kb;
    when the counts save at least half of its kb steps per atom, its atoms are
    ordered by count, largest first, so the recurrence runs on a shrinking
    prefix, and the block is scattered back to the input order. Otherwise
    (a small block, or every tau tiny) every atom runs the block's
    modes in place. What the cut drops from one atom and row is at most
    2^-53 sqrt(2/pi) max|c| / (1 - e^{-2 * 53 ln 2 / kmax}) (without the
    sqrt(2/pi) when x is None), about one rounding unit of a weight of size
    max|c|.

    At a mode where only some rows have a nonzero coefficient (every odd
    k >= 3 of mode 1 with a point at pi/2), a block whose x and tau are
    finite, tau >= 0, adds only those rows: the others would add a zero
    product to a sum that starts at 0.0, which changes no bit. A block with a
    non-finite input adds every row, so 0 * inf and 0 * NaN reach the output.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n = len(x if tau is None else tau)
    nonzero = coeffs.any(axis=0)
    if not nonzero.any():
        return np.zeros((len(coeffs), n))
    kmax = np.flatnonzero(nonzero)[-1] + 1
    if kmax == 1:
        return _one_mode_kernel(coeffs[:, 0], x, tau)
    # every nonzero mode has all rows nonzero unless the counts differ
    picks = None
    if np.count_nonzero(coeffs) != len(coeffs) * np.count_nonzero(nonzero):
        picks = _row_picks(coeffs[:, :kmax])
    out = np.zeros((len(coeffs), n))
    for lo in range(0, n, _ATOM_BLOCK):
        part = slice(lo, lo + _ATOM_BLOCK)
        block = out[:, part]
        xb = None if x is None else x[part]
        tb = None if tau is None else tau[part]
        rows = picks if picks is not None and _finite_block(xb, tb) else None
        kb, sizes, target = kmax, None, block
        if tb is not None and kmax * len(tb) >= _CUT_MIN_STEPS:
            counts = _mode_counts(tb, kmax)
            kb = int(counts.max())
            if 2 * int(counts.sum()) <= kb * len(tb):
                order = np.argsort(-counts, kind="stable")
                sizes = (len(tb) - np.cumsum(np.bincount(counts, minlength=kb + 1))[:kb]).tolist()
                xb = None if xb is None else xb[order]
                tb = tb[order]
                target = np.zeros_like(block)
        for k, row in enumerate(_mode_rows(xb, tb, kb, sizes)):
            if nonzero[k]:
                p = slice(None) if rows is None else rows[k]
                target[p, :len(row)] += coeffs[p, k, None] * row
        if sizes is not None:
            block[:, order] = target
    if x is not None:
        out *= np.sqrt(2.0 / np.pi)
    return out


def _row_picks(coeffs) -> list:
    """Per mode, the rows of `coeffs` that `_atom_kernel` adds: slice(None) at a
    mode whose rows are all nonzero or all zero, else the nonzero rows, as a
    slice when they are consecutive."""
    picks = []
    for column in (coeffs != 0).T.tolist():
        rows = [p for p, nonzero in enumerate(column) if nonzero]
        if len(rows) in (0, len(column)):
            picks.append(slice(None))
        elif rows[-1] - rows[0] + 1 == len(rows):
            picks.append(slice(rows[0], rows[-1] + 1))
        else:
            picks.append(np.array(rows))
    return picks


def _finite_block(x, tau) -> bool:
    """True when x (or None) is finite and tau (or None) is finite and >= 0."""
    if x is not None and not np.isfinite(x).all():
        return False
    return tau is None or bool(np.isfinite(tau).all() and tau.min() >= 0.0)


def _one_mode_kernel(c, x, tau) -> np.ndarray:
    """`_atom_kernel` for coefficients c[p] of mode 1 alone, in whole-array passes.

    The mode row sin(x_j) e^{-tau_j} is formed in the last output row, and
    each row is scaled from it straight into the output, the last row last;
    the only temporary is one buffer for the half-angle d = 1 + tan^2(x/2)
    of sin x (_half_angle), which then holds e^{-tau} when both factors are
    present. The operations are those of the blocked form, so the bits are
    the same: adding 0.0 stands for its zero-filled accumulator (it turns a
    -0.0 product into 0.0), and sqrt(2/pi) is applied last.
    """
    out = np.empty((len(c), len(x if tau is None else tau)))
    row = out[-1]
    if x is not None:
        buf = np.empty_like(row)
        _half_angle(x, out=row, scratch=buf, two_cos=False)
        if tau is not None:
            np.negative(tau, out=buf)
            row *= np.exp(buf, out=buf)
    else:
        np.negative(tau, out=row)
        np.exp(row, out=row)
    for p, cp in enumerate(c):
        np.multiply(row, cp, out=out[p])
    out += 0.0
    if x is not None:
        out *= np.sqrt(2.0 / np.pi)
    return out


def _atom_states(t, x, a, m0) -> np.ndarray:
    """Mode states of the atom field m(t) = e^{-k^2 t} m0 + sum_{t_j <= t} a_j phi_k(x_j) e^{-k^2 (t - t_j)}.

    Column 0 is m0 (time 0) and column j + 1 the state right after atom j,
    so the result is (K, J + 1). Passing x as None leaves out phi_k(x_j), and
    `a` may hold one amplitude per mode and atom, (K, J), in place of one per
    atom. Atoms (sorted by time) are scanned in chunks:
    inside a chunk that starts at atom c,
    m(t_j) = e^{-k^2 (t_j - t_c)} (m(t_c-) + sum_{c <= i <= j} a_i phi_k(x_i) e^{k^2 (t_i - t_c)}).
    A chunk ends after _ATOM_BLOCK atoms, or before K^2 (t_i - t_c) exceeds
    _SCAN_GROWTH, so no growth factor exceeds e^{_SCAN_GROWTH}; the state is
    carried from chunk to chunk by decay factors only.
    """
    m = np.asarray(m0, dtype=float)
    K = len(m)
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    J = len(t)
    out = np.empty((K, J + 1))
    out[:, 0] = m
    t_prev = 0.0
    span = _SCAN_GROWTH / (K * K)
    for lo in range(0, J, _ATOM_BLOCK):
        part = slice(lo, lo + _ATOM_BLOCK)
        tb = t[part]
        starts = [0]
        while (nxt := int(np.searchsorted(tb, tb[starts[-1]] + span, side="right"))) < len(tb):
            starts.append(nxt)
        ends = starts[1:] + [len(tb)]
        since = tb - np.repeat(tb[starts], np.subtract(ends, starts))  # time since the chunk start
        acc = out[:, lo + 1:lo + 1 + len(tb)]
        amp = a[..., part] if x is None else np.sqrt(2.0 / np.pi) * a[..., part]
        grows = _mode_rows(None if x is None else x[part], -since, K)
        for row, grow, amp_k in zip(acc, grows, np.broadcast_to(amp, acc.shape)):
            np.multiply(grow, amp_k, out=row)
        for c0, c1 in zip(starts, ends):
            chunk = acc[:, c0:c1]
            np.cumsum(chunk, axis=1, out=chunk)
            m = m * np.exp(-k2 * (tb[c0] - t_prev))  # carried state at the chunk start
            chunk += m[:, None]
            m, t_prev = chunk[:, -1] * np.exp(-k2 * since[c1 - 1]), tb[c1 - 1]
        for row, decay in zip(acc, _mode_rows(None, since, K)):
            row *= decay
    return out


def _decay_powers(t, K: int) -> np.ndarray:
    """e^{-k^2 t_i}, one row per t_i >= 0 and one column per mode k = 1..K.

    A power below the smallest normal double (k^2 t_i > -_EXP_FLOOR) is
    written as 0 without calling np.exp, which is far slower per element
    where its result is denormal or 0. NaN stays NaN.
    """
    x = np.einsum("i,j->ij", t, -np.arange(1, K + 1, dtype=float) ** 2)
    if len(t) and not np.max(t) * K * K < -_EXP_FLOOR:  # else no power is below the floor: no mask
        tiny = x <= _EXP_FLOOR
        np.exp(x, out=x, where=~tiny)
        x[tiny] = 0.0
    else:
        np.exp(x, out=x)
    return x


def _decay_fill(out, times, first, vectors=None, shift=None) -> None:
    """out[i] = v_g e^{-k^2 (t_i - t_{first[g]})} - shift: grid rows that only decay from the start of their run.

    Run g covers the rows first[g] <= i < first[g + 1] (first[0] = 0,
    increasing; the last run ends with the grid). v_g is vectors[g] or, when
    vectors is None, out's own row first[g], which e^0 = 1 leaves bitwise
    unchanged. Rows are written _FILL_ROWS at a time: row a + n of a run that
    is at a in the block is its vector times e^{-k^2 t_n}, one row of decay
    powers per offset n formed once per call (_decay_powers), and a run that
    began before the block first decays by e^{-k^2 (t_a - t_{first[g]})}. On a
    grid whose instants n T / N are doubles t_{a + n} - t_a = t_n; elsewhere
    the two differ by the rounding of the instants, under an ulp of T. The
    temporaries are O(_FILL_ROWS * K) floats whatever the run lengths.
    """
    rows, K = out.shape
    size = -(-rows // -(-rows // _FILL_ROWS))  # equal blocks of at most _FILL_ROWS rows
    run = np.diff(first, append=rows)
    start = np.repeat(first, run)  # first row of each row's run
    picks = start if vectors is None else np.repeat(np.arange(len(first)), run)
    powers = _decay_powers(times[:min(size, int(run.max()))], K)
    buf = np.empty((size, K))
    if shift is not None:
        shift = np.tile(shift, (size, 1))  # a same-shape operand: a broadcast row costs a loop call per row
    for lo in range(0, rows, size):
        dest = out[lo:lo + size]
        n = len(dest)
        # mode="clip" (the indices are in range): under the default mode="raise" take buffers `out`
        np.take(out if vectors is None else vectors, picks[lo:lo + n], axis=0, out=dest, mode="clip")
        offset = np.arange(lo, lo + n) - np.maximum(start[lo:lo + n], lo)
        dest *= np.take(powers, offset, axis=0, out=buf[:n], mode="clip")
        if start[lo] < lo:  # the run goes on from the block before
            head = dest[:np.searchsorted(start[lo:lo + n], lo)]
            head *= _decay_powers(times[lo:lo + 1] - times[start[lo]], K)
        if shift is not None:
            dest -= shift[:n]


def atom_steps(times: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Grid step n of each atom time, times[n] < t <= times[n+1] (t = times[0] in step 0).

    The one step-assignment rule of the general branch and the martingale
    replay; the additive branch's grid lookup, searchsorted(t_atoms, times,
    "right"), is the same rule seen from the grid.
    """
    return np.clip(np.searchsorted(times, t, side="left") - 1, 0, len(times) - 2)


@lru_cache(maxsize=16)
def _collocation(K: int, M: int):
    """Midpoint collocation nodes and the K x M evaluation matrix."""
    x = (np.arange(M) + 0.5) * (np.pi / M)
    S = phi_values(np.arange(1, K + 1), x)  # (K, M)
    return x, S


@lru_cache(maxsize=16)
def flat_projection(K: int, M: int) -> np.ndarray:
    """Collocation DST projection of the constant function 1.

    All compensator-drift terms use this discrete projection (not the exact
    integral) so that every solver branch subtracts the identical drift.
    """
    _, S = _collocation(K, M)
    return S @ np.full(M, np.pi / M)


def _factorization_nodes(t: float, delta: float, time_nodes: int):
    """Left nodes s_i of the factorization sub-grid of [0, t] and the exact
    panel moments w_i of (t - s)^{delta - 1} over them."""
    s_grid = np.linspace(0.0, t, time_nodes + 1)
    s = s_grid[:-1]
    w = ((t - s) ** delta - (t - s_grid[1:]) ** delta) / delta
    return s, w


def _factorization_weights(t_atoms, s, w, delta: float) -> np.ndarray:
    """W_j = sum_{s_i > t_j} w_i (s_i - t_j)^{-delta} for the atoms before the last node s[-1].

    The nodes go _ATOM_BLOCK // J at a time (at least one) into a
    (nodes + 1) x atoms array whose row 0 is the running W, and np.add.reduce
    along axis 0 adds its rows in node order, as a loop over the nodes would.
    An atom at or after a node gets the gap +inf, whose term inf^{-delta} w_i
    adds +0.0. A block is at least two columns wide, padded by an atom at +inf:
    numpy sums a single column pairwise, in another order.
    """
    before = np.searchsorted(t_atoms, s, side="left")  # the atoms before a node are a prefix of the log
    J = int(before[-1])
    if J == 0:
        return np.zeros(0)
    tj = np.append(t_atoms[:J], np.inf)
    W = np.zeros(J + 1)
    nodes = max(1, _ATOM_BLOCK // J)
    for lo in range(0, len(s), nodes):
        sb, wb = s[lo:lo + nodes], w[lo:lo + nodes]
        n = max(2, int(before[lo + len(sb) - 1]))  # the atoms before the block's last node
        terms = np.empty((len(sb) + 1, n))
        gaps = terms[1:]
        np.subtract(sb[:, None], tj[:n], out=gaps)
        np.copyto(gaps, np.inf, where=gaps <= 0.0)
        np.power(gaps, -delta, out=gaps)
        gaps *= wb[:, None]
        terms[0] = W[:n]
        np.add.reduce(terms, axis=0, out=W[:n])
    return W[:J]


@lru_cache(maxsize=16)
def _factorization_compensator(t: float, delta: float, time_nodes: int, K: int) -> np.ndarray:
    """sum_i w_i e^{-k^2 (t - s_i)} int_0^{s_i} e^{-k^2 (s_i - r)} (s_i - r)^{-delta} dr per mode,
    the factorization check's compensator integral per unit drift (read-only)."""
    from scipy.special import gammainc, gamma as gamma_fn  # on first use: only asymmetric checks need it

    s, w = _factorization_nodes(t, delta, time_nodes)
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    part = gamma_fn(1.0 - delta) * gammainc(1.0 - delta, np.outer(s, k2)) * k2 ** (delta - 1.0)
    out = w @ (np.exp(-np.outer(t - s, k2)) * part)
    out.flags.writeable = False
    return out


def _drift_modes(scale: float, K: int, M: int) -> np.ndarray:
    """scale flat_k / k^2, where a drift `scale` settles; it reaches (1 - e^{-k^2 t}) of it by t."""
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    return scale * flat_projection(K, M) / k2


def _gaussian_sd(c: float, K: int, t) -> np.ndarray:
    """sd of int_0^t e^{-k^2 (t-s)} c d<W_s, phi_k>: |c| sqrt((1 - e^{-2 k^2 t}) / (2 k^2))."""
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    return abs(c) * np.sqrt((1.0 - np.exp(-2.0 * k2 * t)) / (2.0 * k2))


def green_kernel(t, x, y, n_modes: int):
    """Truncated Dirichlet heat kernel (2/pi) sum_k sin(kx) sin(ky) e^{-k^2 t}."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # NaN fails too
        raise ValueError("green_kernel needs t >= 0")
    k = np.arange(1, n_modes + 1, dtype=float)
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
    tt = np.broadcast_to(t, shape)[..., None]
    xx = np.broadcast_to(x, shape)[..., None]
    yy = np.broadcast_to(y, shape)[..., None]
    out = (2.0 / np.pi) * np.sum(np.sin(k * xx) * np.sin(k * yy) * np.exp(-k * k * tt), axis=-1)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def simulate_path(config: SimConfig, rng: np.random.Generator) -> FieldPath:
    """Simulate one mild-solution path on the configured grid."""
    if config.noise.kind == "gaussian":
        return _gaussian_path(config, rng)
    return _levy_path(config, rng)


def _initial_state(config: SimConfig) -> np.ndarray:
    if config.initial is None:
        return np.zeros(config.modes)
    return np.asarray(config.initial, dtype=float).copy()


def _gaussian_path(config, rng):
    K, M, N = config.modes, config.collocation, config.steps
    dt = config.dt
    times = config.times()
    m = _initial_state(config)
    if config.f.is_constant:
        # exact stochastic convolution: the projected noise <W, phi_k> has
        # independent increments across modes, so each step adds an exact
        # convolution sample; the steps are atoms at the grid times
        xi = rng.standard_normal((N, K))
        xi *= _gaussian_sd(config.f.constant_value, K, dt)
        out = _atom_states(times[1:], None, xi.T, m).T
        if not np.all(np.isfinite(out)):
            raise NonFiniteStateError("non-finite mode in Gaussian path", operation="simulate_path")
    else:
        decay = np.exp(-np.arange(1, K + 1, dtype=float) ** 2 * dt)
        out = np.empty((N + 1, K))
        out[0] = m
        _, S = _collocation(K, M)
        dx = np.pi / M
        sd = math.sqrt(dt * dx)
        f_in_place = config.f._in_place
        u = np.empty(M)                     # field at collocation nodes
        tmp = np.empty(K)
        chunks = np.empty((2, min(_NOISE_CHUNK, N), M))

        def draw(buf, rows):
            # standard normals scaled by sd: the draws of rng.normal(0, sd, (rows, M))
            xi = buf[:rows]
            rng.standard_normal(out=xi)
            xi *= sd
            return xi

        # one draw per chunk of steps, the same stream as one draw of M per
        # step, into the two chunk buffers in turn; the helper draws chunk c + 1
        # (numpy releases the GIL while it fills) as this thread steps chunk c,
        # and only it touches rng meanwhile
        with ThreadPoolExecutor(max_workers=1) as helper:
            xi = draw(chunks[0], min(_NOISE_CHUNK, N))
            for c, lo in enumerate(range(0, N, _NOISE_CHUNK)):
                rest = N - lo - len(xi)
                ahead = helper.submit(draw, chunks[(c + 1) % 2], min(_NOISE_CHUNK, rest)) if rest else None
                for row, prev, m in zip(xi, out[lo:], out[lo + 1:]):
                    np.dot(prev, S, u)
                    np.multiply(f_in_place(u), row, row)
                    np.dot(S, row, m)
                    np.multiply(decay, prev, tmp)
                    m += tmp
                bad = ~np.isfinite(out[lo + 1:lo + 1 + len(xi)]).all(axis=1)
                if bad.any():
                    step = lo + 1 + int(np.argmax(bad))
                    raise NonFiniteStateError(f"non-finite mode at step {step}", operation="simulate_path")
                if ahead is not None:
                    xi = ahead.result()
    return FieldPath(times, out, config)


def _levy_path(config, rng):
    real = config.noise.simulate(config.T, rng)
    order = np.argsort(real.t, kind="stable")
    real = replace(real, t=real.t[order], x=real.x[order], z=real.z[order])
    if config.f.is_constant:
        return _levy_path_additive(config, real)
    return _levy_path_general(config, real)


def _levy_path_additive(config, real):
    """Constant-f branch: the states right after each atom come from the atom
    kernel, and each grid row is the state of the last atom before it
    decayed to its instant (_decay_fill). The compensator drift settles as
    d_k (1 - e^{-k^2 t}) (_drift_modes), so y = u + d decays purely between
    atoms: each state that starts a run of grid rows is moved to y and
    decayed to the run's first instant, and the fill subtracts d. Only the
    states of the last atom before some grid instant are moved, at most
    steps + 1 of them. The path keeps the atom states
    (FieldPath.atom_states), whose projections the martingale replay takes
    as its right limits at the atoms and, decayed to the next atom, as its
    left limits."""
    sigma_used = real.jump_scale(config.noise.normalization)
    K = config.modes
    times = config.times()
    cval = config.f.constant_value
    tj = real.t
    J = len(tj)
    # states right after each atom (column 0 = initial state at time 0)
    states = _atom_states(tj, real.x, cval * (real.z / sigma_used), _initial_state(config))
    # each grid instant takes the last state before it; a run of rows starts where that state changes
    last = np.searchsorted(tj, times, side="right")
    first = np.flatnonzero(np.diff(last, prepend=-1))
    events = last[first]
    vectors = states.T[events]
    vectors *= _decay_powers(times[first] - np.concatenate(([0.0], tj))[events], K)
    shift = None
    if real.m_restricted != 0.0:
        shift = _drift_modes(real.m_restricted / sigma_used * cval, K, config.collocation)
        settle = _decay_powers(times[first], K)
        settle *= shift
        vectors += settle
    out = np.empty((len(times), K))
    _decay_fill(out, times, first, vectors, shift)
    if shift is not None:
        out[0] = states[:, last[0]]  # no drift has settled at t = 0, and (m + d) - d would round m
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError("non-finite mode in Levy path", operation="simulate_path")
    return FieldPath(times, out, config, real, np.full(J, cval), states)


def _phi_rows(x, K: int):
    """Yield phi_k(x_j), k = 1..K, for each atom j in turn, formed _ATOM_BLOCK atoms at a time."""
    kvec = np.arange(1, K + 1, dtype=float)
    for lo in range(0, len(x), _ATOM_BLOCK):
        yield from np.sqrt(2.0 / np.pi) * np.sin(np.multiply.outer(x[lo:lo + _ATOM_BLOCK], kvec))


def _levy_path_general(config, real):
    """Non-constant-f branch: steps atom by atom through the steps that need work.

    A step needs work when it holds an atom, or at every step when the
    compensator drift is nonzero; the rows between active steps are decays of
    the last computed row, which the fill of the additive branch writes from
    that row itself (_decay_fill). f(u(t_j-, x_j)) is taken at each atom's left
    limit, and the drift uses the step-start field. The state is updated in
    place; as a non-finite mode stays non-finite, the written rows are checked
    once, after the last step, and the first bad one names the step.
    """
    sigma_used = real.jump_scale(config.noise.normalization)
    K, M, N = config.modes, config.collocation, config.steps
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    neg_k2 = -k2
    _, S = _collocation(K, M)
    dx = np.pi / M
    drift_rate = real.m_restricted / sigma_used
    times = config.times()
    f = config.f
    if drift_rate != 0.0:
        conv = (1.0 - np.exp(-k2 * config.dt)) / k2  # int_0^dt e^{-k^2 (dt - s)} ds
        u, D = np.empty(M), np.empty(K)

    steps = atom_steps(times, real.t)
    active = np.arange(N) if drift_rate != 0.0 else np.unique(steps)
    counts = np.bincount(steps, minlength=N)[active]
    atoms = zip(real.t.tolist(), (real.z / sigma_used).tolist(), _phi_rows(real.x, K))
    f_at = []
    out = np.zeros((N + 1, K))  # the rows the decay fill writes pass the finiteness check
    m, tmp = _initial_state(config), np.empty(K)
    out[0] = m
    t_cur, ends = 0.0, times[1:].tolist()
    for n, count in zip(active.tolist(), counts.tolist()):
        if drift_rate != 0.0:
            np.matmul(m, S, out=u)
            f._in_place(u)
            u *= dx
            np.matmul(S, u, out=D)  # step-start projection of f(u)
        for ta, amp, phik in islice(atoms, count):
            np.multiply(neg_k2, ta - t_cur, out=tmp)
            m *= np.exp(tmp, out=tmp)
            t_cur = ta
            fval = f._scalar(float(m @ phik))  # left limit u(t_j-, x_j)
            f_at.append(fval)
            np.multiply(phik, fval * amp, out=tmp)
            m += tmp
        np.multiply(neg_k2, ends[n] - t_cur, out=tmp)
        m *= np.exp(tmp, out=tmp)
        t_cur = ends[n]
        if drift_rate != 0.0:
            np.multiply(D, drift_rate, out=tmp)
            tmp *= conv
            m -= tmp
        out[n + 1] = m
    bad = ~np.isfinite(out[1:]).all(axis=1)
    if bad.any():
        raise NonFiniteStateError(f"non-finite mode at step {int(np.argmax(bad)) + 1}", operation="simulate_path")
    if len(active) < N:
        _decay_fill(out, times, np.concatenate(([0], active + 1)))
    return FieldPath(times, out, config, real, np.array(f_at, dtype=float))


# ---------------------------------------------------------------------------
# evaluation and identity checks
# ---------------------------------------------------------------------------

def grid_index(path: FieldPath, t: float, operation: str) -> int:
    """Index of the stored instant t; errors name `operation`."""
    times = path.times
    if not (times[0] - 1e-12 <= t <= times[-1] + 1e-12):
        raise OutOfRangeError(f"t={t} outside [0, {times[-1]}]", operation=operation)
    idx = int(round((t - times[0]) / (times[1] - times[0])))
    idx = min(max(idx, 0), len(times) - 1)
    if abs(times[idx] - t) > 1e-9 * max(1.0, times[-1]):
        raise OutOfRangeError(f"t={t} is not a grid instant", operation=operation)
    return idx


def _position(x, operation: str) -> np.ndarray:
    """x as a float array; errors name `operation` unless every entry lies in [0, pi] (NaN does not)."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x_arr) & (x_arr <= np.pi)):
        raise OutOfRangeError(f"x={x} outside [0, pi]", operation=operation)
    return x_arr


def evaluate(path: FieldPath, t: float, x):
    """Point value sum_k u_k(t) phi_k(x) at a stored instant."""
    x_arr = _position(x, "evaluate")
    idx = grid_index(path, t, "evaluate")
    coeff = path.modes[idx]
    vals = coeff @ phi_values(np.arange(1, path.n_modes + 1), x_arr)
    return vals if vals.shape else float(vals)


def jump_log(path: FieldPath, operation: str):
    """(atom log, jump scale) of a Levy path; errors name `operation`."""
    real = path.atom_log
    if real is None:
        raise MissingAtomLogError("needs a Levy path with an atom log", operation=operation)
    return real, real.jump_scale(path.config.noise.normalization)


def _mode_x(path: FieldPath, k: int, operation: str):
    """X of mode k at the grid instants, with what the residual budget needs.

    Returns the grid step, the normalized jumps a_j phi_k(x_j) of X in atom
    order, the compensator rate r = m / sigma (0 when the measure is
    symmetric), the collocation projection g_n of f(u(t_n)) on phi_k that the
    compensator drift integrates (None when r = 0), and X itself: the jumps
    minus r times the trapezoidal integral of g. A ValueError names k unless
    it is an int (not a bool) with 1 <= k <= K.
    """
    real, sigma_used = jump_log(path, operation)
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and 1 <= k <= path.n_modes):
        raise ValueError(f"{operation} needs an int mode index k with 1 <= k <= {path.n_modes}, got k={k!r}")
    times = path.times
    dt = times[1] - times[0]
    jumps = path.f_at_atoms * phi_values(k, real.x)[0] * real.z / sigma_used
    # cumulative jump part of X at grid instants
    idx = np.searchsorted(real.t, times, side="right")
    X = np.concatenate(([0.0], np.cumsum(jumps)))[idx]
    rate, g = real.m_restricted / sigma_used, None
    if rate != 0.0:
        _, S = _collocation(path.n_modes, path.config.collocation)
        f = path.config.f
        # a constant f gives one g for every instant: project it from row 0 alone
        rows = path.modes[:1] if f.is_constant else path.modes
        g = (f(rows @ S) * (np.pi / path.config.collocation)) @ S[k - 1]
        g = np.broadcast_to(g, times.shape)
        X = X - rate * np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * dt)))
    return dt, jumps, rate, g, X


def mode_decomposition_check(path: FieldPath, k: int) -> float:
    """Residual of  u_k(t) = e^{-k^2 t} u_k(0) + X_t - k^2 int_0^t X_s e^{-k^2 (t-s)} ds.

    X is the compensated jump integral of f(u) phi_k against the driving
    noise, rebuilt from the atom log, with the compensator taken by the
    trapezoidal rule on the collocation projection of f(u); the convolution
    uses trapezoidal quadrature on the stored grid, so the residual is O(dt),
    within `mode_decomposition_budget(path, k)`.
    """
    dt, _, _, _, X = _mode_x(path, k, "mode_decomposition_check")
    times = path.times
    k2 = float(k * k)
    recon = path.modes[0, k - 1] * np.exp(-k2 * times) + X - k2 * _trapezoid_convolution(X, k2, dt)
    return float(np.max(np.abs(recon - path.modes[:, k - 1])))


def mode_decomposition_budget(path: FieldPath, k: int) -> float:
    """Bound on `mode_decomposition_check(path, k)` from its two trapezoidal rules.

    With lam = k^2 dt, the residual is at most the sum of three terms:

    * jumps: k^2 dt/2 max_n A_n, A_n = sum over the jumps of X in panels
      m <= n of |Delta X| e^{-k^2 (t_n - t_m)}. The trapezoid weighs a jump
      inside the panel (t_{m-1}, t_m] by dt/2 where the exact convolution
      weighs it by (1 - e^{-k^2 (t_m - tau)}) / k^2, so it misses by at most
      dt/2 |Delta X|, and the convolution carries the miss with decay;
    * compensator: |r| dt (1 + lam/2) max_n |g_n - g_0|. The solver holds the
      drift r g at its step-start value over a step and the check takes the
      trapezoid of g; the two differ by r dt/2 (g_n - g_0) at t_n, as the
      step differences telescope, once in X and once through k^2 times its
      convolution. It is 0 for constant f;
    * smooth: (1 + lam) (lam^2/12 max|X| + k^2 dt^2/6 |r| max|g|), the
      second-order trapezoid error on the continuous part of X_s e^{-k^2 (t-s)},
      whose slope is -r g.

    The first term, first order in dt and proportional to the normalized
    jumps, dominates on jump paths, so the budget carries over from one jump
    law to another where a fixed number does not.
    """
    dt, jumps, rate, g, X = _mode_x(path, k, "mode_decomposition_budget")
    times, real = path.times, path.atom_log
    k2 = float(k * k)
    lam = k2 * dt
    # |jumps| summed per panel (t_{m-1}, t_m], then the decaying sum A_n by one scan
    panel = np.searchsorted(times, real.t, side="left")
    b = np.bincount(panel, weights=np.abs(jumps), minlength=len(times))[1:]
    budget = 0.5 * lam * float(np.max(_atom_states(lam * np.arange(1, len(times)), None, b, np.zeros(1))[0]))
    smooth = lam * lam / 12.0 * float(np.max(np.abs(X)))
    if rate != 0.0:
        budget += abs(rate) * dt * (1.0 + 0.5 * lam) * float(np.max(np.abs(g - g[0])))
        smooth += lam * dt / 6.0 * abs(rate) * float(np.max(np.abs(g)))
    return budget + (1.0 + lam) * smooth


def _trapezoid_convolution(X, k2, dt):
    """conv_n = int_0^{t_n} X_s e^{-k2 (t_n - s)} ds by the trapezoidal rule on the grid of X.

    The recurrence conv_n = e conv_{n-1} + b_n, e = e^{-k2 dt},
    b_n = dt/2 (e X_{n-1} + X_n), is one mode of the atom scan with b_n as
    atoms at the times k2 dt n, that is, with time in units of 1/k2.
    """
    lam = k2 * dt
    b = 0.5 * dt * (X[:-1] * math.exp(-lam) + X[1:])
    return _atom_states(lam * np.arange(1, len(X)), None, b, np.zeros(1))[0]


def factorization_check(path: FieldPath, delta: float, t: float, x: float, *, time_nodes: int = 256) -> float:
    """|factorization reconstruction - stored field| at (t, x).

    The reconstruction S(t) u0 + sin(delta pi)/pi int_0^t (t-s)^{delta-1} S(t-s) Y(s) ds,
    Y(s) = int_0^s (s-r)^{-delta} S(s-r) f(u) dL(r), samples Y at the left nodes
    s_i of a time sub-grid against the exact panel moments w_i of (t-s)^{delta-1},
    so the residual decays like the sub-grid step. As e^{-k^2 (t-s_i)} e^{-k^2 (s_i-t_j)}
    = e^{-k^2 (t-t_j)}, the jump part is sin(delta pi)/pi sum_j a_j W_j G_K(t-t_j, x, x_j),
    a_j = f_j z_j / sigma, W_j = sum_{s_i > t_j} w_i (s_i - t_j)^{-delta}: one atom-kernel pass.
    """
    if not (0.0 < delta < 0.25):
        raise InvalidDeltaError(f"delta must lie in (0, 1/4), got {delta}", operation="factorization_check")
    if isinstance(time_nodes, bool) or not isinstance(time_nodes, (int, np.integer)) or time_nodes < 1:
        raise ValueError(f"time_nodes must be an int >= 1, got {time_nodes!r}")
    x = float(_position(x, "factorization_check"))
    real, sigma_used = jump_log(path, "factorization_check")
    cfg = path.config
    if real.m_restricted != 0.0 and not cfg.f.is_constant:
        raise ConfigMismatchError(
            "factorization check supports asymmetric compensators only for constant f",
            operation="factorization_check",
        )
    t = path.times[grid_index(path, t, "factorization_check")]
    if not 0.0 < t <= path.times[-1]:
        raise OutOfRangeError("need 0 < t <= T", operation="factorization_check")
    K = path.n_modes
    kvec = np.arange(1, K + 1, dtype=float)
    k2 = kvec**2
    c_delta = math.sin(delta * math.pi) / math.pi

    s, w = _factorization_nodes(t, delta, time_nodes)
    W = _factorization_weights(real.t, s, w, delta)
    J = len(W)
    phi_x = phi_values(kvec, x)
    aW = path.f_at_atoms[:J] * real.z[:J] / sigma_used * W
    jump = _atom_kernel(phi_x, real.x[:J], t - real.t[:J])[0] @ aW
    m = path.modes[0] * np.exp(-k2 * t)               # S(t) u0
    if real.m_restricted != 0.0:
        # closed-form compensator part for constant f
        cflat = cfg.f.constant_value * flat_projection(K, cfg.collocation)
        m -= c_delta * real.m_restricted / sigma_used * cflat * _factorization_compensator(t, delta, time_nodes, K)
    recon = c_delta * jump + float(m @ phi_x)
    return abs(recon - evaluate(path, t, x))
