"""Realizations of the driving noises on [0, T] x [0, pi].

The compensated Levy noise is simulated by drop-with-compensation: jumps
with |z| <= eta are removed together with their compensator (mean preserved,
variance reduced by an exactly known fraction kept on the cell), never
replaced by a Gaussian surrogate. The constants of a (model, eps, eta, T)
cell are resolved once (`noise_cell`); a realization is the atoms of one
path and its cell. Atom times/positions are uniform, marks come from the
cell's sampler of the normalized restriction: exactly for the built-in
families, through a closed-form quantile (stable, the remark family's inner
piece) or by rejection (gamma, the remark log tail), and through a tabulated
inverse CDF for a custom density.
Realizations keep the atoms in draw order; the path solver sorts them by time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AtomCapExceededError,
    BudgetExceededError,
    EmptyRestrictionError,
    InfiniteActivityError,
)
from . import measures

__all__ = [
    "NoiseCell",
    "LevyNoiseRealization",
    "noise_cell",
    "simulate_levy_noise",
    "auto_inner_cutoff",
    "eta_for_atom_budget",
    "dump_atoms",
    "load_atoms",
]

_OPERATION = "simulate_levy_noise"  # the operation named by the errors of a draw


@dataclass(frozen=True, eq=False)
class NoiseCell:
    """The constants of one (model, eps, eta, T) cell, resolved once by `noise_cell`."""

    eps: float
    eta: float
    T: float
    sigma: float                      # sigma(eps) of the model
    sigma_retained: float             # sqrt int_{|z|>eta} z^2 Q_eps
    m_restricted: float               # int_{|z|>eta} z Q_eps
    intensity: float                  # lambda = Q_eps({|z| > eta})
    expected_atoms: float             # pi T lambda, the mean atom count of a path
    dropped_variance_fraction: float  # of sigma^2(eps), carried by the jumps with |z| <= eta
    sampler: measures._MarkSampler | None  # of the marks; None when lambda = 0

    def jump_scale(self, normalization: str) -> float:
        """Divisor of the marks: sigma(eps) for "model", sigma_retained for "retained"."""
        return self.sigma if normalization == "model" else self.sigma_retained


@dataclass(slots=True)
class LevyNoiseRealization:
    """The compensated Poisson atoms of one path, in draw order, and their cell. t and x
    are rows of one (3, n) block, and z is its third row when the marks overwrite their
    pick uniforms (`simulate_levy_noise`); the solver sorts the atoms by time."""

    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    cell: NoiseCell

    def __len__(self) -> int:
        return len(self.t)


def _check_limits(rho_budget: float, atom_cap: float) -> None:
    """ValueError naming the argument unless rho_budget >= 0 and atom_cap > 0 (NaN fails both)."""
    if not rho_budget >= 0:
        raise ValueError(f"rho_budget must be >= 0, got {rho_budget!r}")
    if not atom_cap > 0:
        raise ValueError(f"atom_cap must be > 0, got {atom_cap!r}")


def simulate_levy_noise(
    model: measures.LevyModel,
    eps: float,
    eta: float,
    T: float,
    rng: np.random.Generator,
    *,
    rho_budget: float = 1e-3,
    atom_cap: float = 1e8,
) -> LevyNoiseRealization:
    """One realization of the restricted compensated noise; deterministic per stream.

    Before any draw, the arguments are checked (`_check_limits`), the cell is
    looked up (`noise_cell`), and its dropped variance fraction is held to
    rho_budget, its expected atom count to atom_cap, and its restriction must
    carry mass. Then n ~ Poisson(pi T lambda) and one block rng.random((3, n)),
    the doubles of three rng.random(n) calls: the times (scaled by T), the
    positions (by pi) and the pick uniforms of the marks, which the sampler
    overwrites with the marks where it can (`measures._MarkSampler.marks`).
    """
    _check_limits(rho_budget, atom_cap)
    cell = noise_cell(model, eps, eta, T)
    if not cell.dropped_variance_fraction <= rho_budget:
        raise BudgetExceededError(f"dropped variance fraction {cell.dropped_variance_fraction:.3g} exceeds "
                                  f"rho_budget={rho_budget:.3g}; use a smaller eta", operation=_OPERATION)
    if not cell.expected_atoms <= atom_cap:
        raise AtomCapExceededError(f"expected atom count {cell.expected_atoms:.3g} exceeds "
                                   f"atom_cap={atom_cap:.3g}; use a larger eta", operation=_OPERATION)
    if cell.sampler is None:
        raise EmptyRestrictionError(f"restriction above eta={eta} carries no mass", operation=_OPERATION)
    t, x, u = rng.random((3, int(rng.poisson(cell.expected_atoms))))
    t *= T
    x *= math.pi
    return LevyNoiseRealization(t, x, cell.sampler.marks(u, rng), cell)


def noise_cell(model: measures.LevyModel, eps: float, eta: float, T: float) -> NoiseCell:
    """The cell of (model, eps, eta, T), resolved once and kept on the model. Resolving it
    raises a ValueError unless T > 0 and eta >= 0 (NaN fails both), and an
    InfiniteActivityError when the restriction has infinite mass or its marks
    cannot be drawn (gamma at eps = inf)."""
    return model.memo(("noise_cell", eps, eta, T), lambda: _resolve_cell(model, eps, eta, T))


def _resolve_cell(model: measures.LevyModel, eps: float, eta: float, T: float) -> NoiseCell:
    if not T > 0:
        raise ValueError(f"horizon T must be positive, got {T!r}")
    if not eta >= 0:
        raise ValueError(f"inner cutoff eta must be nonnegative, got {eta!r}")
    var = measures.variance(model, eps)
    lam = measures.restricted_mass(model, eps, eta)
    if math.isinf(lam):
        raise InfiniteActivityError(f"restriction above eta={eta} has infinite mass; raise eta",
                                    operation=_OPERATION)
    retained2 = measures.restricted_moment2(model, eps, eta)
    return NoiseCell(eps, eta, T, math.sqrt(var), math.sqrt(retained2), measures.restricted_mean(model, eps, eta),
                     lam, lam * T * math.pi, max(0.0, 1.0 - retained2 / var),
                     model.sampler(eps, eta) if lam > 0.0 else None)


def auto_inner_cutoff(
    model: measures.LevyModel,
    eps: float,
    T: float,
    *,
    rho_budget: float = 1e-3,
    atom_cap: float = 1e8,
) -> float:
    """Largest eta whose dropped-variance fraction stays within budget.

    Bisects on log eta; raises AtomCapExceeded when even that eta implies
    more expected atoms than the cap (budget and cap incompatible).
    """
    if not 0.0 < rho_budget < 1.0:
        raise ValueError("auto selection needs a dropped-variance budget in (0, 1)")
    var = measures.variance(model, eps)

    def within(eta: float) -> bool:
        return max(0.0, 1.0 - measures.restricted_moment2(model, eps, eta) / var) <= rho_budget

    eta = _search_ceiling(model, eps, within)
    if not within(eta):
        eta, _ = _log_bisect(within, eta)
        if not within(eta):
            raise BudgetExceededError(
                f"even eta={eta:.3g} drops more variance than the budget {rho_budget:.3g}",
                operation="auto_inner_cutoff",
            )
    lam = measures.restricted_mass(model, eps, eta)
    if lam * T * math.pi > atom_cap:
        raise AtomCapExceededError(
            f"meeting the variance budget needs ~{lam * T * math.pi:.3g} atoms "
            f"(cap {atom_cap:.3g}); loosen rho_budget or the cap",
            operation="auto_inner_cutoff",
        )
    return eta


def eta_for_atom_budget(
    model: measures.LevyModel, eps: float, T: float, expected_atoms: float
) -> float:
    """Smallest inner cutoff whose expected atom count stays within a budget.

    Used by experiments that trade a documented dropped-variance fraction for
    a bounded simulation cost (infinite-activity families at small eps).
    """
    if expected_atoms <= 0:
        raise ValueError("atom budget must be positive")
    target = expected_atoms / (T * math.pi)

    def lam(eta: float) -> float:
        return measures.restricted_mass(model, eps, eta)

    if math.isfinite(lam(0.0)) and lam(0.0) <= target:
        return 0.0
    above = lambda eta: lam(eta) > target
    return _log_bisect(above, _search_ceiling(model, eps, above))[1]


def _search_ceiling(model: measures.LevyModel, eps: float, below: Callable[[float], bool]) -> float:
    """Finite upper end of an eta search: the sup of the support when finite.

    For unbounded support the ceiling starts at max(eps, 1), or at 1 when eps
    is infinite, and grows tenfold until `below` is False there.
    """
    sup = model.base.support_sup(eps)
    if math.isfinite(sup):
        return sup
    hi = max(eps, 1.0) if math.isfinite(eps) else 1.0
    while below(hi):
        hi *= 10.0
    return hi


def _log_bisect(below: Callable[[float], bool], hi: float) -> tuple[float, float]:
    """Bracket (lo, hi) of the point where `below` turns from True to False.

    `below` must be True for small eta and False at `hi`. The bracket starts
    at lo = hi * 1e-18; while `below(lo)` is False, lo moves down by that
    factor, stopping at the smallest normal double. The bracket is then
    halved 200 times on log eta. If `below` is False even at the smallest
    normal double, both ends are that double.
    """
    lo = hi * 1e-18
    while not below(lo):
        if lo == sys.float_info.min:
            return lo, lo
        lo = max(lo * 1e-18, sys.float_info.min)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def dump_atoms(realization: LevyNoiseRealization, path: str) -> None:
    """Write atoms as consecutive (t, x, z) little-endian float64 triplets."""
    arr = np.column_stack([realization.t, realization.x, realization.z]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())


def load_atoms(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back (t, x, z) arrays written by `dump_atoms`."""
    raw = np.fromfile(path, dtype="<f8")
    if raw.size % 3:
        raise ValueError(f"atom replay file {path} is not a whole number of triplets")
    arr = raw.reshape(-1, 3)
    return arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy()
