"""Levy measure families, truncation, and the normal-approximation statistics.

A `LevyModel` bundles a base family with a truncation scheme. For each
truncation level eps it yields a concrete finite-variance measure; the module
operations compute

    variance        sigma^2(eps) = int z^2 Q_eps(dz)
    ar_statistic    sigma^-2(eps) int_{|z| > kappa sigma(eps)} z^2 Q_eps(dz)
    delta_statistic sigma^-(2+delta)(eps) int |z|^(2+delta) Q_eps(dz)

by closed form where the family has one and by adaptive quadrature otherwise.
`delta_statistic` returns +inf for measures (such as the log-tail
counterexample family) whose higher moments diverge.

Mark sampling uses tabulated inverse CDFs (4096 nodes, monotone cubic) built
once per (model, eps, eta) and cached; all randomness comes from caller
streams.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import exp1, gammainc, gamma as gamma_fn

from .errors import (
    EmptyRestrictionError,
    InfiniteActivityError,
    NonIntegrableError,
    ZeroVarianceError,
)
from .quadrature import QuadratureConfig, integrate, tail_integral

__all__ = [
    "CompoundPoisson",
    "GammaSubordinator",
    "SymmetricStable",
    "RemarkDensityFamily",
    "CustomDensity",
    "OuterCutoff",
    "FamilyIndex",
    "LevyModel",
    "ARReport",
    "variance",
    "sigma",
    "ar_statistic",
    "ar_scan",
    "delta_statistic",
    "restricted_mean",
    "restricted_mass",
    "restricted_moment2",
    "dropped_variance_fraction",
    "sample_marks",
]

_TABLE_NODES = 4096
# |z| beyond which the remark family's outer tail carries < 1e-14 of its mass
_TAIL_CAP = 1e8


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompoundPoisson:
    """Finite collection of jump atoms (z_i, weight_i), z_i != 0, weight_i > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("compound Poisson family needs at least one atom")
        for z, w in self.atoms:
            if z == 0.0 or w <= 0.0:
                raise ValueError(f"invalid atom (z={z}, weight={w})")

    label = "compound_poisson"


@dataclass(frozen=True)
class GammaSubordinator:
    """Shape-free gamma jump density e^{-z}/z on z > 0."""

    label = "gamma"


@dataclass(frozen=True)
class SymmetricStable:
    """Symmetric stable jump density |z|^{-1-alpha}, alpha in (0, 2)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"stable index must lie in (0, 2), got {self.alpha}")

    @property
    def label(self) -> str:
        return f"stable(alpha={self.alpha:g})"


@dataclass(frozen=True)
class RemarkDensityFamily:
    """Counterexample family indexed directly by eps.

    Density: 1/(2 z^2) on 0 < |z| <= eps plus the heavy log-corrected tail
    eps^2 / (2 C |z|^3 log(1+|z|)^2) on |z| > 1, where
    C = int_1^inf z^-1 log(1+z)^-2 dz. Its variance is eps + eps^2 while
    every absolute moment of order 2+delta, delta > 0, is infinite.
    """

    label = "remark"


@dataclass(frozen=True)
class CustomDensity:
    """User density with explicit support; integrability is checked at model build.

    `density` must be vectorized over numpy arrays. `support` endpoints may be
    infinite; the origin must not be an interior atom (Q({0}) = 0 by
    convention since densities are used).
    """

    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    name: str = "custom"

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError(f"empty support interval {self.support}")

    @property
    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class OuterCutoff:
    """Small-jump truncation: restrict the base measure to {|z| <= eps}."""

    label = "outer"


@dataclass(frozen=True)
class FamilyIndex:
    """The whole measure depends on eps directly (counterexample family)."""

    label = "family_index"


# ---------------------------------------------------------------------------
# measure views: one concrete measure per (model, eps)
# ---------------------------------------------------------------------------

# lazily computed constants of the remark family
_remark_lock = threading.Lock()
_remark_consts: dict[str, float] = {}


def _log_tail(a: float, power: float, config: QuadratureConfig) -> float:
    """int_a^inf z^power / (z log(1+z)^2) dz for a >= 1, via u = log(1+z).

    With z = e^u - 1 the integrand becomes (e^u - 1)^power e^u /
    ((e^u - 1) u^2); for power <= 0 the tail decays at least like u^-2, which
    the doubling scheme resolves geometrically.  For power > 0 divergence is
    flagged by the same scheme.
    """
    u0 = math.log1p(a)

    def g(u):
        if u < 40.0:
            z = math.expm1(u)
            return z ** power * math.exp(u) / (z * u * u)
        # e^u/(e^u - 1) = 1 to double precision; keep the exponent in log form
        log_g = power * u - 2.0 * math.log(u)
        return math.exp(log_g) if log_g < 700.0 else 1e304

    return tail_integral(g, u0, config)


def _remark_constant(name: str, config: QuadratureConfig) -> float:
    with _remark_lock:
        if name not in _remark_consts:
            if name == "C":
                _remark_consts[name] = _log_tail(1.0, 0.0, config)
            elif name == "K0":  # int_1^inf z^-3 log(1+z)^-2 dz
                _remark_consts[name] = _log_tail(1.0, -2.0, config)
            else:
                raise KeyError(name)
        return _remark_consts[name]


@dataclass(frozen=True)
class _Segment:
    """One signed support piece of a concrete measure, with its density."""

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    # closed-form integral of z^2 * density over (a, b], None -> quadrature
    moment2: Callable[[float, float], float] | None = None


class _View:
    """Concrete measure Q_eps (atoms or density segments) with moment helpers."""

    def __init__(self, model: "LevyModel", eps: float):
        self.model = model
        self.eps = float(eps)
        self.base = model.base
        self.cfg = model.quadrature
        b = self.base
        if isinstance(b, CompoundPoisson):
            kept = [(z, w) for z, w in b.atoms if abs(z) <= eps]
            self._atoms = np.array([z for z, _ in kept])
            self._weights = np.array([w for _, w in kept])
        else:
            self._atoms = None

    # -- support ------------------------------------------------------------
    @property
    def support_sup(self) -> float:
        b = self.base
        if isinstance(b, CompoundPoisson):
            return float(np.max(np.abs(self._atoms))) if self._atoms.size else 0.0
        if isinstance(b, RemarkDensityFamily):
            return math.inf
        if isinstance(b, CustomDensity):
            lo, hi = b.support
            return min(max(abs(lo), abs(hi)), self.eps)
        return self.eps

    @property
    def symmetric(self) -> bool:
        b = self.base
        if isinstance(b, (SymmetricStable, RemarkDensityFamily)):
            return True
        if isinstance(b, CompoundPoisson):
            atoms = sorted(self._atoms_kept())
            mirrored = sorted((-z, w) for z, w in atoms)
            return all(
                math.isclose(a[0], m[0], rel_tol=0, abs_tol=1e-15) and a[1] == m[1]
                for a, m in zip(atoms, mirrored)
            )
        return False

    def _atoms_kept(self):
        return [(float(z), float(w)) for z, w in zip(self._atoms, self._weights)]

    # -- moments over {|z| > a} ----------------------------------------------
    def mass_above(self, a: float) -> float:
        return self._moment_above(0.0, a)

    def moment1_above(self, a: float) -> float:
        b, eps = self.base, self.eps
        if isinstance(b, CompoundPoisson):
            return float(np.sum(self._atoms * self._weights * (np.abs(self._atoms) > a)))
        if isinstance(b, (SymmetricStable, RemarkDensityFamily)):
            return 0.0
        if isinstance(b, GammaSubordinator):
            lo = max(a, 0.0)
            if lo >= eps:
                return 0.0
            return math.exp(-lo) - math.exp(-eps)
        return self._quad_signed_moment1(a)

    def moment2_above(self, a: float) -> float:
        return self._moment_above(2.0, a)

    def abs_moment_above(self, p: float, a: float) -> float:
        return self._moment_above(p, a)

    def _moment_above(self, p: float, a: float) -> float:
        """int_{|z| > a} |z|^p Q_eps(dz); may return +inf or raise."""
        b, eps, cfg = self.base, self.eps, self.cfg
        a = max(a, 0.0)
        if isinstance(b, CompoundPoisson):
            mask = np.abs(self._atoms) > a
            return float(np.sum(np.abs(self._atoms[mask]) ** p * self._weights[mask]))
        if isinstance(b, GammaSubordinator):
            if a >= eps:
                return 0.0
            if p == 0.0:
                if a == 0.0:
                    return math.inf
                return float(exp1(a) - exp1(eps))
            # int_a^eps z^(p-1) e^-z dz via regularized lower incomplete gamma
            return float(gamma_fn(p) * (gammainc(p, eps) - gammainc(p, a)))
        if isinstance(b, SymmetricStable):
            al = b.alpha
            if a >= eps:
                return 0.0
            if p == 0.0:
                if a == 0.0:
                    return math.inf
                return (2.0 / al) * (a ** -al - eps ** -al)
            ex = p - al
            if a == 0.0 and ex <= 0.0:
                return math.inf
            return 2.0 * (eps ** ex - (a ** ex if a > 0.0 else 0.0)) / ex
        if isinstance(b, RemarkDensityFamily):
            return self._remark_moment(p, a)
        return self._quad_abs_moment(p, a)

    def _remark_moment(self, p: float, a: float) -> float:
        eps, cfg = self.eps, self.cfg
        C = _remark_constant("C", cfg)
        # inner piece: |z|^p / (2 z^2) on (a, eps], both signs
        inner = 0.0
        if a < eps:
            ex = p - 1.0
            if p == 0.0:
                if a == 0.0:
                    return math.inf
                inner = 1.0 / a - 1.0 / eps
            elif abs(ex) < 1e-14:
                inner = math.log(eps / a) if a > 0 else math.inf
            elif ex < 0.0 and a == 0.0:
                return math.inf
            else:
                inner = (eps ** ex - (a ** ex if a > 0.0 else 0.0)) / ex
        # outer piece: |z|^p eps^2 / (2 C |z|^3 log(1+|z|)^2) on |z| > max(a, 1)
        lo = max(a, 1.0)
        if p == 2.0 and lo == 1.0:
            outer = eps ** 2  # the defining normalization of the tail
        elif p == 0.0 and lo == 1.0:
            outer = eps ** 2 * _remark_constant("K0", cfg) / C
        else:
            outer = eps ** 2 / C * _log_tail(lo, p - 2.0, cfg)
        return inner + outer

    # -- quadrature fallbacks (custom densities) -----------------------------
    def _segments(self, floor: float = 0.0) -> list[_Segment]:
        """Signed support pieces of Q_eps restricted to {|z| > floor}."""
        b, eps = self.base, self.eps
        segs: list[_Segment] = []
        if isinstance(b, GammaSubordinator):
            if floor < eps:
                segs.append(_Segment(floor, eps, lambda z: np.exp(-z) / z))
        elif isinstance(b, SymmetricStable):
            al = b.alpha
            if floor < eps:
                dens = lambda z: np.abs(z) ** (-1.0 - al)
                segs.append(_Segment(-eps, -floor, dens))
                segs.append(_Segment(floor, eps, dens))
        elif isinstance(b, RemarkDensityFamily):
            C = _remark_constant("C", self.cfg)
            inner = lambda z: 0.5 / z ** 2
            e2 = eps ** 2
            outer = lambda z: e2 / (2.0 * C * np.abs(z) ** 3 * np.log1p(np.abs(z)) ** 2)
            if floor < eps:
                segs.append(_Segment(-eps, -floor, inner))
                segs.append(_Segment(floor, eps, inner))
            lo = max(floor, 1.0)
            segs.insert(0, _Segment(-_TAIL_CAP, -lo, outer))
            segs.append(_Segment(lo, _TAIL_CAP, outer))
        elif isinstance(b, CustomDensity):
            lo, hi = b.support
            lo_eff, hi_eff = max(lo, -eps), min(hi, eps)
            if lo_eff < -floor:
                segs.append(_Segment(lo_eff, -floor if floor > 0 else min(hi_eff, 0.0), b.density))
            if hi_eff > floor:
                segs.append(_Segment(max(floor, max(lo_eff, 0.0)), hi_eff, b.density))
        return [s for s in segs if s.lo < s.hi]

    def _quad_abs_moment(self, p: float, a: float) -> float:
        total = 0.0
        for seg in self._segments(floor=a):
            f = lambda z, d=seg.density: abs(z) ** p * float(d(np.asarray(z)))
            if math.isinf(seg.hi) or math.isinf(-seg.lo):
                lo = max(abs(min(seg.lo, 0.0)), seg.lo)
                val = tail_integral(lambda z: f(z) + f(-z) if seg.lo < 0 else f(z), max(seg.lo, 1e-300), self.cfg)
                total += val
            else:
                lo, hi = sorted((abs(seg.lo), abs(seg.hi)))
                g = (lambda z, d=seg.density: abs(z) ** p * float(d(np.asarray(-z)))) if seg.hi <= 0 else f
                total += integrate(g, lo, hi, self.cfg)
            if math.isinf(total):
                return math.inf
        return total

    def _quad_signed_moment1(self, a: float) -> float:
        total = 0.0
        for seg in self._segments(floor=a):
            if seg.hi <= 0:
                lo, hi = abs(seg.hi), abs(seg.lo)
                total -= integrate(lambda z, d=seg.density: z * float(d(np.asarray(-z))), lo, hi, self.cfg)
            else:
                total += integrate(lambda z, d=seg.density: z * float(d(np.asarray(z))), seg.lo, seg.hi, self.cfg)
        return total

    def quadrature_moment(self, p: float, a: float) -> float:
        """Pure-quadrature |z|^p moment (oracle cross-check path)."""
        if self._atoms is not None:
            return self._moment_above(p, a)
        return self._quad_abs_moment(p, a)


# ---------------------------------------------------------------------------
# inverse-CDF mark sampler
# ---------------------------------------------------------------------------

class _MarkSampler:
    """Piecewise inverse-CDF sampler over the signed support of Q_eps above eta."""

    def __init__(self, view: _View, eta: float):
        self.discrete = view._atoms is not None
        if self.discrete:
            mask = np.abs(view._atoms) > eta
            z, w = view._atoms[mask], view._weights[mask]
            if z.size == 0:
                raise EmptyRestrictionError(
                    f"no atoms above eta={eta}", operation="sample_marks"
                )
            self.values = z
            self.probs = w / w.sum()
            return
        segs = view._segments(floor=eta)
        if not segs:
            raise EmptyRestrictionError(
                f"support of the restriction above eta={eta} is empty",
                operation="sample_marks",
            )
        masses, tables = [], []
        n_per = max(64, _TABLE_NODES // max(len(segs), 1))
        for seg in segs:
            lo, hi = seg.lo, seg.hi
            neg = hi <= 0
            alo, ahi = (abs(hi), abs(lo)) if neg else (lo, hi)
            if math.isinf(ahi):
                raise InfiniteActivityError(
                    "cannot tabulate an unbounded segment", operation="sample_marks"
                )
            if alo <= 0:
                raise InfiniteActivityError(
                    "restriction reaches the origin with infinite mass",
                    operation="sample_marks",
                )
            grid = np.geomspace(alo, ahi, n_per)
            dens = (lambda z, d=seg.density: d(-z)) if neg else seg.density
            pm = _panel_masses(dens, grid)
            cdf = np.concatenate(([0.0], np.cumsum(pm)))
            mass = cdf[-1]
            if mass <= 0.0:
                continue
            cdf /= mass
            keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
            inv = PchipInterpolator(cdf[keep], grid[keep])
            masses.append(mass)
            tables.append((inv, -1.0 if neg else 1.0))
        total = float(sum(masses))
        if total <= 0.0:
            raise EmptyRestrictionError(
                f"restriction above eta={eta} carries no mass", operation="sample_marks"
            )
        self.values = None
        self.tables = tables
        self.weights = np.array(masses) / total

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.discrete:
            return rng.choice(self.values, size=count, p=self.probs)
        which = rng.choice(len(self.tables), size=count, p=self.weights)
        u = rng.uniform(0.0, 1.0, size=count)
        out = np.empty(count)
        for i, (inv, sign) in enumerate(self.tables):
            m = which == i
            if np.any(m):
                out[m] = sign * inv(u[m])
        return out


def _panel_masses(density, grid: np.ndarray) -> np.ndarray:
    """Vectorized 16-point Gauss-Legendre mass of each grid panel."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    lo, hi = grid[:-1], grid[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * xg[None, :]
    vals = density(pts)
    return half * np.sum(vals * wg[None, :], axis=1)


# ---------------------------------------------------------------------------
# model and public operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyModel:
    """Immutable Levy-measure family + truncation scheme + quadrature policy."""

    base: CompoundPoisson | GammaSubordinator | SymmetricStable | RemarkDensityFamily | CustomDensity
    trunc: OuterCutoff | FamilyIndex = field(default_factory=OuterCutoff)
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if isinstance(self.base, RemarkDensityFamily):
            if not isinstance(self.trunc, FamilyIndex):
                raise ValueError("the counterexample family is indexed by eps directly; use FamilyIndex")
        elif isinstance(self.trunc, FamilyIndex):
            raise ValueError("FamilyIndex truncation only applies to eps-indexed families")
        if isinstance(self.base, CustomDensity):
            self._check_custom_integrability()
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_lock", threading.RLock())

    def _check_custom_integrability(self):
        b: CustomDensity = self.base
        f = lambda z: min(1.0, z * z) * float(b.density(np.asarray(z)))
        lo, hi = b.support
        total = 0.0
        for s, e in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
            if s >= e:
                continue
            ls, le = sorted((abs(s), abs(e)))
            g = (lambda z: f(-z)) if e <= 0 else f
            if math.isinf(le):
                total += tail_integral(g, max(ls, 1e-12), self.quadrature)
            else:
                total += integrate(g, ls, le, self.quadrature)
        if not math.isfinite(total):
            raise NonIntegrableError(
                "custom density violates int (1 ^ z^2) Q(dz) < inf", operation="LevyModel"
            )

    @property
    def name(self) -> str:
        return self.base.label

    # caches hold locks/interpolators; rebuild them after unpickling
    def __getstate__(self):
        return {"base": self.base, "trunc": self.trunc, "quadrature": self.quadrature}

    def __setstate__(self, state):
        for key, val in state.items():
            object.__setattr__(self, key, val)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_lock", threading.RLock())

    def memo(self, key: tuple, build: Callable[[], object]):
        """The value cached for this model under `key`; `build()` runs once per key."""
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def view(self, eps: float) -> _View:
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        return self.memo(("view", eps), lambda: _View(self, eps))

    def sampler(self, eps: float, eta: float) -> _MarkSampler:
        return self.memo(("sampler", eps, eta), lambda: _MarkSampler(self.view(eps), eta))


def variance(model: LevyModel, eps: float, method: str = "auto") -> float:
    """sigma^2(eps) = int z^2 Q_eps(dz); raises if zero or non-finite."""
    view = model.view(eps)
    if method == "quadrature":
        val = view.quadrature_moment(2.0, 0.0)
    else:
        val = view.moment2_above(0.0)
    if not math.isfinite(val):
        raise NonIntegrableError(f"variance diverges at eps={eps}", operation="variance")
    if val <= 0.0:
        raise ZeroVarianceError(f"sigma^2({eps}) = 0 under this truncation", operation="variance")
    return val


def sigma(model: LevyModel, eps: float) -> float:
    return math.sqrt(variance(model, eps))


def ar_statistic(model: LevyModel, eps: float, kappa: float, method: str = "auto") -> float:
    """Normalized tail second moment above kappa * sigma(eps); lies in [0, 1]."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    var = variance(model, eps, method=method)
    cut = kappa * math.sqrt(var)
    view = model.view(eps)
    if cut >= view.support_sup and not math.isinf(view.support_sup):
        return 0.0
    if method == "quadrature":
        tail = view.quadrature_moment(2.0, cut)
    else:
        tail = view.moment2_above(cut)
    return min(tail / var, 1.0)


def delta_statistic(model: LevyModel, eps: float, delta: float, method: str = "auto") -> float:
    """sigma^-(2+delta) int |z|^(2+delta) Q_eps(dz); +inf marks divergence."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    var = variance(model, eps, method=method)
    p = 2.0 + delta
    view = model.view(eps)
    if method == "quadrature":
        mom = view.quadrature_moment(p, 0.0)
    else:
        mom = view.abs_moment_above(p, 0.0)
    if math.isinf(mom):
        return math.inf
    return mom / var ** (p / 2.0)


@dataclass(frozen=True)
class ARCell:
    eps: float
    kappa: float
    value: float | None
    error: str | None = None


@dataclass(frozen=True)
class ARReport:
    model_name: str
    cells: tuple[ARCell, ...]

    def value(self, eps: float, kappa: float) -> float | None:
        for c in self.cells:
            if c.eps == eps and c.kappa == kappa:
                return c.value
        raise KeyError((eps, kappa))

    def rows(self):
        for c in self.cells:
            yield {
                "model": self.model_name,
                "epsilon": c.eps,
                "kappa": c.kappa,
                "ar_stat": "" if c.value is None else repr(c.value),
                "status": c.error or "ok",
            }


def ar_scan(model: LevyModel, eps_grid: Sequence[float], kappa_grid: Sequence[float]) -> ARReport:
    """AR statistic table over (eps, kappa); invalid cells are marked, not fatal."""
    if len(eps_grid) == 0 or len(kappa_grid) == 0:
        raise ValueError("eps and kappa grids must be nonempty")
    if min(eps_grid) <= 0.0 or min(kappa_grid) <= 0.0:
        raise ValueError("eps and kappa grids must be strictly positive")
    cells = []
    for eps in eps_grid:
        for kappa in kappa_grid:
            try:
                cells.append(ARCell(eps, kappa, ar_statistic(model, eps, kappa)))
            except (ZeroVarianceError, NonIntegrableError) as exc:
                cells.append(ARCell(eps, kappa, None, error=type(exc).__name__))
    return ARReport(model.name, tuple(cells))


def restricted_mass(model: LevyModel, eps: float, eta: float) -> float:
    """lambda = Q_eps({|z| > eta}); may be +inf for eta = 0."""
    return model.view(eps).mass_above(eta)


def restricted_mean(model: LevyModel, eps: float, eta: float) -> float:
    """m = int_{|z| > eta} z Q_eps(dz); exactly 0 for symmetric families."""
    view = model.view(eps)
    lam = view.mass_above(eta)
    if math.isinf(lam):
        raise InfiniteActivityError(
            f"restriction above eta={eta} has infinite mass", operation="restricted_mean"
        )
    if view.symmetric:
        return 0.0
    return view.moment1_above(eta)


def restricted_moment2(model: LevyModel, eps: float, eta: float) -> float:
    return model.view(eps).moment2_above(eta)


def dropped_variance_fraction(model: LevyModel, eps: float, eta: float) -> float:
    """Fraction of sigma^2(eps) carried by jumps with |z| <= eta."""
    var = variance(model, eps)
    return max(0.0, 1.0 - model.view(eps).moment2_above(eta) / var)


def sample_marks(
    model: LevyModel, eps: float, eta: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. draws from Q_eps restricted to {|z| > eta}, normalized."""
    lam = restricted_mass(model, eps, eta)
    if math.isinf(lam):
        raise InfiniteActivityError(
            f"restriction above eta={eta} has infinite mass; raise eta",
            operation="sample_marks",
        )
    if lam <= 0.0:
        raise EmptyRestrictionError(
            f"restriction above eta={eta} carries no mass", operation="sample_marks"
        )
    return model.sampler(eps, eta).sample(count, rng)
