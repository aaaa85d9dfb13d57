"""Levy measure families and the normal-approximation statistics.

A `LevyModel` wraps one base family, which defines the finite-variance
measure Q_eps for each truncation level eps > 0; the module operations compute

    variance        sigma^2(eps) = int z^2 Q_eps(dz)
    ar_statistic    sigma^-2(eps) int_{|z| > kappa sigma(eps)} z^2 Q_eps(dz)
    delta_statistic sigma^-(2+delta)(eps) int |z|^(2+delta) Q_eps(dz)

by closed form where the family has one and by adaptive quadrature otherwise.
`delta_statistic` returns +inf for measures (such as the log-tail
counterexample family) whose higher moments diverge.

Each base family is one object that holds what is known of Q_eps, for eps > 0
and cuts a, floor >= 0:

    support_sup(eps)                  sup{|z| : z in supp Q_eps}
    symmetric(eps)                    Q_eps(-dz) = Q_eps(dz)
    abs_moment(eps, p, a)             int_{|z| > a} |z|^p Q_eps(dz), may be +inf
    moment1(eps, a)                   int_{|z| > a} z Q_eps(dz)
    point_masses(eps)                 the atoms (z, w) of Q_eps; empty for densities
    segments(eps, floor)              the density pieces of Q_eps on {|z| > floor}
    check()                           raise unless Q is a Levy measure

The families keep the small jumps, Q_eps = Q restricted to {|z| <= eps},
except the remark family, whose whole measure depends on eps directly.

`abs_moment` and `moment1` default to the shared quadrature fallback over
`point_masses` and `segments`, which `CustomDensity` uses and which
method="quadrature" calls for every family as an oracle. Nothing outside the
families branches on which family it holds.

Mark sampling draws a segment by its mass (the draw of rng.choice, without
its per-call checks) and then the mark on that segment, exactly where the
family knows the segment's law:

    closed-form quantile  one uniform per mark: the power-law pieces of the
                          stable family and the remark family's inner piece
    rejection             the gamma density e^-z / z on (eta, eps] from a
                          log-uniform proposal, accepted with e^-(z - eta);
                          the remark log tail on (max(eta, 1), _TAIL_CAP] from
                          a truncated Pareto(2) proposal, accepted with
                          (log(1 + lo) / log(1 + z))^2

These segments carry their exact mass. A custom density has neither, and its
segments map one uniform per mark through a tabulated inverse CDF (4096
nodes, monotone cubic, `scipy.interpolate`) whose panel sums give the mass.
Samplers are built once per (model, eps, eta) and cached; all randomness
comes from caller streams.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyRestrictionError,
    InfiniteActivityError,
    NonIntegrableError,
    ZeroVarianceError,
)
from .quadrature import integrate, legendre_nodes, tail_integral

__all__ = [
    "CompoundPoisson",
    "GammaSubordinator",
    "SymmetricStable",
    "RemarkDensityFamily",
    "CustomDensity",
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
# largest atom or segment count drawn by counting passes; a binary search is
# faster beyond ~64 (40k draws on one x86 core: 1.1 vs 1.7 ms at 32 atoms,
# 36 vs 4.1 ms at 1000)
_COUNT_PASS_MAX = 32


# ---------------------------------------------------------------------------
# the family contract
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Segment:
    """The piece sign * (lo, hi] of Q_eps, with density q(r) at |z| = r there.

    0 <= lo < hi <= inf. `tail`, when set, is int_lo^inf r^p q(r) dr as a
    function of p: the remark family's log-corrected tail, which quadrature in
    z does not resolve, is tabulated only up to hi = _TAIL_CAP.

    A piece whose law is known exactly carries its `mass`, int q(r) dr over
    the piece, and one way to draw r from q restricted to it: `quantile`, the
    inverse CDF in closed form, mapping u in [0, 1) to r in [lo, hi] in place
    with quantile(0) = lo, or `draw(count, rng)`, which returns `count` draws that
    depend only on the state of rng and on count. Mirrored pieces share one
    quantile or draw object. The mark sampler tabulates the inverse CDF of a
    piece that has neither.
    """

    sign: float
    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    tail: Callable[[float], float] | None = None
    mass: float | None = None
    quantile: Callable[[np.ndarray], np.ndarray] | None = None
    draw: Callable[[int, np.random.Generator], np.ndarray] | None = None

    def moment(self, p: float) -> float:
        """int r^p q(r) dr over the piece; +inf when it diverges."""
        if self.tail is not None:
            return self.tail(p)
        return integrate(lambda r: r ** p * float(self.density(np.asarray(r))), self.lo, self.hi)

    @property
    def geometric_lo(self) -> float:
        """Where the geometric panels start: lo, or 1e-12 hi for a piece from the origin."""
        return self.lo if self.lo > 0.0 else 1e-12 * self.hi

    def panels(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The panel rule of the piece, shared by the mark tables and the psi table.

        Returns the cuts of n geometric panels from `geometric_lo` to hi, after
        a first panel (0, 1e-12 hi] when the piece starts at the origin; the 16
        Gauss-Legendre nodes of each panel, one row per panel; each panel's
        half-width; and the 16 Gauss-Legendre weights on [-1, 1].
        """
        xg, wg = legendre_nodes(16)
        cuts = np.geomspace(self.geometric_lo, self.hi, n + 1)
        if self.lo == 0.0:
            cuts = np.concatenate(([0.0], cuts))
        mid, half = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * (cuts[1:] - cuts[:-1])
        return cuts, mid[:, None] + half[:, None] * xg, half, wg


def _power_quantile(lo: float, hi: float, alpha: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """Inverse CDF of the density r^(-1-alpha) on (lo, hi], 0 < lo < hi < inf:
    r = (lo^-alpha - u (lo^-alpha - hi^-alpha))^(-1/alpha), written as
    lo (1 - u (1 - (lo/hi)^alpha))^(-1/alpha) so that quantile(0) = lo exactly
    and tiny lo does not overflow. None at lo = 0, where the mass is infinite.
    The map overwrites u with r and returns it."""
    if lo == 0.0:
        return None
    c = -math.expm1(alpha * math.log(lo / hi))

    def quantile(u):
        u *= c
        np.subtract(1.0, u, out=u)
        u **= -1.0 / alpha
        u *= lo
        return u

    return quantile


@dataclass(frozen=True, eq=False)
class _Rejection:
    """draw(count, rng) by rejection: a proposal r = propose(u) is kept when
    v < accept(r), for independent uniforms u, v.

    `rate` is the exact acceptance probability, the mass of the target over
    the mass of the envelope. Each round draws the uniforms of n proposals as
    one (2, n) block, with n = need / rate plus three standard deviations
    (rounded up), and keeps the first `need` accepted in draw order; the
    rounds repeat until `count` marks are kept, so the draws depend only on
    the state of rng and on count. A first round that fills is returned as it
    is; a count of 0 draws nothing.
    """

    propose: Callable[[np.ndarray], np.ndarray]
    accept: Callable[[np.ndarray], np.ndarray]
    rate: float

    def __call__(self, count: int, rng: np.random.Generator) -> np.ndarray:
        out, filled = np.empty(0), 0
        while filled < count:
            need = count - filled
            u, v = rng.random((2, int((need + 3.0 * math.sqrt(need)) / self.rate) + 1))
            r = self.propose(u)
            r = r[v < self.accept(r)][:need]
            if len(r) == count:
                return r
            if not filled:
                out = np.empty(count)
            out[filled:filled + len(r)] = r
            filled += len(r)
        return out


def _gamma_draw(lo: float, hi: float, mass: float) -> _Rejection:
    """Draws of e^-r / r on (lo, hi], 0 < lo < hi < inf, with int = mass.

    The proposal is log-uniform, r = hi (lo/hi)^u, whose density
    1 / (r log(hi/lo)) envelopes e^-r / r after scaling by e^-lo log(hi/lo);
    r is kept with probability e^-(r - lo) >= e^-hi.
    """
    span = math.log(hi / lo)
    return _Rejection(lambda u: hi * np.exp(-span * u), lambda r: np.exp(lo - r),
                      mass / (math.exp(-lo) * span))


def _quadrature_moment(family, eps: float, p: float, a: float) -> float:
    """The shared fallback for int_{|z| > a} |z|^p Q_eps(dz), a >= 0: a sum over
    the atoms plus quadrature over the density segments; +inf when it diverges."""
    z, w = family.point_masses(eps)
    mask = np.abs(z) > a
    total = float(np.sum(np.abs(z[mask]) ** p * w[mask]))
    for seg in family.segments(eps, a):
        total += seg.moment(p)
        if math.isinf(total):
            return math.inf
    return total


def _quadrature_moment1(family, eps: float, a: float) -> float:
    """The shared fallback for int_{|z| > a} z Q_eps(dz), a >= 0."""
    z, w = family.point_masses(eps)
    total = float(np.sum(z * w * (np.abs(z) > a)))
    for seg in family.segments(eps, a):
        total += seg.sign * seg.moment(1.0)
    return total


class _Family:
    """Defaults of the family contract; a family overrides what it knows in closed form."""

    def support_sup(self, eps: float) -> float:
        return eps

    def symmetric(self, eps: float) -> bool:
        return False

    def point_masses(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        return np.empty(0), np.empty(0)

    def segments(self, eps: float, floor: float) -> list[_Segment]:
        return []

    abs_moment = _quadrature_moment
    moment1 = _quadrature_moment1

    def check(self) -> None:
        """Raise unless int min(1, z^2) Q(dz) < inf; the closed-form families satisfy it."""


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompoundPoisson(_Family):
    """Finite collection of jump atoms (z_i, weight_i), z_i != 0, weight_i > 0."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("compound Poisson family needs at least one atom")
        for z, w in self.atoms:
            if z == 0.0 or w <= 0.0:
                raise ValueError(f"invalid atom (z={z}, weight={w})")

    label = "compound_poisson"

    def support_sup(self, eps):
        z, _ = self.point_masses(eps)
        return float(np.max(np.abs(z))) if z.size else 0.0

    def symmetric(self, eps):
        kept = sorted(zip(*self.point_masses(eps)))
        mirrored = sorted((-z, w) for z, w in kept)
        return all(
            math.isclose(a[0], m[0], rel_tol=0, abs_tol=1e-15) and a[1] == m[1]
            for a, m in zip(kept, mirrored)
        )

    def point_masses(self, eps):
        kept = [(z, w) for z, w in self.atoms if abs(z) <= eps]
        return np.array([z for z, _ in kept]), np.array([w for _, w in kept])


@dataclass(frozen=True)
class GammaSubordinator(_Family):
    """Shape-free gamma jump density e^{-z}/z on z > 0."""

    label = "gamma"

    def abs_moment(self, eps, p, a):
        from scipy.special import exp1, gammainc, gamma as gamma_fn  # on first use: only gamma moments need it

        if a >= eps:
            return 0.0
        if p == 0.0:
            if a == 0.0:
                return math.inf
            return float(exp1(a) - exp1(eps))
        # int_a^eps z^(p-1) e^-z dz via regularized lower incomplete gamma
        return float(gamma_fn(p) * (gammainc(p, eps) - gammainc(p, a)))

    def moment1(self, eps, a):
        return math.exp(-a) - math.exp(-eps) if a < eps else 0.0

    def segments(self, eps, floor):
        if floor >= eps:
            return []
        dens = lambda r: np.exp(-r) / r
        if floor == 0.0:
            return [_Segment(1.0, floor, eps, dens)]  # infinite mass: the sampler raises
        mass = self.abs_moment(eps, 0.0, floor)
        return [_Segment(1.0, floor, eps, dens, mass=mass, draw=_gamma_draw(floor, eps, mass))]


@dataclass(frozen=True)
class SymmetricStable(_Family):
    """Symmetric stable jump density |z|^{-1-alpha}, alpha in (0, 2)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"stable index must lie in (0, 2), got {self.alpha}")

    @property
    def label(self) -> str:
        return f"stable(alpha={self.alpha:g})"

    def symmetric(self, eps):
        return True

    def abs_moment(self, eps, p, a):
        al = self.alpha
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

    def segments(self, eps, floor):
        if floor >= eps:
            return []
        al = self.alpha
        dens = lambda r: r ** (-1.0 - al)
        # each side carries half the mass; at floor 0 it is infinite and the sampler raises
        exact = {} if floor == 0.0 else {"mass": 0.5 * self.abs_moment(eps, 0.0, floor),
                                         "quantile": _power_quantile(floor, eps, al)}
        return [_Segment(-1.0, floor, eps, dens, **exact), _Segment(1.0, floor, eps, dens, **exact)]


def _log_tail(a: float, power: float) -> float:
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

    return tail_integral(g, u0)


@lru_cache(maxsize=None)
def _remark_constant(name: str) -> float:
    """C = int_1^inf z^-1 log(1+z)^-2 dz or K0 = int_1^inf z^-3 log(1+z)^-2 dz, on first use."""
    return _log_tail(1.0, {"C": 0.0, "K0": -2.0}[name])


@dataclass(frozen=True)
class RemarkDensityFamily(_Family):
    """Counterexample family indexed directly by eps.

    Density: 1/(2 z^2) on 0 < |z| <= eps plus the heavy log-corrected tail
    eps^2 / (2 C |z|^3 log(1+|z|)^2) on |z| > 1, where
    C = int_1^inf z^-1 log(1+z)^-2 dz. Its variance is eps + eps^2 while
    every absolute moment of order 2+delta, delta > 0, is infinite.
    """

    label = "remark"

    def support_sup(self, eps):
        return math.inf

    def symmetric(self, eps):
        return True

    def abs_moment(self, eps, p, a):
        C = _remark_constant("C")
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
            outer = eps ** 2 * _remark_constant("K0") / C
        else:
            outer = eps ** 2 / C * _log_tail(lo, p - 2.0)
        return inner + outer

    def segments(self, eps, floor):
        C = _remark_constant("C")
        e2 = eps ** 2
        inner = lambda r: 0.5 / r ** 2
        outer = lambda r: e2 / (2.0 * C * r ** 3 * np.log1p(r) ** 2)
        lo = max(floor, 1.0)
        tail = lambda p: e2 / (2.0 * C) * _log_tail(lo, p - 2.0)
        outer_exact = {}
        if lo < _TAIL_CAP:
            # the mass of each tail side; the part beyond _TAIL_CAP is below 1e-14 of it
            k = _remark_constant("K0") if lo == 1.0 else _log_tail(lo, -2.0)
            # a Pareto(2) proposal on (lo, _TAIL_CAP] with density ~ r^-3, which
            # envelopes q after scaling by 1 / log(1 + lo)^2
            envelope = 0.5 * (lo ** -2 - _TAIL_CAP ** -2) / math.log1p(lo) ** 2
            draw = _Rejection(_power_quantile(lo, _TAIL_CAP, 2.0),
                              lambda r: np.square(math.log1p(lo) / np.log1p(r)), k / envelope)
            outer_exact = {"mass": e2 / (2.0 * C) * k, "draw": draw}
        pieces = [_Segment(-1.0, lo, _TAIL_CAP, outer, tail, **outer_exact)]
        if floor < eps:
            # each side of 1/(2 r^2) carries (1/floor - 1/eps) / 2; infinite at floor 0
            exact = {} if floor == 0.0 else {"mass": 0.5 * (1.0 / floor - 1.0 / eps),
                                             "quantile": _power_quantile(floor, eps, 1.0)}
            pieces += [_Segment(-1.0, floor, eps, inner, **exact), _Segment(1.0, floor, eps, inner, **exact)]
        pieces.append(_Segment(1.0, lo, _TAIL_CAP, outer, tail, **outer_exact))
        return [s for s in pieces if s.lo < s.hi]


@dataclass(frozen=True)
class CustomDensity(_Family):
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

    def support_sup(self, eps):
        lo, hi = self.support
        return min(max(abs(lo), abs(hi)), eps)

    def segments(self, eps, floor):
        lo, hi = max(self.support[0], -eps), min(self.support[1], eps)
        q = self.density
        pieces = [_Segment(-1.0, max(floor, -hi, 0.0), -lo, lambda r: q(-r)),
                  _Segment(1.0, max(floor, lo, 0.0), hi, q)]
        return [s for s in pieces if s.lo < s.hi]

    def check(self):
        # int min(1, z^2) Q(dz): the second moment on |z| <= 1 plus the mass on |z| > 1
        total = _quadrature_moment(self, 1.0, 2.0, 0.0) + _quadrature_moment(self, math.inf, 0.0, 1.0)
        if not math.isfinite(total):
            raise NonIntegrableError(
                "custom density violates int (1 ^ z^2) Q(dz) < inf", operation="LevyModel"
            )


# ---------------------------------------------------------------------------
# mark sampler
# ---------------------------------------------------------------------------

class _MarkSampler:
    """Sampler of Q_eps restricted to {|z| > eta}: a categorical draw over the
    atoms, or a draw of a signed density segment by its mass and then of the
    mark on that segment.

    A segment draws its marks in one of three ways: its closed-form quantile
    maps one uniform per mark; its `draw` (a rejection sampler) takes the
    stream itself; and a segment with neither, as a custom density has, maps
    one uniform per mark through an inverse CDF tabulated here, the only place
    that builds a table. The segment masses are the exact masses the families
    give with a quantile or draw, and the panel sums of the tabulated CDF
    otherwise.

    The atom or segment is drawn as rng.choice(n, count, p=probs) draws it,
    bit for bit and from the same uniforms, without its per-call checks: the
    normalized cumulative probabilities `cdf` are built once, and a uniform u
    picks index #{i < n - 1 : u >= cdf[i]}, which is rng.choice's
    cdf.searchsorted(u, side="right"). Then one block rng.random(n_u), the
    same draws as rng.uniform(0, 1, n_u), serves the n_u marks on segments
    mapped from uniforms, in mark order, and the rejection segments draw
    their marks after it, segment by segment. When every segment shares one
    map and has sign +1.0 (gamma), the pick uniforms are drawn and the pick
    is left out: every index would give the same map and the same sign.
    """

    def __init__(self, model: "LevyModel", eps: float, eta: float):
        z, w = model.base.point_masses(eps)
        mask = np.abs(z) > eta
        self.discrete = bool(mask.any())
        if self.discrete:
            self.values = z[mask]
            self.probs = w[mask] / w[mask].sum()
            self.cdf = _choice_cdf(self.probs)
            return
        segs = model.base.segments(eps, eta)
        masses, signs, maps, group = [], [], [], []
        n_per = max(64, _TABLE_NODES // max(len(segs), 1))
        for seg in segs:
            mark = seg.quantile or seg.draw
            if mark is None:
                if math.isinf(seg.hi):
                    raise InfiniteActivityError(
                        "cannot tabulate an unbounded segment", operation="sample_marks"
                    )
                grid, cdf = _segment_cdf(seg, n_per)
                mass = cdf[-1]
            else:
                mass = seg.mass
            if not math.isfinite(mass):
                raise InfiniteActivityError(
                    f"segment ({seg.lo:.3g}, {seg.hi:.3g}] has infinite mass", operation="sample_marks"
                )
            if mass <= 0.0:
                continue
            if mark is None:
                cdf /= mass
                keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
                mark = _inverse_table(cdf[keep], grid[keep])
            if mark not in maps:  # functions, draws and tables compare by identity
                maps.append(mark)
            masses.append(mass)
            signs.append(seg.sign)
            group.append(maps.index(mark))
        total = float(sum(masses))
        if total <= 0.0:
            raise EmptyRestrictionError(
                f"restriction above eta={eta} carries no mass", operation="sample_marks"
            )
        self.probs = np.array(masses) / total
        self.cdf = _choice_cdf(self.probs)
        self.signs = np.array(signs)
        # every segment on one map and of sign +1.0 (gamma): the marks need no pick
        self.one_positive_map = len(maps) == 1 and bool((self.signs == 1.0).all())
        self.maps = maps
        self.rejects = np.array([isinstance(m, _Rejection) for m in maps])
        self.group = np.array(group)

    def _pick(self, u: np.ndarray) -> np.ndarray:
        """The atom or segment indices that rng.choice draws by `probs` from the uniforms u.

        Up to _COUNT_PASS_MAX atoms or segments, one comparison per inner cdf
        node counted into 8-bit indices (one comparison alone for two), which
        is several times faster than a binary search for a few of them; beyond
        that, the binary search rng.choice makes. Both give the same indices.
        """
        if len(self.cdf) > _COUNT_PASS_MAX:
            return self.cdf.searchsorted(u, side="right")
        if len(self.cdf) == 1:
            return np.zeros(len(u), dtype=np.uint8)
        idx = (u >= self.cdf[0]).view(np.uint8)
        for c in self.cdf[1:-1]:
            idx += u >= c
        return idx

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(count)
        if not self.discrete and self.one_positive_map:
            # the pick uniforms are drawn and spent, and the product with +1.0 is exact
            mark = self.maps[0]
            return mark(count, rng) if self.rejects[0] else mark(rng.random(count, out=u))
        which = self._pick(u)
        if self.discrete:
            return self.values.take(which, mode="clip")  # the indices are in range
        if len(self.maps) == 1:
            # one map for every segment (the stable pair, gamma, a remark cell
            # above eps): no masks. The spent uniforms take the signs, and as
            # the signs are +-1.0 the product with them is exact
            mark = self.maps[0]
            sign = self.signs.take(which, out=u, mode="clip")
            del which
            r = mark(count, rng) if self.rejects[0] else mark(rng.random(count))
            r *= sign
            return r
        groups = self.group[which]
        from_uniform = ~self.rejects[groups]
        u[from_uniform] = rng.random(np.count_nonzero(from_uniform))
        out = np.empty(count)
        for g, mark in enumerate(self.maps):
            m = groups == g
            if np.any(m):
                r = mark(np.count_nonzero(m), rng) if self.rejects[g] else mark(u[m])
                out[m] = self.signs[which[m]] * r
        return out


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The normalized cumulative sum that rng.choice(n, p=p) searches its uniforms in."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _segment_cdf(seg: _Segment, n_per: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid of n_per nodes on (lo, hi] and the unnormalized CDF of a segment that
    has no exact law (a custom density's), for its inverse-CDF table.

    The grid is the cuts of the segment's panels. A segment from the origin
    starts at 0, and its first panel (0, 1e-12 hi] goes to the adaptive rule,
    which flags an infinite mass (returned as +inf) instead of missing it
    between Gauss nodes.
    """
    grid, nodes, half, wg = seg.panels(n_per - 1 if seg.lo > 0.0 else n_per - 2)
    panels = half * np.sum(seg.density(nodes) * wg, axis=1)
    if seg.lo == 0.0:
        try:
            with np.errstate(over="ignore"):
                panels[0] = integrate(lambda r: float(seg.density(np.asarray(r))), 0.0, grid[1])
        except NonIntegrableError:
            panels[0] = math.inf
    return grid, np.concatenate(([0.0], np.cumsum(panels)))


def _inverse_table(cdf: np.ndarray, grid: np.ndarray):
    """Monotone cubic (PCHIP) inverse of a tabulated CDF, mapping cdf nodes onto grid nodes."""
    from scipy.interpolate import PchipInterpolator  # on first use: only custom densities build a table

    return PchipInterpolator(cdf, grid)


# ---------------------------------------------------------------------------
# model and public operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyModel:
    """Immutable Levy-measure family, with a per-model cache of samplers and cell constants."""

    base: CompoundPoisson | GammaSubordinator | SymmetricStable | RemarkDensityFamily | CustomDensity

    def __post_init__(self):
        self.base.check()
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_lock", threading.RLock())

    @property
    def name(self) -> str:
        return self.base.label

    # caches hold locks/interpolators; rebuild them after unpickling
    def __getstate__(self):
        return {"base": self.base}

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

    def sampler(self, eps: float, eta: float) -> _MarkSampler:
        return self.memo(("sampler", eps, eta), lambda: _MarkSampler(self, eps, eta))


def _moment(model: LevyModel, eps: float, p: float, a: float, method: str = "auto") -> float:
    """int_{|z| > a} |z|^p Q_eps(dz) in the family's closed form, or by the shared
    fallback for method="quadrature" (oracle cross-check); may be +inf."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if method == "quadrature":
        return _quadrature_moment(model.base, eps, p, max(a, 0.0))
    return model.base.abs_moment(eps, p, max(a, 0.0))


def variance(model: LevyModel, eps: float, method: str = "auto") -> float:
    """sigma^2(eps) = int z^2 Q_eps(dz); raises if zero or non-finite."""
    val = _moment(model, eps, 2.0, 0.0, method)
    if not math.isfinite(val):
        raise NonIntegrableError(f"variance diverges at eps={eps}", operation="variance")
    if val <= 0.0:
        raise ZeroVarianceError(f"sigma^2({eps}) = 0 under this truncation", operation="variance")
    return val


def sigma(model: LevyModel, eps: float) -> float:
    return math.sqrt(variance(model, eps))


def ar_statistic(model: LevyModel, eps: float, kappa: float, method: str = "auto") -> float:
    """Normalized tail second moment above kappa * sigma(eps); lies in [0, 1]."""
    if not kappa > 0.0:  # NaN fails too
        raise ValueError(f"kappa must be positive, got {kappa}")
    var = variance(model, eps, method=method)
    cut = kappa * math.sqrt(var)
    if cut >= model.base.support_sup(eps):
        return 0.0
    tail = _moment(model, eps, 2.0, cut, method)
    return min(tail / var, 1.0)


def delta_statistic(model: LevyModel, eps: float, delta: float, method: str = "auto") -> float:
    """sigma^-(2+delta) int |z|^(2+delta) Q_eps(dz); +inf marks divergence."""
    if not 0.0 < delta < math.inf:  # NaN fails too
        raise ValueError(f"delta must be positive and finite, got delta={delta!r}")
    var = variance(model, eps, method=method)
    p = 2.0 + delta
    mom = _moment(model, eps, p, 0.0, method)
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
    for name, grid in (("eps", eps_grid), ("kappa", kappa_grid)):
        if not all(0.0 < v < math.inf for v in grid):
            raise ValueError(f"{name} grid must be finite and strictly positive, got {list(grid)!r}")
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
    return _moment(model, eps, 0.0, eta)


def restricted_mean(model: LevyModel, eps: float, eta: float) -> float:
    """m = int_{|z| > eta} z Q_eps(dz); exactly 0 for symmetric families."""
    if math.isinf(restricted_mass(model, eps, eta)):
        raise InfiniteActivityError(
            f"restriction above eta={eta} has infinite mass", operation="restricted_mean"
        )
    if model.base.symmetric(eps):
        return 0.0
    return model.base.moment1(eps, max(eta, 0.0))


def restricted_moment2(model: LevyModel, eps: float, eta: float) -> float:
    return _moment(model, eps, 2.0, eta)


def dropped_variance_fraction(model: LevyModel, eps: float, eta: float) -> float:
    """Fraction of sigma^2(eps) carried by jumps with |z| <= eta."""
    var = variance(model, eps)
    return max(0.0, 1.0 - restricted_moment2(model, eps, eta) / var)


def sample_marks(
    model: LevyModel, eps: float, eta: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. draws from Q_eps restricted to {|z| > eta}, normalized."""
    lam = model.memo(("restricted_mass", eps, eta), lambda: restricted_mass(model, eps, eta))
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
