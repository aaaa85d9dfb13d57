"""Adaptive quadrature tuned for Levy-measure integrands.

The integrands we meet (z^2 q(z), |z|^{2+delta} q(z), ...) are singular at the
origin and may decay arbitrarily slowly at infinity, so plain library calls
are wrapped in composite schemes:

* on (a, b] with 0 < a the interval is cut into log-spaced panels and each
  panel handed to Gauss-Kronrod (`scipy.integrate.quad`);
* on (0, b] panels accumulate geometrically toward 0 until the partial sums
  are Cauchy at the relative tolerance _REL_TOL;
* on [a, inf) panels double outward, and a sum whose panel contributions fail
  to Cauchy-converge over three successive doublings is declared divergent
  (returned as +inf) instead of being timed out.

`integrate` accepts b = inf and then joins the two: the bounded rule up to 1,
the doubling rule from max(a, 1) on.
"""

from __future__ import annotations

import math

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonIntegrableError

__all__ = ["integrate", "tail_integral", "gauss_legendre", "legendre_nodes"]

# target relative accuracy of each composite sum
_REL_TOL = 1e-10
# log-panel density on bounded intervals
_PANELS_PER_DECADE = 4
# refinement cap toward 0 and toward infinity
_MAX_PANELS = 400


def _panel(f: Callable[[float], float], a: float, b: float) -> float:
    from scipy.integrate import quad  # on first use: most runs never reach the adaptive rule

    val, _ = quad(f, a, b, epsabs=1e-300, epsrel=_REL_TOL * 0.1, limit=200)
    return val


def integrate(f, a: float, b: float) -> float:
    """Integrate f over (a, b], 0 <= a < b <= inf, f possibly singular at 0.

    Returns +inf when an unbounded interval's tail diverges.
    """
    if not (0.0 <= a < b):
        raise ValueError(f"invalid interval ({a}, {b}]")
    if math.isinf(b):
        head = integrate(f, a, 1.0) if a < 1.0 else 0.0
        return head + tail_integral(f, max(a, 1.0))
    if a > 0.0:
        decades = np.log10(b / a)
        n = max(1, int(np.ceil(decades * _PANELS_PER_DECADE)))
        cuts = np.geomspace(a, b, n + 1)
        return float(sum(_panel(f, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])))
    # geometric panels shrinking toward the singular endpoint 0
    total = _panel(f, b / 2.0, b)
    hi = b / 2.0
    for _ in range(_MAX_PANELS):
        lo = hi / 2.0
        p = _panel(f, lo, hi)
        total += p
        hi = lo
        if abs(p) <= _REL_TOL * max(abs(total), 1e-300):
            # one more halving as a Cauchy confirmation
            p2 = _panel(f, hi / 2.0, hi)
            if abs(p2) <= _REL_TOL * max(abs(total), 1e-300):
                return float(total + p2)
            total += p2
            hi = hi / 2.0
    raise NonIntegrableError(
        f"integral over (0, {b}] did not converge after {_MAX_PANELS} panel halvings"
    )


def tail_integral(f, a: float) -> float:
    """Integrate f over (a, inf); returns +inf when the sum diverges.

    Divergence rules over the doubling panels p_1, p_2, ...:
    * growth/stall: three successive panels that fail to decay;
    * harmonic-rate: sustained decay like k^-s with s <= 1.05 (sum diverges
      or is numerically unreachable), detected from the fitted decay rate.
    Both fire in a bounded number of panels instead of timing out.
    """
    if a <= 0.0:
        raise ValueError("tail_integral needs a strictly positive left endpoint")
    total = 0.0
    lo = a
    history: list[float] = []
    stalled = 0
    small_streak = 0
    for _ in range(_MAX_PANELS):
        hi = 2.0 * lo
        p = _panel(f, lo, hi)
        total += p
        history.append(abs(p))
        k = len(history)
        if abs(p) <= _REL_TOL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                return float(total)
        else:
            small_streak = 0
            if k >= 2 and history[-2] > _REL_TOL * max(abs(total), 1e-300):
                if history[-1] >= 0.999 * history[-2]:
                    stalled += 1
                    if stalled >= 3:
                        return float("inf")
                else:
                    stalled = 0
            if k >= 24 and all(h > 0 for h in history[-7:]):
                rates = [
                    math.log(history[i - 1] / history[i]) / math.log(i / (i - 1))
                    for i in range(k - 5, k)
                ]
                rates.sort()
                if rates[len(rates) // 2] <= 1.05:
                    return float("inf")
        lo = hi
    raise NonIntegrableError(
        f"tail integral from {a} neither converged nor was flagged divergent "
        f"after {_MAX_PANELS} doublings"
    )


@lru_cache(maxsize=16)
def legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only.

    `leggauss` solves an eigenproblem on every call; each order is computed once.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(f, a: float, b: float, n: int) -> float:
    """Fixed-order Gauss-Legendre rule with a vectorized integrand (oracle use)."""
    x, w = legendre_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * f(mid + half * x)))
