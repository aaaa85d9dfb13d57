"""Reference values that the benchmark computes apart from levyheat.

Everything here uses numpy and scipy only: closed-form moments of the
restricted Levy measures, the Ito isometry, third cumulants from the
Levy-Khintchine formula, exact restricted mark laws, atom-log sums of the
sine-mode field, the factorization reconstruction, and the second-moment
recursion of the affine multiplicative equation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Family-wise level of every Monte Carlo check: a correct program fails one
# check with probability about 1e-7, so thousands of runs stay clean.
ALPHA = 1e-7
Z = float(-special.ndtri(ALPHA / 2.0))  # 5.33


# ---------------------------------------------------------------------------
# restricted measures: gamma e^{-z}/z on (0, eps], stable |z|^{-1-alpha} on |z| <= eps
# ---------------------------------------------------------------------------

def _lower_gamma(s: float, x: float) -> float:
    return float(special.gamma(s) * special.gammainc(s, x))


class GammaMeasure:
    """Gamma subordinator jump density e^{-z}/z truncated to (0, eps]."""

    symmetric = False

    def mass(self, eps: float, eta: float) -> float:
        return float(special.exp1(eta) - special.exp1(eps))

    def moment(self, p: int, eps: float, eta: float) -> float:
        """int_eta^eps z^p e^{-z}/z dz for p >= 1."""
        return _lower_gamma(p, eps) - _lower_gamma(p, eta)

    def cdf(self, z: np.ndarray, eps: float, eta: float) -> np.ndarray:
        """Law of one mark of the restriction to (eta, eps]."""
        z = np.clip(z, eta, eps)
        return (special.exp1(eta) - special.exp1(z)) / self.mass(eps, eta)


class StableMeasure:
    """Symmetric stable jump density |z|^{-1-alpha} truncated to |z| <= eps."""

    symmetric = True

    def __init__(self, alpha: float):
        self.alpha = alpha

    def mass(self, eps: float, eta: float) -> float:
        a = self.alpha
        return 2.0 * (eta ** -a - eps ** -a) / a

    def moment(self, p: int, eps: float, eta: float) -> float:
        """int_{eta < |z| <= eps} z^p |z|^{-1-alpha} dz (0 for odd p)."""
        if p % 2:
            return 0.0
        a = self.alpha
        return 2.0 * (eps ** (p - a) - eta ** (p - a)) / (p - a)

    def cdf(self, z: np.ndarray, eps: float, eta: float) -> np.ndarray:
        a = self.alpha
        r = np.clip(np.abs(z), eta, eps)
        half = (eta ** -a - r ** -a) / (eta ** -a - eps ** -a)  # law of |z|
        return np.where(z < 0, 0.5 * (1.0 - half), 0.5 * (1.0 + half))


# ---------------------------------------------------------------------------
# sine basis, terminal kernels and the Ito isometry
# ---------------------------------------------------------------------------

def phi(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi_k(x) = sqrt(2/pi) sin(kx) as a (len(k), len(x)) array."""
    return math.sqrt(2.0 / math.pi) * np.sin(np.outer(k, x))


def flat_projection(K: int, M: int) -> np.ndarray:
    """Midpoint-collocation sine coefficients of the constant 1 on M cells."""
    x = (np.arange(M) + 0.5) * (math.pi / M)
    return phi(np.arange(1, K + 1), x).sum(axis=1) * (math.pi / M)


def ito_variance(c: np.ndarray, T: float = 1.0) -> float:
    """Var <u_T, phi> = sum_k c_k^2 (1 - e^{-2k^2 T}) / (2k^2) for unit additive noise."""
    k2 = np.arange(1, len(c) + 1, dtype=float) ** 2
    return float(np.sum(c * c * -np.expm1(-2.0 * k2 * T) / (2.0 * k2)))


def kernel_cube_integral(c: np.ndarray, T: float = 1.0) -> float:
    """int_0^T int_0^pi w(t, x)^3 dx dt, w = sum_k c_k e^{-k^2 (T-t)} phi_k(x).

    x by the midpoint rule on 1024 cells (exact for the trigonometric
    polynomial w^3 of degree 3K < 2048); tau = T - t by 16-point
    Gauss-Legendre on geometric panels that resolve the e^{-K^2 tau} scale.
    """
    K = len(c)
    k = np.arange(1, K + 1, dtype=float)
    M = 1024
    x = (np.arange(M) + 0.5) * (math.pi / M)
    basis = c[:, None] * phi(k, x)
    cuts = np.concatenate(([0.0], np.geomspace(1e-7, T, 64)))
    g, w = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tau = 0.5 * (lo + hi) + 0.5 * (hi - lo) * g
        wx = np.exp(-np.outer(tau, k * k)) @ basis  # (nodes, M)
        total += 0.5 * (hi - lo) * float(w @ np.sum(wx ** 3, axis=1)) * (math.pi / M)
    return total


def sample_moments(v: np.ndarray) -> dict:
    """Mean, variance and third cumulant with their standard errors."""
    n = len(v)
    d = v - v.mean()
    m2, m3, m4, m6 = (float(np.mean(d ** p)) for p in (2, 3, 4, 6))
    return {
        "n": n,
        "mean": float(v.mean()), "mean_se": math.sqrt(m2 / n),
        # kurtosis floored at the normal value 3: the laws checked here are
        # infinitely divisible or normal mixtures, and a small sample without
        # its rare large values would otherwise understate the error
        "var": m2 * n / (n - 1), "var_se": math.sqrt(max(m4 - m2 * m2, 2.0 * m2 * m2) / n),
        "k3": m3 * n * n / ((n - 1) * (n - 2)),
        "k3_se": math.sqrt(max(m6 - m3 * m3 - 6.0 * m4 * m2 + 9.0 * m2 ** 3, 0.0) / n),
    }


# ---------------------------------------------------------------------------
# atom-log replays of the sine-mode field
# ---------------------------------------------------------------------------

def additive_modes(t, x, z, scale, rate, flat, K: int, at: float) -> np.ndarray:
    """u_k(at) = sum_{t_j <= at} scale z_j phi_k(x_j) e^{-k^2 (at - t_j)}
    - rate flat_k (1 - e^{-k^2 at}) / k^2  (constant f, zero initial data)."""
    k = np.arange(1, K + 1, dtype=float)
    keep = t <= at
    jumps = phi(k, x[keep]) * np.exp(-np.outer(k * k, at - t[keep]))
    out = jumps @ (scale * z[keep])
    if rate:
        out -= rate * flat * -np.expm1(-k * k * at) / (k * k)
    return out


def affine_modes(t, x, z, scale, a: float, b: float, K: int, T: float) -> np.ndarray:
    """Terminal modes of du = u_xx + (a u + b) dL for a symmetric jump log.

    Each atom adds (a u(t_j-, x_j) + b) scale z_j phi_k(x_j), with the left
    limit evaluated on the truncated sine series; between atoms the modes
    decay exactly.
    """
    k = np.arange(1, K + 1, dtype=float)
    k2 = k * k
    m = np.zeros(K)
    t_prev = 0.0
    order = np.argsort(t, kind="stable")
    for tj, xj, zj in zip(t[order], x[order], z[order]):
        m = m * np.exp(-k2 * (tj - t_prev))
        ph = math.sqrt(2.0 / math.pi) * np.sin(k * xj)
        m = m + (a * float(m @ ph) + b) * scale * zj * ph
        t_prev = tj
    return m * np.exp(-k2 * (T - t_prev))


def factorization_residual(t, x, z, scale, stored: float, delta: float, at: float,
                           xq: float, K: int, nodes: int) -> float:
    """|factorization reconstruction - stored| for a symmetric jump log, constant f = 1.

    Same sub-grid quadrature as the method (Y_delta at left nodes, exact
    panel moments of (t-s)^{delta-1}), evaluated one node at a time so that
    memory stays O(K x atoms).
    """
    k = np.arange(1, K + 1, dtype=float)
    k2 = k * k
    keep = t < at
    t, amp = t[keep], phi(k, x[keep]) * (scale * z[keep])
    s = np.linspace(0.0, at, nodes + 1)
    w = ((at - s[:-1]) ** delta - (at - s[1:]) ** delta) / delta
    recon = np.zeros(K)
    for si, wi in zip(s[:-1], w):
        gap = si - t
        live = gap > 0.0
        y = (np.exp(-np.outer(k2, gap[live])) * amp[:, live]) @ gap[live] ** -delta
        recon += wi * np.exp(-k2 * (at - si)) * y
    recon *= math.sin(delta * math.pi) / math.pi
    return abs(float(recon @ phi(k, np.array([xq]))[:, 0]) - stored)


# ---------------------------------------------------------------------------
# second moments of the affine equation
# ---------------------------------------------------------------------------

def affine_second_moment(a: float, b: float, K: int, M: int, steps: int, T: float) -> np.ndarray:
    """C(T) = E[u_k(T) u_l(T)] for du = u_xx + (a u + b) dW, zero initial data.

    Both noises are centred with intensity dt dx, so the Ito isometry gives
    C' = -(k^2 + l^2) C + int (a^2 E u(x)^2 + b^2) phi_k phi_l dx. The
    recursion C <- D C D + dt * S diag(a^2 q + b^2) S^T dx, q = diag(S^T C S),
    is exact for the collocation Euler scheme and first order in dt for the
    jump-exact Levy scheme; the collocation sum is exact for these
    trigonometric polynomials while 4K < 2M.
    """
    k2 = np.arange(1, K + 1, dtype=float) ** 2
    xs = (np.arange(M) + 0.5) * (math.pi / M)
    S = phi(np.arange(1, K + 1), xs)
    dt, dx = T / steps, math.pi / M
    decay = np.exp(-k2 * dt)
    DD = np.outer(decay, decay)
    C = np.zeros((K, K))
    for _ in range(steps):
        q = np.einsum("km,km->m", S, C @ S)
        C = DD * C + (S * ((a * a * q + b * b) * dt * dx)) @ S.T
    return C


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------

def ks_pvalue(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov p-value of `sample` against `cdf`."""
    from scipy import stats  # imported after set-up is timed

    return float(stats.kstest(sample, cdf).pvalue)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and p-value."""
    from scipy import stats

    res = stats.ks_2samp(a, b)
    return float(res.statistic), float(res.pvalue)


def ecf_distance(a: np.ndarray, b: np.ndarray, xi: np.ndarray) -> float:
    """max over xi of |mean e^{i xi a} - mean e^{i xi b}|."""
    ca = np.exp(1j * np.outer(xi, a)).mean(axis=1)
    cb = np.exp(1j * np.outer(xi, b)).mean(axis=1)
    return float(np.max(np.abs(ca - cb)))
