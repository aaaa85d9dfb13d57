import math

import mpmath
import numpy as np
import pytest

import levyheat as lh
from levyheat.quadrature import gauss_legendre
from levyheat.solver import FieldPath, phi_values
from levyheat.streams import stream

from conftest import small_sim


def _synthetic_path(amplitudes, modes=32, steps=512, T=1.0):
    times = np.linspace(0.0, T, steps + 1)
    grid = np.zeros((steps + 1, modes))
    for (i, j), a in amplitudes.items():
        grid[:, j - 1] += a * math.sqrt(2.0 / T) * np.sin(i * math.pi * times / T)
    return FieldPath(times, grid, config=None)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def test_pairing_orthonormality(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0)
    path = lh.simulate_path(cfg, stream(8, 0, "t"))
    for j in (1, 3, 7):
        e = np.zeros(32)
        e[j - 1] = 1.0
        assert lh.pairing(path, 0.5, e) == pytest.approx(path.modes[512, j - 1], rel=1e-14)
    assert lh.pairing(path, 0.5, np.zeros(32)) == 0.0


def test_pairing_bump_matches_quadrature(cp_symmetric):
    cfg = small_sim(cp_symmetric, 2.0, 0.0, modes=64, collocation=256)
    path = lh.simulate_path(cfg, stream(9, 0, "t"))
    bump = lh.SmoothBump()
    coeffs = bump.sine_coefficients(64)
    got = lh.pairing(path, 1.0, coeffs)
    oracle = gauss_legendre(
        lambda x: lh.evaluate(path, 1.0, x) * bump(x),
        bump.center - bump.width, bump.center + bump.width, 400,
    )
    assert got == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# H_ij
# ---------------------------------------------------------------------------

def test_hij_closed_vs_quadrature():
    worst = 0.0
    for i in (1, 2, 5, 9):
        for j in (1, 2, 4, 8):
            for s, y in ((0.3, 1.0), (0.0, 2.5), (0.9, 0.4)):
                diff = abs(lh.h_ij_closed_form(i, j, s, y, 1.0) - lh.h_ij_quadrature(i, j, s, y, 1.0))
                worst = max(worst, diff)
    assert worst <= 1e-10


def test_hij_boundary_zero():
    assert lh.h_ij_closed_form(3, 2, 0.4, 0.0, 1.0) == 0.0
    assert lh.h_ij_closed_form(3, 2, 0.4, math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_hij_vanishes_at_s_equal_T():
    # trigonometric cancellation at s = T
    for i in (1, 2, 3):
        for j in (1, 2):
            assert lh.h_ij_closed_form(i, j, 1.0, 1.3, 1.0) == pytest.approx(0.0, abs=1e-14)
            assert lh.h_ij_quadrature(i, j, 1.0, 1.3, 1.0) == 0.0


def test_hij_decay_bound():
    # |H_ij| <= C / (i + j^2): the scaled sup over large indices is covered by
    # the sup fitted on the small block (decay rate, not just finiteness)
    svals = (0.15, 0.5, 0.85)
    yvals = (0.7, 1.6, 2.8)
    def scaled_sup(irange, jrange):
        return max(
            abs(lh.h_ij_closed_form(i, j, s, y, 1.0)) * (i + j * j)
            for i in irange for j in jrange for s in svals for y in yvals
        )
    small = scaled_sup(range(1, 11), range(1, 11))
    large = scaled_sup(range(11, 21), range(11, 21))
    assert large <= 1.05 * small


# ---------------------------------------------------------------------------
# space-time Parseval
# ---------------------------------------------------------------------------

def test_parseval_band_limited():
    path = _synthetic_path({(1, 1): 1.0, (3, 2): 0.4, (7, 5): -0.2, (2, 9): 0.05})
    lhs, rhs = lh.space_time_parseval(path)
    assert abs(lhs - rhs) / rhs <= 1e-6
    assert rhs == pytest.approx(1.0 + 0.4 ** 2 + 0.2 ** 2 + 0.05 ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# bumps
# ---------------------------------------------------------------------------

def test_bump_compact_support_and_sup():
    bump = lh.SmoothBump(center=math.pi / 2, width=1.0)
    assert bump(math.pi / 2) == pytest.approx(1.0)
    assert bump(math.pi / 2 + 1.0) == 0.0
    assert bump(0.1) == 0.0
    with pytest.raises(ValueError):
        lh.SmoothBump(center=0.5, width=1.0)  # support leaves (0, pi)


def test_bump_series_reproduces_bump():
    bump = lh.SmoothBump()
    c = bump.sine_coefficients(24)
    # coefficients reproduce the bump pointwise (smooth -> fast decay)
    # symmetric bump: even-k coefficients vanish; decay is Gevrey-type
    assert np.max(np.abs(c[1::2])) < 1e-14
    x = np.linspace(0.2, math.pi - 0.2, 50)
    series = bump.sine_coefficients(64) @ phi_values(np.arange(1, 65), x)
    assert np.max(np.abs(series - bump(x))) < 1e-3
    series256 = bump.sine_coefficients(256) @ phi_values(np.arange(1, 257), x)
    assert np.max(np.abs(series256 - bump(x))) < 1e-6


def _bump_coefficient_mp(bump, k):
    """<bump, phi_k> by mpmath quadrature at 30 digits, split at the center."""
    with mpmath.workdps(30):
        c, w = mpmath.mpf(bump.center), mpmath.mpf(bump.width)

        def integrand(x):
            s = (x - c) / w
            return mpmath.sqrt(2 / mpmath.pi) * mpmath.sin(k * x) * mpmath.exp(1 - 1 / (1 - s * s))

        return float(mpmath.quad(integrand, [c - w, c, c + w]))


@pytest.mark.parametrize("center, width", [(math.pi / 2, 1.0), (1.2, 0.7)], ids=["centered", "off_center"])
def test_bump_coefficients_match_mpmath(center, width):
    bump = lh.SmoothBump(center=center, width=width)
    c64 = bump.sine_coefficients(64)
    modes = list(range(1, 21)) + [31, 32, 47, 63, 64]
    err = max(abs(c64[k - 1] - _bump_coefficient_mp(bump, k)) for k in modes)
    assert err <= 1e-15
    # 260 modes take 2080 nodes: the node count follows the mode count
    c260 = bump.sine_coefficients(260)
    assert np.max(np.abs(c260[:64] - c64)) <= 1e-15
    err = max(abs(c260[k - 1] - _bump_coefficient_mp(bump, k)) for k in (251, 254, 255, 256, 257))
    assert err <= 1e-15
    if center == math.pi / 2:
        # symmetric about pi/2 up to the rounding of the center: even modes ~1e-16
        assert np.max(np.abs(c260[1::2])) <= 1e-16
