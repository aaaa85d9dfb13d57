"""The half-angle forms of sin x and 2 cos x (solver._half_angle) against long double.

The atom kernel starts its sin(kx) recurrence from them, and the martingale
replay takes e^{i theta} from them (stats._phasor). The reference is numpy's
long double sin and cos (64-bit significand on x86-64), rounded to float64
only after the difference is taken.
"""

import math

import numpy as np
import pytest

from levyheat import solver
from levyheat import stats as st

SPECIAL = [0.0, -0.0, 5e-324, 1e-300, math.pi / 2, np.nextafter(math.pi, 0.0), math.pi]


def _check(x):
    s, c = solver._half_angle(x)
    xl = x.astype(np.longdouble)
    want_s, want_c = np.sin(xl), 2 * np.cos(xl)
    ulp = np.spacing(np.abs(want_s).astype(float))  # 5e-324 at 0
    assert np.all(np.abs(s - want_s) <= 4 * ulp)
    assert np.max(np.abs(c - want_c)) <= 1e-15


def test_half_angle_sin_and_two_cos_on_the_domain():
    _check(np.random.default_rng(27).uniform(0.0, math.pi, 10**6))


@pytest.mark.parametrize("x", SPECIAL, ids=["0", "-0", "denormal", "1e-300", "pi/2", "below_pi", "pi"])
def test_half_angle_at_special_points(x):
    _check(np.array([x]))


def test_half_angle_keeps_its_buffers_and_signed_zero():
    x = np.array(SPECIAL)
    out, scratch = np.empty_like(x), np.empty_like(x)
    s, c = solver._half_angle(x, out=out, scratch=scratch, two_cos=False)
    assert s is out and c is None
    assert np.array_equal(scratch, 1.0 + np.tan(0.5 * x) ** 2)
    assert np.array_equal(s, solver._half_angle(x)[0])
    assert math.copysign(1.0, s[1]) == -1.0


def test_half_angle_of_inf_and_nan_is_nan():
    with np.errstate(invalid="ignore"):
        s, c = solver._half_angle(np.array([math.inf, -math.inf, math.nan]))
    assert np.all(np.isnan(s)) and np.all(np.isnan(c))


def test_phasor_matches_complex_exp():
    rng = np.random.default_rng(28)
    theta = np.concatenate((rng.uniform(-50.0, 50.0, 10**5), SPECIAL, np.negative(SPECIAL), [1e8, -3e15]))
    got = st._phasor(theta)
    assert got.dtype == complex
    assert np.max(np.abs(got - np.exp(1j * theta))) <= 1e-15


def test_sine_series_at_64_modes_against_long_double():
    # The sin(kx) recurrence amplifies the error of 2 cos x most near x = 0 and
    # x = pi. Unit coefficients, error scaled by sqrt(2/pi) sum_k |c_k|: 3.79e-14
    # from libm sin and cos, 3.72e-14 from the half-angle forms, 1.79e-13 had
    # 2 cos x been taken as 4/(1 + t^2) - 2.
    K = 64
    rng = np.random.default_rng(29)
    x = np.concatenate((rng.uniform(0.0, math.pi, 20000), rng.uniform(0.0, 1e-3, 5000),
                        math.pi - rng.uniform(0.0, 1e-3, 5000), np.linspace(0.0, math.pi, 4097)))
    c = np.ones(K)
    got = solver.sine_series(c, x)
    k = np.arange(1, K + 1).astype(np.longdouble)
    want = np.sqrt(np.longdouble(2) / np.pi) * np.sin(np.multiply.outer(x.astype(np.longdouble), k)).sum(axis=1)
    scale = math.sqrt(2.0 / math.pi) * np.abs(c).sum()
    assert float(np.max(np.abs(got - want))) / scale <= 1e-13
