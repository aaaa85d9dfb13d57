import math

import numpy as np
import pytest

from levyheat.errors import NonIntegrableError
from levyheat.quadrature import gauss_legendre, integrate, legendre_nodes, tail_integral


def test_bounded_interval_exact():
    # int_1^2 z^2 dz = 7/3
    assert integrate(lambda z: z * z, 1.0, 2.0) == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_singular_origin():
    # int_0^1 z^{-1/2} dz = 2, integrable singularity at 0
    assert integrate(lambda z: z ** -0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-9)


def test_non_integrable_origin_raises():
    with pytest.raises(NonIntegrableError):
        integrate(lambda z: 1.0 / z, 0.0, 1.0)


def test_tail_convergent():
    # int_1^inf z^{-2} dz = 1
    assert tail_integral(lambda z: z ** -2.0, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_tail_exponential():
    val = tail_integral(lambda z: math.exp(-z), 1.0)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_tail_divergent_polynomial():
    assert tail_integral(lambda z: 1.0, 1.0) == math.inf


def test_tail_divergent_logarithmic():
    # int dz / (z log(1+z)) diverges like log log
    assert tail_integral(lambda z: 1.0 / (z * math.log1p(z)), 2.0) == math.inf


def test_gauss_legendre_polynomial_exact():
    val = gauss_legendre(lambda x: x ** 5 - 2 * x + 1, -1.0, 3.0, 8)
    exact = (3.0 ** 6 - (-1.0) ** 6) / 6 - (3.0 ** 2 - 1.0) + 4.0
    assert val == pytest.approx(exact, rel=1e-13)


def test_unbounded_interval_joins_bounded_and_tail_rules():
    # (0, inf) and (2, inf): both halves of the split at 1, and one tail only
    assert integrate(lambda z: math.exp(-z), 0.0, math.inf) == pytest.approx(1.0, rel=1e-9)
    assert integrate(lambda z: z ** -2.0, 2.0, math.inf) == pytest.approx(0.5, rel=1e-9)
    assert integrate(lambda z: 1.0, 0.5, math.inf) == math.inf


def test_legendre_nodes_cached_and_read_only():
    x, w = legendre_nodes(16)
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert legendre_nodes(16)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
