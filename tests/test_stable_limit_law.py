"""The stable Edgeworth oracle used by acceptance criterion 6a."""

import math

import numpy as np
from scipy.integrate import quad

import levyheat as lh
from stable_limit_law import (G4_MODE1, HE3_PEAK, VAR_MODE1, inner_cutoff, mark_moment,
                              stable_mode1_edgeworth)


def test_oracle_cutoff_is_the_cells_cutoff():
    stable = lh.LevyModel(lh.SymmetricStable(1.5))
    for eps in (1e-1, 1e-2, 1e-3):
        eta = inner_cutoff(eps, 40000.0, 1.5)
        assert math.isclose(math.pi * lh.restricted_mass(stable, eps, eta), 40000.0, rel_tol=1e-9)
        assert math.isclose(lh.eta_for_atom_budget(stable, eps, 1.0, 40000.0), eta, rel_tol=1e-6)


def test_oracle_moments_are_integrals_of_the_density():
    for eps, eta in ((1e-1, 2e-3), (1e-3, 8e-4)):
        for n in (2, 4):
            side = quad(lambda z: z ** n * z ** -2.5, eta, eps, epsabs=0.0, epsrel=1e-12)[0]
            assert math.isclose(mark_moment(n, eps, eta, 1.5), 2.0 * side, rel_tol=1e-10)


def test_oracle_kernel_integrals_and_peak():
    u, w = np.polynomial.legendre.leggauss(40)
    t, x = (u + 1.0) / 2.0, math.pi * (u + 1.0) / 2.0
    g = np.outer(np.exp(-(1.0 - t)), math.sqrt(2.0 / math.pi) * np.sin(x))
    weights = np.outer(w / 2.0, w * math.pi / 2.0)
    assert math.isclose(float(np.sum(weights * g ** 2)), VAR_MODE1, rel_tol=1e-12)
    assert math.isclose(float(np.sum(weights * g ** 4)), G4_MODE1, rel_tol=1e-12)
    y = np.linspace(-6.0, 6.0, 120001)
    he3 = np.abs(y ** 3 - 3.0 * y) * np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    assert math.isclose(float(he3.max()), HE3_PEAK, rel_tol=1e-8)


def test_stable_distances_match_the_table():
    for eps, atoms, d in ((1e-1, 40000, 3.14e-5), (1e-2, 40000, 2.38e-6), (1e-3, 40000, 1.14e-6),
                          (1e-1, 50, 9.17e-4), (1e-3, 50, 9.04e-4)):
        assert math.isclose(stable_mode1_edgeworth(eps, atoms), d, rel_tol=5e-3)
