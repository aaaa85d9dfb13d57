import numpy as np
import pytest

import levyheat as lh


@pytest.fixture(scope="session")
def gamma_model():
    return lh.LevyModel(lh.GammaSubordinator())


@pytest.fixture(scope="session")
def stable_model():
    return lh.LevyModel(lh.SymmetricStable(1.5))


@pytest.fixture(scope="session")
def remark_model():
    return lh.LevyModel(lh.RemarkDensityFamily())


@pytest.fixture(scope="session")
def cp_symmetric():
    return lh.LevyModel(lh.CompoundPoisson(((-1.0, 0.5), (1.0, 0.5))))


@pytest.fixture(scope="session")
def cp_unit():
    return lh.LevyModel(lh.CompoundPoisson(((1.0, 1.0),)))


def small_sim(model, eps, eta, *, f=None, modes=32, collocation=128, steps=1024,
              normalization="model", rho=1e-3):
    spec = lh.LevyNoiseSpec(model=model, eps=eps, eta=eta, rho_budget=rho,
                            normalization=normalization)
    return lh.SimConfig(noise=spec, f=f or lh.constant_f(1.0), T=1.0,
                        modes=modes, collocation=collocation, steps=steps)
