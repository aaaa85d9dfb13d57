"""levyheat: stochastic heat equation under normalized small-jump Levy noise.

Simulates mild solutions driven by sigma(eps)^{-1} L^eps and by Gaussian
space-time white noise, evaluates the normal-approximation (AR) condition for
Levy-measure families, and compares the two solution laws through
distributional and martingale diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    AtomCapExceededError,
    BudgetExceededError,
    ConfigError,
    ConfigMismatchError,
    EmptyRestrictionError,
    EmptySampleError,
    InfiniteActivityError,
    InvalidDeltaError,
    LevyHeatError,
    MissingAtomLogError,
    NonFiniteStateError,
    NonIntegrableError,
    OutOfRangeError,
    ZeroVarianceError,
)
from .measures import (
    ARReport,
    CompoundPoisson,
    CustomDensity,
    GammaSubordinator,
    LevyModel,
    RemarkDensityFamily,
    SymmetricStable,
    ar_scan,
    ar_statistic,
    delta_statistic,
    restricted_mass,
    restricted_mean,
    restricted_moment2,
    sample_marks,
    sigma,
    variance,
)
from .noise import (
    LevyNoiseRealization,
    auto_inner_cutoff,
    dump_atoms,
    eta_for_atom_budget,
    load_atoms,
    simulate_levy_noise,
)
from .sobolev import (
    SmoothBump,
    h_ij_closed_form,
    h_ij_quadrature,
    pairing,
    space_time_parseval,
)
from .solver import (
    FieldPath,
    GaussianNoiseSpec,
    LevyNoiseSpec,
    MultiplicativeFunction,
    SimConfig,
    affine_f,
    bounded_smooth_f,
    constant_f,
    evaluate,
    factorization_check,
    flat_coefficients,
    green_kernel,
    mode_decomposition_check,
    mode_decomposition_budget,
    simulate_path,
)
from .stats import (
    ComparisonReport,
    MartingaleProbe,
    TerminalFunctional,
    bump_functional,
    characteristics_sample,
    collect_terminal_samples,
    dichotomy_experiment,
    ecf_distance,
    ks_two_sample,
    martingale_residual,
    mode_functional,
    point_functional,
)
from .streams import stream
