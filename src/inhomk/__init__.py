"""Inhomogeneous K-function toolkit.

Estimation of the (inhomogeneous) K-function of spatial point patterns with
known or estimated intensity, the asymptotic covariance of the estimator, and
Monte Carlo Kolmogorov-Smirnov goodness-of-fit tests whose critical values
come from the limiting Gaussian process.
"""

from .asymcov import (
    POISSON_DENSITIES,
    CovarianceBlocks,
    LimitCovariance,
    ProductDensityModel,
    QuadratureConfig,
    compose_lim_cov,
    cov_estimated_constant,
    h_limit_constant,
    h_limit_loglinear,
    loglinear_sigma_blocks,
    poisson_blocks,
    poisson_cov_matrix,
    sigma_blocks_constant,
    synthetic_densities,
)
from .geometry import (
    PairList,
    PointPattern,
    Window,
    close_pairs,
    overlap_volume,
)
from .gof import GofConfig, GofResult, PoissonNullTables, gof_test
from .intensity import (
    ConstantIntensity,
    CovariateField,
    FitResult,
    LogLinearIntensity,
    cl_score,
    cl_sensitivity,
    estimate_constant,
    fit_loglinear,
)
from .kstat import Curve, RadiusGrid, h_matrix, k_hat, k_poisson, taylor_residual
from .limitlaw import critical_value, p_value, simulate_sup
from .seeds import stream
from .simulate import (
    MaternParams,
    simulate_matern,
    simulate_poisson,
    simulate_poisson_inhom,
)
from .study import (
    StudyCell,
    StudyConfig,
    StudyResult,
    empirical_cov_oracle,
    rejection_study,
)

__version__ = "0.1.0"
