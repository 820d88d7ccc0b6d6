"""Solvers and diagnostics for stochastic fractional-order differential
equation systems (Caputo-type memory, order alpha in (0, 1])."""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    EnsembleStats,
    convergence_order,
    ensemble_run,
    ito_isometry_check,
)
from .checks import ConfigError
from .picard import CauchyReport, PicardSequence, cauchy_diagnostic, picard_iterate
from .solver import (
    DivergenceError,
    NoiseHistory,
    SolverConfig,
    Trajectory,
    solve,
    write_trajectory_csv,
)
from .special import ConvergenceError, gamma, mittag_leffler
from .stochastic import (
    SeedSpec,
    TimeGrid,
    WienerPath,
    generate_path,
    make_grid,
    restrict_path,
)
from .systems import (
    LorenzParams,
    NewtonLeipnikParams,
    SystemModel,
    linear_test,
    lipschitz_bound,
    lorenz,
    matrix_form_check,
    newton_leipnik,
)
from .weights import WeightMode, corrector_weights, predictor_weights

__all__ = [
    "__version__",
    "CauchyReport",
    "ConfigError",
    "ConvergenceError",
    "ConvergenceReport",
    "DivergenceError",
    "EnsembleStats",
    "LorenzParams",
    "NewtonLeipnikParams",
    "NoiseHistory",
    "PicardSequence",
    "SeedSpec",
    "SolverConfig",
    "SystemModel",
    "TimeGrid",
    "Trajectory",
    "WeightMode",
    "WienerPath",
    "cauchy_diagnostic",
    "convergence_order",
    "corrector_weights",
    "ensemble_run",
    "gamma",
    "generate_path",
    "ito_isometry_check",
    "linear_test",
    "lipschitz_bound",
    "lorenz",
    "make_grid",
    "matrix_form_check",
    "mittag_leffler",
    "newton_leipnik",
    "picard_iterate",
    "predictor_weights",
    "restrict_path",
    "solve",
    "write_trajectory_csv",
]
