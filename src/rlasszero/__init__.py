"""Robust Lasso-Zero and Thresholded Justice Pursuit.

Sparse linear regression under sparse row-wise corruptions, with an exact
LP solver, quantile-based threshold calibration, identifiability checks,
and a reproducible simulation harness for the missing-covariates setting.
"""

from .errors import BudgetExceededError, InputError, SolverFailure
from .core import RngStream, sample_design, standardize_columns, toeplitz_sigma
from .lp import (
    JpSolution,
    LpProblem,
    formulate_jp,
    solve_jp,
    solve_lp,
)
from .estimators import (
    RlzConfig,
    RlzFit,
    hard_threshold,
    lasso_zero,
    robust_lasso_zero,
    tjp,
)
from .calibration import (
    QutResult,
    QutSpec,
    pivot_scale_from_gammas,
    qut_threshold,
)
from .missing import (
    IncompleteMatrix,
    MissingnessSpec,
    fit_standardized,
    generate_missingness,
    logistic_missing_prob,
    mean_impute,
    rlz_with_missing,
    solve_b_for_pi,
    standardized_design,
)
from .analysis import (
    IdentifiabilityVerdict,
    check_identifiability,
    check_stable_nsp,
    covariance_diagnostics,
)
from .experiments import (
    MetricsRecord,
    SimulationSpec,
    oracle_s_threshold,
    psr_indicator,
    run_experiment,
    s_fdp,
    s_tpp,
)

__version__ = "0.1.0"
