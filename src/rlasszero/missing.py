"""Missingness generation, imputation, and the missing-covariates pipeline.

Missing entries are reformulated as sparse row-wise corruptions: after
imputing, the discrepancy (X - X_imputed) beta / sqrt(n) acts as a sparse
corruption supported on the incomplete rows, so the median-aggregated
corruption-aware estimator applies directly. :func:`fit_standardized`,
the one calibrate-then-fit step, serves :func:`rlz_with_missing` and the
simulation harness. Entries go missing through a logistic mechanism in
|x|: slope a = 0 gives MCAR, a > 0 makes large values more likely to be
missing (MNAR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np

from .calibration import QutResult, QutSpec, qut_threshold
from .core import RngStream, check_real, standardize_columns
from .errors import InputError
from .estimators import RlzConfig, RlzFit, robust_lasso_zero
from .lp import check_design, check_response

# Gauss-Hermite nodes and weights for the expected missing rate, built by
# the first MNAR bisection and kept: one bisection needs them about 40 times
_gh_rule = cache(lambda: np.polynomial.hermite.hermgauss(96))
_BISECTION_TOL = 1e-10  # width at which the intercept bisection stops


def _expit(z):
    """Logistic function 1 / (1 + exp(-z)); 0 where exp(-z) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class IncompleteMatrix:
    """Observed matrix with NaN at missing positions; the boolean mask is
    derived from the NaN positions."""

    values: np.ndarray  # n x p, NaN where missing
    mask: np.ndarray = field(init=False)  # n x p bool, True = missing

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InputError(f"values must be 2-D, got {self.values.shape}")
        self.mask = np.isnan(self.values)
        infinite = np.argwhere(np.isinf(self.values))
        if infinite.size:
            pos = tuple(int(k) for k in infinite[0])
            raise InputError(f"entry {pos} is {self.values[pos]}; "
                             f"only NaN marks a missing entry")

    @property
    def incomplete_rows(self) -> np.ndarray:
        """Indices of rows containing at least one missing entry."""
        return np.flatnonzero(self.mask.any(axis=1))


def logistic_missing_prob(x, a: float, b: float):
    """P(missing | value x) = 1 / (1 + exp(-a|x| - b)); a >= 0, b finite."""
    check_real("a", a, 0.0)
    check_real("b", b, -np.inf, low_open=True)
    return _expit(a * np.abs(x) + b)


def _gh_expectation(a: float, b: float) -> float:
    """E[logistic_missing_prob(Z, a, b)] for Z ~ N(0,1), by Gauss-Hermite."""
    nodes, weights = _gh_rule()
    vals = _expit(a * np.abs(np.sqrt(2.0) * nodes) + b)
    return float((weights * vals).sum() / np.sqrt(np.pi))


def solve_b_for_pi(a: float, pi: float) -> float:
    """Intercept b giving a missing proportion pi in (0, 1) for N(0,1) entries.

    Closed form logit(pi) when a = 0; otherwise bisection on the
    Gauss-Hermite expectation (monotone increasing in b).
    """
    check_real("pi", pi, 0.0, 1.0, low_open=True)
    check_real("a", a, 0.0)
    if a == 0:
        return math.log(pi / (1.0 - pi))
    lo, hi = -50.0, 50.0
    if not _gh_expectation(a, lo) < pi < _gh_expectation(a, hi):
        raise InputError(f"no intercept b in [{lo:g}, {hi:g}] gives a missing "
                         f"proportion pi={pi} at slope a={a}")
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _gh_expectation(a, mid) < pi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class MissingnessSpec:
    """Logistic mechanism with slope a and expected missing proportion pi;
    the intercept b is derived from (a, pi) by :func:`solve_b_for_pi`."""

    a: float
    pi: float
    b: float = field(init=False)

    def __post_init__(self):
        self.b = solve_b_for_pi(self.a, self.pi)

    @classmethod
    def mcar(cls, pi: float) -> "MissingnessSpec":
        return cls(a=0.0, pi=pi)

    @classmethod
    def mnar(cls, pi: float, a: float = 5.0) -> "MissingnessSpec":
        return cls(a=a, pi=pi)


def generate_missingness(x: np.ndarray, spec: MissingnessSpec,
                         stream: RngStream) -> IncompleteMatrix:
    """Mask each entry independently with its logistic probability."""
    x = np.asarray(x, dtype=float)
    probs = logistic_missing_prob(x, spec.a, spec.b)
    mask = stream.generator().random(x.shape) < probs
    values = x.copy()
    values[mask] = np.nan
    return IncompleteMatrix(values)


def mean_impute(inc: IncompleteMatrix) -> np.ndarray:
    """Replace missing entries by the columnwise mean of the observed ones."""
    values = inc.values
    observed = ~inc.mask
    counts = observed.sum(axis=0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise InputError(f"column {empty[0]} has no observed entries")
    sums = np.where(inc.mask, 0.0, values).sum(axis=0)
    means = sums / counts
    return np.where(inc.mask, means[None, :], values)


def standardized_design(inc: IncompleteMatrix):
    """The matrix every fit and calibration of an incomplete design uses.

    Mean-imputes, centers each column and rescales it to norm sqrt(n).
    Returns (matrix, column scales); the scales map coefficients back to
    the original columns.
    """
    x_std, _, scales = standardize_columns(mean_impute(inc), return_stats=True)
    return x_std, scales


def implied_corruption(x_true: np.ndarray, x_imputed: np.ndarray,
                       beta: np.ndarray) -> np.ndarray:
    """Corruption vector (X - X_imputed) beta / sqrt(n) a given beta implies."""
    x_true = np.asarray(x_true, dtype=float)
    n = x_true.shape[0]
    return (x_true - np.asarray(x_imputed, float)) @ np.asarray(beta, float) / np.sqrt(n)


def fit_standardized(x_std: np.ndarray, y: np.ndarray, cfg: RlzConfig,
                     qut_spec: Optional[QutSpec] = None,
                     corruption_cols: Optional[np.ndarray] = None) -> RlzFit:
    """The median-aggregated fit on ``x_std``, a :func:`standardized_design`,
    with the corruption block on the rows ``corruption_cols`` (None = all
    rows, empty = none).

    With ``cfg.tau == "qut"`` the threshold is first calibrated by
    :func:`qut_threshold` on that same matrix and the same rows, by a
    ``qut_spec`` with the ``lam`` and ``n_dictionaries`` of ``cfg``
    (InputError otherwise; its ``master_seed`` may differ), by default the
    spec of ``cfg``. Dictionary k of the fit comes from the stream
    (master_seed, (*cfg.rng_path, k)); the calibration draws use paths
    that start with 0, (0, j, 0) and (0, j, k), so with the default empty
    ``rng_path`` the fit and its calibration share no stream. A bad design
    or a response that is not n finite values raises InputError first.
    The l1 program has no intercept, so ``y`` should be centred.
    """
    x_std = check_design(x_std)
    y = check_response(y, x_std.shape[0])
    qut: Optional[QutResult] = None
    if isinstance(cfg.tau, str):
        if qut_spec is None:
            qut_spec = QutSpec(lam=cfg.lam,
                               n_dictionaries=cfg.n_dictionaries,
                               master_seed=cfg.master_seed)
        elif (qut_spec.lam, qut_spec.n_dictionaries) != \
                (cfg.lam, cfg.n_dictionaries):
            raise InputError(
                f"qut_spec calibrates lam={qut_spec.lam}, "
                f"M={qut_spec.n_dictionaries} but the fit uses "
                f"lam={cfg.lam}, M={cfg.n_dictionaries}")
        qut = qut_threshold(x_std, qut_spec, corruption_cols=corruption_cols)
    return robust_lasso_zero(x_std, y, cfg, qut=qut,
                             corruption_cols=corruption_cols)


def rlz_with_missing(y: np.ndarray, inc: IncompleteMatrix, cfg: RlzConfig,
                     qut_spec: Optional[QutSpec] = None,
                     restrict_corruption: bool = True) -> RlzFit:
    """End-to-end pipeline for an incomplete design matrix:
    :func:`fit_standardized` on its :func:`standardized_design`, with the
    incomplete rows (all rows when ``restrict_corruption`` is False) as
    corruption rows. The fit carries the rescaling factors, which map
    coefficients back to the original column scale. Only the design is
    centred: the fit has no intercept, so ``y`` should be centred too."""
    x_std, scales = standardized_design(inc)
    fit = fit_standardized(x_std, y, cfg, qut_spec, inc.incomplete_rows
                           if restrict_corruption else None)
    fit.column_scales = scales
    return fit
