"""Quantile-based threshold selection under the null model.

The threshold tau is calibrated so that with beta = 0 (hence no
corruption), the all-zero vector is returned with probability 1 - alpha.
The Monte Carlo statistic max_j |beta_med_j| is divided by a scale built
from the dictionary noise coefficients, which makes the calibration free
of the unknown noise level: both numerator and denominator scale linearly
with the data, so the quantile computed at unit noise applies at any
sigma.

The Monte Carlo draws are independent fits, each with its own RNG
streams, so :func:`qut_threshold` maps them with
:func:`rlasszero.core.run_tasks`, asking for one worker per draw, which
``run_tasks`` caps at one process per usable core, each on one OpenBLAS
thread. The result is the same, byte for byte, as on one core. Inside a
pool worker (``run_experiment`` with ``workers > 1``, or a
caller's own pool) the draws run serially in that worker.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import RngStream, check_count, check_real, run_tasks
from .errors import SolverFailure
from .estimators import RlzConfig, pivot_scale_from_gammas, \
    robust_lasso_zero
from .lp import check_corruption_rows, check_design

# Leading entry of every calibration stream path. The simulation harness
# numbers its replications from 1, so no replication path starts with 0
# and calibration draws never reuse a replication's streams.
_QUT_STREAM_TAG = 0


@dataclass
class QutSpec:
    alpha: float = 0.05
    n_mc: int = 500
    lam: float = 1.0
    n_dictionaries: int = 20
    master_seed: int = 0

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, 1.0, low_open=True)
        check_count("n_mc", self.n_mc, 50)
        # the settings of the fit that every draw runs, checked by its rules
        RlzConfig(lam=self.lam, tau=0.0, n_dictionaries=self.n_dictionaries,
                  master_seed=self.master_seed)


@dataclass
class QutResult:
    pivot_quantile: float
    mc_statistics: np.ndarray


def qut_threshold(x: np.ndarray, spec: QutSpec,
                  corruption_cols: Optional[np.ndarray] = None) -> QutResult:
    """Upper alpha-quantile of the pivotized null statistic.

    For each draw j the noise comes from the stream (master_seed, (0, j, 0))
    and its dictionaries from (master_seed, (0, j, k)), so the result is a
    deterministic function of its arguments and shares no stream with a
    data fit or a simulation replication. ``x`` and ``corruption_cols`` must
    be the exact matrix and corruption rows the subsequent fit will use,
    as :func:`rlasszero.missing.rlz_with_missing` passes them. A design
    that is not a finite 2-D array, or rows that are not distinct
    integers in [0, n), raise InputError before any draw.

    The draws run through :func:`rlasszero.core.run_tasks`, which is
    asked for one worker per draw and caps that at the usable cores
    (:func:`rlasszero.core.usable_cores`): each worker runs on one
    OpenBLAS thread and takes one draw at a time; with one usable core
    the draws run here, and multiprocessing is not even imported.
    ``mc_statistics`` is the same, byte for byte, whatever the core count
    or the caller's BLAS thread setting.

    The returned ``pivot_quantile`` multiplies the pivot scale of the data
    fit to give the data-dependent threshold.
    """
    x = check_design(x)
    cols = check_corruption_rows(corruption_cols, len(x))
    draw = partial(_qut_draw, x, spec, cols)
    results = run_tasks(draw, range(1, spec.n_mc + 1), spec.n_mc)
    stats = [r for r in results if not isinstance(r, Exception)]
    failed = spec.n_mc - len(stats)
    if failed > 0.1 * spec.n_mc:
        raise SolverFailure(f"{failed}/{spec.n_mc} calibration draws failed")
    if failed:
        warnings.warn(f"{failed} calibration draws failed and were dropped")
    stats = np.asarray(stats)
    quantile = float(np.quantile(stats, 1.0 - spec.alpha))
    return QutResult(pivot_quantile=quantile, mc_statistics=stats)


def _qut_draw(x: np.ndarray, spec: QutSpec, corruption_cols: np.ndarray,
              j: int) -> float:
    """Statistic of calibration draw j, a function of its arguments alone."""
    path = (_QUT_STREAM_TAG, j)
    eps = RngStream(spec.master_seed, path + (0,)).generator() \
        .standard_normal(x.shape[0])
    cfg = RlzConfig(lam=spec.lam, tau=0.0,
                    n_dictionaries=spec.n_dictionaries,
                    master_seed=spec.master_seed, rng_path=path)
    fit = robust_lasso_zero(x, eps, cfg, corruption_cols=corruption_cols)
    scale = pivot_scale_from_gammas(fit.gamma_all)
    return float(np.abs(fit.beta_med).max()) / scale
