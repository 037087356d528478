"""Median-aggregated noise-dictionary estimators and hard thresholding.

All estimators solve the one l1 program of :func:`rlasszero.lp.solve_jp`,
which has an optional corruption block and an optional dictionary block.
:func:`robust_lasso_zero` is the one median loop: it solves the program
M times, each time with a fresh n x n standard-normal noise dictionary,
takes componentwise medians of the estimates, and hard-thresholds. The
rows that can be corrupted are a property of the data, so they are an
argument of the fit; :class:`RlzConfig` holds only hyperparameters.
:func:`lasso_zero` is that fit with no corruption rows, and :func:`tjp`
is a single thresholded solve without the dictionary block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import RngStream, check_count, check_real
from .errors import InputError, SolverFailure
from .lp import OPTIMAL, check_corruption_rows, check_design, \
    check_response, solve_jp, solve_jp_many


def hard_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Keep entries with |v_j| > tau, a finite number >= 0; zero the rest."""
    check_real("tau", tau, 0.0)
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) > tau, v, 0.0)


@dataclass
class RlzConfig:
    """Hyperparameters of the median-aggregated estimator.

    ``lam`` is a finite number > 0, ``tau`` a finite number >= 0 or the
    string "qut", in which case a calibration result must be passed to the
    fitting function, and ``rng_path`` a tuple of integers >= 0.
    """

    lam: float = 1.0
    tau: Union[float, str] = "qut"
    n_dictionaries: int = 20
    master_seed: int = 0
    rng_path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_real("lambda", self.lam, 0.0, low_open=True)
        check_count("n_dictionaries", self.n_dictionaries, 1)
        check_count("master_seed", self.master_seed, 0)
        if not isinstance(self.rng_path, tuple):
            raise InputError(f"rng_path must be a tuple, got {self.rng_path!r}")
        for i, index in enumerate(self.rng_path):
            check_count(f"rng_path[{i}]", index, 0)
        if not isinstance(self.tau, str):
            check_real("tau", self.tau, 0.0)
        elif self.tau != "qut":
            raise InputError(f"tau must be numeric or 'qut', got {self.tau!r}")


@dataclass
class RlzFit:
    beta_med: np.ndarray
    omega_med: np.ndarray
    gamma_all: list[np.ndarray]
    beta_hat: np.ndarray
    omega_hat: np.ndarray
    tau_used: float
    per_dictionary_status: list[str]
    corruption_cols: np.ndarray  # the rows with a corruption column
    column_scales: Optional[np.ndarray] = None  # set by the missing-data path

    def omega_full(self, n: int) -> np.ndarray:
        """Corruption medians indexed by original row, zero on the rows
        without a corruption column: n zeros when no row has one."""
        out = np.zeros(n)
        out[self.corruption_cols] = self.omega_med
        return out


def pivot_scale_from_gammas(gamma_all) -> float:
    """Noise scale from the dictionary coefficients: the median of the
    nonzero |gamma| pooled over all dictionaries.

    Only the nonzero coefficients enter: basic solutions of the l1
    programs zero out most dictionary entries, so a median over all of
    them would collapse to zero. The scale is scale-equivariant
    (solutions are positively homogeneous in the response, with the
    sparsity pattern unchanged), which is what makes the calibration
    noise-level-free.
    """
    if not gamma_all:
        raise InputError("no dictionary noise coefficients available")
    pooled = np.abs(np.concatenate([np.ravel(g) for g in gamma_all]))
    nz = pooled[pooled > 0.0]
    scale = float(np.median(nz)) if nz.size else 0.0
    if scale <= 0.0:
        raise InputError("all noise coefficients are zero; pivot scale "
                         "undefined (degenerate response)")
    return scale


def robust_lasso_zero(x: np.ndarray, y: np.ndarray, cfg: RlzConfig,
                      qut=None, corruption_cols: Optional[np.ndarray] = None
                      ) -> RlzFit:
    """Noise-dictionary median estimator for the sparse corruption model,
    with the corruption block on the rows ``corruption_cols`` (None = all
    rows, empty = no corruption block, and empty ``omega_med`` and
    ``omega_hat``): solve with M noise dictionaries, take medians and
    hard-threshold.

    Dictionary k (1-based) is drawn from the stream
    (master_seed, (*rng_path, k)), so fits are deterministic.
    :func:`rlasszero.lp.solve_jp_many` solves the M programs together (in
    lock step up to ``lp._LOCKSTEP_MAX_ROWS`` rows, one at a time above,
    drawing each dictionary when its solve starts), each result equal to
    its own :func:`rlasszero.lp.solve_jp`, bit for bit. Failed solves are
    dropped from the medians with a warning; the fit aborts only when more
    than half of them fail. A design that is not a finite 2-D array, a
    response that is not n finite values, rows that are not distinct
    integers in [0, n), or ``tau="qut"`` without ``qut``, raise InputError
    before any dictionary is drawn.
    """
    x = check_design(x)
    n = x.shape[0]
    y = check_response(y, n)
    cols = check_corruption_rows(corruption_cols, n)
    if isinstance(cfg.tau, str) and qut is None:
        raise InputError("tau='qut' requires a calibration result")
    base = RngStream(cfg.master_seed, cfg.rng_path)

    dictionaries = (base.child(k).generator().standard_normal((n, n))
                    for k in range(1, cfg.n_dictionaries + 1))
    betas, omegas, gammas, statuses = [], [], [], []
    for sol in solve_jp_many(x, y, cfg.lam, cols, dictionaries):
        statuses.append(sol.status)
        if sol.status != OPTIMAL:
            continue
        betas.append(sol.beta)
        omegas.append(sol.omega)
        gammas.append(sol.gamma)

    failures = cfg.n_dictionaries - len(betas)
    if failures:
        warnings.warn(f"{failures} of {cfg.n_dictionaries} dictionary solves "
                      "failed and were dropped from the medians")
    if failures > cfg.n_dictionaries / 2:
        raise SolverFailure("more than half of the dictionary solves failed; "
                            "medians would be unreliable")

    beta_med, omega_med = np.median(betas, axis=0), np.median(omegas, axis=0)
    tau = float(qut.pivot_quantile * pivot_scale_from_gammas(gammas)) \
        if isinstance(cfg.tau, str) else float(cfg.tau)
    return RlzFit(beta_med=beta_med, omega_med=omega_med, gamma_all=gammas,
                  beta_hat=hard_threshold(beta_med, tau),
                  omega_hat=hard_threshold(omega_med, tau), tau_used=tau,
                  per_dictionary_status=statuses, corruption_cols=cols)


def lasso_zero(x: np.ndarray, y: np.ndarray, cfg: RlzConfig,
               qut=None) -> RlzFit:
    """Baseline without a corruption block: repeated minimum-l1 solves on
    the dictionary-augmented matrix [X | G^(k)]."""
    return robust_lasso_zero(x, y, cfg, qut, corruption_cols=())


def tjp(x: np.ndarray, y: np.ndarray, lam: float, tau: float):
    """Hard-thresholded single solve (no dictionaries).

    Returns (beta_hat, omega_hat).
    """
    sol = solve_jp(x, y, lam)
    if sol.status != OPTIMAL:
        raise SolverFailure(f"tjp solve ended with status {sol.status}")
    return hard_threshold(sol.beta, tau), hard_threshold(sol.omega, tau)
