"""Exact identifiability and null-space-property certification.

A sign pair (theta for the coefficients, theta_tilde for the corruption)
is identifiable when the corruption-aware l1 problem has that signed pair
as its unique solution at noiseless data. The certificate used here is
the classical null-space characterization: for every nonzero (beta, omega)
with X beta + sqrt(n)/lambda * omega = 0,

    |theta' beta + theta_tilde' omega| < ||beta_off||_1 + ||omega_off||_1,

where "off" is the complement of the sign supports. Since omega is a
linear function of beta on that null set, the worst case is found exactly
by linear programming over the slice ||nu_off||_1 <= 1, after checking
that the on-support columns are linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, InputError, SolverFailure
from .lp import LpProblem, OPTIMAL, solve_lp

_STRICTNESS = 1e-9


@dataclass
class IdentifiabilityVerdict:
    identifiable: bool
    witness: Optional[tuple[np.ndarray, np.ndarray]]  # (beta, omega) violating
    method: str
    margin: float = 0.0          # certified distance from the decision boundary
    inconclusive: bool = False   # margin inside the numerical dead band


def _check_signs(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v)
    if not np.isin(v, (-1, 0, 1)).all():
        raise InputError(f"{name} must have entries in {{-1, 0, +1}}")
    return v.astype(float)


def _max_inner_product_lp(a_null: np.ndarray, h: np.ndarray,
                          off_weights: np.ndarray):
    """Solve max h'nu s.t. a_null nu = 0, sum_off w_j |nu_j| <= 1.

    ``off_weights`` is zero on the support (entries excluded from the
    budget) and the weight w_j > 0 off support. Returns (value, nu) or
    (inf, None) when unbounded.
    """
    m, k = a_null.shape
    # split nu = u - v, slack t for the budget row
    a = np.zeros((m + 1, 2 * k + 1))
    a[:m, :k] = a_null
    a[:m, k:2 * k] = -a_null
    a[m, :k] = off_weights
    a[m, k:2 * k] = off_weights
    a[m, 2 * k] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    c = np.zeros(2 * k + 1)
    c[:k] = -h
    c[k:2 * k] = h
    # the budget row puts +w_j under both halves, so column k + j is not
    # minus column j: the pairs are not declared and every column is priced
    x, obj, status = solve_lp(LpProblem(a=a, b=b, c=c))
    if status == "unbounded":
        return np.inf, None
    if status != OPTIMAL:
        raise SolverFailure(f"certification LP ended with status {status}")
    return -obj, x[:k] - x[k:2 * k]


def check_identifiability(x: np.ndarray, theta: np.ndarray,
                          theta_tilde: np.ndarray, lam: float = 1.0
                          ) -> IdentifiabilityVerdict:
    """Certify whether the sign pair is identifiable for the given design.

    The verdict is exact up to a 1e-9 dead band: a worst-case value inside
    the band is reported as inconclusive rather than guessed.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    theta = _check_signs(theta, "theta")
    theta_tilde = _check_signs(theta_tilde, "theta_tilde")
    if theta.shape != (p,) or theta_tilde.shape != (n,):
        raise InputError("sign vector lengths must match the design shape")
    if not 0 < lam < np.inf:
        raise InputError(f"lambda must be finite and > 0, got {lam}")

    a_null = np.hstack([x, (np.sqrt(n) / lam) * np.eye(n)])
    h = np.concatenate([theta, theta_tilde])
    support = h != 0.0

    # on-support columns must be independent, otherwise a null vector
    # supported inside (S, T) kills uniqueness outright
    a_on = a_null[:, support]
    if a_on.shape[1]:
        _, sing, vt = np.linalg.svd(a_on)
        rank_tol = max(a_on.shape) * (sing[0] if sing.size else 0.0) * 1e-12
        if a_on.shape[1] > (sing > rank_tol).sum():
            nu = np.zeros(p + n)
            nu[support] = vt[-1]
            return IdentifiabilityVerdict(
                identifiable=False, witness=(nu[:p], nu[p:]),
                method="sign_pattern_lp", margin=-np.inf)

    off_weights = (~support).astype(float)
    value, nu = _max_inner_product_lp(a_null, h, off_weights)
    margin = 1.0 - value
    if margin > _STRICTNESS:
        return IdentifiabilityVerdict(identifiable=True, witness=None,
                                      method="sign_pattern_lp", margin=margin)
    witness = None if nu is None else (nu[:p], nu[p:])
    if margin < -_STRICTNESS or not np.isfinite(margin):
        return IdentifiabilityVerdict(identifiable=False, witness=witness,
                                      method="sign_pattern_lp", margin=margin)
    # dead band: uniqueness cannot be certified, so the conservative
    # verdict is non-identifiable, flagged inconclusive
    return IdentifiabilityVerdict(identifiable=False, witness=witness,
                                  method="sign_pattern_lp", margin=margin,
                                  inconclusive=True)


def check_stable_nsp(x: np.ndarray, s0, t0, lam: float = 1.0,
                     rho_nsp: float = 1.0 / 3.0,
                     budget: int = 2 ** 20) -> bool:
    """Certify the stability condition on the augmented null space:

        ||beta_S||_1 + lam ||omega_T||_1
            <= rho_nsp (||beta_off||_1 + lam ||omega_off||_1)

    for every (beta, omega) with X beta + sqrt(n) omega = 0. One LP is
    solved per sign pattern on the (S, T) support, so the budget is
    2^(|S|+|T|) patterns.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    s0 = np.asarray(sorted(set(map(int, s0))), dtype=int)
    t0 = np.asarray(sorted(set(map(int, t0))), dtype=int)
    if s0.size and (s0.min() < 0 or s0.max() >= p):
        raise InputError("S indices out of range")
    if t0.size and (t0.min() < 0 or t0.max() >= n):
        raise InputError("T indices out of range")
    if rho_nsp < 0:
        raise InputError(f"rho_nsp must be >= 0, got {rho_nsp}")
    n_on = s0.size + t0.size
    if n_on == 0:
        return True
    if 2 ** n_on > budget:
        raise BudgetExceededError(
            f"2^{n_on} sign patterns exceed budget {budget}")

    a_null = np.hstack([x, np.sqrt(n) * np.eye(n)])
    weights = np.concatenate([np.ones(p), np.full(n, lam)])
    on_idx = np.concatenate([s0, p + t0])
    on_mask = np.zeros(p + n, dtype=bool)
    on_mask[on_idx] = True
    off_weights = np.where(on_mask, 0.0, weights)

    worst = 0.0
    for bits in range(2 ** n_on):
        h = np.zeros(p + n)
        signs = np.array([1.0 if bits >> i & 1 else -1.0
                          for i in range(n_on)])
        h[on_idx] = signs * weights[on_idx]
        value, _ = _max_inner_product_lp(a_null, h, off_weights)
        if not np.isfinite(value):
            return False
        worst = max(worst, value)
        if worst > rho_nsp + _STRICTNESS:
            return False
    return worst <= rho_nsp + _STRICTNESS


@dataclass
class CovarianceDiagnostics:
    lambda_min: float
    lambda_max: float
    condition_number: float
    sample_size_lhs: float        # n
    sample_size_rhs: float        # C * cond / lambda_min * s log p
    sample_size_ok: bool
    corruption_lhs: float         # n / k (inf when k = 0)
    corruption_rhs: float         # max(1/C', cond/C'')
    corruption_ok: bool
    beta_min_lhs: float
    beta_min_rhs: float
    beta_min_ok: bool


def covariance_diagnostics(sigma: np.ndarray, n: int, s: int, k: int,
                           beta_min: float, sigma_noise: float, lam: float,
                           c_sample: float = 144.0 ** 2,
                           c_corruption_1: float = 1.0,
                           c_corruption_2: float = 1.0
                           ) -> CovarianceDiagnostics:
    """Evaluate the three sufficient-sample-size style conditions for sign
    recovery under a correlated Gaussian design.

    The numerical constants are inputs: the theory only pins down
    c_sample >= 144^2 and leaves the others unspecified.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if sigma.shape != (p, p) or not np.allclose(sigma, sigma.T, atol=1e-10):
        raise InputError("sigma must be square symmetric")
    eigs = np.linalg.eigvalsh(sigma)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0:
        raise InputError("sigma is not positive definite")
    cond = hi / lo

    n_rhs = c_sample * cond / lo * s * np.log(p)
    corr_lhs = np.inf if k == 0 else n / k
    corr_rhs = max(1.0 / c_corruption_1, cond / c_corruption_2)
    denom = np.sqrt(lo / 4.0 * (np.sqrt(p / n) - 1.0) ** 2 + 1.0)
    b_rhs = 10.0 * np.sqrt(2.0) * max(1.0, lam) * sigma_noise * np.sqrt(p + n) / denom
    return CovarianceDiagnostics(
        lambda_min=lo, lambda_max=hi, condition_number=cond,
        sample_size_lhs=float(n), sample_size_rhs=float(n_rhs),
        sample_size_ok=bool(n >= n_rhs),
        corruption_lhs=float(corr_lhs), corruption_rhs=float(corr_rhs),
        corruption_ok=bool(corr_lhs >= corr_rhs),
        beta_min_lhs=float(beta_min), beta_min_rhs=float(b_rhs),
        beta_min_ok=bool(beta_min > b_rhs),
    )
