"""Exact identifiability and null-space-property certification.

Both certificates solve one LP over the null space of the noiseless
program of :func:`rlasszero.lp.formulate_jp`, A = [X, sqrt(n) I] with
costs w = (1, lambda), and start it from that program's block basis.

A sign pair (theta for the coefficients, theta_tilde for the corruption)
is identifiable when the corruption-aware l1 problem has that signed pair
as its unique solution at noiseless data. The certificate used here is
the classical null-space characterization: for every nonzero nu with
A nu = 0, and h the sign pair,

    |(w h)' nu| < sum_off w_j |nu_j|,

where "off" is the complement of the sign supports. The worst case is
found exactly by linear programming over the slice sum_off w_j |nu_j| <= 1,
after checking that the on-support columns are linearly independent. A
witness is reported as w nu, a null vector of [X, sqrt(n)/lambda I].
The stable null-space property solves the LP once per sign pattern.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import check_count
from .errors import BudgetExceededError, InputError, SolverFailure
from .lp import LpProblem, OPTIMAL, check_design, formulate_jp, solve_lp

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


def _support_mask(indices, size: int, name: str) -> np.ndarray:
    """Boolean mask of ``indices``, each an integer (not a bool) in
    [0, size)."""
    mask = np.zeros(size, dtype=bool)
    for i in indices:
        if not isinstance(i, numbers.Integral) or isinstance(i, bool) \
                or not 0 <= i < size:
            raise InputError(f"{name} index {i!r} is not in range({size})")
        mask[i] = True
    return mask


def _max_inner_product_lp(jp: LpProblem, h: np.ndarray, on: np.ndarray):
    """Solve max (w h)'nu s.t. A nu = 0, sum_off w_j |nu_j| <= 1, where the
    noiseless program ``jp`` has the split columns [A | -A] and costs (w, w).

    ``on`` masks the support, whose entries are left out of the budget.
    The start is the block basis of ``jp`` plus the budget slack: a lower
    triangular basis at x_B = (0, ..., 0, 1). Returns (value, w nu) or
    (inf, None) when unbounded.
    """
    m, k = jp.a.shape[0], jp.n_signed
    # split nu = u - v, slack t for the budget row
    a = np.zeros((m + 1, 2 * k + 1))
    a[:m, :2 * k] = jp.a
    a[m, :2 * k] = jp.c * np.tile(~on, 2)
    a[m, 2 * k] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    c = np.append(jp.c * np.concatenate([-h, h]), 0.0)
    # the budget row puts +w_j under both halves, so column k + j is not
    # minus column j: the pairs are not declared and every column is priced
    x, obj, status = solve_lp(LpProblem(a=a, b=b, c=c,
                                        basis=np.append(jp.basis, 2 * k)))
    if status == "unbounded":
        return np.inf, None
    if status != OPTIMAL:
        raise SolverFailure(f"certification LP ended with status {status}")
    return -obj, jp.c[:k] * (x[:k] - x[k:2 * k])


def check_identifiability(x: np.ndarray, theta: np.ndarray,
                          theta_tilde: np.ndarray, lam: float = 1.0
                          ) -> IdentifiabilityVerdict:
    """Certify whether the sign pair is identifiable for the given design.

    The verdict is exact up to a 1e-9 dead band: a worst-case value inside
    the band is reported as inconclusive rather than guessed. A design
    that is not finite and 2-D, a lambda that is not finite and > 0, and
    sign vectors of other entries or lengths raise InputError.
    """
    x = check_design(x)
    n, p = x.shape
    jp = formulate_jp(x, np.zeros(n), lam)
    theta = _check_signs(theta, "theta")
    theta_tilde = _check_signs(theta_tilde, "theta_tilde")
    if theta.shape != (p,) or theta_tilde.shape != (n,):
        raise InputError("sign vector lengths must match the design shape")
    h = np.concatenate([theta, theta_tilde])
    support = h != 0.0

    # on-support columns must be independent, otherwise a null vector
    # supported inside (S, T) kills uniqueness outright: the value is +inf
    a_on = jp.a[:, :n + p][:, support]
    _, sing, vt = np.linalg.svd(a_on)
    rank_tol = max(a_on.shape) * sing.max(initial=0.0) * 1e-12
    if a_on.shape[1] > (sing > rank_tol).sum():
        value, nu = np.inf, np.zeros(n + p)
        nu[support] = jp.c[:n + p][support] * vt[-1]
    else:
        value, nu = _max_inner_product_lp(jp, h, support)
    margin = 1.0 - value
    identifiable = bool(margin > _STRICTNESS)
    # dead band: uniqueness cannot be certified, so the conservative
    # verdict is non-identifiable, flagged inconclusive
    return IdentifiabilityVerdict(
        identifiable=identifiable,
        witness=None if identifiable or nu is None else (nu[:p], nu[p:]),
        method="sign_pattern_lp", margin=margin,
        inconclusive=bool(not identifiable and margin >= -_STRICTNESS))


def check_stable_nsp(x: np.ndarray, s0, t0, lam: float = 1.0,
                     rho_nsp: float = 1.0 / 3.0,
                     budget: int = 2 ** 20) -> bool:
    """Certify the stability condition on the augmented null space:

        ||beta_S||_1 + lam ||omega_T||_1
            <= rho_nsp (||beta_off||_1 + lam ||omega_off||_1)

    for every (beta, omega) with X beta + sqrt(n) omega = 0: the module's
    program with h = +-1 on the (S, T) support, one LP per sign pattern.
    h and -h give the same value, so ``budget`` counts the 2^(|S|+|T|-1)
    LPs whose first sign is +1. Bad x or lam (as in check_identifiability),
    S or T entries that are not indices, or a rho_nsp that is not finite
    and >= 0 raise InputError.
    """
    x = check_design(x)
    n, p = x.shape
    jp = formulate_jp(x, np.zeros(n), lam)
    on = np.concatenate([_support_mask(s0, p, "S"), _support_mask(t0, n, "T")])
    if not 0 <= rho_nsp < np.inf:
        raise InputError(f"rho_nsp must be finite and >= 0, got {rho_nsp}")
    on_idx = np.flatnonzero(on)
    n_lps = 2 ** on_idx.size // 2  # none for an empty support
    if n_lps > budget:
        raise BudgetExceededError(
            f"{n_lps} sign patterns exceed budget {budget}")
    # bit i set gives entry i the sign -1: even patterns start with +1
    for bits in range(0, 2 * n_lps, 2):
        h = np.zeros(n + p)
        h[on_idx] = 1.0 - 2.0 * (bits >> np.arange(on_idx.size) & 1)
        value, _ = _max_inner_product_lp(jp, h, on)
        if value > rho_nsp + _STRICTNESS:
            return False
    return True


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
    c_sample >= 144^2 and leaves the others unspecified. InputError
    unless sigma is a finite, square, symmetric and positive definite
    matrix, n >= 1, s >= 1 and k >= 0 are integers, beta_min is finite,
    sigma_noise is finite and >= 0, and lam and the three constants are
    finite and > 0.
    """
    for name, value, minimum in (("n", n, 1), ("s", s, 1), ("k", k, 0)):
        check_count(name, value, minimum)
    if not np.isfinite(beta_min):
        raise InputError(f"beta_min must be finite, got {beta_min}")
    if not 0.0 <= sigma_noise < np.inf:
        raise InputError(f"sigma_noise must be finite and >= 0, "
                         f"got {sigma_noise}")
    for name, value in (("lam", lam), ("c_sample", c_sample),
                        ("c_corruption_1", c_corruption_1),
                        ("c_corruption_2", c_corruption_2)):
        if not 0.0 < value < np.inf:
            raise InputError(f"{name} must be finite and > 0, got {value}")
    sigma = np.asarray(sigma, dtype=float)
    if (sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]
            or sigma.size == 0 or not np.isfinite(sigma).all()
            or not np.allclose(sigma, sigma.T, atol=1e-10)):
        raise InputError("sigma must be a finite, square, symmetric matrix")
    p = sigma.shape[0]
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
