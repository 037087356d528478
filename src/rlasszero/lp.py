"""Exact l1 minimization via a dense revised simplex method.

Every estimator solves one program,

    min ||beta||_1 + lam ||omega||_1 + ||gamma||_1
    s.t. X beta + sqrt(n) E omega + G gamma = y,

where the corruption block E (identity columns for the corrupted rows) and
the noise-dictionary block G are optional. The corrupted rows are an
argument of each solve, chosen by the caller from the data (all rows, the
incomplete rows of an imputed design, or none). Basis pursuit has neither,
Justice Pursuit has no G, Lasso-Zero has no E and Robust Lasso-Zero has
both. :func:`formulate_jp` reduces it to a standard-form linear program by
splitting each signed variable into a nonnegative pair, and builds a
feasible starting basis from the program's own blocks: the corruption
column of every row that has one, and dictionary columns for the other
rows. The split program's columns are [A | -A], and ``LpProblem.n_signed``
declares those pairs so that the solver prices both columns of a pair
with one product. The solver is a revised simplex with Dantzig pricing and
an automatic Bland fallback, which terminates on degenerate problems and
returns exact basic feasible solutions -- needed downstream for uniqueness
and sign-pattern certification, where first-order solvers are too loose. It
starts from the program's basis when one is known and runs a phase 1 on
artificial variables only when there is none (basis pursuit, Justice
Pursuit with a restricted block, or a hand-built :class:`LpProblem`).
Before it reports "optimal" it checks the residual and the reduced costs
at a freshly inverted final basis.

A brute-force vertex enumeration oracle is provided for tiny instances;
it is the independent cross-check used by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, InputError, SolverFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TOLERANCE_FAILURE = "tolerance_failure"

_ENUM_CHUNK = 20000  # column subsets per batched solve in the vertex oracle

# feasibility tolerance of the ratio test and the starting basis, and
# optimality tolerance of the reduced costs (relative to 1 + ||c||_inf)
_FEAS_TOL = _OPT_TOL = 1e-9
# each phase may take this many pivots per row and column, 50 (m + N)
_PIVOTS_PER_COLUMN = 50


@dataclass
class LpProblem:
    """Standard-form LP: min c'x s.t. a x = b, x >= 0.

    ``n_signed = K`` declares that the first 2K columns split K signed
    variables into nonnegative pairs x = u - v: column K + j is exactly
    minus column j, so the solver prices each pair with one product, and
    signed optimizers are recomposed as ``x[:K] - x[K:2K]``. ``basis``,
    when known, lists m columns of ``a`` that form a feasible basis; the
    solver then skips phase 1 (it checks the basis and falls back to
    phase 1 if it is not).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_signed: int = 0
    basis: Optional[np.ndarray] = None

    def recompose(self, x: np.ndarray) -> np.ndarray:
        """Map a split-variable solution back to the signed variables."""
        k = self.n_signed
        x = np.asarray(x, dtype=float)
        return x[:k] - x[k:2 * k]


@dataclass
class JpSolution:
    beta: np.ndarray
    omega: np.ndarray
    gamma: Optional[np.ndarray]
    objective: float
    status: str


def formulate_jp(x: np.ndarray, y: np.ndarray, lam: float,
                 corruption_cols: Optional[Sequence[int]] = None,
                 g: Optional[np.ndarray] = None) -> LpProblem:
    """LP for min ||beta||_1 + lam ||omega||_1 + ||gamma||_1
    s.t. X beta + sqrt(n) E omega + G gamma = y.

    When ``corruption_cols`` is None the corruption block spans all n rows;
    otherwise only the listed rows get a corruption column, and an empty
    list drops the block. Without ``g`` there is no dictionary block.
    Variables are ordered [beta, omega, gamma].

    The starting basis takes the corruption column of each row that has
    one and the first dictionary columns for the other rows, each on the
    side of its split pair that makes it nonnegative. It is None when the
    dictionary has too few columns for those rows or the block is singular.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not 0 < lam < np.inf:
        raise InputError(f"lambda must be finite and > 0, got {lam}")
    n, p = x.shape
    if y.shape != (n,) or not np.isfinite(y).all():
        raise InputError(f"y must be {n} finite values, got shape {y.shape}")
    if corruption_cols is None:
        cols = np.arange(n)
    else:
        cols = np.asarray(corruption_cols, dtype=int)
    eye_block = np.zeros((n, cols.size))
    eye_block[cols, np.arange(cols.size)] = np.sqrt(n)
    g = np.zeros((n, 0)) if g is None else np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != n:
        raise InputError(f"dictionary must have {n} rows, got shape {g.shape}")
    a_signed = np.hstack([x, eye_block, g])
    costs = np.concatenate([np.ones(p), np.full(cols.size, lam),
                            np.ones(g.shape[1])])
    # split each signed variable into a nonnegative pair: [u block, v block]
    return LpProblem(a=np.hstack([a_signed, -a_signed]), b=y.copy(),
                     c=np.concatenate([costs, costs]),
                     n_signed=a_signed.shape[1],
                     basis=_block_basis(a_signed, y, p, cols))


def _block_basis(a_signed, y, p, cols):
    """Feasible basis of the split program from the E and G blocks, or None."""
    n, k = a_signed.shape
    rows, first = np.unique(cols, return_index=True)
    n_free = n - rows.size
    if n_free > k - p - cols.size:
        return None
    signed = np.concatenate([p + first, p + cols.size + np.arange(n_free)])
    try:
        z = np.linalg.solve(a_signed[:, signed], y)
    except np.linalg.LinAlgError:
        return None
    return np.where(z >= 0, signed, k + signed)


# ---------------------------------------------------------------------------
# Revised simplex
# ---------------------------------------------------------------------------

_REFACTOR_EVERY = 120


def _refactor(a, b, basis):
    binv = np.linalg.inv(a[:, basis])
    xb = binv @ b
    np.clip(xb, 0.0, None, out=xb)
    return binv, xb


def _apply_pivot(binv, xb, basis, d, leave, enter):
    """Update the basis inverse and basic values after a pivot, with the
    float operations of the tests' reference update (np.clip, np.outer)."""
    piv = d[leave]
    t = xb[leave] / piv
    xb -= t * d
    xb[leave] = t
    np.maximum(xb, 0.0, out=xb)
    row = binv[leave] / piv
    binv -= np.multiply.outer(d, row)
    binv[leave] = row
    basis[leave] = enter


def _pivot_loop(a, b, c, basis, binv, xb, n_price, n_signed,
                max_pivots: int, bland_after: int):
    """Run simplex pivots until optimality/unboundedness/pivot budget.

    Only the first ``n_price`` columns may enter the basis. Column
    ``n_signed + j`` is minus column j, so one product w = y a[:, :n_signed]
    prices both halves of each pair (reduced costs c_u - w and c_v + w);
    only the columns past the pairs are priced on their own.
    Returns a status string; basis/binv/xb are updated in place, along
    the pivot path of the tests' reference loop, bit for bit.
    """
    k = n_signed
    a_pair, a_rest = a[:, :k], a[:, 2 * k:n_price]
    c_u, c_v, c_rest = c[:k], c[k:2 * k], c[2 * k:n_price]
    reduced = np.full(a.shape[1], np.inf)  # columns past n_price never enter
    r_u, r_v, r_rest = reduced[:k], reduced[k:2 * k], reduced[2 * k:n_price]
    w, ratios, cb = np.empty(k), np.empty(a.shape[0]), c[basis]
    threshold = -_OPT_TOL * (1.0 + np.abs(c).max())
    it = 0
    while True:
        if it and it % _REFACTOR_EVERY == 0:
            binv[:, :], xb[:] = _refactor(a, b, basis)
        y = cb @ binv
        if k:
            np.matmul(y, a_pair, out=w)
            np.subtract(c_u, w, out=r_u)
            np.add(c_v, w, out=r_v)
        if r_rest.size:
            np.subtract(c_rest, y @ a_rest, out=r_rest)
        reduced[basis] = 0.0
        enter = int(reduced.argmin())
        if reduced[enter] >= threshold:
            return OPTIMAL
        if it >= bland_after:
            enter = int((reduced < threshold).nonzero()[0][0])
        d = binv @ a[:, enter]
        ratios.fill(np.inf)
        np.divide(xb, d, out=ratios, where=d > _FEAS_TOL)
        best = ratios[ratios.argmin()]
        if best == np.inf:
            return UNBOUNDED
        ties = (ratios <= best + _FEAS_TOL).nonzero()[0]
        # smallest variable index among ties: required for Bland, harmless
        # otherwise
        leave = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        _apply_pivot(binv, xb, basis, d, leave, enter)
        cb[leave] = c[enter]
        it += 1
        if it >= max_pivots:
            return TOLERANCE_FAILURE


def _residual_ok(a, b, basis, xb):
    """Whether a[:, basis] xb = b holds to 1e-9 (1 + ||b||_inf)."""
    return np.abs(a[:, basis] @ xb - b).max() <= 1e-9 * (1.0 + np.abs(b).max())


def _checked_start(a, b, basis):
    """(basis, binv, xb) when ``basis`` is feasible for a x = b, else None."""
    try:
        binv = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError:
        return None
    xb = binv @ b
    if xb.min() < -_FEAS_TOL or not _residual_ok(a, b, basis, xb):
        return None
    np.clip(xb, 0.0, None, out=xb)
    return basis.copy(), binv, xb


def solve_lp(prob: LpProblem):
    """Solve a standard-form LP; returns (x, objective, status).

    The solve starts from ``prob.basis`` when that is a feasible basis and
    runs phase 1 otherwise. At status "optimal" the point is a basic
    feasible solution whose residual, recomputed at the final basis, is at
    most 1e-9 (1 + ||b||_inf) and whose reduced costs are all
    >= -1e-9 (1 + ||c||_inf); a basis failing either check gives
    "tolerance_failure". Each phase may take 50 (m + N) pivots for m rows
    and N columns, and switches to Bland's rule after 10 (m + N); a phase
    that runs out of pivots gives "tolerance_failure". A problem whose
    ``n_signed`` pairs are not exact negatives raises InputError.
    """
    a = np.asarray(prob.a, dtype=float)
    b = np.asarray(prob.b, dtype=float)
    c = np.asarray(prob.c, dtype=float)
    m, n = a.shape
    k = prob.n_signed
    if not 0 <= 2 * k <= n or not np.array_equal(a[:, k:2 * k], -a[:, :k]):
        raise InputError(f"n_signed = {k}: columns {k}..{2 * k - 1} must be "
                         f"exactly minus columns 0..{k - 1}")
    max_pivots = _PIVOTS_PER_COLUMN * (m + n)
    bland_after = 10 * (m + n)

    # ensure b >= 0 so the artificial identity basis is feasible
    flip = b < 0
    a = a.copy()
    b = b.copy()
    a[flip] *= -1.0
    b[flip] *= -1.0

    start = None
    if prob.basis is not None:
        hint = np.asarray(prob.basis, dtype=int)
        if hint.shape != (m,) or hint.min(initial=0) < 0 \
                or hint.max(initial=0) >= n:
            raise InputError(f"basis must list {m} column indices below {n}")
        start = _checked_start(a, b, hint)
    if start is not None:
        basis, binv, xb = start
    else:
        # phase 1: artificial variables
        a1 = np.hstack([a, np.eye(m)])
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        basis = np.arange(n, n + m)
        binv = np.eye(m)
        xb = b.copy()
        status = _pivot_loop(a1, b, c1, basis, binv, xb, n + m, k,
                             max_pivots, bland_after)
        if status != OPTIMAL:
            return np.zeros(n), np.nan, TOLERANCE_FAILURE
        b_scale = 1.0 + np.abs(b).max()
        phase1_obj = float(xb[basis >= n].sum())
        if phase1_obj > 1e-7 * b_scale:
            return np.zeros(n), np.nan, INFEASIBLE

        # drive remaining artificials out of the basis (degenerate pivots)
        for leave in np.flatnonzero(basis >= n):
            candidates = np.abs(binv[leave] @ a) > 1e-9
            candidates[basis[basis < n]] = False
            pivot_cols = np.flatnonzero(candidates)
            if pivot_cols.size:
                enter = int(pivot_cols[0])
                d = binv @ a1[:, enter]
                _apply_pivot(binv, xb, basis, d, leave, enter)
            # else: redundant constraint row; the artificial stays basic at 0
            # and can never move since the row is null on original columns
        a = a1
        c = np.concatenate([c, np.zeros(m)])

    # phase 2
    status = _pivot_loop(a, b, c, basis, binv, xb, n, k,
                         max_pivots, bland_after)
    if status == TOLERANCE_FAILURE:
        return np.zeros(n), np.nan, TOLERANCE_FAILURE
    # final refresh for accuracy, then certify the basis
    binv, xb = _refactor(a, b, basis)
    if status == OPTIMAL:
        reduced = c[:n] - (c[basis] @ binv) @ a[:, :n]
        if not _residual_ok(a, b, basis, xb) \
                or reduced.min() < -_OPT_TOL * (1.0 + np.abs(c).max()):
            return np.zeros(n), np.nan, TOLERANCE_FAILURE
    x = np.zeros(n)
    keep = basis < n
    x[basis[keep]] = xb[keep]
    objective = float(c[:n] @ x)
    return x, objective, status


# ---------------------------------------------------------------------------
# High-level solves
# ---------------------------------------------------------------------------

def solve_jp(x: np.ndarray, y: np.ndarray, lam: float,
             corruption_cols: Optional[Sequence[int]] = None,
             g: Optional[np.ndarray] = None) -> JpSolution:
    """Solve the l1 program of :func:`formulate_jp` with the same blocks.

    ``omega`` has one entry per corruption row, ``gamma`` is None when
    there is no dictionary block, and ``objective`` is the value
    :func:`solve_lp` reports (NaN unless the status is "optimal").
    """
    prob = formulate_jp(x, y, lam, corruption_cols, g)
    sol, objective, status = solve_lp(prob)
    n_g = 0 if g is None else np.shape(g)[1]
    beta, omega, gamma = np.split(prob.recompose(sol),
                                  [np.shape(x)[1], prob.n_signed - n_g])
    return JpSolution(beta=beta, omega=omega,
                      gamma=None if g is None else gamma,
                      objective=objective, status=status)


# ---------------------------------------------------------------------------
# Vertex enumeration oracle
# ---------------------------------------------------------------------------

def _distinct(vectors) -> list[np.ndarray]:
    """The vectors, without any that lies within 1e-6 (max norm) of an
    earlier kept one."""
    kept: list[np.ndarray] = []
    for v in vectors:
        if not any(np.abs(v - seen).max() <= 1e-6 for seen in kept):
            kept.append(v)
    return kept


def enumerate_vertex_optima(prob: LpProblem,
                            budget: int = 10 ** 6) -> list[np.ndarray]:
    """All basic feasible solutions attaining the optimal objective.

    Brute force over column subsets; intended as a test oracle on tiny
    instances. Raises BudgetExceededError when C(N, m) exceeds ``budget``.
    """
    tol = 1e-8  # feasibility of a basis, and optimality gap to the best
    a = np.asarray(prob.a, dtype=float)
    b = np.asarray(prob.b, dtype=float)
    c = np.asarray(prob.c, dtype=float)
    m, n = a.shape
    total = comb(n, m)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},{m}) = {total} exceeds enumeration budget {budget}")
    b_scale = 1.0 + np.abs(b).max()
    best = np.inf
    optima: list[tuple[float, np.ndarray]] = []
    combos_iter = itertools.combinations(range(n), m)
    while True:
        block = list(itertools.islice(combos_iter, _ENUM_CHUNK))
        if not block:
            break
        idx = np.array(block)                       # (k, m)
        bases = a[:, idx].transpose(1, 0, 2)        # (k, m, m)
        dets = np.linalg.det(bases)
        ok = np.abs(dets) > 1e-12
        if not ok.any():
            continue
        idx = idx[ok]
        rhs = np.broadcast_to(b[:, None], (int(ok.sum()), m, 1)).copy()
        sols = np.linalg.solve(bases[ok], rhs)[..., 0]
        resid = np.abs(np.einsum("kij,kj->ki", bases[ok], sols) - b).max(axis=1)
        feas = (sols.min(axis=1) >= -tol) & (resid <= 1e-7 * b_scale)
        if not feas.any():
            continue
        idx = idx[feas]
        sols = sols[feas]
        objs = np.einsum("kj,kj->k", c[idx], sols)
        for combo, sol, obj in zip(idx, sols, objs):
            if obj < best - tol:
                best = obj
                optima = []
            if obj <= best + tol:
                x = np.zeros(n)
                x[combo] = np.clip(sol, 0.0, None)
                optima.append((obj, x))
    # re-filter against the final best and deduplicate solutions
    return _distinct(x for obj, x in optima if obj <= best + tol)


def certify_unique_jp(x: np.ndarray, y: np.ndarray, lam: float):
    """Enumerate optima of the corruption-aware problem at (x, y, lam).

    Returns (unique: bool, optima in recomposed (beta, omega) form).
    """
    prob = formulate_jp(np.asarray(x, float), np.asarray(y, float), lam)
    vertices = enumerate_vertex_optima(prob)
    if not vertices:
        raise SolverFailure("vertex oracle found no feasible basis")
    distinct = _distinct(prob.recompose(v) for v in vertices)
    return len(distinct) == 1, distinct
