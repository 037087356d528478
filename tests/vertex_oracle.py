"""Brute-force vertex enumeration oracle for the tests of :mod:`rlasszero.lp`.

It lists every basic feasible solution of a tiny standard-form program
and keeps those at the optimal objective, so it shares no code with the
simplex solver and is the independent cross-check of its answers.
"""

import itertools
from math import comb

import numpy as np

from rlasszero.errors import BudgetExceededError, SolverFailure
from rlasszero.lp import LpProblem, formulate_jp

_ENUM_CHUNK = 20000  # column subsets per batched solve


def recompose(prob: LpProblem, x: np.ndarray) -> np.ndarray:
    """Map a split-variable solution of ``prob`` back to its signed
    variables, ``x[:K] - x[K:2K]`` with K the pairs that ``prob.a``
    holds: none unless it is exactly [A | -A]."""
    a = np.asarray(prob.a, dtype=float)
    k = a.shape[1] // 2
    if a.shape[1] % 2 or not np.array_equal(a[:, k:], -a[:, :k]):
        k = 0
    x = np.asarray(x, dtype=float)
    return x[:k] - x[k:2 * k]


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
    distinct = _distinct(recompose(prob, v) for v in vertices)
    return len(distinct) == 1, distinct
