"""Exact l1 minimization via a dense revised simplex method.

Every estimator solves one program,

    min ||beta||_1 + lam ||omega||_1 + ||gamma||_1
    s.t. X beta + sqrt(n) E omega + G gamma = y,

where the corruption block E (identity columns for the rows that the caller
calls corrupted) and the noise-dictionary block G are optional. Basis
pursuit has neither, Justice Pursuit has no G, Lasso-Zero has no E and
Robust Lasso-Zero has both. :func:`formulate_jp` reduces it to a
standard-form linear program by splitting each signed variable into a
nonnegative pair, so that its columns are [A | -A], and builds a feasible
starting basis from the program's own blocks: the corruption column of every
row that has one, and dictionary columns for the other rows. Both pivot
loops below start their programs through ``_start``, which checks the
program and its hinted basis and reads the pairs off the matrix: one that is
exactly [A | -A] is priced by pairs, one product for both columns of a pair,
any other column by column. No solve copies or writes the program's matrix
or right-hand side. The solver is a revised simplex with Dantzig pricing and
an automatic Bland fallback, which terminates on degenerate problems and
returns exact basic feasible solutions -- needed downstream for uniqueness
and sign-pattern certification, where first-order solvers are too loose. It
runs a phase 1 on signed artificial columns only when the program has no
known basis (basis pursuit, Justice Pursuit with a restricted block, or a
hand-built :class:`LpProblem`), and before it reports "optimal" it checks
the residual and the reduced costs at a freshly inverted final basis. A
solution holds each block as an array, empty when the block has no columns.

A median fit solves M programs that differ only in their dictionary.
:func:`solve_jp_many` returns what :func:`solve_jp` returns for each, bit
for bit. At most ``_LOCKSTEP_MAX_ROWS`` rows, it builds and starts them as
one (M, m, 2K) stack; when every program has a block start, their phase 2
runs in lock step, one numpy call of a pivot serving all of them, and
``_finish`` certifies each as it leaves. Otherwise each program is solved
on its own by :func:`solve_jp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import check_real
from .errors import InputError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TOLERANCE_FAILURE = "tolerance_failure"

# feasibility tolerance of the ratio test and the starting basis, and
# optimality tolerance of the reduced costs (relative to 1 + ||c||_inf)
_FEAS_TOL = _OPT_TOL = 1e-9
# each phase may take this many pivots per row and column, 50 (m + N)
_PIVOTS_PER_COLUMN = 50


@dataclass
class LpProblem:
    """Standard-form LP: min c'x s.t. a x = b, x >= 0.

    An ``a`` of N = 2K columns that is exactly [A | -A] splits K signed
    variables into pairs x = u - v, recomposed as ``x[:K] - x[K:]``; the
    solver prices each pair with one product. ``basis``, when known,
    lists m columns of ``a`` that form a feasible basis; the solver then
    skips phase 1 (it checks the basis and falls back to phase 1 if it is
    not). A stack of B programs of one b and c has ``a`` (B, m, N) and
    ``basis`` (B, m); :func:`solve_lp` rejects it.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis: Optional[np.ndarray] = None


@dataclass
class JpSolution:
    beta: np.ndarray
    omega: np.ndarray
    gamma: np.ndarray
    objective: float
    status: str


def formulate_jp(x: np.ndarray, y: np.ndarray, lam: float,
                 corruption_cols: Optional[Sequence[int]] = None,
                 g: Optional[np.ndarray] = None) -> LpProblem:
    """LP for min ||beta||_1 + lam ||omega||_1 + ||gamma||_1
    s.t. X beta + sqrt(n) E omega + G gamma = y, for a finite lam > 0.

    When ``corruption_cols`` is None the corruption block spans all n rows;
    otherwise only the listed rows get a corruption column, an empty list
    drops the block, and a repeated row is an InputError
    (:func:`check_corruption_rows`). Without ``g`` there is no dictionary
    block, and ``g`` must be finite; a (B, n, q) stack gives B programs,
    each with its own bits. Variables are ordered [beta, omega, gamma].

    The starting basis takes the corruption column of each row that has
    one and the first dictionary columns for the other rows, each on the
    side of its split pair that makes it nonnegative. It is None when the
    dictionary has too few columns for those rows or a block is singular.
    """
    x = check_design(x)
    check_real("lambda", lam, 0.0, low_open=True)
    n, p = x.shape
    y = check_response(y, n)
    cols = check_corruption_rows(corruption_cols, n)
    try:
        g = np.zeros((n, 0)) if g is None else np.asarray(g, dtype=float)
    except (TypeError, ValueError):  # a stack of mixed shapes among them
        raise InputError("dictionary must be an array of numbers") from None
    if g.ndim not in (2, 3) or g.shape[-2] != n:
        one = g.shape[1:] if g.ndim == 3 else g.shape  # one dictionary's
        raise InputError(f"dictionary must have {n} rows, got shape {one}")
    if not np.isfinite(g).all():
        raise InputError("dictionary must hold finite numbers")
    k = p + cols.size + g.shape[-1]
    # [X, sqrt(n) E, G] in the u block, then its exact negation: x = u - v
    a = np.zeros(g.shape[:-2] + (n, 2 * k))
    a[..., :p] = x
    a[..., cols, p + np.arange(cols.size)] = np.sqrt(n)
    a[..., p + cols.size:k] = g
    np.negative(a[..., :k], out=a[..., k:])
    costs = np.concatenate([np.ones(p), np.full(cols.size, lam),
                            np.ones(g.shape[-1])])
    return LpProblem(a=a, b=y.copy(), c=np.concatenate([costs, costs]),
                     basis=_block_basis(a, y, p, cols))


def check_design(x: np.ndarray) -> np.ndarray:
    """``x`` as a float array; InputError unless it is 2-D, finite and has
    a row and a column."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or not x.size or not np.isfinite(x).all():
        raise InputError("the design must be a 2-D array of finite numbers "
                         "with at least one row and one column")
    return x


def check_response(y: np.ndarray, n: int) -> np.ndarray:
    """``y`` as a float array; InputError unless it holds n finite values."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,) or not np.isfinite(y).all():
        raise InputError(f"y must be {n} finite values, got shape {y.shape}")
    return y


def check_corruption_rows(rows, n: int) -> np.ndarray:
    """The corruption rows as a 1-D integer array: every row for None,
    else InputError unless ``rows`` lists distinct integers in [0, n). An
    empty list drops the corruption block. A repeated row is rejected: its
    corruption columns would be equal, and omega not unique."""
    if rows is None:
        return np.arange(n)
    idx = np.asarray(rows)
    if idx.ndim != 1 or (idx.size and not (
            idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < n)):
        raise InputError(f"corruption rows must be a list of integers in "
                         f"range({n}), got {rows!r}")
    if len(set(idx.tolist())) != idx.size:
        raise InputError(f"corruption rows must not repeat, got {rows!r}")
    return idx.astype(int, copy=False)


def _block_basis(a, y, p, cols):
    """Feasible basis of the split program ``a`` from the E and G blocks,
    or None; of each program of a stack, or None if any lacks one."""
    n, k = a.shape[-2], a.shape[-1] // 2
    n_free = n - cols.size
    if n_free > k - p - cols.size:
        return None
    # corruption columns in row order, then dictionary columns
    first = np.argsort(cols, kind="stable")
    signed = np.concatenate([p + first, p + cols.size + np.arange(n_free)])
    # a right-hand side of shape (..., n, 1): numpy 1.x and 2.x read it alike
    rhs = np.broadcast_to(y[:, None], a.shape[:-2] + (n, 1))
    try:
        z = np.linalg.solve(a[..., signed], rhs)[..., 0]
    except np.linalg.LinAlgError:
        return None
    return np.where(z >= 0, signed, k + signed)


# ---------------------------------------------------------------------------
# Revised simplex
# ---------------------------------------------------------------------------

_REFACTOR_EVERY = 120

# solve_jp_many runs programs of at most this many rows in lock step.
# Measured on 10 programs (p = 2n, full or 0.44 n-row corruption block,
# one BLAS thread, 2-core x86 machine, 6 seeds each), lock-step CPU time
# over one-at-a-time CPU time: 0.64-0.80 at 50 rows, 0.70-1.03 at 64 and
# 1.09-1.26 at 100, where the arithmetic of a pivot outweighs the call
# overhead that lock step shares. The loss is not the cache: batches of 2
# or 3 programs at 100 rows fit a 2 MiB L2 and still lose.
_LOCKSTEP_MAX_ROWS = 64


def _refactor(a_basis, b):
    """(binv, xb) at the basis matrix ``a_basis``, or at each matrix of a
    stack of them, with the basic values clipped at zero."""
    binv = np.linalg.inv(a_basis)
    xb = binv @ b
    np.clip(xb, 0.0, None, out=xb)
    return binv, xb


def _apply_pivot(binv, xb, basis, d, leave, enter):
    """Update the basis inverse and basic values after a pivot; np.maximum
    and np.multiply.outer give the bytes of the tests' reference update."""
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
            binv[:, :], xb[:] = _refactor(a[:, basis], b)
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


def _residual_ok(a_basis, b, xb):
    """Whether a_basis xb = b holds to 1e-9 (1 + ||b||_inf)."""
    return np.abs(a_basis @ xb - b).max() <= 1e-9 * (1.0 + np.abs(b).max())


def _start(prob: LpProblem):
    """(a, b, c, start, k) of ``prob`` before pivoting: a and b as C-ordered
    float arrays (``prob``'s own when they are already), the costs, the
    (basis, binv, xb) of a feasible ``prob.basis`` or None, and k = N/2 if
    the N columns of a are exactly [A | -A], else 0. No solve writes to a
    or b. InputError unless a is finite, b and c are m and N finite values
    and a hint lists m column indices. A stack is checked and started at
    once, each program with its own bits; its start is None if any
    program's is.
    """
    a = np.ascontiguousarray(prob.a, dtype=float)
    b = np.ascontiguousarray(prob.b, dtype=float)
    c = np.asarray(prob.c, dtype=float)
    m, n = a.shape[-2:]
    if b.shape != (m,) or c.shape != (n,) or not np.isfinite(a).all() \
            or not np.isfinite(np.concatenate([b, c])).all():
        raise InputError(f"a must be finite; b, c {m} and {n} finite values")
    k = n // 2
    if n % 2 or not np.array_equal(a[..., k:], -a[..., :k]):
        k = 0
    if prob.basis is None:
        return a, b, c, None, k
    basis = np.array(prob.basis, dtype=int)
    if basis.shape != a.shape[:-1] or basis.min(initial=0) < 0 \
            or basis.max(initial=0) >= n:
        raise InputError(f"basis must list {m} column indices below {n}")
    a_basis = np.take_along_axis(a, basis[..., None, :], axis=-1)
    try:
        binv = np.linalg.inv(a_basis)
    except np.linalg.LinAlgError:
        return a, b, c, None, k
    xb = binv @ b[:, None]  # a column of basic values per program
    if xb.min() < -_FEAS_TOL or not _residual_ok(a_basis, b[:, None], xb):
        return a, b, c, None, k
    np.clip(xb, 0.0, None, out=xb)
    return a, b, c, (basis, binv, xb[..., 0]), k


def _finish(a, b, c, basis, status, n):
    """(x, objective, status) over the first n columns of ``a`` at the
    basis a phase-2 loop ended on with ``status``.

    Any status but "optimal" gives zeros and a NaN objective. The basis is
    inverted afresh; "optimal" stands only if the residual and the reduced
    costs pass at that inverse, and is "tolerance_failure" otherwise.
    """
    if status != OPTIMAL:
        return np.zeros(n), np.nan, status
    a_basis = a[:, basis]
    binv, xb = _refactor(a_basis, b)
    reduced = c[:n] - (c[basis] @ binv) @ a[:, :n]
    if not _residual_ok(a_basis, b, xb) \
            or reduced.min() < -_OPT_TOL * (1.0 + np.abs(c).max()):
        return np.zeros(n), np.nan, TOLERANCE_FAILURE
    x = np.zeros(n)
    keep = basis < n
    x[basis[keep]] = xb[keep]
    return x, float(c[:n] @ x), status


def solve_lp(prob: LpProblem):
    """Solve a standard-form LP; returns (x, objective, status).

    The solve starts from ``prob.basis`` when that is a feasible basis and
    runs phase 1 otherwise, from the artificial basis diag(s) with s_i = -1
    where b_i < 0 and +1 elsewhere; it never copies or writes ``prob.a`` or
    ``prob.b`` (an array that is not C-ordered float is read through a
    C-ordered float copy). Both phases price an ``a`` that is exactly
    [A | -A] by pairs, any other column by column. At status "optimal" the
    point is a basic feasible solution whose residual, recomputed at the
    final basis, is at most 1e-9 (1 + ||b||_inf) and whose reduced costs
    are all >= -1e-9 (1 + ||c||_inf); a basis failing either check gives
    "tolerance_failure". Each phase may take 50 (m + N) pivots for m rows
    and N columns, and switches to Bland's rule after 10 (m + N); a phase
    that runs out of pivots gives "tolerance_failure". Every status but
    "optimal" comes with x = 0 and a NaN objective. InputError unless a is
    one finite program and b and c are m and N finite values.
    """
    if np.ndim(prob.a) != 2:
        raise InputError(f"solve_lp: a must be 2-D, got {np.shape(prob.a)}")
    a, b, c, start, k = _start(prob)
    m, n = a.shape
    max_pivots = _PIVOTS_PER_COLUMN * (m + n)
    bland_after = 10 * (m + n)
    if start is not None:
        basis, binv, xb = start
    else:
        # phase 1: artificial variables +-e_i, signed so that x_B = s b >= 0
        # (s b, not |b|, keeps the sign of a -0.0 entry)
        s = np.where(b < 0, -1.0, 1.0)
        a1 = np.hstack([a, np.diag(s)])
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        basis = np.arange(n, n + m)
        binv = np.diag(s)
        xb = s * b
        status = _pivot_loop(a1, b, c1, basis, binv, xb, n + m, k,
                             max_pivots, bland_after)
        if status != OPTIMAL:
            return _finish(a, b, c, basis, TOLERANCE_FAILURE, n)
        if xb[basis >= n].sum() > 1e-7 * (1.0 + np.abs(b).max()):
            return _finish(a, b, c, basis, INFEASIBLE, n)

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
    return _finish(a, b, c, basis, status, n)


# ---------------------------------------------------------------------------
# Lock-step phase 2 over a stack of programs
# ---------------------------------------------------------------------------

def _lockstep_loop(a, b, c, basis, binv, xb, max_pivots: int,
                   bland_after: int):
    """:func:`_pivot_loop` run over a stack of B split-symmetric programs
    at once, each making the pivots it makes alone, bit for bit, and
    certified by :func:`_finish` as it leaves.

    ``a`` (B, m, 2K) stacks the split matrices [A_i | -A_i] that
    :func:`_start` returns; all programs share the right-hand side ``b``
    and the costs ``c`` (length 2K), and may price all 2K columns.
    ``basis`` (B, m), ``binv`` (B, m, m) and ``xb`` (B, m) are updated in
    place. Each step mirrors :func:`_pivot_loop` and :func:`_apply_pivot`
    with stacked arrays, and a stacked product runs one BLAS call per
    program, as the single loop does. Programs leave at one place, after
    pricing and the ratio test: those past the pivot budget (checked once
    a pivot is made, with no refactor at that step) end with
    "tolerance_failure", the others with no entering column "optimal" and
    those with no leaving row "unbounded", in that order of precedence.
    There their basis, inverse and values are written back, :func:`_finish`
    certifies them, and the matrices of the live programs are packed over
    theirs into the leading rows of ``a``. Returns (results, pivots): per
    program, the (x, objective, status) of :func:`_finish` and the number
    of pivots made.
    """
    n_prog, m, n = a.shape
    k = n // 2
    results, pivots = [None] * n_prog, [0] * n_prog
    c_u, c_v = c[:k], c[k:]
    threshold = -_OPT_TOL * (1.0 + np.abs(c).max())
    no_tie = np.iinfo(basis.dtype).max  # above every column index
    reduced_buf = np.empty((n_prog, n))
    ratios_buf = np.empty((n_prog, m))
    outer_buf = np.empty((n_prog, m, m))
    live, rows = np.arange(n_prog), np.arange(n_prog)
    a_l, basis_l, binv_l, xb_l, cb = a, basis, binv, xb, c[basis]
    it = 0
    while live.size:
        # _pivot_loop checks its budget after a pivot, so never at 0 pivots
        budget = it >= max(max_pivots, 1)
        if it and it % _REFACTOR_EVERY == 0 and not budget:
            binv_l[:], xb_l[:] = _refactor(
                np.take_along_axis(a_l, basis_l[:, None, :], axis=-1), b)
        w = np.matmul(np.matmul(cb[:, None, :], binv_l), a_l[:, :, :k])[:, 0]
        reduced = reduced_buf[:live.size]
        np.subtract(c_u, w, out=reduced[:, :k])
        np.add(c_v, w, out=reduced[:, k:])
        reduced[rows[:, None], basis_l] = 0.0
        enter = reduced.argmin(axis=1)
        lowest = reduced.min(axis=1)
        if it >= bland_after:
            enter = (reduced < threshold).argmax(axis=1)
        d = np.matmul(binv_l, a_l[rows, :, enter][:, :, None])[:, :, 0]
        ratios = ratios_buf[:live.size]
        ratios.fill(np.inf)
        np.divide(xb_l, d, out=ratios, where=d > _FEAS_TOL)
        best = ratios.min(axis=1)
        # one test per step while no program ends, as in _pivot_loop
        if budget or lowest.max() >= threshold or best.max() == np.inf:
            optimal = lowest >= threshold
            ended = budget | optimal | (best == np.inf)
            done = live[ended]
            basis[done], binv[done], xb[done] = \
                basis_l[ended], binv_l[ended], xb_l[ended]
            for i, j in zip(done, np.flatnonzero(ended)):
                status = TOLERANCE_FAILURE if budget else \
                    OPTIMAL if optimal[j] else UNBOUNDED
                results[i] = _finish(a_l[j], b, c, basis[i], status, n)
                pivots[i] = it
            keep = ~ended
            basis_l, binv_l, xb_l, cb, live, enter, d, ratios, best = (
                v[keep] for v in (basis_l, binv_l, xb_l, cb, live, enter, d,
                                  ratios, best))
            # pack the live matrices into the leading rows of a: a
            # compacted copy would double the largest array of the loop
            for j, i in enumerate(np.flatnonzero(keep)):
                if j != i:
                    a_l[j] = a_l[i]
            a_l, rows = a_l[:live.size], rows[:live.size]
        # (once every program has ended, the update below runs on empty
        # arrays and the loop stops)
        # smallest variable index among ratio ties, as in _pivot_loop
        ties = ratios <= (best + _FEAS_TOL)[:, None]
        at = rows, np.where(ties, basis_l, no_tie).argmin(axis=1)
        # the update of _apply_pivot, on one row of the stack per program
        piv = d[at]
        t = xb_l[at] / piv
        xb_l -= t[:, None] * d
        xb_l[at] = t
        np.maximum(xb_l, 0.0, out=xb_l)
        row = binv_l[at] / piv[:, None]
        outer = outer_buf[:live.size]
        np.multiply(d[:, :, None], row[:, None, :], out=outer)
        binv_l -= outer
        binv_l[at] = row
        basis_l[at] = enter
        cb[at] = c[enter]
        it += 1
    return results, pivots


# ---------------------------------------------------------------------------
# High-level solves
# ---------------------------------------------------------------------------

def solve_jp(x: np.ndarray, y: np.ndarray, lam: float,
             corruption_cols: Optional[Sequence[int]] = None,
             g: Optional[np.ndarray] = None) -> JpSolution:
    """Solve the l1 program of :func:`formulate_jp` with the same blocks.

    ``omega`` has one entry per corruption row and ``gamma`` one per
    dictionary column, each empty without its block, and ``objective`` is
    the value :func:`solve_lp` reports (NaN unless the status is "optimal").
    """
    prob = formulate_jp(x, y, lam, corruption_cols, g)
    return _jp_solution(*solve_lp(prob), np.shape(x)[1], g)


def _jp_solution(sol, objective, status, p, g) -> JpSolution:
    """The parts of a split solution of a :func:`formulate_jp` program."""
    k = sol.size // 2
    n_g = 0 if g is None else np.shape(g)[1]
    beta, omega, gamma = np.split(sol[:k] - sol[k:], [p, k - n_g])
    return JpSolution(beta, omega, gamma, objective, status)


def solve_jp_many(x: np.ndarray, y: np.ndarray, lam: float,
                  corruption_cols: Optional[Sequence[int]],
                  dictionaries: Iterable[np.ndarray]
                  ) -> list[JpSolution]:
    """``[solve_jp(x, y, lam, corruption_cols, g) for g in dictionaries]``
    for n x q dictionaries, bit for bit, by one of two routes.

    Up to ``_LOCKSTEP_MAX_ROWS`` rows, the dictionaries are read as one
    stack, which :func:`formulate_jp` and :func:`_start` check, build and
    start at once: None, mixed shapes and an empty list are InputErrors.
    If every program has a feasible block start, all run phase 2 in lock
    step (:func:`_lockstep_loop`), each certified as it leaves. Otherwise,
    and above the limit, each program goes through :func:`solve_jp`; above
    it ``dictionaries`` is read one item per solve, so a generator keeps
    one dictionary alive.
    """
    x = check_design(x)
    n, p = x.shape
    gs = dictionaries if n > _LOCKSTEP_MAX_ROWS else list(dictionaries)
    if n <= _LOCKSTEP_MAX_ROWS:
        a, b, c, start, _ = _start(formulate_jp(x, y, lam, corruption_cols,
                                                gs))
        if start is not None:
            size = n + c.size  # rows plus columns of each program
            results, _ = _lockstep_loop(a, b, c, *start,
                                        _PIVOTS_PER_COLUMN * size, 10 * size)
            return [_jp_solution(*res, p, g) for res, g in zip(results, gs)]
    return [solve_jp(x, y, lam, corruption_cols, g) for g in gs]
