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
declares those pairs so that the solver prices both columns of a pair with
one product. Both pivot loops below start a program through ``_start``,
which checks the hinted basis; no solve copies or writes the program's
matrix or right-hand side. The solver is a revised simplex with Dantzig
pricing and an automatic Bland fallback, which terminates on degenerate
problems and returns exact basic feasible solutions -- needed downstream
for uniqueness and sign-pattern certification, where first-order solvers
are too loose. It starts from the program's basis when one is known and
runs a phase 1 on signed artificial columns only when there is none (basis
pursuit, Justice Pursuit with a restricted block, or a hand-built
:class:`LpProblem`). Before it reports "optimal" it checks the residual
and the reduced costs at a freshly inverted final basis.

A median fit solves M programs that differ only in their dictionary.
:func:`solve_jp_many` returns what :func:`solve_jp` returns for each of
them, bit for bit. At most ``_LOCKSTEP_MAX_ROWS`` (64) rows, it runs their
phase 2 in lock step on the (B, m, 2K) stack of the split matrices of
:func:`formulate_jp`, one row of the stack per program, so each numpy call
of a pivot serves all B programs; the products and the pivot update are the
single loop's float operations program by program. Each program is
certified by ``_finish`` as it leaves the loop, which then packs the
matrices of the live programs over it in place. Larger programs are solved
one at a time; the measurements behind the limit are noted at
``_LOCKSTEP_MAX_ROWS``.
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
    s.t. X beta + sqrt(n) E omega + G gamma = y, for a finite lam > 0.

    When ``corruption_cols`` is None the corruption block spans all n rows;
    otherwise only the listed rows get a corruption column, an empty list
    drops the block, and a repeated row is an InputError
    (:func:`check_corruption_rows`). Without ``g`` there is no dictionary
    block.
    Variables are ordered [beta, omega, gamma].

    The starting basis takes the corruption column of each row that has
    one and the first dictionary columns for the other rows, each on the
    side of its split pair that makes it nonnegative. It is None when the
    dictionary has too few columns for those rows or the block is singular.
    """
    x = check_design(x)
    check_real("lambda", lam, 0.0, low_open=True)
    n, p = x.shape
    y = check_response(y, n)
    cols = check_corruption_rows(corruption_cols, n)
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


def check_design(x: np.ndarray) -> np.ndarray:
    """``x`` as a float array; InputError unless it is 2-D and finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or not np.isfinite(x).all():
        raise InputError("the design must be a 2-D array of finite numbers")
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


def _block_basis(a_signed, y, p, cols):
    """Feasible basis of the split program from the E and G blocks, or None."""
    n, k = a_signed.shape
    n_free = n - cols.size
    if n_free > k - p - cols.size:
        return None
    # corruption columns in row order, then dictionary columns
    first = np.argsort(cols, kind="stable")
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
    """(a, b, c, start) of ``prob`` before pivoting: a and b as C-ordered
    float arrays (``prob``'s own when they are already), the costs, and
    (basis, binv, xb) at ``prob.basis`` when that is a feasible basis,
    else None. No solve writes to a or b. InputError when the
    ``n_signed`` pairs are not exact negatives or the hint does not list
    m column indices.
    """
    a = np.ascontiguousarray(prob.a, dtype=float)
    b = np.ascontiguousarray(prob.b, dtype=float)
    c = np.asarray(prob.c, dtype=float)
    m, n = a.shape
    k = prob.n_signed
    if not 0 <= 2 * k <= n or not np.array_equal(a[:, k:2 * k], -a[:, :k]):
        raise InputError(f"n_signed = {k}: columns {k}..{2 * k - 1} must be "
                         f"exactly minus columns 0..{k - 1}")
    if prob.basis is None:
        return a, b, c, None
    basis = np.array(prob.basis, dtype=int)
    if basis.shape != (m,) or basis.min(initial=0) < 0 \
            or basis.max(initial=0) >= n:
        raise InputError(f"basis must list {m} column indices below {n}")
    a_basis = a[:, basis]
    try:
        binv = np.linalg.inv(a_basis)
    except np.linalg.LinAlgError:
        return a, b, c, None
    xb = binv @ b
    if xb.min() < -_FEAS_TOL or not _residual_ok(a_basis, b, xb):
        return a, b, c, None
    np.clip(xb, 0.0, None, out=xb)
    return a, b, c, (basis, binv, xb)


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
    where b_i < 0 and +1 elsewhere; it never copies or writes ``prob.a``
    or ``prob.b`` (an array that is not C-ordered float is read through a
    C-ordered float copy). At status "optimal" the point is a basic
    feasible solution whose residual, recomputed at the final basis, is at
    most 1e-9 (1 + ||b||_inf) and whose reduced costs are all
    >= -1e-9 (1 + ||c||_inf); a basis failing either check gives
    "tolerance_failure". Each phase may take 50 (m + N) pivots for m rows
    and N columns, and switches to Bland's rule after 10 (m + N); a phase
    that runs out of pivots gives "tolerance_failure". Every status but
    "optimal" comes with x = 0 and a NaN objective. A problem whose
    ``n_signed`` pairs are not exact negatives raises InputError.
    """
    a, b, c, start = _start(prob)
    m, n = a.shape
    k = prob.n_signed
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

    ``omega`` has one entry per corruption row, ``gamma`` is None when
    there is no dictionary block, and ``objective`` is the value
    :func:`solve_lp` reports (NaN unless the status is "optimal").
    """
    prob = formulate_jp(x, y, lam, corruption_cols, g)
    return _jp_solution(*solve_lp(prob), np.shape(x)[1], g)


def _jp_solution(sol, objective, status, p, g) -> JpSolution:
    """The parts of a split solution of a :func:`formulate_jp` program."""
    k = sol.size // 2
    n_g = 0 if g is None else np.shape(g)[1]
    beta, omega, gamma = np.split(sol[:k] - sol[k:], [p, k - n_g])
    return JpSolution(beta=beta, omega=omega,
                      gamma=None if g is None else gamma,
                      objective=objective, status=status)


def solve_jp_many(x: np.ndarray, y: np.ndarray, lam: float,
                  corruption_cols: Optional[Sequence[int]],
                  dictionaries: Iterable[Optional[np.ndarray]]
                  ) -> list[JpSolution]:
    """``[solve_jp(x, y, lam, corruption_cols, g) for g in dictionaries]``,
    bit for bit, with the same InputErrors.

    Programs of at most ``_LOCKSTEP_MAX_ROWS`` rows whose dictionaries
    share one shape run their phase 2 in lock step
    (:func:`_lockstep_loop`), each from its block basis and certified as
    it leaves the loop, as :func:`solve_lp` certifies. A program without
    a feasible block start goes through :func:`solve_lp` and its phase 1.
    Larger programs are solved one at a time, and ``dictionaries`` is then
    read one item per solve, so a generator keeps one dictionary alive.
    """
    x = check_design(x)
    n, p = x.shape
    gs = dictionaries if n > _LOCKSTEP_MAX_ROWS else list(dictionaries)
    if n > _LOCKSTEP_MAX_ROWS or len({np.shape(g) for g in gs}) != 1:
        return [solve_jp(x, y, lam, corruption_cols, g) for g in gs]

    sols: list[Optional[JpSolution]] = [None] * len(gs)
    batch = []
    for i, g in enumerate(gs):
        prob = formulate_jp(x, y, lam, corruption_cols, g)
        a, b, c, start = _start(prob)
        if start is None:
            sols[i] = _jp_solution(*solve_lp(prob), p, g)
        else:
            batch.append((i, a, *start))
    if batch:
        # the programs share b and c; one stack holds formulate_jp's matrices,
        # which the loop packs in place, certifying each as it leaves
        idx, a, basis, binv, xb = (np.stack(v) for v in zip(*batch))
        del batch
        size = n + c.size  # rows plus columns of each split program
        results, _ = _lockstep_loop(a, b, c, basis, binv, xb,
                                    _PIVOTS_PER_COLUMN * size, 10 * size)
        for i, res in zip(idx, results):
            sols[i] = _jp_solution(*res, p, gs[i])
    return sols
