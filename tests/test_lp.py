import numpy as np
import pytest
from scipy.optimize import linprog

from rlasszero import BudgetExceededError, InputError, analysis, lp
from rlasszero.core import RngStream
from rlasszero.lp import (
    INFEASIBLE,
    OPTIMAL,
    TOLERANCE_FAILURE,
    UNBOUNDED,
    LpProblem,
    formulate_jp,
    solve_jp,
    solve_lp,
)

import reference_simplex
from vertex_oracle import certify_unique_jp, enumerate_vertex_optima, recompose


def random_jp_instance(seed, n_max=6, p_max=8, augmented=False):
    gen = RngStream(seed, (17,)).generator()
    n = int(gen.integers(2, n_max + 1))
    p = int(gen.integers(2, p_max + 1))
    x = gen.standard_normal((n, p))
    y = gen.standard_normal(n)
    lam = float(gen.uniform(0.3, 3.0))
    g = gen.standard_normal((n, n)) if augmented else None
    return x, y, lam, g


def _bp(a, y):
    """Basis pursuit min ||z||_1 s.t. a z = y: no corruption block, no G."""
    sol = solve_jp(a, y, 1.0, corruption_cols=[])
    return sol.beta, sol.status


class TestFormulate:
    def test_tiny_dimensions(self):
        prob = formulate_jp(np.array([[1.0]]), np.array([3.0]), 2.0)
        assert prob.a.shape == (1, 4)
        assert prob.n_signed == 2

    def test_restricted_block_scaling(self):
        cols = np.array([1, 3])
        prob = formulate_jp(np.zeros((5, 2)), np.zeros(5), 1.0,
                            corruption_cols=cols)
        # signed columns for beta (2) + omega (2): split doubles them
        assert prob.a.shape == (5, 8)
        omega_block = prob.a[:, 2:4]
        np.testing.assert_allclose(omega_block[cols, [0, 1]], np.sqrt(5))
        assert np.count_nonzero(omega_block) == 2

    def test_full_block_equals_all_rows_listed(self):
        x, y, lam, g = random_jp_instance(3, augmented=True)
        n = len(y)
        for dictionary in (None, g):
            full = formulate_jp(x, y, lam, g=dictionary)
            listed = formulate_jp(x, y, lam, corruption_cols=np.arange(n),
                                  g=dictionary)
            np.testing.assert_array_equal(full.a, listed.a)
            np.testing.assert_array_equal(full.c, listed.c)

    def test_block_layout(self):
        x, y, lam, g = random_jp_instance(5, augmented=True)
        n, p = x.shape
        prob = formulate_jp(x, y, lam, corruption_cols=[], g=g)
        np.testing.assert_array_equal(prob.a[:, :p + n], np.hstack([x, g]))
        np.testing.assert_array_equal(prob.c, np.ones(2 * (p + n)))
        prob = formulate_jp(x, y, lam, g=g)
        np.testing.assert_array_equal(prob.c[:p + 2 * n],
                                      np.r_[np.ones(p), np.full(n, lam),
                                            np.ones(n)])

    def test_dictionary_row_mismatch_rejected(self):
        with pytest.raises(InputError):
            formulate_jp(np.eye(3), np.zeros(3), 1.0, g=np.ones((2, 3)))

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(InputError):
            formulate_jp(np.eye(2), np.zeros(2), 0.0)

    def test_bool_lambda_rejected(self):
        with pytest.raises(InputError, match="lambda must be a finite number"):
            solve_jp(np.eye(3), np.ones(3), True)

    def test_zero_rhs_optimum_zero(self):
        prob = formulate_jp(np.eye(3), np.zeros(3), 1.0)
        x, obj, status = solve_lp(prob)
        assert status == OPTIMAL
        assert obj == pytest.approx(0.0, abs=1e-12)


class TestSolveLp:
    def test_one_constraint(self):
        prob = LpProblem(a=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                         c=np.array([1.0, 1.0]))
        _, obj, status = solve_lp(prob)
        assert status == OPTIMAL
        assert obj == pytest.approx(1.0)

    def test_infeasible_detected(self):
        prob = LpProblem(a=np.array([[1.0, 1.0], [1.0, 1.0]]),
                         b=np.array([1.0, 2.0]),
                         c=np.array([1.0, 1.0]))
        _, _, status = solve_lp(prob)
        assert status == INFEASIBLE

    def test_unbounded_detected(self):
        prob = LpProblem(a=np.array([[1.0, -1.0]]), b=np.array([0.0]),
                         c=np.array([-1.0, 0.0]))
        x, obj, status = solve_lp(prob)
        assert status == UNBOUNDED
        # no vertex and no finite objective at any status but optimal
        assert np.array_equal(x, np.zeros(2)) and np.isnan(obj)

    def test_duplicate_columns_terminate(self):
        a = np.hstack([np.ones((2, 4)), np.eye(2)])
        prob = LpProblem(a=a, b=np.ones(2), c=np.ones(6))
        _, obj, status = solve_lp(prob)
        assert status == OPTIMAL
        # a shared ones-column covers both rows at cost 1, and the row sums
        # force objective >= 1
        assert obj == pytest.approx(1.0)


def _program(seed, n, p, corruption, with_g):
    """Seeded (x, y, lam, cols, g) for one of the four block layouts."""
    gen = RngStream(seed, (41,)).generator()
    x = gen.standard_normal((n, p))
    y = gen.standard_normal(n)
    cols = {"full": None, "restricted": np.sort(gen.choice(n, n // 3,
                                                           replace=False)),
            "empty": []}[corruption]
    g = gen.standard_normal((n, n)) if with_g else None
    return x, y, 1.3, cols, g


BLOCKS = [("full", True), ("restricted", True), ("empty", True),
          ("restricted", False)]


class TestPairPricing:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("corruption, with_g", BLOCKS)
    def test_half_pricing_matches_full_pricing(self, corruption, with_g,
                                               seed):
        x, y, lam, cols, g = _program(seed, 100, 200, corruption, with_g)
        half = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        full = LpProblem(a=half.a, b=half.b, c=half.c, basis=half.basis)
        assert half.n_signed == half.a.shape[1] // 2 and full.n_signed == 0
        v_half, obj_half, status_half = solve_lp(half)
        v_full, obj_full, status_full = solve_lp(full)
        assert status_half == status_full == OPTIMAL
        assert obj_half == obj_full
        np.testing.assert_array_equal(np.flatnonzero(v_half),
                                      np.flatnonzero(v_full))

    def test_certification_shaped_pairs_rejected(self):
        # the budget row of the certification LP puts +w_j under both
        # halves, so column k + j is not minus column j
        gen = RngStream(8, ()).generator()
        m, k = 4, 6
        a_null = gen.standard_normal((m, k))
        a = np.zeros((m + 1, 2 * k + 1))
        a[:m, :k], a[:m, k:2 * k] = a_null, -a_null
        a[m, :2 * k], a[m, 2 * k] = 1.0, 1.0
        c = np.concatenate([-np.ones(k), np.ones(k), [0.0]])
        b = np.r_[np.zeros(m), 1.0]
        with pytest.raises(InputError, match="n_signed"):
            solve_lp(LpProblem(a=a, b=b, c=c, n_signed=k))
        _, _, status = solve_lp(LpProblem(a=a, b=b, c=c))
        assert status == OPTIMAL

    def test_more_pairs_than_columns_rejected(self):
        prob = formulate_jp(np.eye(2), np.ones(2), 1.0)
        with pytest.raises(InputError, match="n_signed"):
            solve_lp(LpProblem(a=prob.a, b=prob.b, c=prob.c,
                               n_signed=prob.n_signed + 1))


class TestStartingBasis:
    @pytest.mark.parametrize("corruption", ["full", "restricted", "empty"])
    def test_block_basis_nonsingular_and_feasible(self, corruption):
        x, y, lam, cols, g = _program(1, 12, 20, corruption, True)
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        assert prob.basis.shape == (12,)
        assert np.unique(prob.basis).size == 12
        b = prob.a[:, prob.basis]
        assert np.linalg.matrix_rank(b) == 12
        xb = np.linalg.solve(b, y)
        assert xb.min() >= -1e-12
        np.testing.assert_allclose(b @ xb, y, atol=1e-12)

    def test_no_basis_without_dictionary_for_restricted_block(self):
        x, y, lam, cols, _ = _program(1, 12, 20, "restricted", False)
        assert formulate_jp(x, y, lam, corruption_cols=cols).basis is None

    def _same_as_without_hint(self, prob, hint):
        plain = LpProblem(a=prob.a, b=prob.b, c=prob.c, n_signed=prob.n_signed)
        hinted = LpProblem(a=prob.a, b=prob.b, c=prob.c, n_signed=prob.n_signed,
                           basis=hint)
        _, obj_plain, status_plain = solve_lp(plain)
        _, obj_hinted, status_hinted = solve_lp(hinted)
        assert status_hinted == status_plain == OPTIMAL
        assert obj_hinted == obj_plain

    def test_singular_hint_falls_back_to_phase_one(self):
        x, y, lam, cols, _ = _program(2, 10, 15, "restricted", False)
        n, p = x.shape
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=np.zeros((n, n)))
        assert prob.basis is None
        hint = np.concatenate([p + np.arange(cols.size),
                               p + cols.size + np.arange(n - cols.size)])
        self._same_as_without_hint(prob, hint)

    def test_infeasible_hint_falls_back_to_phase_one(self):
        x, y, lam, cols, g = _program(3, 10, 15, "full", True)
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        half = prob.a.shape[1] // 2
        hint = prob.basis.copy()
        hint[0] = (hint[0] + half) % (2 * half)   # other side of the pair
        self._same_as_without_hint(prob, hint)

    def test_malformed_hint_rejected(self):
        x, y, lam, cols, g = _program(3, 10, 15, "full", True)
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        prob.basis = prob.basis[:-1]
        with pytest.raises(InputError):
            solve_lp(prob)


class TestAgainstHighs:
    """solve_lp against HiGHS dual simplex at (n, p) = (100, 200), a size
    vertex enumeration cannot reach; the last layout has no starting
    basis and runs phase 1."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("corruption, with_g", BLOCKS)
    def test_objective_matches_highs(self, corruption, with_g, seed):
        x, y, lam, cols, g = _program(seed, 100, 200, corruption, with_g)
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        assert (prob.basis is None) == (not with_g)
        _, obj, status = solve_lp(prob)
        ref = linprog(prob.c, A_eq=prob.a, b_eq=prob.b, bounds=(0, None),
                      method="highs-ds")
        assert status == OPTIMAL and ref.status == 0
        assert obj == pytest.approx(ref.fun, rel=1e-8)


class TestCertification:
    def test_perturbed_final_basis_is_tolerance_failure(self, monkeypatch):
        x, y, lam, cols, g = _program(4, 10, 15, "full", True)
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        assert solve_lp(prob)[2] == OPTIMAL
        refactor = lp._refactor

        def perturbed(a_basis, b):
            binv, xb = refactor(a_basis, b)
            return binv, xb + 1e-6

        monkeypatch.setattr(lp, "_refactor", perturbed)
        assert solve_lp(prob)[2] == TOLERANCE_FAILURE


_PIVOT_LOOP, _APPLY_PIVOT = lp._pivot_loop, lp._apply_pivot
_LOCKSTEP_LOOP = lp._lockstep_loop
_REF_LOOP = reference_simplex.pivot_loop
_REF_APPLY = reference_simplex.apply_pivot


def _pivot_path(monkeypatch, prob, loop, apply):
    """solve_lp(prob) with ``loop`` and ``apply`` as the solver's pivot
    loop and update; returns (x, objective, status, path). The path lists,
    in order, "loop" where a pivot loop starts, the status where it ends,
    and (leave, enter) for each pivot."""
    path = []

    def logged_apply(binv, xb, basis, d, leave, enter):
        path.append((leave, enter))
        apply(binv, xb, basis, d, leave, enter)

    def logged_loop(*args):
        path.append("loop")
        path.append(loop(*args))
        return path[-1]

    with monkeypatch.context() as mp:
        mp.setattr(lp, "_pivot_loop", logged_loop)
        mp.setattr(lp, "_apply_pivot", logged_apply)
        mp.setattr(reference_simplex, "apply_pivot", logged_apply)
        x, objective, status = solve_lp(prob)
    return x, objective, status, path


def _pivots(path):
    return sum(isinstance(step, tuple) for step in path)


def _qut_shaped(seed, n=50, p=100, rows=22):
    """A dictionary program of a calibrated fit: a corruption block on
    ``rows`` of the n rows, and an n x n dictionary."""
    gen = RngStream(seed, (43,)).generator()
    cols = np.sort(gen.choice(n, rows, replace=False))
    return formulate_jp(gen.standard_normal((n, p)), gen.standard_normal(n),
                        1.0, corruption_cols=cols,
                        g=gen.standard_normal((n, n)))


def _certification_lp():
    """The LP that ``analysis._max_inner_product_lp`` hands to solve_lp."""
    gen = RngStream(7, (43,)).generator()
    n, p = 30, 10
    jp = formulate_jp(gen.standard_normal((n, p)), np.zeros(n), 1.0)
    h = np.zeros(n + p)
    h[[0, 3, 7]] = gen.choice([-1.0, 1.0], 3)
    h[p:p + 15] = 1.0
    problems = []

    def capture(prob):
        problems.append(prob)
        return solve_lp(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "solve_lp", capture)
        analysis._max_inner_product_lp(jp, h, h != 0)
    return problems[0]


class TestPivotPath:
    """The solver's loop against the reference loop of the tests, which
    recomputes everything on every pivot: the same x, objective, status
    and pivots, bit for bit."""

    def _same_path(self, monkeypatch, prob):
        got = _pivot_path(monkeypatch, prob, _PIVOT_LOOP, _APPLY_PIVOT)
        ref = _pivot_path(monkeypatch, prob, _REF_LOOP, _REF_APPLY)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1], equal_nan=True)
        assert got[2:] == ref[2:]
        return got

    @pytest.mark.parametrize("seed", range(3))
    def test_qut_shaped_program(self, monkeypatch, seed):
        prob = _qut_shaped(seed)
        assert prob.basis is not None
        _, _, status, path = self._same_path(monkeypatch, prob)
        assert status == OPTIMAL and _pivots(path) > 0

    # the (100, 200) program runs past a refactor of the basis inverse
    @pytest.mark.parametrize("n, p, refactors", [(50, 100, False),
                                                 (100, 200, True)])
    def test_full_block_program(self, monkeypatch, n, p, refactors):
        x, y, lam, cols, g = _program(5, n, p, "full", True)
        prob = formulate_jp(x, y, lam, corruption_cols=cols, g=g)
        _, _, status, path = self._same_path(monkeypatch, prob)
        assert status == OPTIMAL
        assert (_pivots(path) > lp._REFACTOR_EVERY) == refactors

    def test_basis_pursuit_runs_phase_one(self, monkeypatch):
        gen = RngStream(6, (43,)).generator()
        prob = formulate_jp(gen.standard_normal((30, 60)),
                            gen.standard_normal(30), 1.0, corruption_cols=[])
        assert prob.basis is None
        _, _, status, path = self._same_path(monkeypatch, prob)
        assert status == OPTIMAL and path.count("loop") == 2

    def test_drive_out_of_artificials(self, monkeypatch):
        # row 0 has b = 0 and entries <= 0, so its artificial stays basic
        # at zero through phase 1 and is pivoted out before phase 2
        gen = RngStream(10, (43,)).generator()
        a = np.abs(gen.standard_normal((20, 50)))
        a[0] = -a[0] * (gen.random(50) < 0.3)
        b = a @ (gen.random(50) * (a[0] == 0))
        prob = LpProblem(a=a, b=b, c=np.abs(gen.standard_normal(50)))
        _, _, status, path = self._same_path(monkeypatch, prob)
        assert status == OPTIMAL
        phase_1_end, phase_2_start = path.index(OPTIMAL), path.index("loop", 1)
        assert phase_2_start > phase_1_end + 1

    def test_certification_lp(self, monkeypatch):
        prob = _certification_lp()
        # the block basis plus the budget slack is a feasible start, so
        # the solve runs one pivot loop and no phase 1
        assert prob.n_signed == 0
        assert lp._start(prob)[3] is not None
        _, _, status, path = self._same_path(monkeypatch, prob)
        assert status == OPTIMAL and path.count("loop") == 1

    def test_unbounded_program(self, monkeypatch):
        # a negative cost on both halves of a pair: u = v = t stays
        # feasible and lowers the cost without bound
        prob = _qut_shaped(8, n=20, p=40, rows=8)
        prob.c[[0, prob.n_signed]] = -1.0
        _, _, status, path = self._same_path(monkeypatch, prob)
        assert status == UNBOUNDED and _pivots(path) > 0

    # Bland's rule from the first pivot, and Dantzig pricing throughout;
    # the basis inverse and basic values must match too
    @pytest.mark.parametrize("bland_after", [0, 10 ** 6])
    def test_pivot_loop_called_directly(self, bland_after):
        prob = _qut_shaped(9)
        a, b, c, start = lp._start(prob)
        m, n = a.shape
        runs = []
        for loop in (_PIVOT_LOOP, _REF_LOOP):
            basis, binv, xb = (v.copy() for v in start)
            status = loop(a, b, c, basis, binv, xb, n,
                          prob.n_signed, 50 * (m + n), bland_after)
            runs.append((status, basis, binv, xb))
        (status, *arrays), (ref_status, *ref_arrays) = runs
        assert status == ref_status == OPTIMAL
        for got, ref in zip(arrays, ref_arrays):
            assert np.array_equal(got, ref)
        assert not np.array_equal(arrays[0], prob.basis)


def _fit_programs(seed, n, p, rows, count=10, tiny=0):
    """x, y, corruption rows and ``count`` dictionaries of one median fit;
    ``rows`` is a row count, "full" or "empty". The first ``tiny`` entries
    of y are of order 1e-12, which with the full block starts from a
    nearly degenerate basis: its ratio tests tie, and the chosen leaving
    row can have a larger ratio than another tied row, which the update
    then clamps at zero."""
    gen = RngStream(seed, (47,)).generator()
    x, y = gen.standard_normal((n, p)), gen.standard_normal(n)
    y[:tiny] *= 1e-12
    cols = {"full": None, "empty": []}.get(rows)
    if cols is None and rows != "full":
        cols = np.sort(gen.choice(n, rows, replace=False))
    return x, y, cols, [gen.standard_normal((n, n)) for _ in range(count)]


class TestLockstep:
    """solve_jp_many against one solve_jp per dictionary: the same parts,
    objective and status, bit for bit, after the same number of pivots."""

    def _same_as_one_at_a_time(self, monkeypatch, x, y, cols, gs,
                               batched=None):
        """``batched`` lists the programs that run in lock step (default
        all of them); returns their statuses and pivots."""
        batches = []

        def logged_loop(*args):
            batches.append(_LOCKSTEP_LOOP(*args))
            return batches[-1]

        with monkeypatch.context() as mp:
            mp.setattr(lp, "_lockstep_loop", logged_loop)
            many = lp.solve_jp_many(x, y, 1.0, cols, iter(gs))
        assert len(batches) == 1
        results, pivots = batches[0]
        statuses = [status for _, _, status in results]
        assert len(many) == len(gs)
        single_pivots = []
        for g, got in zip(gs, many):
            path = []

            def counted_apply(*args):
                path.append(args[-2:])
                _APPLY_PIVOT(*args)

            with monkeypatch.context() as mp:
                mp.setattr(lp, "_apply_pivot", counted_apply)
                ref = solve_jp(x, y, 1.0, cols, g)
            single_pivots.append(len(path))
            assert got.status == ref.status
            assert np.array_equal(got.objective, ref.objective, equal_nan=True)
            for part in ("beta", "omega", "gamma"):
                assert np.array_equal(getattr(got, part), getattr(ref, part))
        batched = range(len(gs)) if batched is None else batched
        assert [single_pivots[i] for i in batched] == pivots
        return statuses, pivots

    @pytest.mark.parametrize("seed", [0, 1])
    def test_qut_shaped_batch(self, monkeypatch, seed):
        x, y, cols, gs = _fit_programs(seed, 50, 100, 22)
        statuses, pivots = self._same_as_one_at_a_time(monkeypatch, x, y,
                                                       cols, gs)
        assert set(statuses) == {OPTIMAL}
        # programs end at different pivot counts, and some pass a refactor
        assert len(set(pivots)) > 1 and max(pivots) > lp._REFACTOR_EVERY

    @pytest.mark.parametrize("rows", ["full", "empty"])
    def test_full_and_empty_block(self, monkeypatch, rows):
        x, y, cols, gs = _fit_programs(2, 50, 100, rows)
        statuses, pivots = self._same_as_one_at_a_time(monkeypatch, x, y,
                                                       cols, gs)
        assert set(statuses) == {OPTIMAL} and len(set(pivots)) > 1

    def test_nearly_degenerate_batch(self, monkeypatch):
        x, y, cols, gs = _fit_programs(7, 30, 60, "full", count=6, tiny=12)
        statuses, _ = self._same_as_one_at_a_time(monkeypatch, x, y, cols, gs)
        assert set(statuses) == {OPTIMAL}

    def test_pivot_budget_ends_some_programs(self, monkeypatch):
        # 0.3 (m + N) = 69 pivots for the 30 x 60 programs, which need
        # about 60 to 85
        monkeypatch.setattr(lp, "_PIVOTS_PER_COLUMN", 0.3)
        x, y, cols, gs = _fit_programs(4, 30, 60, 10)
        statuses, _ = self._same_as_one_at_a_time(monkeypatch, x, y, cols, gs)
        assert set(statuses) == {OPTIMAL, TOLERANCE_FAILURE}

    def test_program_without_block_start_runs_phase_one(self, monkeypatch):
        # a zero dictionary makes the block basis singular
        x, y, cols, gs = _fit_programs(5, 20, 40, 6, count=4)
        gs[1] = np.zeros((20, 20))
        assert formulate_jp(x, y, 1.0, cols, gs[1]).basis is None
        self._same_as_one_at_a_time(monkeypatch, x, y, cols, gs,
                                    batched=[0, 2, 3])

    # Bland's rule from the first pivot, and Dantzig pricing throughout;
    # the bases, basis inverses and basic values must match too
    @pytest.mark.parametrize("bland_after", [0, 10 ** 6])
    @pytest.mark.parametrize("rows, tiny", [(10, 0), ("full", 12)])
    def test_loop_called_directly(self, bland_after, rows, tiny):
        x, y, cols, gs = _fit_programs(9, 30, 60, rows, count=4, tiny=tiny)
        probs = [formulate_jp(x, y, 1.0, cols, g) for g in gs]
        k = probs[0].n_signed
        splits, bs, cs, starts = zip(*map(lp._start, probs))
        b, c = bs[0], cs[0]
        max_pivots = 50 * (30 + 2 * k)
        stacked = [np.stack(v) for v in zip(*starts)]
        results, pivots = _LOCKSTEP_LOOP(
            np.stack(splits), b, c, *stacked, max_pivots, bland_after)
        for i, (a, start) in enumerate(zip(splits, starts)):
            basis, binv, xb = (v.copy() for v in start)
            status = _PIVOT_LOOP(a, b, c, basis, binv, xb, 2 * k, k,
                                 max_pivots, bland_after)
            ref_x, ref_obj, ref_status = lp._finish(a, b, c, basis, status,
                                                    2 * k)
            got_x, got_obj, got_status = results[i]
            assert got_status == ref_status == OPTIMAL
            assert np.array_equal(got_x, ref_x) and got_obj == ref_obj
            for got, ref in zip(stacked, (basis, binv, xb)):
                assert np.array_equal(got[i], ref)
        assert min(pivots) > 0

    # every program unbounded (a cost of -1 on both halves of a pair), a
    # budget of one pivot, and 0.3 (m + N) = 69 pivots, which ends some of
    # these 30 x 60 programs part-way
    @pytest.mark.parametrize("case", ["unbounded", "budget-1",
                                      "budget-part-way"])
    def test_exits_match_the_single_loop(self, monkeypatch, case):
        x, y, cols, gs = _fit_programs(4, 30, 60, 10)
        probs = [formulate_jp(x, y, 1.0, cols, g) for g in gs]
        k = probs[0].n_signed
        splits, bs, cs, starts = zip(*map(lp._start, probs))
        b, c = bs[0], cs[0].copy()
        size = 30 + 2 * k
        max_pivots = {"budget-1": 1, "budget-part-way": 0.3 * size}.get(
            case, 50 * size)
        if case == "unbounded":
            c[[0, k]] = -1.0
        stacked = [np.stack(v) for v in zip(*starts)]
        results, pivots = _LOCKSTEP_LOOP(np.stack(splits), b, c, *stacked,
                                         max_pivots, 10 * size)
        for i, (a, start) in enumerate(zip(splits, starts)):
            path = []

            def counted_apply(*args):
                path.append(args[-2:])
                _APPLY_PIVOT(*args)

            basis, binv, xb = (v.copy() for v in start)
            with monkeypatch.context() as mp:
                mp.setattr(lp, "_apply_pivot", counted_apply)
                status = _PIVOT_LOOP(a, b, c, basis, binv, xb, 2 * k, k,
                                     max_pivots, 10 * size)
            ref_x, ref_obj, ref_status = lp._finish(a, b, c, basis, status,
                                                    2 * k)
            got_x, got_obj, got_status = results[i]
            assert got_status == ref_status and pivots[i] == len(path)
            assert np.array_equal(got_x, ref_x)
            assert np.array_equal(got_obj, ref_obj, equal_nan=True)
            for got, ref in zip(stacked, (basis, binv, xb)):
                assert np.array_equal(got[i], ref)
        statuses = {status for _, _, status in results}
        assert statuses == {"unbounded": {UNBOUNDED},
                            "budget-1": {TOLERANCE_FAILURE},
                            "budget-part-way": {OPTIMAL, TOLERANCE_FAILURE}
                            }[case]
        if case == "budget-1":
            assert set(pivots) == {1}

    @pytest.mark.parametrize("args", [
        dict(lam=0.0), dict(lam=np.nan), dict(y=np.zeros(7)),
        dict(y=np.r_[np.nan, np.zeros(11)]), dict(gs=[np.ones((11, 12))])])
    def test_input_errors(self, args):
        x, y, cols, gs = _fit_programs(6, 12, 20, 4, count=2)
        call = {"lam": 1.0, "y": y, "gs": gs} | args
        with pytest.raises(InputError) as single:
            formulate_jp(x, call["y"], call["lam"], cols, call["gs"][0])
        with pytest.raises(InputError) as many:
            lp.solve_jp_many(x, call["y"], call["lam"], cols, call["gs"])
        assert str(many.value) == str(single.value)


def _snapshot(*arrays):
    """Copies of ``arrays`` (None stays None), for :func:`_untouched`."""
    return [None if v is None else np.array(v, copy=True) for v in arrays]


def _untouched(before, *after):
    """Each array of ``after`` holds the dtype, shape and bytes of its copy
    in ``before``."""
    for old, new in zip(before, after, strict=True):
        if old is None:
            assert new is None
            continue
        new = np.asarray(new)
        assert (new.dtype, new.shape) == (old.dtype, old.shape)
        assert new.tobytes() == old.tobytes()


def _hand_built(seed, m=20, n=50):
    """A hand-built LP (no pairs and no hint, so phase 1 runs) whose b has
    negative entries and an exact 0.0 in row 0, which is zero on the
    columns of a feasible point."""
    gen = RngStream(seed, (53,)).generator()
    a = gen.standard_normal((m, n))
    z = gen.random(n) * (gen.random(n) < 0.3)
    a[0, z > 0] = 0.0
    b = a @ z
    assert b[0] == 0.0 and (b < 0).any() and (b > 0).any()
    return LpProblem(a=a, b=b, c=np.abs(gen.standard_normal(n)))


# programs of every start: phase 1 (basis pursuit, a restricted block
# without G, a hand-built LP), a hinted dictionary program and a
# certification LP
_AS_GIVEN = {
    "basis-pursuit": lambda: formulate_jp(
        *_program(11, 20, 40, "restricted", False)[:3], corruption_cols=[]),
    "restricted-no-g": lambda: formulate_jp(
        *_program(11, 20, 40, "restricted", False)[:4]),
    "hand-built": lambda: _hand_built(12),
    "hinted": lambda: _qut_shaped(13, n=30, p=60, rows=12),
    "certification": _certification_lp,
}


class TestProgramAsGiven:
    """A solve reads its program as given: it writes none of its inputs,
    and neither the signs of the rows nor the memory order of ``a`` change
    what it returns."""

    @pytest.mark.parametrize("name", list(_AS_GIVEN))
    def test_solve_lp_writes_no_input(self, name):
        prob = _AS_GIVEN[name]()
        before = _snapshot(prob.a, prob.b, prob.c, prob.basis)
        assert solve_lp(prob)[2] == OPTIMAL
        _untouched(before, prob.a, prob.b, prob.c, prob.basis)

    @pytest.mark.parametrize("corruption, with_g", BLOCKS)
    def test_solve_jp_writes_no_input(self, corruption, with_g):
        x, y, lam, cols, g = _program(14, 20, 40, corruption, with_g)
        before = _snapshot(x, y, cols, g)
        assert solve_jp(x, y, lam, cols, g).status == OPTIMAL
        _untouched(before, x, y, cols, g)

    # 50 rows run in lock step, 65 one at a time; dictionary 1 is zero at
    # 50 rows, so that program has no block start and runs phase 1
    @pytest.mark.parametrize("n", [50, 65])
    def test_solve_jp_many_writes_no_input(self, n):
        x, y, cols, gs = _fit_programs(15, n, 2 * n, 22, count=3)
        if n <= lp._LOCKSTEP_MAX_ROWS:
            gs[1] = np.zeros((n, n))
        before = _snapshot(x, y, cols, *gs)
        sols = lp.solve_jp_many(x, y, 1.0, cols, gs)
        assert {sol.status for sol in sols} == {OPTIMAL}
        _untouched(before, x, y, cols, *gs)

    def test_check_identifiability_writes_no_input(self):
        gen = RngStream(16, (53,)).generator()
        x = gen.standard_normal((14, 8))
        theta, theta_tilde = np.zeros(8), np.zeros(14)
        theta[:2], theta_tilde[:3] = [1.0, -1.0], [-1.0, 1.0, 1.0]
        before = _snapshot(x, theta, theta_tilde)
        analysis.check_identifiability(x, theta, theta_tilde)
        _untouched(before, x, theta, theta_tilde)

    # Negating a row (a and b together) is exact, so the pivots, x and
    # objective keep their bits. Rows with b = 0 stay as they are: phase 1
    # gives such a row the artificial +e_i whatever its sign, so negating
    # it makes another phase-1 program.
    @pytest.mark.parametrize("name", list(_AS_GIVEN))
    def test_negated_rows_give_the_same_solve(self, monkeypatch, name):
        prob = _AS_GIVEN[name]()
        gen = RngStream(17, (53,)).generator()
        flip = (prob.b != 0) & (gen.random(prob.b.size) < 0.5)
        flip[np.flatnonzero(prob.b)[0]] = True
        sign = np.where(flip, -1.0, 1.0)
        negated = LpProblem(a=sign[:, None] * prob.a, b=sign * prob.b,
                            c=prob.c, n_signed=prob.n_signed,
                            basis=prob.basis)
        got = _pivot_path(monkeypatch, negated, _PIVOT_LOOP, _APPLY_PIVOT)
        ref = _pivot_path(monkeypatch, prob, _PIVOT_LOOP, _APPLY_PIVOT)
        assert ref[2] == OPTIMAL and _pivots(ref[3]) > 0
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1:] == ref[1:]
        # phase 1 runs exactly where the program has no feasible hint
        assert ref[3].count("loop") == (2 if prob.basis is None else 1)

    @pytest.mark.parametrize("name", list(_AS_GIVEN))
    def test_fortran_ordered_matrix_gives_the_same_solve(self, name):
        prob = _AS_GIVEN[name]()
        fortran = LpProblem(a=np.asfortranarray(prob.a), b=prob.b, c=prob.c,
                            n_signed=prob.n_signed, basis=prob.basis)
        assert not fortran.a.flags.c_contiguous
        x, objective, status = solve_lp(prob)
        got_x, got_objective, got_status = solve_lp(fortran)
        assert status == got_status == OPTIMAL
        assert got_x.tobytes() == x.tobytes() and got_objective == objective


def _jp_residual(x, y, sol, cols=None, g=None):
    """X beta + sqrt(n) E omega + G gamma - y, recomputed from the parts."""
    n = len(y)
    rows = np.arange(n) if cols is None else np.asarray(cols, dtype=int)
    fitted = x @ sol.beta
    fitted[rows] += np.sqrt(n) * sol.omega
    if g is not None:
        fitted += g @ sol.gamma
    return fitted - y


class TestJpSplit:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("corruption", ["full", "restricted", "empty"])
    @pytest.mark.parametrize("with_g", [True, False])
    def test_parts_have_block_lengths_and_solve_the_program(
            self, corruption, with_g, seed):
        n, p = 12, 24
        x, y, lam, cols, g = _program(seed, n, p, corruption, with_g)
        sol = solve_jp(x, y, lam, corruption_cols=cols, g=g)
        assert sol.status == OPTIMAL
        n_rows = n if cols is None else len(cols)
        assert sol.beta.shape == (p,) and sol.omega.shape == (n_rows,)
        if with_g:
            assert sol.gamma.shape == (n,)
        else:
            assert sol.gamma is None
        resid = _jp_residual(x, y, sol, cols, g)
        assert np.abs(resid).max() <= 1e-9 * (1.0 + np.abs(y).max())


class TestJpHandExamples:
    def test_beta_cheaper_than_omega(self):
        sol = solve_jp(np.array([[1.0]]), np.array([3.0]), 2.0)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.beta, [3.0], atol=1e-10)
        np.testing.assert_allclose(sol.omega, [0.0], atol=1e-10)

    def test_zero_rhs(self):
        sol = solve_jp(np.eye(2), np.zeros(2), 1.0)
        assert np.abs(sol.beta).max() == 0.0 and np.abs(sol.omega).max() == 0.0

    def test_objective_matches_norms(self):
        x, y, lam, _ = random_jp_instance(4)
        sol = solve_jp(x, y, lam)
        want = np.abs(sol.beta).sum() + lam * np.abs(sol.omega).sum()
        assert sol.objective == pytest.approx(want, abs=1e-10)
        assert np.linalg.norm(_jp_residual(x, y, sol)) < 1e-9

    def test_augmented_zero_rhs(self):
        g = RngStream(0, ()).generator().standard_normal((3, 3))
        sol = solve_jp(np.eye(3), np.zeros(3), 1.0, g=g)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_augmented_with_zero_dictionary_matches_plain(self):
        x, y, lam, _ = random_jp_instance(9)
        plain = solve_jp(x, y, lam)
        aug = solve_jp(x, y, lam, g=np.zeros((len(y), len(y))))
        assert aug.objective == pytest.approx(plain.objective, abs=1e-9)
        np.testing.assert_allclose(aug.gamma, 0.0, atol=1e-12)


class TestBp:
    def test_identity_matrix(self):
        y = np.array([1.0, -2.0, 0.5])
        z, status = _bp(np.eye(3), y)
        assert status == OPTIMAL
        np.testing.assert_allclose(z, y, atol=1e-10)

    def test_zero_rhs(self):
        z, _ = _bp(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(z, 0.0)

    def test_small_instance_vs_oracle(self):
        gen = RngStream(12, ()).generator()
        a = gen.standard_normal((3, 6))
        y = gen.standard_normal(3)
        z, status = _bp(a, y)
        assert status == OPTIMAL
        prob = formulate_jp(a, y, 1.0, corruption_cols=[])
        optima = enumerate_vertex_optima(prob)
        best = min(np.abs(recompose(prob, v)).sum() for v in optima)
        assert np.abs(z).sum() == pytest.approx(best, abs=1e-8)


class TestVertexOracle:
    def test_recompose_without_signed_pairs(self):
        prob = LpProblem(a=np.ones((1, 2)), b=np.ones(1), c=np.ones(2))
        assert recompose(prob, np.ones(2)).shape == (0,)

    def test_tie_gives_two_optima(self):
        prob = LpProblem(a=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                         c=np.array([1.0, 1.0]))
        optima = enumerate_vertex_optima(prob)
        pts = sorted(tuple(np.round(v, 9)) for v in optima)
        assert pts == [(0.0, 1.0), (1.0, 0.0)]

    def test_jp_hand_instance_unique(self):
        unique, optima = certify_unique_jp(np.array([[1.0]]), np.array([3.0]), 2.0)
        assert unique and len(optima) == 1

    def test_duplicated_column_symmetry_detected(self):
        # beta column == scaled identity column at lambda=1
        x = np.array([[np.sqrt(1.0)]])  # n=1 so sqrt(n)*I == [1]
        unique, optima = certify_unique_jp(x, np.array([2.0]), 1.0)
        assert not unique and len(optima) >= 2

    def test_budget_enforced(self):
        prob = formulate_jp(np.ones((2, 40)), np.ones(2), 1.0,
                            corruption_cols=[])
        with pytest.raises(BudgetExceededError):
            enumerate_vertex_optima(prob, budget=10)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_jp_matches_enumeration(self, seed):
        x, y, lam, _ = random_jp_instance(seed, n_max=4, p_max=5)
        sol = solve_jp(x, y, lam)
        assert sol.status == OPTIMAL
        prob = formulate_jp(x, y, lam)
        optima = enumerate_vertex_optima(prob)
        best = min(float(prob.c @ np.concatenate(
            [np.maximum(recompose(prob, v), 0),
             np.maximum(-recompose(prob, v), 0)])) for v in optima)
        assert sol.objective == pytest.approx(best, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_augmented_matches_enumeration(self, seed):
        gen = RngStream(seed, (23,)).generator()
        n, p = 3, 4
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        g = gen.standard_normal((n, n))
        sol = solve_jp(x, y, 1.3, g=g)
        prob = formulate_jp(x, y, 1.3, g=g)
        optima = enumerate_vertex_optima(prob)
        best = min(np.abs(recompose(prob, v)[:p]).sum()
                   + 1.3 * np.abs(recompose(prob, v)[p:p + n]).sum()
                   + np.abs(recompose(prob, v)[p + n:]).sum() for v in optima)
        assert sol.objective == pytest.approx(best, abs=1e-8)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_optimality_vs_random_feasible_points(self, seed):
        x, y, lam, _ = random_jp_instance(seed + 100)
        n, p = x.shape
        sol = solve_jp(x, y, lam)
        a = np.hstack([x, np.sqrt(n) * np.eye(n)])
        base, *_ = np.linalg.lstsq(a, y, rcond=None)
        gen = RngStream(seed, (31,)).generator()
        _, _, vt = np.linalg.svd(a)
        null = vt[n:].T  # (p+n) x (p of them)
        for _ in range(100):
            z = base + null @ gen.standard_normal(null.shape[1])
            obj = np.abs(z[:p]).sum() + lam * np.abs(z[p:]).sum()
            assert sol.objective <= obj + 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_homogeneity_on_unique_instances(self, seed):
        x, y, lam, _ = random_jp_instance(seed + 300, n_max=4, p_max=5)
        unique, _ = certify_unique_jp(x, y, lam)
        if not unique:
            pytest.skip("instance not uniqueness-certified")
        sol1 = solve_jp(x, y, lam)
        sol3 = solve_jp(x, 3.0 * y, lam)
        np.testing.assert_allclose(sol3.beta, 3.0 * sol1.beta,
                                   rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(sol3.omega, 3.0 * sol1.omega,
                                   rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_split_complementarity(self, seed):
        x, y, lam, _ = random_jp_instance(seed + 500)
        prob = formulate_jp(x, y, lam)
        v, _, status = solve_lp(prob)
        assert status == OPTIMAL
        k = prob.n_signed
        for pos in range(k):
            assert min(v[pos], v[k + pos]) <= 1e-9

    def test_max_pivots_triggers_tolerance_failure(self, monkeypatch):
        monkeypatch.setattr(lp, "_PIVOTS_PER_COLUMN", 0)
        gen = RngStream(77, ()).generator()
        prob = formulate_jp(gen.standard_normal((5, 8)), gen.standard_normal(5), 1.0)
        _, _, status = solve_lp(prob)
        assert status == TOLERANCE_FAILURE
