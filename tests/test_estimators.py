import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlasszero import InputError, SolverFailure, calibration, lp
from rlasszero.core import RngStream, standardize_columns
from rlasszero.estimators import (
    RlzConfig,
    hard_threshold,
    lasso_zero,
    median_aggregate,
    robust_lasso_zero,
    tjp,
)
from rlasszero.experiments import oracle_s_threshold


class TestHardThreshold:
    def test_strict_inequality_at_boundary(self):
        np.testing.assert_array_equal(
            hard_threshold(np.array([2.0, -0.5, 1.0]), 1.0), [2.0, 0.0, 0.0])

    def test_tau_zero_keeps_nonzeros(self):
        v = np.array([0.0, -3.0, 1e-15])
        np.testing.assert_array_equal(hard_threshold(v, 0.0), v)

    def test_zero_vector(self):
        np.testing.assert_array_equal(hard_threshold(np.zeros(4), 2.0),
                                      np.zeros(4))

    def test_negative_tau_rejected(self):
        for tau in (-1.0, float("nan"), float("inf"), True, "1"):
            with pytest.raises(InputError):
                hard_threshold(np.ones(2), tau)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=10),
           st.floats(0, 5), st.floats(0, 5))
    def test_support_monotone_in_tau(self, vals, t1, t2):
        lo, hi = sorted([t1, t2])
        v = np.array(vals)
        s_hi = set(np.flatnonzero(hard_threshold(v, hi)))
        s_lo = set(np.flatnonzero(hard_threshold(v, lo)))
        assert s_hi <= s_lo


class TestMedianAggregate:
    def test_odd_count(self):
        out = median_aggregate([np.array([1.0, 0.0]), np.array([2.0, 0.0]),
                                np.array([9.0, 1.0])])
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_single_vector_identity(self):
        v = np.array([3.0, -1.0])
        np.testing.assert_array_equal(median_aggregate([v]), v)

    def test_even_count_midpoint(self):
        out = median_aggregate([np.array([1.0]), np.array([4.0])])
        np.testing.assert_array_equal(out, [2.5])

    def test_permutation_invariance(self):
        gen = np.random.default_rng(0)
        vs = [gen.standard_normal(5) for _ in range(6)]
        a = median_aggregate(vs)
        b = median_aggregate(vs[::-1])
        np.testing.assert_array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            median_aggregate([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            median_aggregate([np.zeros(2), np.zeros(3)])

    def test_minority_corruption_stays_in_span(self):
        vs = [np.array([1.0]), np.array([2.0]), np.array([3.0]),
              np.array([4.0]), np.array([5.0])]
        vs[0][0] = 1e300
        vs[1][0] = 1e300
        med = median_aggregate(vs)[0]
        assert 3.0 <= med <= 5.0


class TestConfigValidation:
    def test_defaults(self):
        cfg = RlzConfig()
        assert cfg.lam == 1.0 and cfg.n_dictionaries == 20 and cfg.tau == "qut"

    @pytest.mark.parametrize("kw", [dict(lam=0.0), dict(lam=-1.0),
                                    dict(n_dictionaries=0),
                                    dict(tau=-0.5), dict(tau="bogus"),
                                    dict(lam=np.nan), dict(lam=np.inf),
                                    dict(tau=np.nan), dict(tau=np.inf),
                                    dict(tau=None), dict(lam=True),
                                    dict(tau=True), dict(lam="1"),
                                    dict(rng_path=(1.5,)),
                                    dict(rng_path=(-1,)),
                                    dict(rng_path=(True,)),
                                    dict(rng_path=[1]), dict(rng_path=5)])
    def test_invalid_rejected(self, kw):
        with pytest.raises(InputError):
            RlzConfig(**kw)

    @pytest.mark.parametrize("kw", [dict(n_dictionaries=2.5),
                                    dict(n_dictionaries="3"),
                                    dict(master_seed=0.5),
                                    dict(master_seed=-1)])
    def test_counts_and_seed_must_be_integers(self, kw):
        with pytest.raises(InputError):
            RlzConfig(**kw)
        RlzConfig(**{name: np.int64(3) for name in kw})


def _small_instance(seed=0, n=25, p=12, s=2, k=2, sigma=0.0):
    gen = RngStream(seed, (41,)).generator()
    x = standardize_columns(gen.standard_normal((n, p)))
    beta0 = np.zeros(p)
    beta0[:s] = [5.0, -5.0][:s]
    omega0 = np.zeros(n)
    omega0[:k] = 3.0
    y = x @ beta0 + np.sqrt(n) * omega0 + sigma * gen.standard_normal(n)
    return x, y, beta0, omega0


class TestRobustLassoZero:
    def test_zero_response_gives_zero_fit(self):
        x, _, _, _ = _small_instance()
        cfg = RlzConfig(tau=0.5, n_dictionaries=3)
        fit = robust_lasso_zero(x, np.zeros(25), cfg)
        np.testing.assert_array_equal(fit.beta_hat, 0.0)
        np.testing.assert_array_equal(fit.beta_med, 0.0)

    def test_deterministic(self):
        x, y, _, _ = _small_instance(sigma=0.3)
        cfg = RlzConfig(tau=0.5, n_dictionaries=4, master_seed=9)
        a = robust_lasso_zero(x, y, cfg)
        b = robust_lasso_zero(x, y, cfg)
        np.testing.assert_array_equal(a.beta_med, b.beta_med)
        np.testing.assert_array_equal(a.omega_med, b.omega_med)
        assert a.per_dictionary_status == b.per_dictionary_status

    def test_high_snr_sign_recovery(self):
        hits = 0
        trials = 25
        for t in range(trials):
            gen = RngStream(t, (55,)).generator()
            n, p, s = 50, 100, 3
            x = standardize_columns(gen.standard_normal((n, p)))
            beta0 = np.zeros(p)
            beta0[:s] = gen.choice([-10.0, 10.0], s)
            y = x @ beta0 + 0.1 * gen.standard_normal(n)
            cfg = RlzConfig(tau=0.0, n_dictionaries=10, master_seed=t)
            fit = robust_lasso_zero(x, y, cfg)
            tau = oracle_s_threshold(fit.beta_med, s)
            beta_hat = hard_threshold(fit.beta_med, tau)
            hits += int(np.array_equal(np.sign(beta_hat), np.sign(beta0)))
        assert hits >= 0.95 * trials

    def test_null_threshold_above_max_gives_zero(self):
        x, _, _, _ = _small_instance()
        eps = RngStream(3, (77,)).generator().standard_normal(25)
        cfg = RlzConfig(tau=0.0, n_dictionaries=5)
        fit = robust_lasso_zero(x, eps, cfg)
        tau = np.abs(fit.beta_med).max() + 1e-9
        np.testing.assert_array_equal(hard_threshold(fit.beta_med, tau), 0.0)

    def test_restricted_corruption_and_omega_full(self):
        x, y, _, _ = _small_instance()
        cols = np.array([0, 1, 5])
        cfg = RlzConfig(tau=0.1, n_dictionaries=3)
        fit = robust_lasso_zero(x, y, cfg, corruption_cols=cols)
        assert fit.omega_med.shape == (3,)
        full = fit.omega_full(25)
        assert full.shape == (25,)
        np.testing.assert_array_equal(full[cols], fit.omega_med)
        others = np.setdiff1d(np.arange(25), cols)
        np.testing.assert_array_equal(full[others], 0.0)

    def test_all_rows_listed_equals_full_block(self):
        x, y, _, _ = _small_instance(sigma=0.2)
        full = robust_lasso_zero(x, y, RlzConfig(tau=0.3, n_dictionaries=3,
                                                 master_seed=2))
        listed = robust_lasso_zero(
            x, y, RlzConfig(tau=0.3, n_dictionaries=3, master_seed=2),
            corruption_cols=np.arange(25))
        np.testing.assert_array_equal(full.beta_med, listed.beta_med)
        np.testing.assert_array_equal(full.omega_med, listed.omega_med)

    def test_full_block_lists_every_row(self):
        x, y, _, _ = _small_instance()
        fit = robust_lasso_zero(x, y, RlzConfig(tau=0.1, n_dictionaries=3))
        np.testing.assert_array_equal(fit.corruption_cols, np.arange(25))
        np.testing.assert_array_equal(fit.omega_full(25), fit.omega_med)


def _one_solve_per_dictionary(x, y, cfg, cols):
    """The fields of the median fit, written out with one solve_jp per
    dictionary."""
    n = len(y)
    sols = [lp.solve_jp(x, y, cfg.lam, cols,
                        RngStream(cfg.master_seed, (*cfg.rng_path, k))
                        .generator().standard_normal((n, n)))
            for k in range(1, cfg.n_dictionaries + 1)]
    kept = [sol for sol in sols if sol.status == lp.OPTIMAL]
    beta_med = np.median([sol.beta for sol in kept], axis=0)
    omega_med = np.median([sol.omega for sol in kept], axis=0)
    return dict(beta_med=beta_med, omega_med=omega_med,
                gamma_all=[sol.gamma for sol in kept],
                beta_hat=hard_threshold(beta_med, cfg.tau),
                omega_hat=hard_threshold(omega_med, cfg.tau),
                tau_used=cfg.tau,
                per_dictionary_status=[sol.status for sol in sols],
                corruption_cols=cols)


def _assert_fit_fields(fit, expected):
    """Each field of ``fit`` equals its value in ``expected``, bit for bit."""
    for name, value in expected.items():
        got = getattr(fit, name)
        if name == "gamma_all":
            assert len(got) == len(value)
            assert all(map(np.array_equal, got, value))
        else:
            assert np.array_equal(got, value), name


class TestSolvePath:
    """64-row programs run in lock step and 65-row programs one at a time;
    both give the fit of one solve_jp per dictionary, bit for bit."""

    @pytest.mark.parametrize("n", [64, 65])
    def test_same_fit_as_one_solve_per_dictionary(self, monkeypatch, n):
        gen = RngStream(3, (45,)).generator()
        x = standardize_columns(gen.standard_normal((n, n + 20)))
        y = x[:, :2] @ [3.0, -3.0] + 0.3 * gen.standard_normal(n)
        cols = np.sort(gen.choice(n, n // 3, replace=False))
        cfg = RlzConfig(tau=0.2, n_dictionaries=3, master_seed=4,
                        rng_path=(2,))
        expected = _one_solve_per_dictionary(x, y, cfg, cols)
        # dictionaries drawn so far, at each call of solve_jp and of the
        # lock-step loop
        draws, at_solve, at_loop = [], [], []
        generator, solve_jp, loop = \
            RngStream.generator, lp.solve_jp, lp._lockstep_loop

        def counted_solve(*args):
            at_solve.append(len(draws))
            return solve_jp(*args)

        def counted_loop(*args):
            at_loop.append(len(draws))
            return loop(*args)

        monkeypatch.setattr(RngStream, "generator",
                            lambda self: draws.append(self) or generator(self))
        monkeypatch.setattr(lp, "solve_jp", counted_solve)
        monkeypatch.setattr(lp, "_lockstep_loop", counted_loop)
        fit = robust_lasso_zero(x, y, cfg, corruption_cols=cols)
        _assert_fit_fields(fit, expected)
        if n <= lp._LOCKSTEP_MAX_ROWS:
            assert at_solve == [] and at_loop == [3]
        else:
            # one solve_jp per dictionary, each drawn when its solve starts
            assert at_solve == [1, 2, 3] and at_loop == []

    def test_response_checked_before_any_dictionary(self, monkeypatch):
        x, y, _, _ = _small_instance()
        monkeypatch.setattr(RngStream, "generator", None)
        for bad in (np.r_[y[:-1], np.nan], y[:-1]):
            with pytest.raises(InputError, match="finite values"):
                robust_lasso_zero(x, bad, RlzConfig(tau=0.1))


class TestFailedSolves:
    """Failed dictionary solves are dropped from the medians with a
    warning; more than half of them fail the fit."""

    def _budget(self, monkeypatch, pivots):
        # each 25 x 149 program of _small_instance may make ``pivots``
        # pivots: a budget of pivots - 0.5 ends it after its pivots-th
        monkeypatch.setattr(lp, "_PIVOTS_PER_COLUMN", (pivots - 0.5) / 149)

    def test_failed_solves_leave_the_medians(self, monkeypatch):
        x, y, _, _ = _small_instance()
        cfg = RlzConfig(tau=0.1, n_dictionaries=10, master_seed=1)
        self._budget(monkeypatch, 40)
        expected = _one_solve_per_dictionary(x, y, cfg, np.arange(25))
        # five of ten fail: as many as may fail
        assert expected["per_dictionary_status"].count(lp.OPTIMAL) == 5
        with pytest.warns(UserWarning, match="5 of 10 dictionary solves"):
            fit = robust_lasso_zero(x, y, cfg)
        _assert_fit_fields(fit, expected)

    def test_more_than_half_failed_raises(self, monkeypatch):
        x, y, _, _ = _small_instance()
        cfg = RlzConfig(tau=0.1, n_dictionaries=10, master_seed=1)
        self._budget(monkeypatch, 39)
        with pytest.raises(SolverFailure, match="more than half"), \
                pytest.warns(UserWarning, match="6 of 10 dictionary solves"):
            robust_lasso_zero(x, y, cfg)

    def test_qut_tau_needs_a_calibration(self):
        x, y, _, _ = _small_instance()
        with pytest.raises(InputError, match="requires a calibration"):
            robust_lasso_zero(x, y, RlzConfig(tau="qut", n_dictionaries=2))


class TestLassoZero:
    def test_zero_response(self):
        x, _, _, _ = _small_instance()
        fit = lasso_zero(x, np.zeros(25), RlzConfig(tau=0.1, n_dictionaries=3))
        np.testing.assert_array_equal(fit.beta_hat, 0.0)
        assert fit.omega_med is None

    def test_equals_restricted_rlz_with_empty_corruption(self):
        x, y, _, _ = _small_instance(sigma=0.2)
        cfg = RlzConfig(tau=0.3, n_dictionaries=4, master_seed=5)
        a = robust_lasso_zero(x, y, cfg, corruption_cols=np.array([], dtype=int))
        b = lasso_zero(x, y, RlzConfig(tau=0.3, n_dictionaries=4, master_seed=5))
        np.testing.assert_array_equal(a.beta_med, b.beta_med)
        assert len(a.gamma_all) == len(b.gamma_all) == 4
        for ga, gb in zip(a.gamma_all, b.gamma_all):
            np.testing.assert_array_equal(ga, gb)


class TestTjp:
    def test_zero_response(self):
        beta_hat, omega_hat = tjp(np.eye(3), np.zeros(3), 1.0, 0.5)
        np.testing.assert_array_equal(beta_hat, 0.0)
        np.testing.assert_array_equal(omega_hat, 0.0)

    def test_hand_example(self):
        beta_hat, omega_hat = tjp(np.array([[1.0]]), np.array([3.0]), 2.0, 1.0)
        np.testing.assert_allclose(beta_hat, [3.0], atol=1e-10)
        np.testing.assert_array_equal(omega_hat, [0.0])

    def test_noiseless_recovery_with_sweep(self):
        n, p, s = 40, 20, 2
        gen = RngStream(8, (61,)).generator()
        x = standardize_columns(gen.standard_normal((n, p)))
        beta0 = np.zeros(p)
        beta0[:s] = [1000.0, -1000.0]
        omega0 = np.zeros(n)
        omega0[0] = 500.0
        y = x @ beta0 + np.sqrt(n) * omega0
        # sweep candidate thresholds derived from the solution magnitudes
        from rlasszero.lp import solve_jp
        sol = solve_jp(x, y, 1.0)
        taus = np.unique(np.abs(sol.beta))
        ok = False
        for tau in taus[:-1]:
            beta_hat = hard_threshold(sol.beta, tau)
            if np.array_equal(np.sign(beta_hat), np.sign(beta0)):
                ok = True
                break
        assert ok


class TestCorruptionRows:
    """Every entry point that takes corruption rows checks them with
    :func:`rlasszero.lp.check_corruption_rows` before any draw."""

    ENTRY_POINTS = {
        "formulate_jp": lambda x, rows: lp.formulate_jp(
            x, np.ones(len(x)), 1.0, corruption_cols=rows),
        "robust_lasso_zero": lambda x, rows: robust_lasso_zero(
            x, np.ones(len(x)), RlzConfig(tau=0.1, n_dictionaries=2),
            corruption_cols=rows),
        "qut_threshold": lambda x, rows: calibration.qut_threshold(
            x, calibration.QutSpec(n_mc=50, n_dictionaries=2),
            corruption_cols=rows),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("rows", [[0.7], ["0"], [-1], [[0, 1]], [12],
                                      [0.7, 2.2], [True], [[]], (1, 1)])
    def test_bad_rows_rejected_before_any_draw(self, monkeypatch, entry,
                                               rows):
        x = RngStream(3, (5,)).generator().standard_normal((12, 20))
        monkeypatch.setattr(RngStream, "generator", None)
        with pytest.raises(InputError, match="corruption rows"):
            self.ENTRY_POINTS[entry](x, rows)

    @pytest.mark.parametrize("rows, want", [
        (None, np.arange(4)), ([], []), (np.array([], dtype=int), []),
        ([3, 0], [3, 0]), ((2, 1), [2, 1]), (np.array([2], np.int32), [2]),
        (np.array([0, 3], np.uint8), [0, 3])])
    def test_valid_rows_accepted(self, rows, want):
        cols = lp.check_corruption_rows(rows, 4)
        assert cols.ndim == 1 and cols.dtype == int
        np.testing.assert_array_equal(cols, want)


class TestDesignCheck:
    """Every entry point that takes a design checks it with
    :func:`rlasszero.lp.check_design` before any draw or solve."""

    ENTRY_POINTS = {
        "formulate_jp": lambda x: lp.formulate_jp(x, np.ones(12), 1.0),
        "solve_jp": lambda x: lp.solve_jp(x, np.ones(12), 1.0),
        "solve_jp_many": lambda x: lp.solve_jp_many(
            x, np.ones(12), 1.0, None, [np.ones((12, 12))]),
        "tjp": lambda x: tjp(x, np.ones(12), 1.0, 0.1),
        "robust_lasso_zero": lambda x: robust_lasso_zero(
            x, np.ones(12), RlzConfig(tau=0.1, n_dictionaries=2)),
        "qut_threshold": lambda x: calibration.qut_threshold(
            x, calibration.QutSpec(n_mc=50, n_dictionaries=2)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1-D"])
    def test_bad_design_rejected_before_any_draw(self, monkeypatch, entry,
                                                 bad):
        x = RngStream(3, (5,)).generator().standard_normal((12, 20))
        if bad == "1-D":
            x = x[0]
        else:
            x[4, 7] = float(bad)
        monkeypatch.setattr(RngStream, "generator", None)
        with pytest.raises(InputError, match="2-D array of finite numbers"):
            self.ENTRY_POINTS[entry](x)
