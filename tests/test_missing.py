import numpy as np
import pytest
from scipy.special import expit

import inspect
import warnings

import rlasszero.calibration as calibration
import rlasszero.missing as missing
from rlasszero import InputError
from rlasszero.calibration import QutResult, QutSpec
from rlasszero.core import RngStream, standardize_columns
from rlasszero.estimators import RlzConfig, pivot_scale_from_gammas, \
    robust_lasso_zero
from rlasszero.missing import (
    IncompleteMatrix,
    MissingnessSpec,
    generate_missingness,
    implied_corruption,
    logistic_missing_prob,
    mean_impute,
    rlz_with_missing,
    solve_b_for_pi,
    standardized_design,
)

NA = np.nan


class TestIncompleteMatrix:
    def test_from_values_builds_mask(self):
        inc = IncompleteMatrix(np.array([[1.0, NA], [3.0, 4.0]]))
        np.testing.assert_array_equal(inc.mask, [[False, True], [False, False]])
        np.testing.assert_array_equal(inc.incomplete_rows, [0])

    def test_mask_follows_values(self):
        with pytest.raises(TypeError):
            IncompleteMatrix(np.array([[1.0, NA]]), mask=np.zeros((1, 2), bool))

    def test_incomplete_rows_exact(self):
        vals = np.array([[1.0, 2.0], [NA, 2.0], [1.0, NA], [0.0, 0.0]])
        inc = IncompleteMatrix(vals)
        np.testing.assert_array_equal(inc.incomplete_rows, [1, 2])

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)], ids=["1-D", "3-D"])
    def test_values_not_2d_rejected(self, shape):
        values = np.ones(shape)
        values.flat[1] = NA
        with pytest.raises(InputError, match="2-D"):
            IncompleteMatrix(values)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_entry_rejected(self, value):
        # NaN marks a missing entry; an infinite one is an input error
        with pytest.raises(InputError, match=r"\(1, 0\)"):
            IncompleteMatrix(np.array([[1.0, NA], [value, 4.0]]))


class TestLogisticProb:
    def test_symmetric_center(self):
        assert logistic_missing_prob(3.7, 0.0, 0.0) == pytest.approx(0.5)

    def test_large_negative_b_limit(self):
        assert logistic_missing_prob(0.0, 0.0, -100.0) < 1e-40

    def test_overflowing_b_gives_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = logistic_missing_prob(np.array([0.0, 2.0]), 1.0, -1000.0)
        np.testing.assert_array_equal(probs, [0.0, 0.0])

    def test_within_two_ulps_of_scipy_expit(self):
        # numpy's exp is not the C library's: the two expits part in the
        # last bits, never further
        z = np.linspace(-40.0, 40.0, 20001)
        for a, b in ((1.0, -40.0), (1.0, 0.0), (5.0, -2.0)):
            np.testing.assert_array_max_ulp(logistic_missing_prob(z, a, b),
                                            expit(a * np.abs(z) + b),
                                            maxulp=2)

    def test_mnar_value(self):
        assert logistic_missing_prob(1.0, 5.0, 0.0) == pytest.approx(
            1.0 / (1.0 + np.exp(-5.0)), rel=1e-12)

    def test_nondecreasing_in_abs_x(self):
        xs = np.linspace(0, 5, 50)
        ps = logistic_missing_prob(xs, 2.0, -1.0)
        assert np.all(np.diff(ps) >= 0)

    def test_negative_a_rejected(self):
        with pytest.raises(InputError):
            logistic_missing_prob(0.0, -1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(np.nan, 0.0), (np.inf, 0.0),
                                      (True, 0.0), (1.0, np.nan),
                                      (1.0, -np.inf), (1.0, False)])
    def test_non_finite_or_bool_setting_rejected(self, a, b):
        with pytest.raises(InputError, match="must be a finite number"):
            logistic_missing_prob(np.zeros(2), a, b)


class TestSolveBForPi:
    def test_mcar_half(self):
        assert solve_b_for_pi(0.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_mcar_closed_form(self):
        assert solve_b_for_pi(0.0, 0.2) == pytest.approx(np.log(0.25),
                                                         abs=1e-10)

    def test_mnar_against_monte_carlo_oracle(self):
        a, pi = 5.0, 0.2
        b = solve_b_for_pi(a, pi)
        gen = np.random.default_rng(123)
        z = gen.standard_normal(10 ** 7)
        probs = expit(a * np.abs(z) + b)
        mc = probs.mean()
        se = probs.std() / np.sqrt(z.size)
        assert abs(mc - pi) < 3 * se + 1e-6

    def test_invalid_pi(self):
        with pytest.raises(InputError):
            solve_b_for_pi(1.0, 0.0)

    def test_unreachable_pi_rejected(self):
        # at slope 30 even b = -50 leaves about 9% of N(0,1) entries missing
        with pytest.raises(InputError, match=r"pi=0\.001 at slope a=30"):
            solve_b_for_pi(30.0, 1e-3)


class TestMissingnessSpec:
    def test_b_derived(self):
        spec = MissingnessSpec.mcar(0.2)
        assert spec.b == pytest.approx(np.log(0.25), abs=1e-8)

    def test_mnar_constructor(self):
        spec = MissingnessSpec.mnar(0.2)
        assert spec.a == 5.0

    def test_infinite_slope_rejected_before_the_search(self):
        with pytest.raises(InputError, match="a must be a finite number"):
            MissingnessSpec(a=np.inf, pi=0.2)

    def test_b_not_settable(self):
        with pytest.raises(TypeError):
            MissingnessSpec(a=0.0, pi=0.2, b=0.0)


class TestGenerateMissingness:
    def test_empirical_rate(self):
        gen = RngStream(1, (0,)).generator()
        x = gen.standard_normal((1000, 100))
        for a in (0.0, 5.0):
            inc = generate_missingness(x, MissingnessSpec(a=a, pi=0.2),
                                       RngStream(2, (int(a),)))
            rate = inc.mask.mean()
            assert abs(rate - 0.2) < 0.01

    def test_mnar_prefers_large_values(self):
        gen = RngStream(3, (0,)).generator()
        x = gen.standard_normal((500, 100))
        inc = generate_missingness(x, MissingnessSpec(a=5.0, pi=0.2),
                                   RngStream(4, ()))
        big = inc.mask[np.abs(x) > 1].mean()
        small = inc.mask[np.abs(x) < 1].mean()
        assert big > small

    def test_mcar_independent_of_value(self):
        gen = RngStream(5, (0,)).generator()
        x = gen.standard_normal((1000, 100))
        inc = generate_missingness(x, MissingnessSpec.mcar(0.3),
                                   RngStream(6, ()))
        big = inc.mask[np.abs(x) > 1].mean()
        small = inc.mask[np.abs(x) < 1].mean()
        assert abs(big - small) < 0.02


class TestImputation:
    def test_mean_hand_example(self):
        inc = IncompleteMatrix(np.array([[1.0], [NA], [3.0]]))
        np.testing.assert_array_equal(mean_impute(inc),
                                      [[1.0], [2.0], [3.0]])

    def test_mean_identity_when_complete(self):
        x = np.arange(6.0).reshape(3, 2)
        inc = IncompleteMatrix(x)
        np.testing.assert_array_equal(mean_impute(inc), x)

    def test_mean_constant_column(self):
        inc = IncompleteMatrix(np.array([[4.0], [NA], [4.0]]))
        np.testing.assert_array_equal(mean_impute(inc), [[4.0], [4.0], [4.0]])

    def test_observed_entries_bit_exact(self):
        gen = RngStream(7, (0,)).generator()
        x = gen.standard_normal((20, 5))
        inc = generate_missingness(x, MissingnessSpec.mcar(0.3),
                                   RngStream(8, ()))
        obs = ~inc.mask
        np.testing.assert_array_equal(mean_impute(inc)[obs], x[obs])

    def test_fully_missing_column_rejected(self):
        inc = IncompleteMatrix(np.array([[NA, 1.0], [NA, 2.0]]))
        with pytest.raises(InputError, match="0"):
            mean_impute(inc)


class TestImpliedCorruption:
    def test_zero_on_rows_without_missing_support_entries(self):
        gen = RngStream(9, (0,)).generator()
        n, p = 12, 6
        x = gen.standard_normal((n, p))
        inc = generate_missingness(x, MissingnessSpec.mcar(0.2),
                                   RngStream(10, ()))
        x_imp = mean_impute(inc)
        beta = np.zeros(p)
        beta[[1, 4]] = [2.0, -1.0]
        omega = implied_corruption(x, x_imp, beta)
        rows_touching_support = inc.mask[:, [1, 4]].any(axis=1)
        np.testing.assert_array_equal(omega[~rows_touching_support], 0.0)

    def test_linear_in_beta(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        x_imp = np.array([[1.0, 0.0], [3.0, 4.0]])
        w1 = implied_corruption(x, x_imp, np.array([0.0, 1.0]))
        w2 = implied_corruption(x, x_imp, np.array([0.0, 2.0]))
        np.testing.assert_allclose(w2, 2.0 * w1)


class TestPipeline:
    def test_complete_matrix_matches_plain_estimator(self):
        gen = RngStream(11, (0,)).generator()
        n, p = 20, 8
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        inc = IncompleteMatrix(x)
        cfg = RlzConfig(tau=0.2, n_dictionaries=3, master_seed=13)
        fit_missing = rlz_with_missing(y, inc, cfg, restrict_corruption=False)
        plain = robust_lasso_zero(standardize_columns(x), y, cfg)
        np.testing.assert_array_equal(fit_missing.beta_med, plain.beta_med)

    def test_restricted_fit_corruption_rows(self):
        gen = RngStream(12, (0,)).generator()
        n, p = 20, 6
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        inc = generate_missingness(x, MissingnessSpec.mcar(0.1),
                                   RngStream(14, ()))
        cfg = RlzConfig(tau=0.2, n_dictionaries=3)
        fit = rlz_with_missing(y, inc, cfg)
        np.testing.assert_array_equal(fit.corruption_cols,
                                      inc.incomplete_rows)

    def test_recovers_signal_under_missingness(self):
        gen = RngStream(15, (0,)).generator()
        n, p, s = 60, 30, 2
        x = standardize_columns(gen.standard_normal((n, p)))
        beta0 = np.zeros(p)
        beta0[:s] = [8.0, -8.0]
        y = x @ beta0 + 0.1 * gen.standard_normal(n)
        inc = generate_missingness(x, MissingnessSpec.mcar(0.05),
                                   RngStream(16, ()))
        cfg = RlzConfig(tau=2.0, n_dictionaries=8, master_seed=17)
        fit = rlz_with_missing(y, inc, cfg)
        assert np.array_equal(np.sign(fit.beta_hat), np.sign(beta0))

    def test_calibrates_through_module_hook(self, monkeypatch):
        # rlz_with_missing must call the module-level qut_threshold once,
        # on the standardized design and the corruption block of the fit
        gen = RngStream(18, (0,)).generator()
        n, p = 15, 6
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        inc = generate_missingness(x, MissingnessSpec.mcar(0.1),
                                   RngStream(19, ()))
        calls = []

        def recorder(*args, **kwargs):
            bound = inspect.signature(calibration.qut_threshold).bind(
                *args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return QutResult(pivot_quantile=1.0, mc_statistics=np.ones(50))

        monkeypatch.setattr(missing, "qut_threshold", recorder)
        spec = QutSpec(n_mc=50, n_dictionaries=2)
        fit = rlz_with_missing(y, inc, RlzConfig(tau="qut", n_dictionaries=2),
                               qut_spec=spec)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0]["x"],
                                      standardize_columns(mean_impute(inc)))
        assert calls[0]["spec"] is spec
        np.testing.assert_array_equal(calls[0]["corruption_cols"],
                                      inc.incomplete_rows)
        assert np.isfinite(fit.tau_used)

    @pytest.mark.parametrize("field, value", [("lam", 2.0),
                                              ("n_dictionaries", 3)])
    def test_mismatched_calibration_rejected(self, monkeypatch, field, value):
        # a threshold calibrated for another lambda or M would be applied
        # to this fit without notice
        calls = []
        monkeypatch.setattr(missing, "qut_threshold",
                            lambda *a, **k: calls.append(a))
        x = RngStream(22, (0,)).generator().standard_normal((15, 6))
        inc = generate_missingness(x, MissingnessSpec.mcar(0.1),
                                   RngStream(23, ()))
        spec = QutSpec(n_mc=50, **{"lam": 1.0, "n_dictionaries": 2,
                                   field: value})
        with pytest.raises(InputError, match="qut_spec"):
            rlz_with_missing(np.ones(15), inc,
                             RlzConfig(tau="qut", n_dictionaries=2),
                             qut_spec=spec)
        assert calls == []

    @pytest.mark.parametrize("bad", ["nan", "inf", "short"])
    def test_bad_response_rejected_before_calibration(self, monkeypatch, bad):
        # the calibration never reads y, so it must not run for a response
        # the data fit would reject
        def never(*args, **kwargs):
            raise AssertionError("qut_threshold called")

        monkeypatch.setattr(missing, "qut_threshold", never)
        x = RngStream(26, (0,)).generator().standard_normal((15, 6))
        inc = generate_missingness(x, MissingnessSpec.mcar(0.1),
                                   RngStream(27, ()))
        y = {"nan": np.r_[np.ones(14), np.nan],
             "inf": np.r_[np.inf, np.ones(14)], "short": np.ones(14)}[bad]
        with pytest.raises(InputError, match="finite values"):
            rlz_with_missing(y, inc, RlzConfig(tau="qut", n_dictionaries=2))

    def test_matching_calibration_at_another_seed_accepted(self):
        gen = RngStream(24, (0,)).generator()
        x = gen.standard_normal((15, 6))
        inc = generate_missingness(x, MissingnessSpec.mcar(0.1),
                                   RngStream(25, ()))
        cfg = RlzConfig(lam=1.5, tau="qut", n_dictionaries=2, master_seed=3)
        spec = QutSpec(n_mc=50, lam=1.5, n_dictionaries=2, master_seed=4)
        fit = rlz_with_missing(gen.standard_normal(15), inc, cfg,
                               qut_spec=spec)
        assert np.isfinite(fit.tau_used) and fit.tau_used > 0.0

    def test_default_calibration_has_the_fit_settings(self, monkeypatch):
        # without a qut_spec the calibration takes lam, M and the seed of
        # the fit; the recorder stands in for it, so no draw runs
        specs = []

        def recorder(x, spec, corruption_cols=None):
            specs.append(spec)
            return QutResult(pivot_quantile=2.0, mc_statistics=np.ones(50))

        monkeypatch.setattr(missing, "qut_threshold", recorder)
        gen = RngStream(28, (0,)).generator()
        x_std = standardize_columns(gen.standard_normal((15, 6)))
        cfg = RlzConfig(lam=1.5, tau="qut", n_dictionaries=2, master_seed=3)
        fit = missing.fit_standardized(x_std, gen.standard_normal(15), cfg)
        assert specs == [QutSpec(lam=1.5, n_dictionaries=2, master_seed=3)]
        assert fit.tau_used == 2.0 * pivot_scale_from_gammas(fit.gamma_all)


class TestStandardizedDesign:
    def test_mean_imputed_and_standardized(self):
        gen = RngStream(20, (0,)).generator()
        x = 3.0 * gen.standard_normal((12, 4)) + 5.0
        inc = generate_missingness(x, MissingnessSpec.mcar(0.2),
                                   RngStream(21, ()))
        x_std, scales = standardized_design(inc)
        expected, _, expected_scales = standardize_columns(
            mean_impute(inc), return_stats=True)
        np.testing.assert_array_equal(x_std, expected)
        np.testing.assert_array_equal(scales, expected_scales)
