import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rlasszero import InputError, SolverFailure, calibration, core
from rlasszero.calibration import (
    QutSpec,
    pivot_scale_from_gammas,
    qut_threshold,
)
from rlasszero.core import RngStream, standardize_columns
from rlasszero.estimators import RlzConfig, robust_lasso_zero
from rlasszero.missing import MissingnessSpec, generate_missingness, \
    rlz_with_missing


class TestQutSpec:
    def test_defaults(self):
        spec = QutSpec()
        assert spec.alpha == 0.05 and spec.n_mc == 500 and spec.lam == 1.0

    # lambda and M by the rules of the fit that every draw runs
    @pytest.mark.parametrize("kw", [dict(alpha=0.0), dict(alpha=1.0),
                                    dict(n_mc=10), dict(lam=np.nan),
                                    dict(lam=-1.0), dict(lam=0.0),
                                    dict(n_dictionaries=0),
                                    dict(alpha="0.05")])
    def test_invalid_rejected(self, kw):
        with pytest.raises(InputError):
            QutSpec(**kw)

    @pytest.mark.parametrize("kw", [dict(n_mc=50.5), dict(n_mc="50"),
                                    dict(n_dictionaries=2.5),
                                    dict(master_seed=1.5),
                                    dict(master_seed=-1)])
    def test_counts_and_seed_must_be_integers(self, kw):
        with pytest.raises(InputError):
            QutSpec(**kw)
        QutSpec(**{name: np.int64(60) for name in kw})


class TestPivotScale:
    def test_hand_median(self):
        # pooled nonzero magnitudes {1,1,3,3} -> median 2
        scale = pivot_scale_from_gammas([np.array([1.0, -1.0]),
                                         np.array([3.0, 3.0])])
        assert scale == pytest.approx(2.0)

    def test_constant_gammas(self):
        scale = pivot_scale_from_gammas([np.full(4, 0.7), np.full(4, 0.7)])
        assert scale == pytest.approx(0.7)

    def test_zeros_ignored_in_median(self):
        # sparse solver output: zeros must not drag the scale to 0
        scale = pivot_scale_from_gammas([np.array([0.0, 0.0, 0.0, 2.0])])
        assert scale == pytest.approx(2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            pivot_scale_from_gammas([np.zeros(3)])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            pivot_scale_from_gammas([])


def _fit_null(x, eps, seed=0, m=5):
    cfg = RlzConfig(lam=1.0, tau=0.0, n_dictionaries=m, master_seed=seed)
    return robust_lasso_zero(x, eps, cfg)


class TestPivotInvariance:
    def test_statistic_invariant_under_scaling(self):
        gen = RngStream(4, (81,)).generator()
        n, p = 20, 8
        x = standardize_columns(gen.standard_normal((n, p)))
        eps = gen.standard_normal(n)
        fit1 = _fit_null(x, eps)
        fit3 = _fit_null(x, 3.0 * eps)
        t1 = np.abs(fit1.beta_med).max() / pivot_scale_from_gammas(fit1.gamma_all)
        t3 = np.abs(fit3.beta_med).max() / pivot_scale_from_gammas(fit3.gamma_all)
        assert t3 == pytest.approx(t1, rel=1e-6)

    def test_scale_grows_linearly(self):
        gen = RngStream(6, (83,)).generator()
        n, p = 15, 6
        x = standardize_columns(gen.standard_normal((n, p)))
        eps = gen.standard_normal(n)
        s1 = pivot_scale_from_gammas(_fit_null(x, eps).gamma_all)
        s2 = pivot_scale_from_gammas(_fit_null(x, 2.0 * eps).gamma_all)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-6)


@pytest.fixture(scope="module")
def design():
    gen = RngStream(10, (91,)).generator()
    return standardize_columns(gen.standard_normal((15, 8)))


class TestQutThreshold:
    def test_deterministic(self, design):
        spec = QutSpec(n_mc=50, n_dictionaries=3, master_seed=2)
        a = qut_threshold(design, spec)
        b = qut_threshold(design, spec)
        assert a.pivot_quantile == b.pivot_quantile
        np.testing.assert_array_equal(a.mc_statistics, b.mc_statistics)

    def test_alpha_half_is_median(self, design):
        spec = QutSpec(alpha=0.5, n_mc=50, n_dictionaries=3, master_seed=2)
        res = qut_threshold(design, spec)
        assert res.pivot_quantile == pytest.approx(
            float(np.median(res.mc_statistics)))

    def test_quantile_nonincreasing_in_alpha(self, design):
        qs = []
        for alpha in (0.05, 0.2, 0.5):
            spec = QutSpec(alpha=alpha, n_mc=50, n_dictionaries=3,
                           master_seed=2)
            qs.append(qut_threshold(design, spec).pivot_quantile)
        assert qs[0] >= qs[1] >= qs[2] >= 0.0

    # up to a tenth of the 50 draws may fail: they are dropped with a
    # warning, and one more fails the calibration
    @pytest.mark.parametrize("failing", [5, 6])
    def test_failed_draws(self, design, monkeypatch, failing):
        spec = QutSpec(n_mc=50, n_dictionaries=3, master_seed=2)
        full = qut_threshold(design, spec).mc_statistics
        fit = calibration.robust_lasso_zero
        broken = range(3, 3 + 7 * failing, 7)

        def failing_fit(x, y, cfg, corruption_cols=None):
            if cfg.rng_path[1] in broken:
                raise SolverFailure(f"draw {cfg.rng_path[1]} failed")
            return fit(x, y, cfg, corruption_cols=corruption_cols)

        monkeypatch.setattr(calibration, "robust_lasso_zero", failing_fit)
        if failing == 6:
            with pytest.raises(SolverFailure, match="6/50"):
                qut_threshold(design, spec)
            return
        with pytest.warns(UserWarning, match="5 calibration draws failed"):
            stats = qut_threshold(design, spec).mc_statistics
        kept = [j - 1 for j in range(1, 51) if j not in broken]
        assert stats.tobytes() == full[kept].tobytes()


def _calibrate(x, spec):
    return qut_threshold(x, spec).mc_statistics


class TestQutPool:
    @pytest.fixture(scope="class")
    def wide_design(self):
        gen = RngStream(12, (93,)).generator()
        return standardize_columns(gen.standard_normal((50, 100)))

    @pytest.mark.parametrize("cols", [np.arange(1, 45, 2), None],
                             ids=["restricted", "full"])
    def test_pooled_equals_serial(self, wide_design, monkeypatch, cols):
        spec = QutSpec(n_mc=50, n_dictionaries=4, master_seed=3)
        pools, maps = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kw):
                pools.append(max_workers)
                super().__init__(max_workers, **kw)

            def map(self, fn, items, chunksize):
                maps.append((len(items), chunksize))
                return super().map(fn, items, chunksize=chunksize)

        monkeypatch.setattr(core, "ProcessPoolExecutor", RecordingPool)
        # run_tasks caps the pool at core.usable_cores(), so the pool has
        # two workers on a machine with one usable core too
        monkeypatch.setattr(core, "usable_cores", lambda: 2)
        pooled = qut_threshold(wide_design, spec, corruption_cols=cols)
        monkeypatch.setattr(core, "usable_cores", lambda: 1)
        serial = qut_threshold(wide_design, spec, corruption_cols=cols)
        assert pools == [2]
        # one draw per task: no worker idles while another holds a chunk
        assert maps == [(50, 1)]
        assert pooled.mc_statistics.tobytes() == serial.mc_statistics.tobytes()
        assert pooled.pivot_quantile == serial.pivot_quantile

    @pytest.mark.parametrize("raises", [False, True])
    def test_no_process_outlives_the_call(self, design, monkeypatch, raises):
        fit = calibration.robust_lasso_zero

        def breaking_fit(x, y, cfg, corruption_cols=None):
            if raises and cfg.rng_path == (0, 7):
                raise RuntimeError("draw 7 broke")
            return fit(x, y, cfg, corruption_cols=corruption_cols)

        monkeypatch.setattr(core, "usable_cores", lambda: 2)
        monkeypatch.setattr(calibration, "robust_lasso_zero", breaking_fit)
        spec = QutSpec(n_mc=50, n_dictionaries=3)
        if raises:
            with pytest.raises(RuntimeError, match="draw 7 broke"):
                qut_threshold(design, spec)
        else:
            qut_threshold(design, spec)
        assert multiprocessing.active_children() == []

    def test_serial_inside_a_pool_worker(self, design, monkeypatch):
        def no_pool(*args, **kw):
            raise AssertionError("a pool started inside a pool worker")

        monkeypatch.setattr(core, "usable_cores", lambda: 2)
        monkeypatch.setattr(core, "ProcessPoolExecutor", no_pool)
        spec = QutSpec(n_mc=50, n_dictionaries=3)
        # forked, so the worker sees the patches above
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("fork")) as pool:
            inside = pool.submit(_calibrate, design, spec).result(timeout=120)
        monkeypatch.setattr(core, "usable_cores", lambda: 1)
        assert inside.tobytes() == _calibrate(design, spec).tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_draw_warnings_reach_the_caller_in_order(self, design,
                                                     monkeypatch, cores):
        caller = core.blas_threads()
        fit = calibration.robust_lasso_zero

        def warning_fit(x, y, cfg, corruption_cols=None):
            warnings.warn(f"draw {cfg.rng_path[1]} on "
                          f"{core.blas_threads()} BLAS threads")
            return fit(x, y, cfg, corruption_cols=corruption_cols)

        monkeypatch.setattr(core, "usable_cores", lambda: cores)
        monkeypatch.setattr(calibration, "robust_lasso_zero", warning_fit)
        if caller is not None:
            core.set_blas_threads(2)
        try:
            with pytest.warns(UserWarning, match="draw") as record:
                qut_threshold(design, QutSpec(n_mc=50, n_dictionaries=3))
        finally:
            if caller is not None:
                core.set_blas_threads(caller)
        threads = None if caller is None else 1
        assert [str(w.message) for w in record] == \
            [f"draw {j} on {threads} BLAS threads" for j in range(1, 51)]


class TestPivotUnderSignal:
    def test_restricted_scale_grows_with_the_signal(self):
        # Pins a measured property, not a requirement of the method: with
        # the corruption block on the incomplete rows, the nonzero |gamma|
        # of the data fit take up signal, so the pivot scale (and the QUT
        # threshold it multiplies) is larger at coefficients +-6 than at 0.
        # A change to the pivot that removes this makes the test fail.
        n, p, seed = 50, 100, 0
        gen = RngStream(seed, (0,)).generator()
        x = gen.standard_normal((n, p))
        eps = 0.5 * gen.standard_normal(n)
        inc = generate_missingness(x, MissingnessSpec.mcar(0.01),
                                   RngStream(seed, (1,)))
        assert 0 < inc.incomplete_rows.size < n
        cfg = RlzConfig(tau=0.0, n_dictionaries=10, master_seed=seed)
        beta0 = np.zeros(p)
        beta0[:3] = [6.0, -6.0, 6.0]
        null = rlz_with_missing(eps, inc, cfg)
        signal = rlz_with_missing(x @ beta0 + eps, inc, cfg)
        assert pivot_scale_from_gammas(signal.gamma_all) \
            > pivot_scale_from_gammas(null.gamma_all)
