import functools
import multiprocessing
import sys
import time
import types
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rlasszero import InputError, SolverFailure, calibration, core, \
    estimators, experiments, missing
from rlasszero.core import RngStream
from rlasszero.estimators import hard_threshold
from rlasszero.experiments import (
    MetricsRecord,
    SimulationSpec,
    metrics_to_csv,
    oracle_s_threshold,
    psr_indicator,
    raw_to_csv,
    run_experiment,
    s_fdp,
    s_tpp,
)


class TestSTpp:
    def test_all_signs_correct(self):
        assert s_tpp(np.array([0.5, -2.0, 0.0]),
                     np.array([1.0, -1.0, 0.0])) == 1.0

    def test_zero_estimate(self):
        assert s_tpp(np.zeros(3), np.array([1.0, -1.0, 0.0])) == 0.0

    def test_half_correct(self):
        assert s_tpp(np.array([1.0, 1.0, 0.0]),
                     np.array([1.0, -1.0, 0.0])) == 0.5

    def test_zero_truth_rejected(self):
        with pytest.raises(InputError):
            s_tpp(np.ones(2), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            s_tpp(np.ones(2), np.ones(3))


class TestSFdp:
    def test_empty_estimate(self):
        assert s_fdp(np.zeros(2), np.array([1.0, 0.0])) == 0.0

    def test_one_of_two_wrong(self):
        assert s_fdp(np.array([2.0, 3.0]), np.array([1.0, 0.0])) == 0.5

    def test_wrong_sign_counts(self):
        assert s_fdp(np.array([-2.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_bounds(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            bh = gen.choice([-1.0, 0.0, 1.0], 6)
            b0 = gen.choice([-1.0, 0.0, 1.0], 6)
            assert 0.0 <= s_fdp(bh, b0) <= 1.0


class TestPsrIndicator:
    def test_exact_match(self):
        assert psr_indicator(np.array([0.1, -7.0]), np.array([2.0, -1.0])) == 1

    def test_flipped_sign(self):
        assert psr_indicator(np.array([0.1, 7.0]), np.array([2.0, -1.0])) == 0

    def test_zero_vs_zero(self):
        assert psr_indicator(np.zeros(3), np.zeros(3)) == 1


class TestOracleSThreshold:
    def test_order_statistics(self):
        tau = oracle_s_threshold(np.array([5.0, -3.0, 1.0]), 2)
        assert tau == 1.0
        assert np.count_nonzero(hard_threshold(np.array([5.0, -3.0, 1.0]),
                                               tau)) == 2

    def test_full_support(self):
        v = np.array([5.0, -3.0, 1.0])
        tau = oracle_s_threshold(v, 3)
        assert np.count_nonzero(hard_threshold(v, tau)) == 3

    def test_boundary_tie_warns_and_keeps_block(self):
        v = np.array([3.0, -3.0, 1.0])
        with pytest.warns(UserWarning, match="tie"):
            tau = oracle_s_threshold(v, 1)
        kept = np.count_nonzero(hard_threshold(v, tau))
        assert kept == 2  # tied block survives together

    def test_too_few_nonzeros_warns(self):
        with pytest.warns(UserWarning):
            tau = oracle_s_threshold(np.array([2.0, 0.0, 0.0]), 2)
        assert np.count_nonzero(hard_threshold(np.array([2.0, 0.0, 0.0]),
                                               tau)) == 1

    def test_invalid_s(self):
        with pytest.raises(InputError):
            oracle_s_threshold(np.ones(3), 4)

    @pytest.mark.parametrize("s", [True, 1.5, "1"])
    def test_s_not_a_count(self, s):
        with pytest.raises(InputError, match="s must be an integer"):
            oracle_s_threshold(np.ones(3), s)


class TestSimulationSpec:
    def test_defaults_valid(self):
        SimulationSpec()

    @pytest.mark.parametrize("kw", [dict(s=0), dict(s=300), dict(pi=0.0),
                                    dict(pi=1.0), dict(replications=0),
                                    dict(mechanism="mar"),
                                    dict(tuning="cv"),
                                    dict(estimators=("lasso",)),
                                    dict(mechanism="mnar", a=30.0, pi=0.001),
                                    dict(estimators="tjp"),
                                    dict(estimators=("tjp", "tjp"))])
    def test_invalid_rejected(self, kw):
        with pytest.raises(InputError):
            SimulationSpec(**kw)

    @pytest.mark.parametrize("kw", [dict(replications=2.5), dict(s=1.5),
                                    dict(n_dictionaries=2.5), dict(n="20"),
                                    dict(p=200.0), dict(qut_mc=50.5),
                                    dict(master_seed=1.5),
                                    dict(master_seed=-1)])
    def test_counts_and_seed_must_be_integers(self, kw):
        with pytest.raises(InputError):
            SimulationSpec(**kw)
        SimulationSpec(**{name: np.int64(3) for name in kw})

    # settings that every replication would reject, one by one, if the
    # spec let them through
    @pytest.mark.parametrize("kw", [
        dict(n=1), dict(lam=0), dict(lam=float("nan")), dict(rho=1.5),
        dict(rho=-0.1), dict(n_dictionaries=2, tuning="automatic", qut_mc=10),
        dict(tuning="automatic", alpha=2), dict(beta_magnitude=0),
        dict(beta_magnitude=float("inf")), dict(sigma_noise=-1),
        dict(sigma_noise=float("nan")), dict(estimators=()),
        dict(sigma_noise=False), dict(beta_magnitude=True), dict(rho=False),
        dict(lam="1"), dict(estimators=5)])
    def test_setting_every_replication_rejects(self, kw):
        with pytest.raises(InputError):
            SimulationSpec(**kw)

    @pytest.mark.parametrize("kw", [dict(sigma_noise=0.0), dict(alpha=2),
                                    dict(qut_mc=10)])
    def test_settings_unused_by_the_fits_accepted(self, kw):
        # noiseless data is a valid design; oracle_s tuning runs no
        # calibration, so its alpha and qut_mc are never read
        SimulationSpec(**kw)

    def test_mcar_forces_a_zero(self):
        spec = SimulationSpec(mechanism="mcar", a=5.0)
        assert spec.missingness().a == 0.0

    def test_automatic_tjp_rejected(self):
        with pytest.raises(InputError):
            SimulationSpec(tuning="automatic", estimators=("tjp",))


def _tiny_spec(**kw):
    base = dict(n=30, p=20, rho=0.3, s=2, sigma_noise=0.1, pi=0.1,
                replications=3, estimators=("rlass0", "lass0", "tjp"),
                n_dictionaries=4, master_seed=21)
    base.update(kw)
    return SimulationSpec(**base)


def _auto_spec(**kw):
    base = dict(n=12, p=8, s=1, sigma_noise=0.1, pi=0.1, replications=2,
                estimators=("rlass0", "lass0"), tuning="automatic",
                qut_mc=50, n_dictionaries=2, master_seed=5)
    base.update(kw)
    return SimulationSpec(**base)


def _patch_replication(monkeypatch, body):
    """Replace ``experiments._replication_metrics`` with ``body(original,
    spec, r)``. The replacement carries the original's name, as the
    benchmark's tracing wrappers do, so a pool worker can unpickle it."""
    original = experiments._replication_metrics

    @functools.wraps(original)
    def patched(spec, r):
        return body(original, spec, r)

    monkeypatch.setattr(experiments, "_replication_metrics", patched)


def _simulate(spec, workers):
    records, raw = run_experiment(spec, workers=workers)
    return metrics_to_csv(records), raw_to_csv(raw)


class TestHarnessMatchesLibrary:
    @pytest.mark.parametrize("tuning", ["oracle_s", "automatic"])
    def test_rlass0_is_the_rlz_with_missing_fit(self, monkeypatch, tuning):
        # the harness fits rlass0 on the design it standardized once, and
        # gets what the library's missing-data pipeline gets, bit for bit
        spec = SimulationSpec(n=20, p=10, s=2, sigma_noise=0.2, pi=0.1,
                              replications=1, estimators=("rlass0", "lass0"),
                              tuning=tuning, n_dictionaries=2, qut_mc=50,
                              master_seed=8)
        monkeypatch.setattr(core, "usable_cores", lambda: 1)
        standardized, runs = [], {}

        def counting(inc):
            standardized.append(inc)
            return original_standardized(inc)

        def recording(name, spec, x_std, y, inc, r):
            runs[name] = (y, inc, original_run(name, spec, x_std, y, inc, r))
            return runs[name][-1]

        original_standardized = missing.standardized_design
        original_run = experiments._run_estimator
        for module in (experiments, missing):
            monkeypatch.setattr(module, "standardized_design", counting)
        monkeypatch.setattr(experiments, "_run_estimator", recording)
        experiments._replication_metrics(spec, 1)
        assert len(standardized) == 1
        assert set(runs) == {"rlass0", "lass0"}

        y, inc, beta_hat = runs["rlass0"]
        fit = missing.rlz_with_missing(y, inc, spec.fit_config(1),
                                       qut_spec=spec.qut_spec())
        want = fit.beta_hat if tuning == "automatic" else hard_threshold(
            fit.beta_med, oracle_s_threshold(fit.beta_med, spec.s))
        np.testing.assert_array_equal(beta_hat, want)


class TestRunExperiment:
    def test_record_per_estimator_and_bounds(self):
        records, raw = run_experiment(_tiny_spec())
        assert [r.estimator for r in records] == ["rlass0", "lass0", "tjp"]
        for r in records:
            assert 0.0 <= r.psr <= 1.0
            assert 0.0 <= r.s_tpr <= 1.0
            assert 0.0 <= r.s_fdr <= 1.0
            assert r.replications == 3
        assert len(raw) == 9

    def test_oracle_identity_per_replication(self):
        _, raw = run_experiment(_tiny_spec())
        for row in raw:
            assert row["s_fdp"] == pytest.approx(1.0 - row["s_tpp"])

    def test_csv_bytes_identical_across_workers(self):
        spec = _tiny_spec()
        r1, raw1 = run_experiment(spec, workers=1)
        r2, raw2 = run_experiment(spec, workers=3)
        assert metrics_to_csv(r1) == metrics_to_csv(r2)
        assert raw_to_csv(raw1) == raw_to_csv(raw2)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(InputError, match="workers"):
            run_experiment(_tiny_spec(), workers=workers)

    def test_pool_workers_use_one_blas_thread(self, monkeypatch):
        if core.blas_threads() is None:
            pytest.skip("numpy does not load OpenBLAS")
        seen = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, *args):
                seen.append(super().submit(core.blas_threads).result(60))
                return super().submit(fn, *args)

        monkeypatch.setattr(core, "ProcessPoolExecutor", RecordingPool)
        # run_tasks sizes the pool by core.usable_cores(): two, so a pool
        # starts on a machine with one usable core too
        monkeypatch.setattr(core, "usable_cores", lambda: 2)
        run_experiment(_tiny_spec(replications=2, estimators=("tjp",)),
                       workers=2)
        assert seen == [1, 1]

    @pytest.mark.parametrize("fails", [False, True])
    def test_serial_replications_use_one_blas_thread(self, monkeypatch,
                                                      fails):
        caller = core.blas_threads()
        if caller is None:
            pytest.skip("numpy does not load OpenBLAS")
        seen = []
        replication = experiments._replication_metrics

        def recording(spec, r):
            seen.append(core.blas_threads())
            if fails:
                raise RuntimeError("replication failed")
            return replication(spec, r)

        monkeypatch.setattr(experiments, "_replication_metrics", recording)
        core.set_blas_threads(2)
        try:
            if fails:
                with pytest.raises(RuntimeError):
                    run_experiment(_tiny_spec(estimators=("tjp",)))
            else:
                run_experiment(_tiny_spec(estimators=("tjp",)))
            assert core.blas_threads() == 2
        finally:
            core.set_blas_threads(caller)
        assert seen == ([1] if fails else [1, 1, 1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replication_hook_called_once_per_replication(
            self, monkeypatch, tmp_path, workers):
        # the benchmark's tracer patches this attribute for one span per
        # replication; pool workers append to a file the parent can read
        log = tmp_path / "calls"

        def logging_replication(original, spec, r):
            with open(log, "a") as fh:
                fh.write(f"{r}\n")
            return original(spec, r)

        _patch_replication(monkeypatch, logging_replication)
        run_experiment(_tiny_spec(replications=5, estimators=("tjp",)),
                       workers=workers)
        assert sorted(map(int, log.read_text().split())) == [1, 2, 3, 4, 5]

    def test_replication_warnings_same_at_any_worker_count(self):
        spec = SimulationSpec(n=10, p=30, s=15, replications=4,
                              estimators=("tjp",))
        caught = {}
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                run_experiment(spec, workers=workers)
            caught[workers] = [str(w.message) for w in record]
        assert len(caught[1]) == 4
        assert all("nonzero magnitudes" in m for m in caught[1])
        assert caught[2] == caught[1]

    def test_unexpected_error_cancels_pending_replications(
            self, monkeypatch, tmp_path):
        replications = 16

        def slow_or_broken(original, spec, r):
            if r == 1:
                raise RuntimeError("replication 1 broke")
            time.sleep(0.5)
            (tmp_path / str(r)).touch()
            return original(spec, r)

        _patch_replication(monkeypatch, slow_or_broken)
        spec = _tiny_spec(replications=replications, estimators=("tjp",))
        with pytest.raises(RuntimeError, match="replication 1 broke"):
            run_experiment(spec, workers=2)
        assert len(list(tmp_path.iterdir())) < replications - 1
        assert multiprocessing.active_children() == []

    def test_pool_capped_at_usable_cores(self, monkeypatch):
        # a forked pool starts every process it may use at once; this one
        # records its size and runs the replications here, starting none
        pools = []

        class SerialPool:
            def __init__(self, max_workers, **kw):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(core, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(core, "usable_cores", lambda: 3)
        for replications in (5, 2):
            spec = _tiny_spec(replications=replications, estimators=("tjp",))
            assert _simulate(spec, 10 ** 6) == _simulate(spec, 1)
        assert pools == [3, 2]
        assert multiprocessing.active_children() == []

    def test_one_replication_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kw):
            raise AssertionError("a pool of one process started")

        spec = _tiny_spec(replications=1)
        serial = _simulate(spec, 1)
        monkeypatch.setattr(core, "ProcessPoolExecutor", no_pool)
        assert _simulate(spec, 2) == serial

    def test_serial_inside_a_pool_worker(self, monkeypatch):
        def no_pool(*args, **kw):
            raise AssertionError("a pool started inside a pool worker")

        monkeypatch.setattr(core, "ProcessPoolExecutor", no_pool)
        spec = _tiny_spec(estimators=("tjp",))
        # forked, so the worker sees the patch above
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("fork")) as pool:
            inside = pool.submit(_simulate, spec, 2).result(timeout=120)
        assert inside == _simulate(spec, 1)

    def test_easy_regime_perfect_recovery(self):
        spec = _tiny_spec(sigma_noise=0.0, pi=0.01, estimators=("tjp",),
                          beta_magnitude=10.0)
        records, _ = run_experiment(spec)
        assert records[0].psr == 1.0

    def test_runtime_not_in_csv(self):
        records, _ = run_experiment(_tiny_spec(estimators=("tjp",)))
        assert "runtime" not in metrics_to_csv(records)

    def test_unusable_replications_dropped_with_warning(self):
        # with 5 rows and pi = 0.7 masking often leaves a column fully
        # missing or constant; those replications are dropped, not fatal
        spec = SimulationSpec(n=5, p=3, s=1, pi=0.7, replications=20,
                              estimators=("tjp",), master_seed=3)
        with pytest.warns(UserWarning, match=r"replication \d+ dropped: column"):
            r1, raw1 = run_experiment(spec)
        assert 0 < r1[0].replications < 20
        with pytest.warns(UserWarning, match="dropped"):
            r2, raw2 = run_experiment(spec, workers=2)
        assert metrics_to_csv(r1) == metrics_to_csv(r2)
        assert raw_to_csv(raw1) == raw_to_csv(raw2)

    def test_no_surviving_replication_raises_first_reason(self):
        spec = SimulationSpec(n=2, p=3, s=1, pi=0.9, replications=2,
                              estimators=("tjp",), master_seed=3)
        with pytest.warns(UserWarning, match="dropped"):
            with pytest.raises(InputError, match="every replication failed"):
                run_experiment(spec)

    def test_failed_tjp_solve_drop_names_the_estimator(self, monkeypatch):
        # tjp fits through estimators.tjp, whose failure names tjp
        monkeypatch.setattr(estimators, "solve_jp",
                            lambda *a: types.SimpleNamespace(status="limit"))
        spec = _tiny_spec(estimators=("tjp",), replications=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverFailure, match="every replication"):
                run_experiment(spec)
        assert [str(w.message) for w in caught] == [
            f"replication {r} dropped: tjp solve ended with status limit"
            for r in (1, 2)]

    def test_automatic_csv_bytes_identical_across_workers(self):
        spec = _auto_spec()
        r1, raw1 = run_experiment(spec, workers=1)
        r2, raw2 = run_experiment(spec, workers=2)
        assert metrics_to_csv(r1) == metrics_to_csv(r2)
        assert raw_to_csv(raw1) == raw_to_csv(raw2)

    def test_calibration_streams_disjoint_from_replication_streams(
            self, monkeypatch):
        # one usable core keeps the draws, and so their streams, in this
        # process, where the recording generator sees them
        inside, outside = set(), set()
        generator = RngStream.generator
        draw_code = calibration._qut_draw.__code__

        def recording_generator(stream):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not draw_code:
                frame = frame.f_back
            (outside if frame is None else inside).add(stream.path)
            return generator(stream)

        monkeypatch.setattr(core, "usable_cores", lambda: 1)
        monkeypatch.setattr(RngStream, "generator", recording_generator)
        run_experiment(_auto_spec(replications=1))
        assert inside and outside
        assert inside.isdisjoint(outside)

    def test_psr_se_binomial_formula(self):
        records, _ = run_experiment(_tiny_spec(estimators=("tjp",)))
        r = records[0]
        want = np.sqrt(r.psr * (1 - r.psr) / r.replications)
        assert r.psr_se == pytest.approx(want)
