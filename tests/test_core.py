import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlasszero import InputError, core
from rlasszero.core import (
    RngStream,
    run_tasks,
    sample_design,
    standardize_columns,
    toeplitz_sigma,
)


class TestRngStream:
    def test_same_seed_path_reproduces(self):
        a = RngStream(42, (3, 1)).generator().standard_normal(16)
        b = RngStream(42, (3, 1)).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(42, (3, 1)).generator().standard_normal(16)
        b = RngStream(42, (3, 2)).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_child_appends_to_path(self):
        assert RngStream(7, (1,)).child(2, 5).path == (1, 2, 5)

    def test_child_matches_direct_construction(self):
        a = RngStream(9, ()).child(4).generator().standard_normal(8)
        b = RngStream(9, (4,)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)


class TestToeplitzSigma:
    def test_rho_zero_is_identity(self):
        np.testing.assert_array_equal(toeplitz_sigma(3, 0.0), np.eye(3))

    def test_rho_075_two_by_two(self):
        np.testing.assert_allclose(toeplitz_sigma(2, 0.75),
                                   [[1.0, 0.75], [0.75, 1.0]])

    def test_corner_entry_is_power(self):
        assert toeplitz_sigma(4, 0.5)[0, 3] == pytest.approx(0.125)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(InputError):
            toeplitz_sigma(3, rho)

    @pytest.mark.parametrize("p", [0, -1, 2.5, 3.0, "3", True])
    def test_p_not_a_count(self, p):
        with pytest.raises(InputError, match="p must be an integer"):
            toeplitz_sigma(p, 0.5)

    @pytest.mark.parametrize("p", [2, 50, 500])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
    def test_positive_definite(self, p, rho):
        assert np.linalg.eigvalsh(toeplitz_sigma(p, rho))[0] > 0


class TestSampleDesign:
    def test_determinism(self):
        sigma = toeplitz_sigma(4, 0.5)
        a = sample_design(10, 4, sigma, RngStream(0, (1,)))
        b = sample_design(10, 4, sigma, RngStream(0, (1,)))
        np.testing.assert_array_equal(a, b)

    def test_column_means_near_zero(self):
        n = 4000
        x = sample_design(n, 3, np.eye(3), RngStream(5, ()))
        assert np.abs(x.mean(axis=0)).max() < 4 / np.sqrt(n)

    def test_empirical_correlation_tracks_target(self):
        x = sample_design(10 ** 4, 2, toeplitz_sigma(2, 0.75), RngStream(1, ()))
        r = np.corrcoef(x.T)[0, 1]
        assert abs(r - 0.75) < 0.03

    def test_non_pd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(InputError):
            sample_design(5, 2, bad, RngStream(0, ()))

    @pytest.mark.parametrize("n, p, name", [
        (2.5, 2, "n"), (0, 2, "n"), (3, 2.0, "p"), (3, 0, "p"),
        (True, 2, "n"), (3, True, "p")])
    def test_sizes_not_counts(self, n, p, name):
        with pytest.raises(InputError, match=f"{name} must be an integer"):
            sample_design(n, p, np.eye(2), RngStream(0, ()))


def _first_fails_last(item):
    # item 0 fails late, item 7 at once: the first failure in item order
    # is item 0's, whichever finishes first
    if item == 0:
        time.sleep(0.5)
    if item in (0, 7):
        raise RuntimeError(f"item {item}")
    return item


def _square(item):
    return item * item


def _no_pool(*args, **kw):
    raise AssertionError("a pool started where one process runs the calls")


class TestRunTasks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_in_item_order(self, workers):
        with pytest.raises(RuntimeError, match="item 0"):
            run_tasks(_first_fails_last, range(8), workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_items(self, workers):
        assert run_tasks(_square, [], workers) == []

    @pytest.mark.parametrize("items, workers, cores", [
        ([3], 2, 2), (range(8), 4, 1)], ids=["one-item", "one-core"])
    def test_no_pool_of_one(self, monkeypatch, items, workers, cores):
        # a pool of one process only adds a fork to the serial path
        monkeypatch.setattr(core, "ProcessPoolExecutor", _no_pool)
        monkeypatch.setattr(core, "usable_cores", lambda: cores)
        assert run_tasks(_square, items, workers) == [i * i for i in items]


class TestStandardizeColumns:
    def test_hand_column(self):
        out = standardize_columns(np.array([[1.0], [1.0], [1.0], [3.0]]))
        assert out[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(out[:, 0]) == pytest.approx(2.0)

    def test_all_columns_normalized(self):
        x = RngStream(3, ()).generator().standard_normal((17, 5))
        out = standardize_columns(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(out, axis=0),
                                   np.sqrt(17), rtol=1e-12)

    def test_idempotent(self):
        x = RngStream(8, ()).generator().standard_normal((12, 4))
        once = standardize_columns(x)
        twice = standardize_columns(once)
        assert np.abs(twice - once).max() < 1e-12

    def test_constant_column_names_index(self):
        x = np.ones((5, 3))
        x[:, 0] = np.arange(5)
        x[:, 2] = np.arange(5)
        with pytest.raises(InputError, match="1"):
            standardize_columns(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_names_index(self, bad):
        x = np.array([[1.0, 2.0], [2.0, bad], [4.0, 3.0]])
        with pytest.raises(InputError, match="column 1 holds NaN"):
            standardize_columns(x)

    def test_return_stats_roundtrip(self):
        x = RngStream(2, ()).generator().standard_normal((9, 3)) * 3 + 1
        out, means, scales = standardize_columns(x, return_stats=True)
        np.testing.assert_allclose(out * scales + means, x, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=3, max_value=20),
           st.integers(min_value=1, max_value=6))
    def test_idempotence_property(self, seed, n, p):
        x = RngStream(seed, (0,)).generator().standard_normal((n, p))
        once = standardize_columns(x)
        assert np.abs(standardize_columns(once) - once).max() < 1e-12


def test_import_loads_numpy_alone():
    # scipy brings its own OpenBLAS next to numpy's: more start-up time and
    # memory, and a second thread pool that the BLAS thread setting does
    # not reach
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import json, os, sys, rlasszero, rlasszero.cli\n"
            "maps = set()\n"
            "if os.path.exists('/proc/self/maps'):\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        maps = {line.split()[-1] for line in fh\n"
            "                if 'openblas' in os.path.basename(line.split()[-1])}\n"
            "print(json.dumps({'scipy': sorted(m for m in sys.modules\n"
            "                                  if m.split('.')[0] == 'scipy'),\n"
            "                  'openblas': sorted(maps)}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout)
    assert loaded["scipy"] == []
    if sys.platform.startswith("linux"):
        assert len(loaded["openblas"]) == 1, loaded["openblas"]
