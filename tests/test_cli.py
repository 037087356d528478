import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlasszero import InputError, SolverFailure, calibration, cli, core, lp
from rlasszero.calibration import QutSpec, qut_threshold
from rlasszero.cli import build_parser, main, read_design_csv, \
    read_vector_csv
from rlasszero.core import RngStream, blas_threads, standardize_columns
from rlasszero.missing import IncompleteMatrix, standardized_design

import reference_simplex


def write_design(path, x, na_mask=None):
    n, p = x.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"v{j}" for j in range(p)])
        for i in range(n):
            w.writerow(["NA" if na_mask is not None and na_mask[i, j]
                        else f"{x[i, j]:.17g}" for j in range(p)])


def write_vector(path, v, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for val in v:
            fh.write(f"{val:.17g}\n")


def outputs_at_blas_threads(tmp_path, argv):
    """The bytes ``python -m rlasszero.cli *argv`` writes to its ``--out``
    file under OPENBLAS_NUM_THREADS=1 and under =2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "rlasszero.cli", *argv,
                        "--out", str(out)], env=env, check=True)
        outputs.append(out.read_bytes())
    return outputs


@pytest.fixture()
def instance(tmp_path):
    gen = RngStream(0, (201,)).generator()
    n, p = 25, 8
    x = standardize_columns(gen.standard_normal((n, p)))
    beta0 = np.zeros(p)
    beta0[:2] = [4.0, -4.0]
    y = x @ beta0 + 0.1 * gen.standard_normal(n)
    mask = np.zeros((n, p), dtype=bool)
    mask[1, 3] = mask[5, 0] = True
    x_path = tmp_path / "X.csv"
    y_path = tmp_path / "y.csv"
    write_design(x_path, x, mask)
    write_vector(y_path, y, header="y")
    return tmp_path, str(x_path), str(y_path), beta0


class TestCsvReaders:
    def test_na_parsed_as_nan(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1.5,NA\nNA,2\n")
        x, names = read_design_csv(str(p))
        assert names == ["a", "b"]
        np.testing.assert_array_equal(np.isnan(x),
                                      [[False, True], [True, False]])
        assert x[0, 0] == 1.5

    def test_bad_token_reports_location(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a\n1.0\noops\n")
        from rlasszero import InputError
        with pytest.raises(InputError, match="row 2"):
            read_design_csv(str(p))

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "nan"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        # only the NA token marks a missing entry
        p = tmp_path / "m.csv"
        p.write_text(f"a,b\n1.0,2.0\n3.0,{token}\n")
        from rlasszero import InputError
        with pytest.raises(InputError, match="row 2, column 'b'"):
            read_design_csv(str(p))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1.0\n")
        from rlasszero import InputError
        with pytest.raises(InputError):
            read_design_csv(str(p))

    def test_vector_with_and_without_header(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("resp\n1.0\n-2.0\n")
        np.testing.assert_array_equal(read_vector_csv(str(p)), [1.0, -2.0])
        p.write_text("1.0\n-2.0\n")
        np.testing.assert_array_equal(read_vector_csv(str(p)), [1.0, -2.0])


def cell_by_cell_read(path):
    """The design reader as it was before the one-pass conversion: every
    cell through ``float``, the file opened as plain UTF-8. The tests hold
    ``read_design_csv`` to its results and error messages."""
    def parse(token, row, col):
        token = token.strip()
        if token == "NA":
            return np.nan
        try:
            value = float(token)
        except ValueError:
            raise InputError(f"{path}: row {row}, column {col!r}: "
                             f"cannot parse {token!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{path}: row {row}, column {col!r}: {token!r} "
                             f"is not finite; write NA for a missing entry")
        return value

    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        names = [c.strip() for c in names]
        rows = []
        for i, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if len(rec) != len(names):
                raise InputError(f"{path}: row {i} has {len(rec)} fields, "
                                 f"expected {len(names)}")
            rows.append([parse(tok, i, names[j]) for j, tok in enumerate(rec)])
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows, dtype=float), names


def _repr_rows(x):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x)


_DOUBLES = RngStream(0, (215,)).generator().standard_normal((6, 5)) \
    * np.logspace(-8, 8, 5)

# name -> (file bytes, whether the one numpy pass reads it)
READER_CORPUS = {
    "repr_doubles": ("a,b,c,d,e\n" + _repr_rows(_DOUBLES), True),
    "number_forms": ("a,b,c,d\n0.1,.5,5.,+3\n-0,1E+05,5e-324,1e-310\n",
                     True),
    "na_cells": ("a,b,c\n1.5,NA,NA\n NA ,2,NA\n3,\tNA\t,NA\n", True),
    "na_glued_to_a_sign": ("a,b\n1,-NA\n", False),
    "na_plus_sign": ("a,b\n+NA,1\n", False),
    "na_twice_in_a_cell": ("a,b\n1,NA NA\n", False),
    "na_letters_around": ("a,b\n1,NAN\n2,ANA\n", False),
    "quoted_cells": ('a,b\n"1.5","2"\n3," 4 "\n', False),
    "quoted_header_with_commas": ('"x, first","y,second"\n1,2\n3,4\n',
                                  True),
    "crlf": ("a,b\r\n1.25,2\r\n3,NA\r\n", True),
    "bare_cr": ("a,b\r1.25,2\r3,4\r", True),
    "blank_lines_between_rows": ("a,b\n\n1,2\n\n\n3,4\n\n", True),
    "blank_lines_before_a_bad_cell": ("a,b\n\n1,2\n\n3,x\n", False),
    "whitespace_line": ("a,b\n1,2\n   \n3,4\n", False),
    "whitespace_line_one_column": ("a\n1\n \t\n2\n", False),
    "trailing_comma": ("a,b\n1,2,\n", False),
    "ragged_row": ("a,b,c\n1,2,3\n4,5\n", False),
    "every_row_short": ("a,b,c\n1,2\n4,5\n", False),
    "empty_cell": ("a,b\n1,\n", False),
    "nan_cell": ("a,b\n1,nan\n", False),
    "inf_cell": ("a,b\ninf,1\n", False),
    "minus_infinity_cell": ("a,b\n1,2\n-Infinity,3\n", False),
    "overflowing_cell": ("a,b\n1,2\n3,1e999\n", False),
    "comment_line": ("a,b\n# a note\n1,2\n", False),
    "underscore_digits": ("a,b\n1_000,2\n", False),
    "header_only": ("a,b\n", False),
    "header_and_blank_lines": ("a,b\n\n\n", False),
    "empty_file": ("", False),
    "single_row": ("a,b,c\n1,-2.5,NA\n", True),
    "single_column": ("a\n1\nNA\n-3e-5\n", True),
    "single_cell": ("a\n7\n", True),
    "lone_sign_and_dot": ("a,b,c\n+,.,e\n", False),
    "non_ascii_digit": ("a,b\n1,\u0663\n", False),
    "byte_order_mark": ("\ufeffx0,x1\n1.5,NA\n2.5,3\n", True),
}


class TestDesignReaderCorpus:
    @pytest.mark.parametrize("name", READER_CORPUS)
    def test_same_result_as_the_cell_by_cell_reader(self, monkeypatch,
                                                    tmp_path, name):
        text, one_pass = READER_CORPUS[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        calls, parse_cell = [], cli._parse_cell

        def counted(*args):
            calls.append(args)
            return parse_cell(*args)

        monkeypatch.setattr(cli, "_parse_cell", counted)
        try:
            want = cell_by_cell_read(str(path))
        except InputError as exc:
            with pytest.raises(InputError) as got:
                read_design_csv(str(path))
            assert str(got.value) == str(exc)
            return
        x, names = read_design_csv(str(path))
        if name == "byte_order_mark":
            # the one intended difference: the mark is not part of a name
            assert want[1][0] == "\ufeffx0"
            want[1][0] = "x0"
        assert names == want[1]
        assert x.dtype == want[0].dtype and x.shape == want[0].shape
        assert x.tobytes() == want[0].tobytes()
        assert (not calls) == one_pass

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(InputError, match="not UTF-8"):
            read_design_csv(str(path))
        assert main(["identify", "--x", str(path), "--theta", str(path),
                     "--theta-tilde", str(path),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda p: st.lists(
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.just(None)), min_size=p, max_size=p),
        min_size=1, max_size=8)))
    def test_random_repr_doubles(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("doubles") / "m.csv"
        p = len(rows[0])
        path.write_text(",".join(f"v{j}" for j in range(p)) + "\n" + "".join(
            ",".join("NA" if v is None else repr(v) for v in row) + "\n"
            for row in rows))
        want = np.array([[np.nan if v is None else v for v in row]
                         for row in rows])
        with mock.patch.object(cli, "_parse_cell",
                               side_effect=AssertionError("cell by cell")):
            x, _ = read_design_csv(str(path))
        assert x.tobytes() == want.tobytes()
        assert x.tobytes() == cell_by_cell_read(str(path))[0].tobytes()


class TestVectorReader:
    def test_two_columns_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("id,y\n1,2.5\n2,-3.1\n3,0.7\n")
        with pytest.raises(InputError, match=r"y\.csv: line 1 has 2 fields"):
            read_vector_csv(str(path))
        path.write_text("y\n2.5\n\n-3.1,7\n")
        with pytest.raises(InputError, match=r"y\.csv: line 4 has 2 fields"):
            read_vector_csv(str(path))

    def test_error_names_the_line_of_the_file(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("y\n\n1\nx\n")
        with pytest.raises(InputError, match=r"line 4: cannot parse 'x'"):
            read_vector_csv(str(path))

    def test_two_column_response_exit_2(self, instance, tmp_path, capsys):
        _, x_path, _, _ = instance
        y_path = tmp_path / "y2.csv"
        y_path.write_text("".join(f"{i},{0.1 * i}\n" for i in range(25)))
        out = tmp_path / "o.json"
        assert main(["fit", "--x", x_path, "--y", str(y_path), "--tau", "0.5",
                     "--out", str(out)]) == 2
        assert "line 1 has 2 fields" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_bytes("\ufeff1.5\n2.5\n3.5\n".encode("utf-8"))
        np.testing.assert_array_equal(read_vector_csv(str(path)),
                                      [1.5, 2.5, 3.5])
        path.write_bytes("\ufeffy\r\n1.5\r\n".encode("utf-8"))
        np.testing.assert_array_equal(read_vector_csv(str(path)), [1.5])


class TestFitCommand:
    def test_fit_json_fields(self, instance):
        tmp, x_path, y_path, beta0 = instance
        out = tmp / "fit.json"
        code = main(["fit", "--x", x_path, "--y", y_path, "--tau", "1.0",
                     "--dictionaries", "4", "--restrict-corruption-rows",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert set(d) == {"beta_hat", "beta_med", "column_scales",
                          "omega_med", "tau_used", "lambda", "M", "seed",
                          "per_dictionary_status"}
        assert len(d["beta_hat"]) == 8
        assert len(d["omega_med"]) == 25  # original row indexing
        assert d["M"] == 4 and d["seed"] == 3
        got = np.sign(d["beta_hat"])
        np.testing.assert_array_equal(got, np.sign(beta0))

    @pytest.mark.skipif(blas_threads() is None,
                        reason="numpy loaded no OpenBLAS")
    def test_output_independent_of_blas_threads(self, tmp_path):
        # at (100, 200) the last bits of a solve follow the BLAS thread
        # count; rlz fit solves on one thread whatever the caller set
        gen = RngStream(5, (207,)).generator()
        n, p = 100, 200
        x = gen.standard_normal((n, p))
        beta0 = np.zeros(p)
        beta0[:3] = [2.0, -2.0, 2.0]
        write_design(tmp_path / "X.csv", x)
        write_vector(tmp_path / "y.csv", x @ beta0 + 0.5 * gen.standard_normal(n),
                     header="y")
        first, second = outputs_at_blas_threads(
            tmp_path, ["fit", "--x", str(tmp_path / "X.csv"),
                       "--y", str(tmp_path / "y.csv"), "--tau", "0.5",
                       "--dictionaries", "5"])
        assert first == second

    def test_column_scales_map_back_to_the_csv_columns(self, instance,
                                                       tmp_path):
        # a column ten times larger has a ten times larger scale and the
        # same standardized coefficient
        _, x_path, y_path, _ = instance
        x, _ = read_design_csv(x_path)
        x[:, 0] *= 10
        write_design(tmp_path / "X10.csv", x, np.isnan(x))
        fits = []
        for design in (x_path, tmp_path / "X10.csv"):
            out = tmp_path / "fit.json"
            assert main(["fit", "--x", str(design), "--y", y_path,
                         "--tau", "0.5", "--dictionaries", "5",
                         "--out", str(out)]) == 0
            fits.append(json.loads(out.read_text()))
        before, after = (np.array(f["column_scales"]) for f in fits)
        np.testing.assert_allclose(after[0], 10 * before[0], rtol=1e-12)
        np.testing.assert_allclose(after[1:], before[1:], rtol=1e-12)
        np.testing.assert_allclose(fits[1]["beta_hat"], fits[0]["beta_hat"],
                                   rtol=1e-9, atol=1e-12)

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["fit", "--x", "nope.csv", "--y", "nope.csv",
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_shape_mismatch_exit_2(self, instance, tmp_path):
        _, x_path, _, _ = instance
        bad_y = tmp_path / "bad_y.csv"
        write_vector(bad_y, np.zeros(3))
        code = main(["fit", "--x", x_path, "--y", str(bad_y),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    @pytest.mark.parametrize("flags, nan_response", [
        (["--lambda", "nan"], False), (["--lambda", "inf"], False),
        (["--tau", "nan"], False), (["--tau", "0.5"], True), ([], True)])
    def test_non_finite_input_exit_2(self, instance, tmp_path, flags,
                                     nan_response):
        _, x_path, y_path, _ = instance
        if nan_response:
            lines = Path(y_path).read_text().splitlines()
            lines[4] = "nan"
            y_path = tmp_path / "y_nan.csv"
            y_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        code = main(["fit", "--x", x_path, "--y", str(y_path),
                     "--dictionaries", "3", *flags, "--out", str(out)])
        assert code == 2 and not out.exists()


class TestQutCommand:
    def test_runs_and_writes(self, tmp_path):
        gen = RngStream(1, (203,)).generator()
        x = standardize_columns(gen.standard_normal((12, 5)))
        x_path = tmp_path / "X.csv"
        write_design(x_path, x)
        out = tmp_path / "q.json"
        code = main(["qut", "--x", str(x_path), "--mc", "50",
                     "--dictionaries", "3", "--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["pivot_quantile"] > 0 and d["mc_draws"] == 50

    def test_restricted_rows_of_an_incomplete_design(self, instance,
                                                     tmp_path):
        # the matrix and the corruption rows that
        # rlz fit --restrict-corruption-rows fits
        _, x_path, _, _ = instance
        out = tmp_path / "q.json"
        assert main(["qut", "--x", x_path, "--mc", "50", "--dictionaries",
                     "3", "--restrict-corruption-rows",
                     "--out", str(out)]) == 0
        inc = IncompleteMatrix(read_design_csv(x_path)[0])
        assert inc.incomplete_rows.tolist() == [1, 5]
        want = qut_threshold(standardized_design(inc)[0],
                             QutSpec(n_mc=50, n_dictionaries=3),
                             corruption_cols=inc.incomplete_rows)
        assert json.loads(out.read_text())["pivot_quantile"] == \
            want.pivot_quantile

    def test_calibrates_the_standardized_design(self, tmp_path):
        # the matrix rlz fit calibrates, not the raw CSV values
        x = 3.0 * RngStream(2, (203,)).generator().standard_normal((12, 5)) + 5.0
        x_path = tmp_path / "X.csv"
        write_design(x_path, x)
        out = tmp_path / "q.json"
        assert main(["qut", "--x", str(x_path), "--mc", "50",
                     "--dictionaries", "3", "--out", str(out)]) == 0
        spec = QutSpec(n_mc=50, n_dictionaries=3)
        want = qut_threshold(standardize_columns(x), spec).pivot_quantile
        assert json.loads(out.read_text())["pivot_quantile"] == want


    @pytest.mark.parametrize("flags", [
        ["--lambda", "nan"], ["--lambda", "-1"], ["--lambda", "0"],
        ["--dictionaries", "0"]])
    def test_bad_setting_exit_2_before_any_draw(self, monkeypatch, tmp_path,
                                                flags):
        def no_pool(*args, **kw):
            raise AssertionError("a calibration pool was started")

        monkeypatch.setattr(core, "usable_cores", lambda: 2)
        monkeypatch.setattr(core, "ProcessPoolExecutor", no_pool)
        x_path = tmp_path / "X.csv"
        write_design(x_path, RngStream(3, (203,)).generator()
                     .standard_normal((12, 5)))
        out = tmp_path / "q.json"
        assert main(["qut", "--x", str(x_path), "--mc", "50", *flags,
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestSharedFlags:
    def test_fit_and_qut_parse_the_same_defaults(self):
        parser = build_parser()
        fit = vars(parser.parse_args(["fit", "--x", "X.csv", "--y", "y.csv",
                                      "--out", "o.json"]))
        qut = vars(parser.parse_args(["qut", "--x", "X.csv",
                                      "--out", "o.json"]))
        shared = ("x", "alpha", "lam", "dictionaries",
                  "restrict_corruption_rows", "seed", "out")
        assert {k: fit[k] for k in shared} == {k: qut[k] for k in shared}


class TestParserReuse:
    def test_two_calls_build_the_parser_once(self, monkeypatch, tmp_path):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["qut", "--x", str(tmp_path / "none.csv"),
                             "--out", str(tmp_path / "o.json")]) == 2
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


class TestIdentifyCommand:
    def test_identifiable_instance(self, tmp_path):
        gen = RngStream(2, (205,)).generator()
        n, p = 10, 4
        x = gen.standard_normal((n, p))
        write_design(tmp_path / "X.csv", x)
        write_vector(tmp_path / "theta.csv", np.array([1.0, 0, 0, 0]))
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        out = tmp_path / "v.json"
        code = main(["identify", "--x", str(tmp_path / "X.csv"),
                     "--theta", str(tmp_path / "theta.csv"),
                     "--theta-tilde", str(tmp_path / "tt.csv"),
                     "--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["identifiable"] is True and d["witness"] is None

    def test_duplicated_column_witness_emitted(self, tmp_path):
        gen = RngStream(3, (207,)).generator()
        n, p = 6, 4
        x = gen.standard_normal((n, p))
        x[:, 1] = x[:, 0]
        write_design(tmp_path / "X.csv", x)
        write_vector(tmp_path / "theta.csv", np.array([1.0, 0, 0, 0]))
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        out = tmp_path / "v.json"
        code = main(["identify", "--x", str(tmp_path / "X.csv"),
                     "--theta", str(tmp_path / "theta.csv"),
                     "--theta-tilde", str(tmp_path / "tt.csv"),
                     "--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["identifiable"] is False and d["witness"] is not None

    def test_dependent_support_writes_null_margin(self, tmp_path):
        # columns 0 and 1 of the support are equal: the margin is -inf,
        # which strict JSON cannot hold, and the witness is a null vector
        gen = RngStream(4, (209,)).generator()
        n, p = 8, 6
        x = gen.standard_normal((n, p))
        x[:, 1] = x[:, 0]
        write_design(tmp_path / "X.csv", x)
        write_vector(tmp_path / "theta.csv", np.r_[1.0, -1.0, np.zeros(4)])
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        out = tmp_path / "v.json"
        code = main(["identify", "--x", str(tmp_path / "X.csv"),
                     "--theta", str(tmp_path / "theta.csv"),
                     "--theta-tilde", str(tmp_path / "tt.csv"),
                     "--out", str(out)])
        assert code == 0

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        d = json.loads(out.read_text(), parse_constant=no_constant)
        assert d["identifiable"] is False and d["margin"] is None
        beta = np.array(d["witness"]["beta"])
        omega = np.array(d["witness"]["omega"])
        assert np.abs(x @ beta + np.sqrt(n) * omega).max() <= 1e-12
        assert np.all(beta[2:] == 0.0) and np.all(omega == 0.0)
        assert np.abs(beta[:2]).max() > 0.0

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exit_2(self, tmp_path, lam):
        n, p = 10, 4
        write_design(tmp_path / "X.csv",
                     RngStream(2, (205,)).generator().standard_normal((n, p)))
        write_vector(tmp_path / "theta.csv", np.array([1.0, 0, 0, 0]))
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        out = tmp_path / "v.json"
        code = main(["identify", "--x", str(tmp_path / "X.csv"),
                     "--theta", str(tmp_path / "theta.csv"),
                     "--theta-tilde", str(tmp_path / "tt.csv"),
                     "--lambda", lam, "--out", str(out)])
        assert code == 2 and not out.exists()

    @pytest.mark.skipif(blas_threads() is None,
                        reason="numpy loaded no OpenBLAS")
    def test_output_independent_of_blas_threads(self, tmp_path):
        # at (100, 200) the margin's last digits follow the BLAS thread
        # count; rlz identify certifies on one thread whatever the caller set
        gen = RngStream(5, (207,)).generator()
        n, p = 100, 200
        theta, theta_tilde = np.zeros(p), np.zeros(n)
        theta[gen.choice(p, 20, replace=False)] = gen.choice([-1.0, 1.0], 20)
        theta_tilde[gen.choice(n, 15, replace=False)] = \
            gen.choice([-1.0, 1.0], 15)
        write_design(tmp_path / "X.csv", gen.standard_normal((n, p)))
        write_vector(tmp_path / "theta.csv", theta)
        write_vector(tmp_path / "tt.csv", theta_tilde)
        first, second = outputs_at_blas_threads(
            tmp_path, ["identify", "--x", str(tmp_path / "X.csv"),
                       "--theta", str(tmp_path / "theta.csv"),
                       "--theta-tilde", str(tmp_path / "tt.csv")])
        assert first == second

    @pytest.mark.skipif(blas_threads() is None,
                        reason="numpy loaded no OpenBLAS")
    def test_certifies_on_one_blas_thread_and_restores_the_callers(
            self, monkeypatch, tmp_path):
        seen = []
        certify = cli.check_identifiability

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return certify(*args, **kwargs)

        monkeypatch.setattr(cli, "check_identifiability", recording)
        x = RngStream(2, (205,)).generator().standard_normal((10, 4))
        write_design(tmp_path / "X.csv", x)
        write_design(tmp_path / "X_na.csv", x, np.eye(10, 4, dtype=bool))
        write_vector(tmp_path / "theta.csv", np.array([1.0, 0, 0, 0]))
        write_vector(tmp_path / "tt.csv", np.zeros(10))
        caller = blas_threads()
        core.set_blas_threads(2)
        try:
            # the incomplete design exits 2 from inside the command
            for design, code in (("X.csv", 0), ("X_na.csv", 2)):
                assert main(["identify", "--x", str(tmp_path / design),
                             "--theta", str(tmp_path / "theta.csv"),
                             "--theta-tilde", str(tmp_path / "tt.csv"),
                             "--out", str(tmp_path / "v.json")]) == code
                assert blas_threads() == 2
        finally:
            core.set_blas_threads(caller)
        assert seen == [1]

    def test_certification_lp_failure_exit_3(self, monkeypatch, tmp_path):
        import rlasszero.analysis as analysis

        monkeypatch.setattr(analysis, "solve_lp",
                            lambda prob: (None, np.nan, "tolerance_failure"))
        n, p = 10, 4
        write_design(tmp_path / "X.csv",
                     RngStream(2, (205,)).generator().standard_normal((n, p)))
        write_vector(tmp_path / "theta.csv", np.array([1.0, 0, 0, 0]))
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        code = main(["identify", "--x", str(tmp_path / "X.csv"),
                     "--theta", str(tmp_path / "theta.csv"),
                     "--theta-tilde", str(tmp_path / "tt.csv"),
                     "--out", str(tmp_path / "v.json")])
        assert code == 3


class TestIdentifyFullPricing:
    # an identifiable pattern, and one whose LP gives a witness
    @pytest.mark.parametrize("theta_support, n_corrupt",
                             [([0], 2), ([0, 3, 7], 15)])
    def test_output_bytes_match_full_pricing(self, monkeypatch, tmp_path,
                                             theta_support, n_corrupt):
        gen = RngStream(4, (209,)).generator()
        n, p = 30, 10
        write_design(tmp_path / "X.csv", gen.standard_normal((n, p)))
        theta = np.zeros(p)
        theta[theta_support] = gen.choice([-1.0, 1.0], len(theta_support))
        write_vector(tmp_path / "theta.csv", theta)
        tt = np.zeros(n)
        tt[:n_corrupt] = 1.0
        write_vector(tmp_path / "tt.csv", tt)

        def identify(out):
            assert main(["identify", "--x", str(tmp_path / "X.csv"),
                         "--theta", str(tmp_path / "theta.csv"),
                         "--theta-tilde", str(tmp_path / "tt.csv"),
                         "--out", str(out)]) == 0
            return out.read_bytes()

        got = identify(tmp_path / "v.json")
        monkeypatch.setattr(lp, "_pivot_loop",
                            reference_simplex.full_pricing_loop)
        monkeypatch.setattr(lp, "_apply_pivot", reference_simplex.apply_pivot)
        assert got == identify(tmp_path / "ref.json")


class TestSimulateCommand:
    def _config(self, tmp_path, **kw):
        cfg = dict(n=25, p=15, rho=0.0, s=2, sigma_noise=0.1, pi=0.1,
                   replications=2, estimators=["tjp"], n_dictionaries=3,
                   master_seed=5)
        cfg.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_end_to_end_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1),
                     "--raw", str(tmp_path / "raw.csv")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2),
                     "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        raw = (tmp_path / "raw.csv").read_text().splitlines()
        assert raw[0] == "replication,estimator,psr,s_tpp,s_fdp"
        assert len(raw) == 3

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, tmp_path, workers):
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", self._config(tmp_path),
                     "--out", str(out), "--workers", workers]) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self._config(tmp_path, bogus=1)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "m.csv")]) == 2

    def test_unreachable_missing_rate_exit_2(self, tmp_path):
        cfg = self._config(tmp_path, mechanism="mnar", a=30, pi=0.001,
                           replications=1)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "m.csv")]) == 2

    def test_non_integer_count_exit_2(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config",
                     self._config(tmp_path, replications=2.5),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kw", [
        dict(lam=0), dict(rho=1.5), dict(tuning="automatic", qut_mc=10,
                                         estimators=["rlass0"]),
        dict(tuning="automatic", alpha=2, estimators=["rlass0"]),
        dict(beta_magnitude=0), dict(estimators=[]), dict(sigma_noise=-1),
        dict(s=True), dict(master_seed=False), dict(lam=True),
        dict(rho=False), dict(estimators=5)])
    def test_setting_every_replication_rejects_exit_2(self, tmp_path, kw):
        # rejected once, up front: no replication runs and is dropped
        out = tmp_path / "m.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config",
                         self._config(tmp_path, replications=3, **kw),
                         "--out", str(out)])
        assert code == 2 and not out.exists()
        assert not [w for w in caught if "dropped" in str(w.message)]

    @pytest.mark.parametrize("alias", ["same", "dotted", "symlink"])
    def test_raw_naming_the_out_file_exit_2_before_the_work(
            self, monkeypatch, tmp_path, capsys, alias):
        # the raw rows would overwrite the metrics written just before
        def no_work(*args, **kw):
            raise AssertionError("the work started")

        monkeypatch.setattr(cli, "run_experiment", no_work)
        out = tmp_path / "m.csv"
        raw = {"same": out, "dotted": tmp_path / "." / "m.csv",
               "symlink": tmp_path / "link.csv"}[alias]
        if alias == "symlink":
            out.write_text("kept\n")
            raw.symlink_to(out)
        assert main(["simulate", "--config", self._config(tmp_path),
                     "--out", str(out), "--raw", str(raw)]) == 2
        assert "same file" in capsys.readouterr().err
        if alias == "symlink":
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "m.csv")]) == 2


class TestExitCodes:
    def test_solver_failure_maps_to_3(self, monkeypatch, tmp_path):
        import rlasszero.cli as cli

        def boom(args):
            raise SolverFailure("synthetic")
        monkeypatch.setattr(cli, "_cmd_qut", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["qut", "--x", "x.csv", "--out", "o.json"])
        args.func = boom
        monkeypatch.setattr(parser.__class__, "parse_args",
                            lambda self, argv=None: args)
        assert cli.main(["qut", "--x", "x.csv", "--out", "o.json"]) == 3

    @pytest.mark.parametrize("tau", ["abc", ""])
    def test_unparsable_tau_maps_to_2(self, instance, tmp_path, tau):
        _, x_path, y_path, _ = instance
        out = tmp_path / "o.json"
        assert main(["fit", "--x", x_path, "--y", y_path, "--tau", tau,
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--out"), ("qut", "--out"), ("simulate", "--out"),
        ("simulate", "--raw"), ("identify", "--out")])
    def test_unwritable_output_exit_2_before_the_work(
            self, monkeypatch, instance, tmp_path, capsys, command, flag):
        import rlasszero.cli as cli

        def no_work(*args, **kw):
            raise AssertionError("the work started")

        for name in ("rlz_with_missing", "qut_threshold", "run_experiment",
                     "check_identifiability"):
            monkeypatch.setattr(cli, name, no_work)
        _, x_path, y_path, _ = instance
        write_vector(tmp_path / "theta.csv", np.zeros(8))
        write_vector(tmp_path / "tt.csv", np.zeros(25))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(n=25, p=15, s=2, replications=2,
                                        estimators=["tjp"])))
        inputs = {"fit": ["--x", x_path, "--y", y_path],
                  "qut": ["--x", x_path],
                  "simulate": ["--config", str(spec)],
                  "identify": ["--x", x_path, "--theta",
                               str(tmp_path / "theta.csv"), "--theta-tilde",
                               str(tmp_path / "tt.csv")]}[command]
        bad = str(tmp_path / "no_such_dir" / "o")
        argv = [command, *inputs, "--out",
                bad if flag == "--out" else str(tmp_path / "m.csv")]
        if flag == "--raw":
            argv += ["--raw", bad]
        assert main(argv) == 2
        assert "no_such_dir" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_write_failure_maps_to_2(self, monkeypatch, tmp_path, capsys):
        import rlasszero.cli as cli

        # an output that passes the check and still cannot be written
        monkeypatch.setattr(cli, "_check_writable", lambda path: None)
        n, p = 10, 4
        write_design(tmp_path / "X.csv",
                     RngStream(2, (205,)).generator().standard_normal((n, p)))
        write_vector(tmp_path / "theta.csv", np.array([1.0, 0, 0, 0]))
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        code = main(["identify", "--x", str(tmp_path / "X.csv"),
                     "--theta", str(tmp_path / "theta.csv"),
                     "--theta-tilde", str(tmp_path / "tt.csv"),
                     "--out", str(tmp_path / "gone" / "v.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "qut", "identify"])
    def test_infinite_design_cell_exit_2(self, tmp_path, capsys, command):
        gen = RngStream(6, (211,)).generator()
        n, p = 20, 8
        x = gen.standard_normal((n, p))
        x[4, 2] = np.inf
        write_design(tmp_path / "X.csv", x)
        write_vector(tmp_path / "y.csv", gen.standard_normal(n))
        write_vector(tmp_path / "theta.csv", np.zeros(p))
        write_vector(tmp_path / "tt.csv", np.zeros(n))
        inputs = {"fit": ["--y", str(tmp_path / "y.csv"), "--tau", "0.5"],
                  "qut": ["--mc", "50"],
                  "identify": ["--theta", str(tmp_path / "theta.csv"),
                               "--theta-tilde", str(tmp_path / "tt.csv")]}
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--x", str(tmp_path / "X.csv"),
                         *inputs[command], "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "row 5, column 'v2'" in capsys.readouterr().err
