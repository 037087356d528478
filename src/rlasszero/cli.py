"""Command-line interface.

Subcommands:

* ``fit``      — fit the median-aggregated estimator to a CSV design/response
* ``simulate`` — run the replication harness from a JSON spec
* ``qut``      — calibrate the null-quantile threshold on the standardized
  design and the corruption rows that ``fit`` uses
* ``identify`` — certify identifiability of a sign pattern

Design CSVs carry a header row of column names; missing entries are the
literal token ``NA``. Every command runs on one OpenBLAS thread and then
gives the caller's thread setting back, so its output does not depend on
that setting; the calibration draws run on one process per usable core.
Exit codes: 0 success, 2 input error (an unwritable ``--out`` or
``--raw`` among them, or a ``--raw`` that names the ``--out`` file,
caught before any work), 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .analysis import check_identifiability
from .calibration import QutSpec, qut_threshold
from .core import single_blas_thread
from .errors import InputError, SolverFailure
from .estimators import RlzConfig
from .experiments import SimulationSpec, metrics_to_csv, raw_to_csv, \
    run_experiment
from .missing import IncompleteMatrix, rlz_with_missing, standardized_design


# the bytes a data row of plain decimal numbers and NA is made of
_NUMBER_BYTES = b"0123456789.+-eENA, \t\r\n"


def _open_text(path: str) -> io.StringIO:
    """The decoded text of ``path``; a leading UTF-8 byte order mark is
    dropped and line endings are kept, as ``csv`` wants them."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return io.StringIO(fh.read(), newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None


def _parse_cell(token: str, path: str, row: int, col: str) -> float:
    token = token.strip()
    if token == "NA":
        return np.nan
    try:
        value = float(token)
    except ValueError:
        raise InputError(f"{path}: row {row}, column {col!r}: "
                         f"cannot parse {token!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}: row {row}, column {col!r}: {token!r} is "
                         f"not finite; write NA for a missing entry")
    return value


def _numeric_rows(data: str, n_cols: int):
    """The data rows in one numpy pass, or None when a cell needs
    :func:`_parse_cell`.

    Only plain decimal numbers and ``NA`` take this path: any other letter,
    a quote, ``_`` or ``#`` sends the file to the per-cell reader, as does a
    cell numpy rejects, a row of the wrong width or an infinite value.
    ``NA`` becomes ``+nan``, so a cell is NaN only if it was ``NA`` alone:
    a stray ``N``, ``A`` or sign next to it leaves a cell numpy rejects.
    numpy and ``float`` both convert with CPython's correctly rounded
    string-to-double, so the two paths return the same bytes.
    """
    if not data.isascii() or \
            data.encode("ascii").translate(None, _NUMBER_BYTES):
        return None
    if "NA" in data:
        data = data.replace("NA", "+nan")
    lines = data.splitlines()
    n_rows = len(lines) - lines.count("")
    if not n_rows:
        return None
    try:
        x = np.loadtxt(lines, delimiter=",", comments=None, dtype=float,
                       ndmin=2)
    except ValueError:
        return None
    if x.shape != (n_rows, n_cols) or np.isinf(x).any():
        return None
    return x


def read_design_csv(path: str):
    """Read a design matrix CSV; returns (matrix with NaN for NA, names).

    A file of plain decimal numbers and ``NA`` is converted in one numpy
    pass; any other file is read cell by cell, which names the row and
    column of the first bad cell.
    """
    text = _open_text(path)
    reader = csv.reader(text)
    try:
        names = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    names = [c.strip() for c in names]
    data = text.read()
    x = _numeric_rows(data, len(names))
    if x is not None:
        return x, names
    rows = []
    for i, rec in enumerate(csv.reader(io.StringIO(data, newline="")),
                            start=1):
        if not rec:
            continue
        if len(rec) != len(names):
            raise InputError(f"{path}: row {i} has {len(rec)} fields, "
                             f"expected {len(names)}")
        rows.append([_parse_cell(tok, path, i, names[j])
                     for j, tok in enumerate(rec)])
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows, dtype=float), names


def read_vector_csv(path: str) -> np.ndarray:
    """One value per line; a single non-numeric first line is skipped. A
    line with more than one comma-separated field is an input error.
    Errors give the line number in the file, blank lines counted."""
    lines = [(i, ln.strip()) for i, ln in enumerate(_open_text(path), start=1)
             if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty file")
    vals = []
    for k, (i, tok) in enumerate(lines):
        if "," in tok:
            raise InputError(f"{path}: line {i} has "
                             f"{tok.count(',') + 1} fields; expected one "
                             f"value per line")
        try:
            vals.append(float(tok))
        except ValueError:
            if k == 0:  # a header
                continue
            raise InputError(f"{path}: line {i}: cannot parse {tok!r}") from None
    return np.array(vals)


def _check_writable(path: str) -> None:
    """InputError unless ``path`` names a file that can be written, so that
    a bad output path fails before the work rather than after it."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise InputError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise InputError(f"cannot write {path}: permission denied")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _cmd_fit(args) -> int:
    x_raw, _ = read_design_csv(args.x)
    y = read_vector_csv(args.y)
    if y.size != x_raw.shape[0]:
        raise InputError(f"y has {y.size} entries, X has {x_raw.shape[0]} rows")
    try:
        tau = "qut" if args.tau == "qut" else float(args.tau)
    except ValueError:
        raise InputError(f"--tau must be a number or 'qut', "
                         f"got {args.tau!r}") from None
    cfg = RlzConfig(lam=args.lam, tau=tau, n_dictionaries=args.dictionaries,
                    master_seed=args.seed)
    qut_spec = QutSpec(alpha=args.alpha, lam=args.lam,
                       n_dictionaries=args.dictionaries, master_seed=args.seed)
    fit = rlz_with_missing(y, IncompleteMatrix(x_raw), cfg, qut_spec=qut_spec,
                           restrict_corruption=args.restrict_corruption_rows)
    _write_json(args.out, {
        "beta_hat": fit.beta_hat.tolist(),
        "beta_med": fit.beta_med.tolist(),
        "column_scales": fit.column_scales.tolist(),
        "omega_med": fit.omega_full(x_raw.shape[0]).tolist(),
        "tau_used": fit.tau_used,
        "lambda": args.lam,
        "M": args.dictionaries,
        "seed": args.seed,
        "per_dictionary_status": fit.per_dictionary_status,
    })
    return 0


def _same_file(a: str, b: str) -> bool:
    """True when the paths ``a`` and ``b`` name one file, existing or not."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_simulate(args) -> int:
    if args.raw and _same_file(args.out, args.raw):
        raise InputError(f"--out {args.out} and --raw {args.raw} name the "
                         f"same file")
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{args.config}: top level must be an object")
    known = {f.name for f in dataclasses.fields(SimulationSpec)}
    unknown = set(raw) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    spec = SimulationSpec(**raw)
    records, raw_rows = run_experiment(spec, workers=args.workers)
    _write_text(args.out, metrics_to_csv(records))
    if args.raw:
        _write_text(args.raw, raw_to_csv(raw_rows))
    return 0


def _cmd_qut(args) -> int:
    inc = IncompleteMatrix(read_design_csv(args.x)[0])
    spec = QutSpec(alpha=args.alpha, n_mc=args.mc, lam=args.lam,
                   n_dictionaries=args.dictionaries, master_seed=args.seed)
    x_std, _ = standardized_design(inc)
    cols = inc.incomplete_rows if args.restrict_corruption_rows else None
    result = qut_threshold(x_std, spec, corruption_cols=cols)
    _write_json(args.out, {
        "pivot_quantile": result.pivot_quantile,
        "alpha": args.alpha,
        "mc_draws": int(result.mc_statistics.size),
        "lambda": args.lam,
        "M": args.dictionaries,
        "seed": args.seed,
    })
    return 0


def _cmd_identify(args) -> int:
    x_raw, _ = read_design_csv(args.x)
    if np.isnan(x_raw).any():
        raise InputError("design for identify must be complete (no NA entries)")
    theta = read_vector_csv(args.theta)
    theta_tilde = read_vector_csv(args.theta_tilde)
    verdict = check_identifiability(x_raw, theta, theta_tilde, lam=args.lam)
    payload = {
        "identifiable": verdict.identifiable,
        "inconclusive": verdict.inconclusive,
        # JSON has no infinity: a margin that is not finite is null
        "margin": verdict.margin if math.isfinite(verdict.margin) else None,
        "method": verdict.method,
        "witness": None,
    }
    if verdict.witness is not None:
        payload["witness"] = {"beta": verdict.witness[0].tolist(),
                              "omega": verdict.witness[1].tolist()}
    _write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlz",
        description="Sparse regression under sparse corruptions and "
                    "missing covariates")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags fit and qut share, declared once so that their defaults
    # cannot drift apart and qut calibrates what fit fits
    fit_qut = argparse.ArgumentParser(add_help=False)
    fit_qut.add_argument("--x", required=True,
                         help="design CSV (header, NA for missing)")
    fit_qut.add_argument("--alpha", type=float, default=0.05)
    fit_qut.add_argument("--lambda", dest="lam", type=float, default=1.0)
    fit_qut.add_argument("--dictionaries", type=int, default=20, metavar="M")
    fit_qut.add_argument("--restrict-corruption-rows", action="store_true",
                         help="model corruption only on rows with missing "
                              "entries")
    fit_qut.add_argument("--seed", type=int, default=0)
    fit_qut.add_argument("--out", required=True)

    fit = sub.add_parser("fit", parents=[fit_qut],
                         help="fit the median-aggregated estimator")
    fit.add_argument("--y", required=True, help="response CSV, one value per line")
    fit.add_argument("--tau", default="qut",
                     help="numeric threshold, or 'qut' for automatic calibration")
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="run the replication harness")
    sim.add_argument("--config", required=True, help="JSON simulation spec")
    sim.add_argument("--out", required=True, help="aggregate metrics CSV")
    sim.add_argument("--raw", help="optional per-replication CSV")
    sim.add_argument("--workers", type=int, default=1,
                     help="worker processes, at most one per usable core "
                          "and per replication, each taking one replication "
                          "at a time; where that is one, the replications "
                          "run serially, with no pool (default 1)")
    sim.set_defaults(func=_cmd_simulate)

    qut = sub.add_parser("qut", parents=[fit_qut],
                         help="calibrate the null-quantile threshold")
    qut.add_argument("--mc", type=int, default=500)
    qut.set_defaults(func=_cmd_qut)

    ident = sub.add_parser("identify",
                           help="certify identifiability of a sign pattern")
    ident.add_argument("--x", required=True)
    ident.add_argument("--theta", required=True,
                       help="coefficient sign vector CSV (entries in -1/0/1)")
    ident.add_argument("--theta-tilde", required=True,
                       help="corruption sign vector CSV")
    ident.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ident.add_argument("--out", required=True)
    ident.set_defaults(func=_cmd_identify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parsing leaves it as it was, so a
    process that calls :func:`main` many times builds it once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for path in (args.out, getattr(args, "raw", None)):
            if path:
                _check_writable(path)
        with single_blas_thread():
            return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
