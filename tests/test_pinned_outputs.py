"""The command-line outputs for fixed inputs and seeds stay the same.

Each case writes seeded inputs, runs ``python -m rlasszero.cli`` in a
subprocess as a user runs it, with no BLAS thread setting of its own,
and compares what it writes with an expected file under ``tests/data/``:
simulation CSVs byte for byte, JSON by keys, strings, integers and signs
exactly and floats to 1e-12 relative. A refactor that is meant to keep
behaviour must pass these unchanged. The files were made on the numeric
stack recorded in ``tests/data/pinned_stack.json``; on another stack a
failure says so.

Running this file as a script rewrites the expected files, and that
record, from the current code and stack; do that only at a commit whose
outputs are known good.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
REL_TOL = 1e-12
STACK = DATA / "pinned_stack.json"

_FIT = ["fit", "--x", "{d}/X_na.csv", "--y", "{d}/y.csv", "--dictionaries", "5"]
_IDENTIFY = ["identify", "--x", "{d}/X_id.csv", "--theta-tilde"]
_AUTOMATIC = {"n": 25, "p": 15, "rho": 0.5, "s": 2, "mechanism": "mcar",
              "pi": 0.1, "replications": 3, "estimators": ["rlass0", "lass0"],
              "tuning": "automatic", "qut_mc": 50, "n_dictionaries": 3,
              "master_seed": 7}
_ORACLE = {"n": 30, "p": 40, "rho": 0.5, "s": 2, "mechanism": "mnar",
           "a": 5.0, "pi": 0.05, "replications": 4,
           "estimators": ["rlass0", "lass0", "tjp"], "tuning": "oracle_s",
           "n_dictionaries": 3, "master_seed": 11}

# expected file -> CLI arguments; "{d}" is the input directory, and the
# output goes to "{d}/<expected file>"
CASES = {
    "pinned_fit_qut.json": _FIT + ["--tau", "qut"],
    "pinned_fit_qut_restricted.json":
        _FIT + ["--tau", "qut", "--restrict-corruption-rows"],
    "pinned_fit_tau.json": _FIT + ["--tau", "0.5"],
    "pinned_fit_tau_restricted.json":
        _FIT + ["--tau", "0.5", "--restrict-corruption-rows"],
    "pinned_qut.json": ["qut", "--x", "{d}/X_full.csv", "--mc", "60",
                        "--dictionaries", "3"],
    "pinned_identify_identifiable.json":
        _IDENTIFY + ["{d}/tt_small.csv", "--theta", "{d}/theta_small.csv"],
    "pinned_identify_witness.json":
        _IDENTIFY + ["{d}/tt_large.csv", "--theta", "{d}/theta_large.csv"],
    "pinned_automatic_metrics.csv":
        ["simulate", "--config", "{d}/automatic.json",
         "--raw", "{d}/pinned_automatic_raw.csv"],
    "pinned_oracle_metrics.csv":
        ["simulate", "--config", "{d}/oracle.json", "--workers", "2",
         "--raw", "{d}/pinned_oracle_raw.csv"],
}
# every output: one per case, and the two written through --raw
OUTPUTS = [*CASES, "pinned_automatic_raw.csv", "pinned_oracle_raw.csv"]


def _write_matrix(path, x):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"v{j}" for j in range(x.shape[1])) + "\n")
        for row in x:
            fh.write(",".join("NA" if np.isnan(v) else repr(float(v))
                              for v in row) + "\n")


def _write_vector(path, v, header):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(f"{float(e)!r}\n" for e in v))


def write_inputs(d: Path) -> None:
    """Seeded designs, responses, sign patterns and simulation specs."""
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((25, 8))
    beta0 = np.zeros(8)
    beta0[:2] = [3.0, -3.0]
    _write_vector(d / "y.csv", x @ beta0 + 0.3 * rng.standard_normal(25), "y")
    x_na = x.copy()
    x_na.flat[rng.choice(x.size, 13, replace=False)] = np.nan
    _write_matrix(d / "X_na.csv", x_na)
    _write_matrix(d / "X_full.csv", rng.standard_normal((30, 12)))

    n, p = 30, 10
    _write_matrix(d / "X_id.csv", rng.standard_normal((n, p)))
    for label, support, n_corrupt in (("small", [0], 2),
                                      ("large", [0, 3, 7], 15)):
        theta = np.zeros(p)
        theta[support] = rng.choice([-1.0, 1.0], len(support))
        theta_tilde = np.zeros(n)
        theta_tilde[rng.choice(n, n_corrupt, replace=False)] = \
            rng.choice([-1.0, 1.0], n_corrupt)
        _write_vector(d / f"theta_{label}.csv", theta, "theta")
        _write_vector(d / f"tt_{label}.csv", theta_tilde, "theta_tilde")

    for name, spec in (("automatic", _AUTOMATIC), ("oracle", _ORACLE)):
        (d / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")


def run_cases(d: Path) -> None:
    """Run every case; each writes ``d / <expected file name>``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name, args in CASES.items():
        argv = [a.format(d=d) for a in args] + ["--out", str(d / name)]
        done = subprocess.run([sys.executable, "-m", "rlasszero.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, f"{name}: {done.stderr}"


def running_stack() -> dict:
    """The Python minor version, numpy version and BLAS build running now."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # an older show_config has no "dicts"
        blas = "unknown"
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__, "blas": blas}


def stack_note() -> str:
    """Empty on the stack the pinned files were made with, else a note
    naming both stacks for a failing comparison's message."""
    pinned = json.loads(STACK.read_text(encoding="utf-8"))
    running = running_stack()
    if running == pinned:
        return ""
    name = "Python {python}, numpy {numpy}, {blas}".format
    return f"pinned on {name(**pinned)}, running on {name(**running)}"


def json_differences(got, want, where="$") -> list[str]:
    """Where two JSON values differ: keys, strings, integers, booleans,
    None and signs must match exactly, floats to REL_TOL relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [diff for key in want
                for diff in json_differences(got[key], want[key],
                                             f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [diff for i, (g, w) in enumerate(zip(got, want))
                for diff in json_differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) in (float, int):
        if np.sign(got) == np.sign(want) \
                and math.isclose(got, want, rel_tol=REL_TOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    write_inputs(d)
    run_cases(d)
    return d


@pytest.mark.parametrize("name", [n for n in OUTPUTS if n.endswith(".json")])
def test_json_output_pinned(outputs, name):
    got = json.loads((outputs / name).read_text(encoding="utf-8"))
    want = json.loads((DATA / name).read_text(encoding="utf-8"))
    assert json_differences(got, want) == [], stack_note()


@pytest.mark.parametrize("name", [n for n in OUTPUTS if n.endswith(".csv")])
def test_csv_output_pinned(outputs, name):
    assert (outputs / name).read_bytes() == (DATA / name).read_bytes(), \
        stack_note()


def test_ci_installs_the_recorded_stack():
    # outputs pinned again on a new numpy must move the constrained CI job
    # to that numpy too, or the job keeps testing them on the old one
    pinned = json.loads(STACK.read_text(encoding="utf-8"))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8")
    entries = re.findall(r'^\s*- python-version: "([^"]+)"\n'
                         r'\s*constraints: "-c ([^"]+)"', workflow, re.M)
    assert [python for python, _ in entries] == [pinned["python"]]
    constraints = (ROOT / entries[0][1]).read_text(encoding="utf-8")
    assert re.findall(r"^numpy==(\S+)\s*$", constraints, re.M) == \
        [pinned["numpy"]]


def test_json_comparison_catches_changes():
    want = {"a": [1.0, -2.0, 0.0], "s": ["optimal"], "m": 5, "w": None}
    assert json_differences(want, want) == []
    for got in ({"a": [1.0, -2.0, 0.0], "s": ["optimal"], "m": 5},
                {"a": [1.0 + 1e-9, -2.0, 0.0], "s": ["optimal"], "m": 5, "w": None},
                {"a": [1.0, 2.0, 0.0], "s": ["optimal"], "m": 5, "w": None},
                {"a": [1.0, -2.0, 0.0], "s": ["infeasible"], "m": 5, "w": None},
                {"a": [1.0, -2.0, 0.0], "s": ["optimal"], "m": 5.0, "w": None},
                {"a": [1.0, -2.0], "s": ["optimal"], "m": 5, "w": None}):
        assert json_differences(got, want)
    near = {"a": [1.0 + 1e-15, -2.0, 0.0], "s": ["optimal"], "m": 5, "w": None}
    assert json_differences(near, want) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        run_cases(Path(tmp))
        DATA.mkdir(exist_ok=True)
        for name in OUTPUTS:
            shutil.copyfile(Path(tmp) / name, DATA / name)
            print(f"wrote {DATA / name}")
        STACK.write_text(json.dumps(running_stack(), indent=2) + "\n",
                         encoding="utf-8")
        print(f"wrote {STACK}")
