"""The package API the benchmark calls must keep working.

``perfbench/tracing.py`` patches the functions listed in its ``TRACED``
table by module and attribute name, so a rename in the package would only
show up as a crash of the traced benchmark run. One test reads the table
and checks each entry against the package. The other runs the benchmark's
self-test, which drives every workload at a reduced size through the same
calls (configuration keywords, the patched ``missing.qut_threshold``,
hand-built ``LpProblem`` objects), so an API change that breaks the
benchmark fails here.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, module_name, attr", _traced())
def test_traced_entry_point_exists(layer, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
