"""The entry points the traced benchmark wraps must exist and be callable.

``perfbench/tracing.py`` patches the functions listed in its ``TRACED``
table by module and attribute name, so a rename in the package would only
show up as a crash of the traced benchmark run. This test reads the table
and checks each entry against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, module_name, attr", _traced())
def test_traced_entry_point_exists(layer, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
