"""The package, its tests and its benchmark keep to the grammar of the
oldest Python that ``pyproject.toml`` declares, so a construct newer
than that floor fails here on any later Python, not only in a CI job
that runs the floor itself. The check covers syntax only, not the
standard library a module imports."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_pyproject_declares_the_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = r"\.".join(map(str, FLOOR))
    assert re.search(rf'^requires-python\s*=\s*">={floor}"\s*$', text, re.M)


def test_every_source_file_parses_on_the_floor():
    files = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: "
                            f"{exc.msg}")
    assert not failures, failures
