"""Spans around the public entry points of each rlasszero layer.

The tracer patches module attributes from the outside: every module of the
package that holds a reference to a traced function gets a wrapper that
records a span (name, layer, start, end, parent) in memory. Calls resolved
through a module attribute at call time, which is how the package calls
across modules, therefore pass through the wrapper. Removing the patches
restores the original objects.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (layer, module, attribute). The class attribute RngStream.generator is
# patched separately, since it is reached through instances.
TRACED = (
    ("lp", "rlasszero.lp", "solve_lp"),
    ("estimators", "rlasszero.estimators", "robust_lasso_zero"),
    ("estimators", "rlasszero.estimators", "lasso_zero"),
    ("calibration", "rlasszero.calibration", "qut_threshold"),
    ("missing", "rlasszero.missing", "rlz_with_missing"),
    ("missing", "rlasszero.missing", "generate_missingness"),
    ("experiments", "rlasszero.experiments", "run_experiment"),
    # the per-replication step; gives one span per replication at one worker
    ("experiments", "rlasszero.experiments", "_replication_metrics"),
    ("analysis", "rlasszero.analysis", "check_identifiability"),
    ("cli", "rlasszero.cli", "read_design_csv"),
    ("cli", "rlasszero.cli", "read_vector_csv"),
)

NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    """In-memory span recorder; use as a context manager to patch."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        span = self._open(name, layer)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rlasszero" or key.startswith("rlasszero.")]
        for layer, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{layer}.{attr}", layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        rng_stream = sys.modules["rlasszero.core"].RngStream
        original = rng_stream.generator
        self._undo.append((rng_stream, "generator", original))
        rng_stream.generator = self._wrap("core.RngStream.generator", "core",
                                          original)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False


def _durations(spans, name):
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, ops: int, experiments: dict | None = None,
                  overhead_s: float = 0.0, untraced_s: float = 1.0) -> dict:
    """Per-layer figures from the spans of ``ops`` operations.

    Totals (counts and ``_s`` times) are per operation; ``_p50``/``_p90``
    are percentiles over single calls. A layer the workload never enters
    reads 0. ``experiments`` carries the figures measured around the
    worker pool (speed-up and worker CPU), which no in-process span sees.
    """
    self_t = _self_times(spans)

    def total(names, values=None):
        vals = values if values is not None else [s[END] - s[START] for s in spans]
        return sum(v for s, v in zip(spans, vals) if s[NAME] in names)

    def count(names):
        return sum(1 for s in spans if s[NAME] in names)

    solves = _durations(spans, "lp.solve_lp")
    fit_names = ("estimators.robust_lasso_zero", "estimators.lasso_zero")
    fits = [s[END] - s[START] for s in spans if s[NAME] in fit_names]
    qut_idx = {i for i, s in enumerate(spans)
               if s[NAME] == "calibration.qut_threshold"}
    qut_s = total(("calibration.qut_threshold",))
    draws = sum(1 for s in spans if s[NAME] in fit_names and s[PARENT] in qut_idx)
    reads: dict[int, float] = {}
    for s in spans:
        if s[LAYER] == "cli" and s[NAME] != "cli.main" and s[PARENT] >= 0:
            reads[s[PARENT]] = reads.get(s[PARENT], 0.0) + s[END] - s[START]
    cli_reads = [reads.get(i, 0.0) for i, s in enumerate(spans)
                 if s[NAME] == "cli.main"]
    exp = experiments or {}
    return {
        "lp.solves": count(("lp.solve_lp",)) / ops,
        "lp.solve_ms_p50": 1e3 * _pct(solves, 50),
        "lp.solve_ms_p90": 1e3 * _pct(solves, 90),
        "lp.busy_s": sum(solves) / ops,
        "estimators.fits": len(fits) / ops,
        "estimators.fit_ms_p50": 1e3 * _pct(fits, 50),
        "estimators.self_s": total(fit_names, self_t) / ops,
        "calibration.qut_s": qut_s / ops,
        "calibration.draws_per_s": draws / qut_s if qut_s > 0 else 0.0,
        "calibration.self_s": total(("calibration.qut_threshold",), self_t) / ops,
        "missing.prep_s": total(("missing.rlz_with_missing",), self_t) / ops,
        "missing.generate_ms_p50":
            1e3 * _pct(_durations(spans, "missing.generate_missingness"), 50),
        "experiments.rep_s_p50":
            _pct(_durations(spans, "experiments._replication_metrics"), 50),
        "experiments.speedup_2w": exp.get("speedup_2w", 0.0),
        "experiments.worker_cpu_s": exp.get("worker_cpu_s", 0.0),
        "analysis.certs": count(("analysis.check_identifiability",)) / ops,
        "analysis.cert_ms_p50":
            1e3 * _pct(_durations(spans, "analysis.check_identifiability"), 50),
        "analysis.self_s":
            total(("analysis.check_identifiability",), self_t) / ops,
        "cli.read_ms_p50": 1e3 * _pct(cli_reads, 50),
        "cli.self_s": total(("cli.main",), self_t) / ops,
        "core.rng_streams": count(("core.RngStream.generator",)) / ops,
        "core.rng_s": total(("core.RngStream.generator",)) / ops,
        "trace.overhead_s": overhead_s / ops,
        "trace.overhead_pct": 100.0 * overhead_s / untraced_s,
    }


# unit and better direction of every per-layer metric, in report order
LAYER_UNITS = {
    "lp.solves": ("count", "lower"),
    "lp.solve_ms_p50": ("ms", "lower"),
    "lp.solve_ms_p90": ("ms", "lower"),
    "lp.busy_s": ("s", "lower"),
    "estimators.fits": ("count", "lower"),
    "estimators.fit_ms_p50": ("ms", "lower"),
    "estimators.self_s": ("s", "lower"),
    "calibration.qut_s": ("s", "lower"),
    "calibration.draws_per_s": ("1/s", "higher"),
    "calibration.self_s": ("s", "lower"),
    "missing.prep_s": ("s", "lower"),
    "missing.generate_ms_p50": ("ms", "lower"),
    "experiments.rep_s_p50": ("s", "lower"),
    "experiments.speedup_2w": ("ratio", "higher"),
    "experiments.worker_cpu_s": ("s", "lower"),
    "analysis.certs": ("count", "lower"),
    "analysis.cert_ms_p50": ("ms", "lower"),
    "analysis.self_s": ("s", "lower"),
    "cli.read_ms_p50": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "core.rng_streams": ("count", "lower"),
    "core.rng_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
