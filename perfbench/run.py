"""Benchmark of rlasszero: calibrated fits, a simulation and CLI
certificates, measured end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit_qut --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record,
with the machine it ran on, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5


def _import_package() -> None:
    """Import rlasszero from the checkout's src/ or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "rlasszero", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}/rlasszero")
    sys.path.insert(0, SRC)
    import rlasszero

    if not os.path.abspath(rlasszero.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: rlasszero imported from {rlasszero.__file__}, "
                 f"not from {SRC}")


def _cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def machine_record() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that import and build inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_rounds(workload, seconds: float | None, rounds: int | None = None,
                tracer=None, first: int = 0):
    """Whole rounds, numbered from ``first``, until ``seconds`` have passed
    or ``rounds`` are done.

    Returns (outputs, per-round (wall s, CPU s, operations completed),
    total wall s). A round that raises completes none of its operations.
    """
    outputs, per_round = [], []
    t0 = time.perf_counter()
    while True:
        start, cpu0 = time.perf_counter(), _cpu_seconds()
        try:
            outputs += workload.run_round(first + len(per_round), tracer=tracer)
            done = workload.ops_per_round
        except Exception:  # the round's operations count as failed
            traceback.print_exc()
            done = 0
        per_round.append((time.perf_counter() - start, _cpu_seconds() - cpu0,
                          done))
        wall = time.perf_counter() - t0
        if (rounds is not None and len(per_round) >= rounds) or \
                (rounds is None and wall >= seconds):
            return outputs, per_round, wall


def _raised(workload, per_round) -> int:
    return sum(workload.ops_per_round - done for _, _, done in per_round)


def run_end_to_end(workload, args) -> dict:
    outputs, per_round, wall = _run_rounds(workload, args.seconds)
    attempted = len(per_round) * workload.ops_per_round
    raised = _raised(workload, per_round)
    metrics = {
        "ops_per_s": ((attempted - raised) / wall, "1/s"),
        "cpu_s": (sum(cpu for _, cpu, _ in per_round) / attempted, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),  # before the checks' imports
    }
    failed, notes, run_problems = workload.check(outputs)
    return {
        "metrics": metrics,
        "attempted": attempted, "failed": failed + raised, "notes": notes,
        "run_problems": run_problems, "rounds": per_round,
    }


def run_traced(workload, args) -> dict:
    """Per-layer figures from rounds run twice, untraced and then traced.

    The pairs alternate until the run length has passed, so a drift in
    machine speed falls on both sides of the tracing overhead, traced wall
    minus untraced wall. The simulation also runs its first round on a
    pool of two workers, which gives the speed-up of the pool and the CPU
    time of its workers.
    """
    import checks
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    tracer = Tracer()
    outputs, untraced, traced = [], [], []
    t0 = time.perf_counter()
    while not untraced or time.perf_counter() - t0 < args.seconds:
        out, rounds, _ = _run_rounds(workload, None, 1, first=len(untraced))
        outputs += out
        untraced += rounds
        with tracer:
            out, rounds, _ = _run_rounds(workload, None, 1, tracer=tracer,
                                         first=len(traced))
        outputs += out
        traced += rounds
    ops = len(traced) * workload.ops_per_round
    attempted = 2 * ops
    raised = _raised(workload, untraced + traced)
    untraced_s = sum(wall for wall, _, _ in untraced)
    overhead_s = sum(wall for wall, _, _ in traced) - untraced_s

    experiments_figures = None
    if workload.name == "simulate_1w":
        kids0 = _children_cpu_seconds()
        pool_out, pool_rounds, wall_2w = _run_rounds(workload.with_pool(),
                                                     None, 1)
        experiments_figures = {
            "speedup_2w": untraced[0][0] / wall_2w,
            "worker_cpu_s":
                (_children_cpu_seconds() - kids0) / workload.ops_per_round}
        # the pool's replications are operations too, checked against the
        # rows of the same replications at one worker
        attempted += workload.ops_per_round
        raised += _raised(workload, pool_rounds)
        rows = outputs[0][2] if outputs else []
        for out in pool_out:
            raised += len(checks.check_rerun(rows, out[2]))

    figures = layer_metrics(tracer.spans, ops, experiments_figures,
                            overhead_s=overhead_s, untraced_s=untraced_s)
    failed, notes, run_problems = workload.check(outputs)
    return {
        "metrics": {k: (v, LAYER_UNITS[k][0]) for k, v in figures.items()},
        "attempted": attempted, "failed": failed + raised, "notes": notes,
        "run_problems": run_problems, "rounds": untraced + traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit_qut", "simulate_1w", "certify_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_package()
    from workloads import WORKLOADS

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, workdir)
        return 0

    setup_s = _setup_seconds(args)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    runner = run_traced if args.trace else run_end_to_end
    outcome = runner(workload, args)
    metrics = outcome["metrics"]
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    problems = outcome["notes"] + outcome["run_problems"]
    for line in problems:
        print(f"check: {line}", file=sys.stderr)

    result = {
        "correct": not outcome["run_problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "problems": problems,
              "rounds_wall_cpu_ops": outcome["rounds"], **result}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
