"""Dense design-matrix primitives, deterministic RNG stream derivation,
the BLAS thread setting and :func:`run_tasks`, the one task map that runs
the calibration draws and the simulation replications, serially or on a
pool, with the same results, warnings and failures at any worker count.
Count settings are checked by :func:`check_count` and real-valued ones by
:func:`check_real`, each with one InputError message format.

All randomness in the package flows through :class:`RngStream`, a
(master_seed, path) pair mapped to an independent counter-based generator.
Two streams with different paths are statistically independent, and the
same (seed, path) reproduces the identical sequence bit-for-bit, so
replications can run in any order (or in parallel) without changing
results.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import multiprocessing
import numbers
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, SolverFailure


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by a master seed and a path.

    The path is a tuple of integers, e.g. ``(replication, dictionary)``.
    Derivation uses numpy's SeedSequence spawn-key mechanism on top of the
    counter-based Philox generator.
    """

    master_seed: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def check_count(name: str, value, minimum: int) -> None:
    """InputError unless ``value`` is an integer (a numpy integer passes,
    a bool, a float or a string does not) of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")


def check_real(name: str, value, low: float, high: float = np.inf,
               low_open: bool = False) -> None:
    """InputError unless ``value`` is a real number, finite as a float, in
    [low, high), or in (low, high) with ``low_open``. A numpy float passes;
    a bool, a string and a 0-d array do not."""
    bound = np.float64(sys.float_info.max) if isinstance(value, np.floating) \
        else sys.float_info.max  # a numpy float32 bound would overflow
    if not isinstance(value, numbers.Real) or isinstance(value, bool) \
            or not abs(value) <= bound or value >= high \
            or not (value > low if low_open else value >= low):
        raise InputError(f"{name} must be a finite number in "
                         f"{'(' if low_open else '['}{low:g}, {high:g}), "
                         f"got {value!r}")


def toeplitz_sigma(p: int, rho: float) -> np.ndarray:
    """Toeplitz correlation matrix with entries rho**|i-j| and unit diagonal.

    Requires an integer p >= 1, and rho in [0, 1) so the matrix is
    positive definite.
    """
    check_count("p", p, 1)
    check_real("rho", rho, 0.0, 1.0)
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def sample_design(n: int, p: int, sigma: np.ndarray, stream: RngStream) -> np.ndarray:
    """Draw an n x p matrix with i.i.d. rows from N(0, sigma).

    Rows are generated as standard-normal vectors times the lower Cholesky
    factor of sigma, so the covariance is exact. InputError unless n and
    p are integers >= 1 and sigma is p x p and positive definite.
    """
    check_count("n", n, 1)
    check_count("p", p, 1)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (p, p):
        raise InputError(f"sigma must be {p}x{p}, got shape {sigma.shape}")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise InputError("sigma is not positive definite") from exc
    z = stream.generator().standard_normal((n, p))
    return z @ chol.T


def standardize_columns(x: np.ndarray, return_stats: bool = False):
    """Center each column and rescale it to Euclidean norm sqrt(n).

    Uses the population (1/n) variance so the rescaled norm is exactly
    sqrt(n). A constant column has no scale and is rejected, as is a
    column holding NaN or an infinite value.

    With ``return_stats=True`` also returns the per-column (mean, scale)
    used, where ``out = (x - mean) / scale``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError("expected a 2-d array")
    n = x.shape[0]
    bad = np.flatnonzero(~np.isfinite(x).all(axis=0))
    if bad.size:
        raise InputError(f"column {bad[0]} holds NaN or an infinite value "
                         f"and cannot be standardized")
    means = x.mean(axis=0)
    centered = x - means
    norms = np.linalg.norm(centered, axis=0)
    bad = np.flatnonzero(norms <= 0.0)
    if bad.size:
        raise InputError(f"column {bad[0]} is constant and cannot be standardized")
    scales = norms / np.sqrt(n)
    out = centered / scales
    if return_stats:
        return out, means, scales
    return out


def _openblas_thread_functions():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or
    (None, None) when numpy loaded no OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None, None


_GET_BLAS_THREADS, _SET_BLAS_THREADS = _openblas_thread_functions()


def blas_threads() -> Optional[int]:
    """Thread count of numpy's OpenBLAS, or None when numpy loaded none."""
    return None if _GET_BLAS_THREADS is None else _GET_BLAS_THREADS()


def set_blas_threads(count: int) -> None:
    """Set numpy's OpenBLAS to ``count`` threads; a no-op without OpenBLAS."""
    if _SET_BLAS_THREADS is not None:
        _SET_BLAS_THREADS(count)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    Used by ``cli.main`` around each whole command and by :func:`run_tasks`
    around its serial calls. At this package's sizes a second BLAS thread
    only spins, also between BLAS calls, so all the work runs inside.
    """
    before = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity (which ``taskset``
    limits), or the machine's count where the platform reports none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` processes, with the
    same results, warnings and failures at any ``workers``.

    A call that raises InputError or SolverFailure gets the exception as
    its result. Any other exception is raised, the first in order of the
    items, once the calls before it have returned; the calls after it
    that no worker has started are cancelled. Each call's warnings are
    raised again here, in order of the items, once every call has
    returned.

    The pool would have ``min(workers, len(items), usable_cores())``
    processes: a forked pool starts all its processes at once, and
    processes beyond the cores only compete for them. Whenever that is
    at most one, or this process is a multiprocessing child (so pools
    never nest), the calls run here, inside :func:`single_blas_thread`.
    Otherwise they run on a pool of forked processes that the call starts
    and closes, one item per task, so that no worker idles while another
    still holds a queue of items, each on one OpenBLAS thread, since the
    workers already fill the cores. Forked, because a spawned worker
    imports numpy and the package afresh: about 0.5 s of CPU on a 2-core
    x86 machine, some 10 calibration draws at 50 x 100.
    """
    items = list(items)
    processes = min(workers, len(items), usable_cores())
    if processes <= 1 or multiprocessing.parent_process() is not None:
        with single_blas_thread():
            outcomes = [_run_one(fn, item) for item in items]
    else:
        with ProcessPoolExecutor(
                max_workers=processes,
                mp_context=multiprocessing.get_context("fork"),
                initializer=set_blas_threads, initargs=(1,)) as pool:
            outcomes = list(pool.map(partial(_run_one, fn), items,
                                     chunksize=1))
    for _, caught in outcomes:
        for message in caught:
            warnings.warn(message, stacklevel=3)
    return [result for result, _ in outcomes]


def _run_one(fn: Callable, item) -> tuple:
    """(result or InputError/SolverFailure, warnings raised) of one item."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(item)
        except (InputError, SolverFailure) as exc:
            result = exc
    return result, [w.message for w in caught]
