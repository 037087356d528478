"""Sign-recovery metrics and the replication harness.

The harness reproduces the standard protocol: Toeplitz-correlated Gaussian
design, +-1 coefficients on a random support, logistic missingness,
mean imputation, and per-replication metrics (exact sign recovery, signed
true-positive and false-discovery proportions) aggregated with standard
errors. Each replication standardizes its imputed design once, and every
estimator fits that matrix through the library: rlass0 and lass0 are
:func:`rlasszero.missing.fit_standardized` with the incomplete rows or no
rows as corruption rows, tjp is :func:`rlasszero.estimators.tjp`, so the
harness holds no estimator code. Every replication owns its RNG
streams, which no calibration draw reuses, and they run through
:func:`rlasszero.core.run_tasks`, so results, warnings and failures do
not depend on the worker count.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .calibration import QutSpec
from .core import RngStream, check_count, check_real, run_tasks, \
    sample_design, standardize_columns, toeplitz_sigma
from .errors import InputError
from .estimators import RlzConfig, hard_threshold, tjp
from .missing import IncompleteMatrix, MissingnessSpec, fit_standardized, \
    generate_missingness, standardized_design


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _correct_sign_count(beta_hat: np.ndarray, beta0: np.ndarray) -> int:
    pos = int(np.sum((beta0 > 0) & (beta_hat > 0)))
    neg = int(np.sum((beta0 < 0) & (beta_hat < 0)))
    return pos + neg


def _check_lengths(beta_hat: np.ndarray, beta0: np.ndarray):
    """Both vectors as float arrays; InputError unless their shapes agree."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    if beta_hat.shape != beta0.shape:
        raise InputError("length mismatch")
    return beta_hat, beta0


def s_tpp(beta_hat: np.ndarray, beta0: np.ndarray) -> float:
    """Proportion of true nonzero coefficients whose sign is recovered."""
    beta_hat, beta0 = _check_lengths(beta_hat, beta0)
    support = int(np.count_nonzero(beta0))
    if support == 0:
        raise InputError("true coefficient vector is zero; the signed "
                         "true-positive proportion is undefined, report the "
                         "sign-recovery indicator instead")
    return _correct_sign_count(beta_hat, beta0) / support


def s_fdp(beta_hat: np.ndarray, beta0: np.ndarray) -> float:
    """Proportion of discoveries with an incorrect sign (0 when no discovery)."""
    beta_hat, beta0 = _check_lengths(beta_hat, beta0)
    discoveries = int(np.count_nonzero(beta_hat))
    return (discoveries - _correct_sign_count(beta_hat, beta0)) / max(1, discoveries)


def psr_indicator(beta_hat: np.ndarray, beta0: np.ndarray) -> int:
    """1 iff sign(beta_hat) equals sign(beta0) componentwise."""
    beta_hat, beta0 = _check_lengths(beta_hat, beta0)
    return int(np.array_equal(np.sign(beta_hat), np.sign(beta0)))


def oracle_s_threshold(beta_med: np.ndarray, s: int) -> float:
    """Threshold below which exactly s entries survive.

    Returns the (s+1)-th largest magnitude so that s entries strictly
    exceed it. Boundary ties are resolved by lowering the cut to the next
    distinct magnitude (support then exceeds s, with a warning); when
    fewer than s nonzero magnitudes exist the cut sits just under the
    smallest nonzero one. InputError unless s is an integer in [1, p].
    """
    beta_med = np.asarray(beta_med, dtype=float)
    p = beta_med.size
    check_count("s", s, 1)
    if s > p:
        raise InputError(f"s must be in [1, {p}], got {s}")
    mags = np.sort(np.abs(beta_med))[::-1]
    nonzero = int(np.count_nonzero(mags))
    if nonzero < s:
        warnings.warn(f"only {nonzero} nonzero magnitudes for target support "
                      f"size {s}; best-effort threshold")
        return 0.5 * mags[nonzero - 1] if nonzero else 0.0
    tau = mags[s] if s < p else 0.5 * mags[p - 1]
    if s < p and mags[s - 1] <= tau:
        # tie at the cut: lower tau so the tied block is kept
        smaller = mags[mags < mags[s - 1]]
        tau = float(smaller[0]) if smaller.size else 0.5 * mags[s - 1]
        warnings.warn("magnitude tie at the oracle cut; support size may "
                      "exceed the target")
    return float(tau)


# ---------------------------------------------------------------------------
# Simulation harness
# ---------------------------------------------------------------------------

_ESTIMATORS = ("rlass0", "lass0", "tjp")
_TUNINGS = ("oracle_s", "automatic")
_MECHANISMS = ("mcar", "mnar")


@dataclass
class SimulationSpec:
    n: int = 100
    p: int = 200
    rho: float = 0.0
    s: int = 3
    sigma_noise: float = 0.5
    beta_magnitude: float = 1.0   # coefficients are +-beta_magnitude
    mechanism: str = "mcar"
    a: float = 5.0                # logistic slope, used when mechanism=mnar
    pi: float = 0.2
    replications: int = 100
    estimators: tuple[str, ...] = ("rlass0", "lass0")
    tuning: str = "oracle_s"
    n_dictionaries: int = 20
    lam: float = 1.0
    alpha: float = 0.05
    master_seed: int = 0
    qut_mc: int = 500             # calibration draws under automatic tuning

    def __post_init__(self):
        # a column of one row is constant and cannot be standardized
        for name, minimum in (("n", 2), ("p", 1), ("s", 1),
                              ("replications", 1)):
            check_count(name, getattr(self, name), minimum)
        # named as in the spec, not as RlzConfig and QutSpec name them
        check_real("lam", self.lam, 0.0, low_open=True)
        check_count("qut_mc", self.qut_mc,
                    50 if self.tuning == "automatic" else 1)
        if self.s > self.p:
            raise InputError("need 1 <= s <= p")
        check_real("beta_magnitude", self.beta_magnitude, 0.0, low_open=True)
        check_real("sigma_noise", self.sigma_noise, 0.0)
        toeplitz_sigma(self.p, self.rho)  # rejects a rho outside [0, 1)
        if self.mechanism not in _MECHANISMS:
            raise InputError(f"mechanism must be one of {_MECHANISMS}")
        if self.tuning not in _TUNINGS:
            raise InputError(f"tuning must be one of {_TUNINGS}")
        if not isinstance(self.estimators, (list, tuple)):
            raise InputError(f"estimators must be a list of names, "
                             f"got {self.estimators!r}")
        self.estimators = tuple(self.estimators)
        unknown = [e for e in self.estimators if e not in _ESTIMATORS]
        if unknown:
            raise InputError(f"unknown estimators {unknown}")
        if not 0 < len(self.estimators) == len(set(self.estimators)):
            raise InputError(f"need one or more distinct estimators, "
                             f"got {self.estimators}")
        if self.tuning == "automatic" and "tjp" in self.estimators:
            raise InputError("automatic tuning is undefined for tjp "
                             "(no noise dictionaries to pivotize with)")
        # what every replication builds, so a bad setting (pi, a, lam, M,
        # the seed) fails here once instead of dropping each replication
        self.missingness()
        self.fit_config(0)
        self.qut_spec()

    def missingness(self) -> MissingnessSpec:
        a = 0.0 if self.mechanism == "mcar" else self.a
        return MissingnessSpec(a=a, pi=self.pi)

    def fit_config(self, r: int) -> RlzConfig:
        """Settings of the rlass0 and lass0 fits of replication r."""
        return RlzConfig(lam=self.lam,
                         tau="qut" if self.tuning == "automatic" else 0.0,
                         n_dictionaries=self.n_dictionaries,
                         master_seed=self.master_seed, rng_path=(r, 4))

    def qut_spec(self) -> Optional[QutSpec]:
        """The calibration of automatic tuning; None under oracle_s."""
        if self.tuning != "automatic":
            return None
        return QutSpec(alpha=self.alpha, n_mc=self.qut_mc, lam=self.lam,
                       n_dictionaries=self.n_dictionaries,
                       master_seed=self.master_seed)


@dataclass
class MetricsRecord:
    estimator: str
    psr: float
    psr_se: float
    s_tpr: float
    s_tpr_se: float
    s_fdr: float
    s_fdr_se: float
    replications: int


def _replication_metrics(spec: SimulationSpec, r: int) -> dict:
    """Metrics for replication r, a pure function of (spec, r)."""
    seed = spec.master_seed
    sigma = toeplitz_sigma(spec.p, spec.rho)
    x = sample_design(spec.n, sigma, RngStream(seed, (r, 0)))
    x = standardize_columns(x)

    gen_beta = RngStream(seed, (r, 2)).generator()
    beta0 = np.zeros(spec.p)
    support = gen_beta.choice(spec.p, spec.s, replace=False)
    beta0[support] = gen_beta.choice([-1.0, 1.0], spec.s) * spec.beta_magnitude

    eps = RngStream(seed, (r, 3)).generator().standard_normal(spec.n)
    y = x @ beta0 + spec.sigma_noise * eps

    inc = generate_missingness(x, spec.missingness(), RngStream(seed, (r, 1)))
    x_std, _ = standardized_design(inc)
    out: dict = {"replication": r}
    for name in spec.estimators:
        beta_hat = _run_estimator(name, spec, x_std, y, inc, r)
        out[name] = {
            "psr": psr_indicator(beta_hat, beta0),
            "s_tpp": s_tpp(beta_hat, beta0),
            "s_fdp": s_fdp(beta_hat, beta0),
        }
    return out


def _run_estimator(name: str, spec: SimulationSpec, x_std, y,
                   inc: IncompleteMatrix, r: int) -> np.ndarray:
    """Thresholded estimate of one estimator on ``x_std``, the
    :func:`standardized_design` of ``inc``; automatic tuning calibrates
    rlass0 and lass0 each on its own corruption rows."""
    if name == "tjp":
        # a threshold of 0 only turns -0.0 into 0.0; the oracle cut follows
        beta, _ = tjp(x_std, y, spec.lam, 0.0)
    else:
        fit = fit_standardized(x_std, y, spec.fit_config(r), spec.qut_spec(),
                               inc.incomplete_rows if name == "rlass0" else ())
        if spec.tuning == "automatic":
            return fit.beta_hat
        beta = fit.beta_med
    return hard_threshold(beta, oracle_s_threshold(beta, spec.s))


def run_experiment(spec: SimulationSpec, workers: int = 1):
    """Run all replications and aggregate; returns (records, raw_rows).

    ``raw_rows`` holds one dict per (replication, estimator) for optional
    per-replication output. A replication that raises InputError (say a
    column left fully missing or constant by the mask) or SolverFailure is
    dropped with a warning, and the per-estimator replication counts
    reflect that; if every replication fails, the first failure is raised.
    A ``workers`` that is not an integer >= 1 raises InputError.

    :func:`rlasszero.core.run_tasks` runs the replications on ``workers``
    processes, but on no more than one per usable core and per
    replication, each on one OpenBLAS thread and taking one replication
    at a time. Where that leaves one process, they run serially in this
    one, with no pool. It raises their warnings again once every
    replication has run, in order of the replications.
    """
    check_count("workers", workers, 1)
    reps = range(1, spec.replications + 1)
    results, first = [], None
    for r, result in zip(reps, run_tasks(partial(_replication_metrics, spec),
                                         reps, workers)):
        if isinstance(result, Exception):
            warnings.warn(f"replication {r} dropped: {result}")
            first = first or result
        else:
            results.append(result)
    if not results:
        raise type(first)(f"every replication failed; the first: {first}")

    records = []
    raw_rows = []
    for name in spec.estimators:
        psr = np.array([res[name]["psr"] for res in results], dtype=float)
        tpp = np.array([res[name]["s_tpp"] for res in results], dtype=float)
        fdp = np.array([res[name]["s_fdp"] for res in results], dtype=float)
        m = len(results)
        psr_rate = psr.mean()
        records.append(MetricsRecord(
            estimator=name,
            psr=float(psr_rate),
            psr_se=float(np.sqrt(psr_rate * (1 - psr_rate) / m)),
            s_tpr=float(tpp.mean()),
            s_tpr_se=float(tpp.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0,
            s_fdr=float(fdp.mean()),
            s_fdr_se=float(fdp.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0,
            replications=m,
        ))
        for res in results:
            raw_rows.append({"replication": res["replication"],
                             "estimator": name, **res[name]})
    return records, raw_rows


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    """Aggregate metrics as CSV text.

    The records hold no timings, so identical (spec, seed) runs produce
    byte-identical output.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["estimator", "psr", "psr_se", "s_tpr", "s_tpr_se",
                     "s_fdr", "s_fdr_se", "replications"])
    for rec in records:
        writer.writerow([rec.estimator, _fmt(rec.psr), _fmt(rec.psr_se),
                         _fmt(rec.s_tpr), _fmt(rec.s_tpr_se),
                         _fmt(rec.s_fdr), _fmt(rec.s_fdr_se),
                         rec.replications])
    return buf.getvalue()


def raw_to_csv(raw_rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replication", "estimator", "psr", "s_tpp", "s_fdp"])
    for row in raw_rows:
        writer.writerow([row["replication"], row["estimator"],
                         row["psr"], _fmt(row["s_tpp"]), _fmt(row["s_fdp"])])
    return buf.getvalue()
