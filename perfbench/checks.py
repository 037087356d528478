"""Output checks for the benchmark workloads.

Each check compares an output with HiGHS (scipy's solver, independent of
the package's own simplex), with a recomputation from the program's own
raw outputs, or with a property of the method. The checks return the
problems they find; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

LP_REL_TOL = 1e-8       # solve_lp objective vs HiGHS, relative
MARGIN_TOL = 1e-7       # certificate margin vs 1 - HiGHS optimum, absolute
DEAD_BAND = 1e-9        # verdicts inside this band are not judged
SAME_REL = 1e-12        # quantities recomputed from the same raw numbers


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# fit_qut
# ---------------------------------------------------------------------------

def check_fit(fit, qut, incomplete_rows, beta0, n_dictionaries: int,
              n_mc: int, alpha: float) -> list[str]:
    """A calibrated fit against its own raw outputs and the planted signal."""
    problems = []
    statuses = list(fit.per_dictionary_status)
    if len(statuses) != n_dictionaries or any(s != "optimal" for s in statuses):
        problems.append(f"dictionary statuses {statuses}")
    stats = np.asarray(qut.mc_statistics)
    if stats.size != n_mc:
        problems.append(f"{stats.size} of {n_mc} calibration draws kept")
    elif not _close(float(np.quantile(stats, 1.0 - alpha)),
                    qut.pivot_quantile, SAME_REL):
        problems.append("pivot_quantile is not the MC quantile of its draws")
    pooled = np.abs(np.concatenate([np.ravel(g) for g in fit.gamma_all]))
    nonzero = pooled[pooled > 0.0]
    if nonzero.size == 0:
        problems.append("no nonzero dictionary coefficients")
    elif not _close(fit.tau_used, qut.pivot_quantile * float(np.median(nonzero)),
                    SAME_REL):
        problems.append("tau_used is not pivot_quantile x pooled |gamma| median")
    beta_med = np.asarray(fit.beta_med)
    expected = np.where(np.abs(beta_med) > fit.tau_used, beta_med, 0.0)
    if not np.array_equal(np.asarray(fit.beta_hat), expected):
        problems.append("beta_hat is not beta_med hard-thresholded at tau_used")
    if not np.array_equal(np.asarray(fit.corruption_cols), incomplete_rows):
        problems.append("corruption block is not the incomplete rows")
    # recovery is judged on beta_med: the QUT threshold grows with the
    # signal and can zero a planted coefficient on some designs
    support = np.flatnonzero(beta0)
    largest = np.argsort(-np.abs(beta_med), kind="stable")[:support.size]
    if set(largest) != set(support) or \
            not np.array_equal(np.sign(beta_med[support]), np.sign(beta0[support])):
        problems.append("planted coefficients are not the largest |beta_med| "
                        "with their signs")
    return problems


def highs_objective(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Optimum of min c'x s.t. a x = b, x >= 0 by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def check_lp_objective(program_objective: float, reference: float,
                       status: str) -> list[str]:
    if status != "optimal":
        return [f"solve_lp status {status}"]
    if not _close(program_objective, reference, LP_REL_TOL):
        return [f"solve_lp objective {program_objective!r} vs HiGHS {reference!r}"]
    return []


# ---------------------------------------------------------------------------
# simulate_1w
# ---------------------------------------------------------------------------

def check_simulation(estimators, replications: int, metrics_csv: str,
                     raw_rows: list[dict]) -> dict[int, list[str]]:
    """Problems per replication of one run_experiment call.

    A problem with the aggregate CSV is charged to every replication.
    """
    problems: dict[int, list[str]] = {r: [] for r in range(1, replications + 1)}
    by_key = {}
    for row in raw_rows:
        key = (row["replication"], row["estimator"])
        if key in by_key or row["replication"] not in problems:
            for r in problems:
                problems[r].append(f"unexpected raw row {key}")
            continue
        by_key[key] = row
    for r in problems:
        for name in estimators:
            row = by_key.get((r, name))
            if row is None:
                problems[r].append(f"no raw row for {name}")
                continue
            if not math.isclose(row["s_fdp"], 1.0 - row["s_tpp"], abs_tol=1e-12):
                problems[r].append(f"{name}: s_fdp != 1 - s_tpp")
            if (row["psr"] == 1) != (row["s_tpp"] == 1.0):
                problems[r].append(f"{name}: psr disagrees with s_tpp")

    aggregate = {rec["estimator"]: rec
                 for rec in csv.DictReader(io.StringIO(metrics_csv))}
    for name in estimators:
        rows = [by_key[(r, name)] for r in problems if (r, name) in by_key]
        rec = aggregate.get(name)
        if rec is None or int(rec["replications"]) != replications \
                or len(rows) != replications:
            bad = f"{name}: aggregate row missing or wrong count"
        else:
            psr = np.array([row["psr"] for row in rows], dtype=float)
            tpp = np.array([row["s_tpp"] for row in rows], dtype=float)
            fdp = np.array([row["s_fdp"] for row in rows], dtype=float)
            m = len(rows)
            expect = {
                "psr": psr.mean(),
                "psr_se": math.sqrt(psr.mean() * (1 - psr.mean()) / m),
                "s_tpr": tpp.mean(),
                "s_tpr_se": tpp.std(ddof=1) / math.sqrt(m) if m > 1 else 0.0,
                "s_fdr": fdp.mean(),
                "s_fdr_se": fdp.std(ddof=1) / math.sqrt(m) if m > 1 else 0.0,
            }
            wrong = [k for k, v in expect.items()
                     if not math.isclose(float(rec[k]), v, rel_tol=1e-9,
                                         abs_tol=1e-12)]
            bad = f"{name}: aggregate {wrong} differ from raw means" if wrong else ""
        if bad:
            for r in problems:
                problems[r].append(bad)
    return problems


def check_rerun(rows: list[dict], rows_again: list[dict]) -> list[int]:
    """Replications whose rows from another call differ from ``rows``."""
    first = {(row["replication"], row["estimator"]): row for row in rows}
    return sorted({row["replication"] for row in rows_again
                   if first.get((row["replication"], row["estimator"])) != row})


# ---------------------------------------------------------------------------
# certify_cli
# ---------------------------------------------------------------------------

def highs_certificate_value(x: np.ndarray, theta: np.ndarray,
                            theta_tilde: np.ndarray, lam: float) -> float:
    """max h'nu s.t. [X, sqrt(n)/lam I] nu = 0, sum_{off support} |nu_j| <= 1.

    Formulated here from the null-space certificate, with nu = u - v and
    an inequality for the budget, and solved by HiGHS.
    """
    from scipy.optimize import linprog

    n, p = x.shape
    a_null = np.hstack([x, (math.sqrt(n) / lam) * np.eye(n)])
    h = np.concatenate([theta, theta_tilde]).astype(float)
    off = (h == 0.0).astype(float)
    res = linprog(np.concatenate([-h, h]),
                  A_ub=np.concatenate([off, off])[None, :], b_ub=[1.0],
                  A_eq=np.hstack([a_null, -a_null]), b_eq=np.zeros(n),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -float(res.fun)


def check_certificate(exit_code: int, payload: dict | None,
                      highs_value: float) -> list[str]:
    if exit_code != 0 or payload is None:
        return [f"rlz identify exited with {exit_code}"]
    problems = []
    margin = 1.0 - highs_value
    if not abs(payload["margin"] - margin) <= MARGIN_TOL:
        problems.append(f"margin {payload['margin']!r} vs HiGHS {margin!r}")
    if abs(margin) > DEAD_BAND and payload["identifiable"] != (margin > 0):
        problems.append(f"verdict {payload['identifiable']} vs margin {margin!r}")
    return problems


def check_both_verdicts(verdicts) -> list[str]:
    seen = set(verdicts)
    return [] if seen == {True, False} else [f"only verdicts {sorted(seen)}"]
