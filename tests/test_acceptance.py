"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib

import numpy as np
import pytest

from rlasszero.analysis import check_identifiability
from rlasszero.calibration import QutSpec, qut_threshold
from rlasszero.core import RngStream, standardize_columns, toeplitz_sigma
from rlasszero.estimators import RlzConfig, hard_threshold, robust_lasso_zero
from rlasszero.experiments import (
    SimulationSpec,
    metrics_to_csv,
    oracle_s_threshold,
    psr_indicator,
    raw_to_csv,
    run_experiment,
    s_fdp,
    s_tpp,
)
from rlasszero.lp import (
    OPTIMAL,
    formulate_jp,
    solve_jp,
    solve_lp,
)
from rlasszero.missing import MissingnessSpec, generate_missingness

from test_pinned_outputs import stack_note
from vertex_oracle import certify_unique_jp, enumerate_vertex_optima, recompose


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_lp_oracle_equivalence():
    """Simplex matches vertex enumeration on 200 seeded tiny instances."""
    mismatches = 0
    worst = 0.0
    for seed in range(200):
        gen = RngStream(seed, (1001,)).generator()
        if seed % 2 == 0:
            n = int(gen.integers(2, 7))
            p = int(gen.integers(2, 9))
        else:
            # augmented problems double the variable count; keep the
            # enumeration oracle tractable
            n = int(gen.integers(2, 5))
            p = int(gen.integers(2, 7))
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        lam = float(gen.uniform(0.3, 3.0))
        if seed % 2 == 0:
            prob = formulate_jp(x, y, lam)
        else:
            prob = formulate_jp(x, y, lam, g=gen.standard_normal((n, n)))
        v, obj, status = solve_lp(prob)
        assert status == OPTIMAL
        # feasibility and split complementarity
        assert np.abs(prob.a @ v - prob.b).max() < 1e-8
        k = prob.a.shape[1] // 2
        assert all(min(v[i], v[k + i]) <= 1e-9 for i in range(k))
        optima = enumerate_vertex_optima(prob)
        best = min(float(prob.c @ np.concatenate(
            [np.maximum(recompose(prob, w), 0.0),
             np.maximum(-recompose(prob, w), 0.0)])) for w in optima)
        gap = abs(obj - best)
        worst = max(worst, gap)
        mismatches += gap > 1e-8
    _report(1, mismatches == 0,
            f"200/200 instances matched the enumeration oracle "
            f"(worst gap {worst:.2e})")


def test_criterion_2_noiseless_exact_recovery():
    """Noiseless corrupted instances recovered exactly in >= 90% of trials."""
    n, p, s, k = 80, 40, 3, 5
    hits = 0
    for trial in range(100):
        gen = RngStream(trial, (1002,)).generator()
        x = standardize_columns(gen.standard_normal((n, p)))
        beta0 = np.zeros(p)
        beta0[gen.choice(p, s, replace=False)] = gen.choice([-1.0, 1.0], s)
        omega0 = np.zeros(n)
        omega0[gen.choice(n, k, replace=False)] = gen.choice([-1.0, 1.0], k)
        y = x @ beta0 + np.sqrt(n) * omega0
        sol = solve_jp(x, y, 1.0)
        err = max(np.abs(sol.beta - beta0).max(),
                  np.abs(sol.omega - omega0).max())
        hits += sol.status == OPTIMAL and err <= 1e-6
    _report(2, hits >= 90,
            f"{hits}/100 noiseless instances recovered within 1e-6 max-norm")


def _desk_design():
    gen = RngStream(0, (1003,)).generator()
    n, p = 8, 12
    return standardize_columns(gen.standard_normal((n, p)))


def _sweep_recovers(x, beta0, omega0, lam, sigma, noise_seed):
    n = x.shape[0]
    eps = RngStream(noise_seed, (1033,)).generator().standard_normal(n)
    y = x @ beta0 + np.sqrt(n) * omega0 + sigma * eps
    sol = solve_jp(x, y, lam)
    if sol.status != OPTIMAL:
        return False
    mags = np.unique(np.abs(np.concatenate([sol.beta, sol.omega, [0.0]])))
    for tau in mags:
        bh = hard_threshold(sol.beta, tau)
        oh = hard_threshold(sol.omega, tau)
        if (np.array_equal(np.sign(bh), np.sign(beta0))
                and np.array_equal(np.sign(oh), np.sign(omega0))):
            return True
    return False


def test_criterion_3_theorem_1_desk_check():
    """Tau-sweep recovery on an identifiable pattern; no recovery on the
    duplicated-column non-identifiable construction at any scale."""
    x = _desk_design()
    n, p = x.shape
    beta0 = np.zeros(p)
    beta0[[2, 7]] = [1.0, -1.0]
    omega0 = np.zeros(n)
    omega0[4] = 1.0
    verdict = check_identifiability(x, np.sign(beta0), np.sign(omega0))
    assert verdict.identifiable, "desk design must certify identifiable"
    recovered = _sweep_recovers(x, 1000.0 * beta0, 1000.0 * omega0,
                                lam=1.0, sigma=0.1, noise_seed=5)

    # duplicated columns, signal on the higher-index twin: the simplex
    # tie-break always routes mass to the lower index, so no threshold
    # can recover the sign pattern
    x_bad = x.copy()
    x_bad[:, 11] = x_bad[:, 2]
    beta_bad = np.zeros(p)
    beta_bad[11] = 1.0
    v_bad = check_identifiability(x_bad, np.sign(beta_bad), np.zeros(n))
    assert not v_bad.identifiable
    never = True
    for r in (1.0, 10.0, 100.0, 1000.0):
        if _sweep_recovers(x_bad, r * beta_bad, np.zeros(n),
                           lam=1.0, sigma=0.1, noise_seed=6):
            never = False
    _report(3, recovered and never,
            "identifiable pattern recovered at r=1e3; non-identifiable "
            "twin-column pattern unrecoverable at r in {1,10,100,1000}")


def test_criterion_4_identifiability_oracle_cross_agreement():
    """LP verdict equals the JP-uniqueness enumeration verdict, 100 instances."""
    agreements = 0
    total = 0
    for seed in range(100):
        gen = RngStream(seed, (1004,)).generator()
        n = int(gen.integers(3, 6))
        p = int(gen.integers(3, 9))
        x = gen.standard_normal((n, p))
        lam = float(gen.uniform(0.5, 2.0))
        beta0 = np.zeros(p)
        beta0[gen.choice(p, 2, replace=False)] = gen.choice([-1.0, 1.0], 2)
        omega0 = np.zeros(n)
        omega0[int(gen.integers(0, n))] = float(gen.choice([-1.0, 1.0]))
        verdict = check_identifiability(x, np.sign(beta0), np.sign(omega0),
                                        lam=lam)
        if verdict.inconclusive:
            continue  # boundary of the decision region, neither oracle certifies
        y = x @ beta0 + np.sqrt(n) * omega0
        unique, optima = certify_unique_jp(x, y, lam)
        oracle = bool(unique
                      and np.allclose(optima[0][:p], beta0, atol=1e-8)
                      and np.allclose(optima[0][p:], omega0, atol=1e-8))
        total += 1
        agreements += verdict.identifiable == oracle
    _report(4, agreements == total and total >= 95,
            f"{agreements}/{total} conclusive instances agree with the "
            "vertex-enumeration uniqueness oracle")


def test_criterion_5_qut_null_calibration():
    """Under the null, any-discovery rate across 500 datasets is ~ alpha."""
    n, p, m, alpha = 50, 100, 10, 0.05
    x = standardize_columns(
        RngStream(77, (1005,)).generator().standard_normal((n, p)))
    spec = QutSpec(alpha=alpha, n_mc=500, lam=1.0, n_dictionaries=m,
                   master_seed=404)
    qut = qut_threshold(x, spec)
    sigma = 0.7  # calibration is noise-scale-free; test away from sigma=1
    rejections = 0
    trials = 500
    for t in range(trials):
        eps = sigma * RngStream(9000 + t, (1,)).generator().standard_normal(n)
        cfg = RlzConfig(lam=1.0, tau="qut", n_dictionaries=m,
                        master_seed=20000 + t)
        fit = robust_lasso_zero(x, eps, cfg, qut=qut)
        rejections += int(np.any(fit.beta_hat != 0.0))
    rate = rejections / trials
    band = 3 * np.sqrt(alpha * (1 - alpha) / trials)
    lo, hi = alpha - band, alpha + band
    _report(5, lo <= rate <= hi,
            f"false-discovery rate {rate:.3f} within [{lo:.3f}, {hi:.3f}] "
            f"at alpha={alpha}")


def test_criterion_6_missingness_generator():
    """Empirical NA rates hit pi within 0.01; MNAR prefers large values."""
    gen = RngStream(6, (1006,)).generator()
    x = gen.standard_normal((1000, 100))
    ok = True
    details = []
    for a in (0.0, 5.0):
        inc = generate_missingness(x, MissingnessSpec(a=a, pi=0.2),
                                   RngStream(60 + int(a), (2,)))
        rate = float(inc.mask.mean())
        ok &= abs(rate - 0.2) < 0.01
        details.append(f"a={a:g}: rate {rate:.4f}")
        if a == 5.0:
            big = inc.mask[np.abs(x) > 1].mean()
            small = inc.mask[np.abs(x) < 1].mean()
            ok &= big > small
            details.append(f"P(NA | |x|>1)={big:.3f} > "
                           f"P(NA | |x|<1)={small:.3f}")
    _report(6, ok, "; ".join(details))


FIG1_SPEC = SimulationSpec(n=100, p=200, rho=0.75, s=3, sigma_noise=0.5,
                           mechanism="mnar", a=5.0, pi=0.2, replications=50,
                           estimators=("rlass0", "lass0"), tuning="oracle_s",
                           n_dictionaries=10, lam=1.0, master_seed=31)

_fig1_cache = {}


def _fig1_run(workers):
    if workers not in _fig1_cache:
        _fig1_cache[workers] = run_experiment(FIG1_SPEC, workers=workers)
    return _fig1_cache[workers]


def test_criterion_7_figure_ordering():
    """Corruption-aware estimator dominates the baseline in PSR and s-TPR."""
    records, _ = _fig1_run(workers=2)
    by_name = {r.estimator: r for r in records}
    rl, l0 = by_name["rlass0"], by_name["lass0"]
    ok = rl.psr >= l0.psr and rl.s_tpr >= l0.s_tpr
    _report(7, ok,
            f"PSR {rl.psr:.2f} vs {l0.psr:.2f}; "
            f"s-TPR {rl.s_tpr:.3f} vs {l0.s_tpr:.3f} over 50 replications")


def test_criterion_8_well_conditioned_regime():
    """Strong-signal identity-covariance regime: oracle-threshold single-solve
    estimator recovers signs in >= 90% of replications."""
    n, p, s, k = 100, 200, 3, 5
    lam = 1.0 / np.sqrt(np.log(p))
    sigma = 0.5
    hits = 0
    reps = 50
    for r in range(reps):
        gen = RngStream(r, (1008,)).generator()
        x = standardize_columns(gen.standard_normal((n, p)))
        beta0 = np.zeros(p)
        beta0[gen.choice(p, s, replace=False)] = (
            gen.choice([-1.0, 1.0], s) * 1e4 * sigma)
        omega0 = np.zeros(n)
        omega0[gen.choice(n, k, replace=False)] = gen.choice([-1.0, 1.0], k)
        y = x @ beta0 + np.sqrt(n) * omega0 + sigma * gen.standard_normal(n)
        sol = solve_jp(x, y, lam)
        if sol.status != OPTIMAL:
            continue
        tau = oracle_s_threshold(sol.beta, s)
        beta_hat = hard_threshold(sol.beta, tau)
        hits += int(np.array_equal(np.sign(beta_hat), np.sign(beta0)))
    _report(8, hits >= 0.9 * reps, f"{hits}/{reps} sign recoveries")


def test_criterion_9_metric_identities():
    """Oracle-support tuning forces s_fdp = 1 - s_tpp without ties; empty
    estimate gives zeros."""
    ok = True
    for seed in range(200):
        gen = RngStream(seed, (1009,)).generator()
        p, s = 12, 3
        beta0 = np.zeros(p)
        beta0[gen.choice(p, s, replace=False)] = gen.choice([-1.0, 1.0], s)
        beta_med = gen.standard_normal(p)  # continuous: no ties a.s.
        tau = oracle_s_threshold(beta_med, s)
        beta_hat = hard_threshold(beta_med, tau)
        assert np.count_nonzero(beta_hat) == s
        ok &= s_fdp(beta_hat, beta0) == pytest.approx(
            1.0 - s_tpp(beta_hat, beta0), abs=1e-15)
    zero = np.zeros(5)
    truth = np.zeros(5)
    truth[0] = 1.0
    ok &= s_fdp(zero, truth) == 0.0 and s_tpp(zero, truth) == 0.0
    ok &= psr_indicator(zero, zero) == 1
    _report(9, ok, "s_fdp = 1 - s_tpp on 200 tie-free oracle-tuned draws; "
                   "empty estimate gives (0, 0)")


def test_criterion_10_determinism_across_workers():
    """Same spec and seed produce byte-identical CSV for any worker count."""
    r1, _ = _fig1_run(workers=2)
    r2, _ = _fig1_run(workers=1)
    csv1, csv2 = metrics_to_csv(r1), metrics_to_csv(r2)
    _report(10, csv1.encode() == csv2.encode(),
            "metrics CSV byte-identical for 1 and 2 workers")


@pytest.mark.parametrize("workers", [1, 2])
def test_fig1_outputs_pinned(workers):
    """The fig1 run of criteria 7 and 10 gives the pinned metrics and raw
    CSVs, byte for byte: a change of any pivot or RNG stream shows here."""
    records, raw_rows = _fig1_run(workers)
    for text, sha256 in (
            (metrics_to_csv(records), "106f2b77fd73fb842061d7a5fb4f495f"
                                      "cdcf9f992689c7ede1307c76428e68fa"),
            (raw_to_csv(raw_rows), "df0028fd36288940210c8a95be31ed56"
                                   "691a154632b8b8e9ec1f84ea6f3ccd9c")):
        assert hashlib.sha256(text.encode()).hexdigest() == sha256, \
            stack_note()
