"""The benchmark's three workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up the benchmark times), runs one round of operations per call of
``run_round`` and checks the outputs of all rounds in ``check``, after
the timed phase. Calls into the package go through module attributes, so
the tracer's patches apply to them.
"""

from __future__ import annotations

import json
import os

import numpy as np

import rlasszero.calibration as calibration
import rlasszero.cli as cli
import rlasszero.experiments as experiments
import rlasszero.lp as lp
import rlasszero.missing as missing
from rlasszero.calibration import QutSpec
from rlasszero.core import RngStream
from rlasszero.estimators import RlzConfig

import checks


class FitQut:
    """Calibrated fits: ``rlz_with_missing(tau="qut")`` on an incomplete
    Toeplitz design; one operation masks the design with MNAR missingness
    and fits. The datasets cycle, one per operation."""

    name = "fit_qut"
    ops_per_round = 1
    N, P, RHO, S, BETA, SIGMA = 50, 100, 0.5, 3, 3.0, 0.5
    PI, SLOPE = 0.007, 5.0      # leaves about 22 of 50 rows incomplete
    M, N_MC, ALPHA, LAM = 10, 50, 0.05, 1.0
    DATASETS = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        idx = np.arange(self.P)
        chol = np.linalg.cholesky(self.RHO ** np.abs(idx[:, None] - idx[None, :]))
        self.datasets = []
        for d in range(self.DATASETS):
            rng = np.random.default_rng([seed, d])
            x = rng.standard_normal((self.N, self.P)) @ chol.T
            beta0 = np.zeros(self.P)
            support = rng.choice(self.P, self.S, replace=False)
            beta0[support] = rng.choice([-1.0, 1.0], self.S) * self.BETA
            y = x @ beta0 + self.SIGMA * rng.standard_normal(self.N)
            self.datasets.append((x, y, beta0))
        self.mechanism = missing.MissingnessSpec.mnar(pi=self.PI, a=self.SLOPE)
        self.cfg = RlzConfig(lam=self.LAM, tau="qut", n_dictionaries=self.M,
                             master_seed=seed)
        self.qut_spec = QutSpec(alpha=self.ALPHA, n_mc=self.N_MC, lam=self.LAM,
                                n_dictionaries=self.M, master_seed=seed)
        self._qut_results: list = []

        def keep_calibration(*args, **kwargs):
            # resolved at call time, so a traced qut_threshold is used
            result = calibration.qut_threshold(*args, **kwargs)
            self._qut_results.append(result)
            return result

        # rlz_with_missing does not return its QutResult; keep a copy of it
        missing.qut_threshold = keep_calibration

    def run_round(self, r: int, tracer=None):
        d = r % self.DATASETS
        x, y, _ = self.datasets[d]
        inc = missing.generate_missingness(x, self.mechanism,
                                           RngStream(self.seed, (d,)))
        fit = missing.rlz_with_missing(y, inc, self.cfg, qut_spec=self.qut_spec)
        return [(d, inc, fit, self._qut_results.pop())]

    def _standardized(self, inc) -> np.ndarray:
        x = np.where(inc.mask, np.nanmean(inc.values, axis=0), inc.values)
        x = x - x.mean(axis=0)
        return x / (np.linalg.norm(x, axis=0) / np.sqrt(x.shape[0]))

    def _lp_problems(self, d: int, inc) -> list[str]:
        """solve_lp against HiGHS on two dictionary programs of the fit."""
        x_std = self._standardized(inc)
        y = self.datasets[d][1]
        n, p = x_std.shape
        rows = inc.incomplete_rows
        block = np.zeros((n, rows.size))
        block[rows, np.arange(rows.size)] = np.sqrt(n)
        problems = []
        for k in (1, 2):
            g = RngStream(self.seed, (k,)).generator().standard_normal((n, n))
            a_signed = np.hstack([x_std, block, g])
            costs = np.concatenate([np.ones(p), np.full(rows.size, self.LAM),
                                    np.ones(n)])
            a = np.hstack([a_signed, -a_signed])
            c = np.concatenate([costs, costs])
            _, objective, status = lp.solve_lp(lp.LpProblem(a=a, b=y, c=c))
            problems += checks.check_lp_objective(
                objective, checks.highs_objective(a, y, c), status)
        return problems

    def check(self, outputs) -> tuple[int, list[str], list[str]]:
        lp_problems: dict[int, list[str]] = {}
        failed, notes = 0, []
        for d, inc, fit, qut in outputs:
            if d not in lp_problems:
                lp_problems[d] = self._lp_problems(d, inc)
            problems = checks.check_fit(
                fit, qut, inc.incomplete_rows, self.datasets[d][2], self.M,
                self.N_MC, self.ALPHA) + lp_problems[d]
            if problems:
                failed += 1
                notes.append(f"dataset {d}: {problems}")
        return failed, notes, []


class Simulate1w:
    """``run_experiment`` on the fig1 setting; one round is one call with
    four replications, one operation one replication.

    The timed rounds run at one worker. At two workers the OpenBLAS
    threads of both workers contend for the cores, and identical calls
    take either about 2 or about 6 s per replication, switching between
    the two at random: too unsteady for a bound. The traced run times the
    pool on the same spec (experiments.speedup_2w)."""

    name = "simulate_1w"
    REPLICATIONS = 4
    ops_per_round = REPLICATIONS
    FIG1 = dict(n=100, p=200, rho=0.75, s=3, sigma_noise=0.5,
                mechanism="mnar", a=5.0, pi=0.2,
                estimators=("rlass0", "lass0"), tuning="oracle_s",
                n_dictionaries=10, lam=1.0)

    def __init__(self, seed: int, workdir: str, workers: int = 1):
        self.seed = seed
        self.workers = workers

    def with_pool(self) -> "Simulate1w":
        """The same rounds run on a pool of two workers."""
        return Simulate1w(self.seed, "", workers=2)

    def spec(self, r: int, replications: int | None = None):
        return experiments.SimulationSpec(
            **self.FIG1, replications=replications or self.REPLICATIONS,
            master_seed=1000 * self.seed + r)

    def run_round(self, r: int, tracer=None):
        records, raw = experiments.run_experiment(self.spec(r),
                                                  workers=self.workers)
        return [(r, experiments.metrics_to_csv(records), raw)]

    def check(self, outputs) -> tuple[int, list[str], list[str]]:
        failed, notes = 0, []
        for r, metrics_csv, raw in outputs:
            spec = self.spec(r)
            problems = checks.check_simulation(spec.estimators,
                                               spec.replications,
                                               metrics_csv, raw)
            if r == 0:  # replication 1 of the first round, run on its own
                _, rerun = experiments.run_experiment(self.spec(r, 1), workers=1)
                if checks.check_rerun(raw, rerun):
                    problems[1].append("differs when run on its own")
            for rep, found in problems.items():
                if found:
                    failed += 1
                    notes.append(f"round {r} replication {rep}: {found}")
        return failed, notes, []


class CertifyCli:
    """``rlz identify`` through ``rlasszero.cli.main`` on design CSVs and
    sign patterns of mixed support sizes; one operation is one
    certificate, one round every pattern of every design once. Several
    designs per round make a run's figure less dependent on one design."""

    name = "certify_cli"
    N, P, LAM, DESIGNS = 50, 100, 1.0, 4
    # (|support of theta|, |support of theta_tilde|): small supports are
    # identifiable, large ones are not
    SIZES = ((1, 0), (2, 1), (3, 2), (4, 4), (10, 10), (14, 14), (20, 15),
             (25, 20))
    ops_per_round = DESIGNS * len(SIZES)

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.patterns, self.argv, self.out = [], [], []
        for d in range(self.DESIGNS):
            rng = np.random.default_rng([seed, 101, d])
            x = rng.standard_normal((self.N, self.P))
            x_path = os.path.join(workdir, f"X_{d}.csv")
            with open(x_path, "w", encoding="utf-8") as fh:
                fh.write(",".join(f"x{j}" for j in range(self.P)) + "\n")
                for row in x:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
            for s, t in self.SIZES:
                i = len(self.patterns)
                theta = np.zeros(self.P)
                theta[rng.choice(self.P, s, replace=False)] = rng.choice([-1, 1], s)
                theta_tilde = np.zeros(self.N)
                theta_tilde[rng.choice(self.N, t, replace=False)] = \
                    rng.choice([-1, 1], t)
                paths = []
                for label, v in (("theta", theta), ("theta_tilde", theta_tilde)):
                    path = os.path.join(workdir, f"{label}_{i}.csv")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(label + "\n"
                                 + "\n".join(str(int(e)) for e in v) + "\n")
                    paths.append(path)
                out = os.path.join(workdir, f"verdict_{i}.json")
                self.patterns.append((x, theta, theta_tilde))
                self.out.append(out)
                self.argv.append(["identify", "--x", x_path, "--theta",
                                  paths[0], "--theta-tilde", paths[1],
                                  "--lambda", str(self.LAM), "--out", out])

    def run_round(self, r: int, tracer=None):
        outputs = []
        for i, argv in enumerate(self.argv):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.main", "cli"):
                    code = cli.main(argv)
            text = None
            if code == 0:
                with open(self.out[i], encoding="utf-8") as fh:
                    text = fh.read()
            outputs.append((i, code, text))
        return outputs

    def check(self, outputs) -> tuple[int, list[str], list[str]]:
        values = [checks.highs_certificate_value(x, th, tt, self.LAM)
                  for x, th, tt in self.patterns]
        failed, notes, verdicts = 0, [], []
        for i, code, text in outputs:
            payload = json.loads(text) if text is not None else None
            problems = checks.check_certificate(code, payload, values[i])
            if problems:
                failed += 1
                notes.append(f"pattern {i}: {problems}")
            else:
                verdicts.append(payload["identifiable"])
        return failed, notes, checks.check_both_verdicts(verdicts)


WORKLOADS = {w.name: w for w in (FitQut, Simulate1w, CertifyCli)}
