"""Self-test of the benchmark's checks: each must pass a real output and
reject a deliberately wrong one, so that no check passes vacuously.

Run from the root of a source checkout (takes about ten seconds):

    python3 perfbench/selftest.py

The workloads run at reduced sizes; the checks are the ones the benchmark
uses. Exits with code 1 if a clean output is rejected or a wrong one passes.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np

from run import WORK, _import_package

_import_package()

import checks  # noqa: E402
from workloads import CertifyCli, FitQut, Simulate1w  # noqa: E402


class SmallFit(FitQut):
    N, P, PI, DATASETS = 30, 40, 0.02, 1


class SmallSimulation(Simulate1w):
    REPLICATIONS = 2
    ops_per_round = REPLICATIONS
    FIG1 = dict(Simulate1w.FIG1, n=30, p=40, n_dictionaries=2)


class SmallCertify(CertifyCli):
    N, P, DESIGNS = 20, 30, 1
    SIZES = ((1, 0), (2, 2), (10, 8))
    ops_per_round = len(SIZES)


def _mutate(outputs, change):
    wrong = copy.deepcopy(outputs)
    change(wrong)
    return wrong


def _fit_mutations(beta0):
    def flip_planted(o):
        fit = o[0][2]
        j = np.flatnonzero(beta0)[0]
        fit.beta_med[j] *= -1.0
        fit.beta_hat[j] *= -1.0

    def perturb_beta_hat(o):
        o[0][2].beta_hat[np.argmax(np.abs(o[0][2].beta_hat))] *= 1.001

    def set_status(o):
        o[0][2].per_dictionary_status[0] = "tolerance_failure"

    def drop_draw(o):
        o[0][3].mc_statistics = o[0][3].mc_statistics[1:]

    def scale_quantile(o):
        o[0][3].pivot_quantile *= 1.0 + 1e-9

    def scale_tau(o):
        o[0][2].tau_used *= 1.0 + 1e-9

    def drop_corruption_row(o):
        o[0][2].corruption_cols = o[0][2].corruption_cols[1:]

    return {"perturbed beta_hat": perturb_beta_hat,
            "non-optimal dictionary": set_status,
            "dropped calibration draw": drop_draw,
            "pivot_quantile off its draws": scale_quantile,
            "tau_used off the pivot": scale_tau,
            "planted sign flipped": flip_planted,
            "corruption row dropped": drop_corruption_row}


def _simulation_mutations():
    def drop_row(o):
        del o[0][2][0]

    def fdp(o):
        o[0][2][1]["s_fdp"] += 0.25

    def psr(o):
        o[0][2][0]["psr"] = 1 - o[0][2][0]["psr"]

    def aggregate(o):
        r, text, raw = o[0]
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 0.5)
        lines[1] = ",".join(cells)
        o[0] = (r, "\n".join(lines) + "\n", raw)

    def duplicate(o):
        o[0][2].append(dict(o[0][2][0]))

    return {"dropped replication row": drop_row,
            "s_fdp not 1 - s_tpp": fdp,
            "psr flipped": psr,
            "aggregate CSV off the raw means": aggregate,
            "duplicated raw row": duplicate}


def _certify_mutations():
    def edit(i, key, value):
        def change(o):
            idx, code, text = o[i]
            payload = json.loads(text)
            payload[key] = value(payload[key])
            o[i] = (idx, code, json.dumps(payload))
        return change

    def exit_code(o):
        o[0] = (o[0][0], 2, None)

    return {"flipped verdict": edit(0, "identifiable", lambda v: not v),
            "margin off HiGHS": edit(1, "margin", lambda v: v + 1e-6),
            "nonzero exit code": exit_code}


def main() -> int:
    bad = []

    def expect(label, workload, outputs, clean):
        failed, notes, run_problems = workload.check(outputs)
        rejected = failed > 0 or bool(run_problems)
        ok = rejected != clean
        print(f"{'ok ' if ok else 'BAD'} {workload.name}: {label}: "
              f"{'rejected' if rejected else 'passed'}")
        if not ok:
            bad.append(label)

    workdir = os.path.join(WORK, "selftest")
    fit = SmallFit(0, workdir)
    outputs = fit.run_round(0)
    expect("clean output", fit, outputs, clean=True)
    for label, change in _fit_mutations(fit.datasets[0][2]).items():
        expect(label, fit, _mutate(outputs, change), clean=False)
    objective = 2.0
    for label, problems in (
            ("objective off HiGHS",
             checks.check_lp_objective(objective * (1 + 1e-6), objective,
                                       "optimal")),
            ("solve not optimal",
             checks.check_lp_objective(objective, objective, "infeasible"))):
        ok = bool(problems)
        print(f"{'ok ' if ok else 'BAD'} fit_qut: {label}: "
              f"{'rejected' if ok else 'passed'}")
        if not ok:
            bad.append(label)

    sim = SmallSimulation(0, workdir)
    outputs = sim.run_round(0)
    expect("clean output", sim, outputs, clean=True)
    for label, change in _simulation_mutations().items():
        expect(label, sim, _mutate(outputs, change), clean=False)
    rows = outputs[0][2]
    changed = copy.deepcopy(rows)
    changed[0]["s_tpp"] += 1e-12
    mismatch = checks.check_rerun(rows, changed)
    print(f"{'ok ' if mismatch else 'BAD'} simulate_1w: rerun "
          f"differs: {'rejected' if mismatch else 'passed'}")
    if not mismatch:
        bad.append("rerun differs")

    cert = SmallCertify(0, workdir)
    outputs = cert.run_round(0)
    expect("clean output", cert, outputs, clean=True)
    for label, change in _certify_mutations().items():
        expect(label, cert, _mutate(outputs, change), clean=False)
    expect("one verdict only", cert,
           [o for o in outputs if json.loads(o[2])["identifiable"]],
           clean=False)

    print("self-test", "FAILED: " + ", ".join(bad) if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
