"""Seeded sweep over the exact solvers, hashed to one sha256.

A script, not a test module (pytest does not collect it). From the root of
a checkout it prints one sha256 over the results of a fixed set of solves:

    PYTHONPATH=src python tests/solve_sweep.py

Two trees that print the same hash solved every program of the sweep to
the same bits. The sweep covers

* :func:`solve_jp_many` at 20, 40, 64, 65 and 80 rows, with full, 0.44 n-row,
  3-row and empty corruption blocks, once with a zero dictionary among the
  programs, at the default pivot budget and at 0.3 pivots per column;
* :func:`solve_jp`, including programs that run phase 1;
* :func:`formulate_jp` programs, single and stacked;
* :func:`robust_lasso_zero` and :func:`lasso_zero` fits;
* :func:`check_identifiability` verdicts;
* hand-built ``[A | -A]`` programs, with a starting basis and without.

Each result is hashed with its status, and each array with its dtype and
shape; a part that is None is hashed as an empty float array, so a result
that marks an empty block with None hashes like one that holds an empty
array. The last bits of a 100-row solve follow the BLAS thread count, so
hashes compare at one thread setting. To check that a change keeps every
result of its parent commit, run this script against an exported copy of
the parent and against the change, under each setting:

    git archive <parent> | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
    for tree in /tmp/parent/src src; do
        PYTHONPATH=$tree python tests/solve_sweep.py
        OPENBLAS_NUM_THREADS=1 PYTHONPATH=$tree python tests/solve_sweep.py
    done

It takes well under a minute on a 2-core x86 machine.
"""

import hashlib

import numpy as np

from rlasszero import lp
from rlasszero.analysis import check_identifiability
from rlasszero.core import RngStream
from rlasszero.estimators import RlzConfig, lasso_zero, robust_lasso_zero


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def text(self, value):
        self.sha.update(f"{value}|".encode())

    def array(self, value):
        arr = np.zeros(0) if value is None else np.ascontiguousarray(value)
        self.text(f"{arr.dtype.str}{arr.shape}")
        self.sha.update(arr.tobytes())

    def solution(self, sol):
        for part in (sol.beta, sol.omega, sol.gamma, sol.objective):
            self.array(part)
        self.text(sol.status)

    def lp_result(self, result):
        x, objective, status = result
        self.array(x)
        self.array(objective)
        self.text(status)


def _gen(*path):
    return RngStream(2024, path).generator()


def _blocks(gen, n):
    """Corruption rows: all (None), 0.44 n of them, 3, and none."""
    return {"full": None,
            "part": np.sort(gen.choice(n, int(0.44 * n), replace=False)),
            "three": np.sort(gen.choice(n, 3, replace=False)),
            "empty": []}


def sweep_many(digest):
    for n in (20, 40, 64, 65, 80):
        gen = _gen(1, n)
        x, y = gen.standard_normal((n, 2 * n)), gen.standard_normal(n)
        gs = [gen.standard_normal((n, n)) for _ in range(4)]
        for name, cols in _blocks(gen, n).items():
            for per_column in (50, 0.3):
                lp._PIVOTS_PER_COLUMN = per_column
                try:
                    sols = lp.solve_jp_many(x, y, 1.0, cols, iter(gs))
                finally:
                    lp._PIVOTS_PER_COLUMN = 50
                digest.text(f"many {n} {name} {per_column}")
                for sol in sols:
                    digest.solution(sol)
        # a zero dictionary has no block start
        zero = [gs[0], np.zeros((n, n)), gs[1]]
        for sol in lp.solve_jp_many(x, y, 1.0, None, zero):
            digest.solution(sol)


def sweep_single(digest):
    for i in range(40):
        gen = _gen(2, i)
        n = int(gen.integers(3, 30))
        p = int(gen.integers(2, 2 * n))
        x, y = gen.standard_normal((n, p)), gen.standard_normal(n)
        lam = float(gen.uniform(0.3, 3.0))
        name = ("full", "part", "three", "empty")[i % 4]
        cols = _blocks(gen, n)[name]
        # without a dictionary, a restricted or empty block runs phase 1
        g = gen.standard_normal((n, n)) if i % 3 else None
        digest.text(f"single {i}")
        digest.solution(lp.solve_jp(x, y, lam, cols, g))


def sweep_formulate(digest):
    for i in range(40):
        gen = _gen(3, i)
        n, p = int(gen.integers(2, 20)), int(gen.integers(1, 30))
        x, y = gen.standard_normal((n, p)), gen.standard_normal(n)
        cols = _blocks(gen, n)[("full", "part", "empty", "full")[i % 4]]
        q = int(gen.integers(2 * n))
        dictionaries = [None, gen.standard_normal((n, q))]
        if i < 30:
            dictionaries.append(gen.standard_normal((3, n, n)))
        for dictionary in dictionaries:
            prob = lp.formulate_jp(x, y, 1.5, cols, dictionary)
            for part in (prob.a, prob.b, prob.c, prob.basis):
                digest.array(part)


def sweep_fits(digest):
    for i, (n, p) in enumerate([(30, 60), (50, 100), (70, 140)]):
        gen = _gen(4, i)
        x = gen.standard_normal((n, p))
        beta0 = np.zeros(p)
        beta0[:3] = [3.0, -3.0, 3.0]
        y = x @ beta0 + 0.3 * gen.standard_normal(n)
        y[:2] += 10.0
        cfg = RlzConfig(tau=0.5, n_dictionaries=5, master_seed=i)
        rows = np.sort(gen.choice(n, n // 3, replace=False))
        fits = [robust_lasso_zero(x, y, cfg),
                robust_lasso_zero(x, y, cfg, corruption_cols=rows),
                lasso_zero(x, y, cfg)]
        for fit in fits:
            for part in (fit.beta_med, fit.omega_med, fit.beta_hat,
                         fit.omega_hat, fit.corruption_cols, *fit.gamma_all):
                digest.array(part)
            digest.text(f"{fit.tau_used!r} {fit.per_dictionary_status}")


def sweep_identify(digest):
    for i in range(20):
        gen = _gen(5, i)
        n, p = int(gen.integers(6, 30)), int(gen.integers(4, 20))
        x = gen.standard_normal((n, p))
        theta, theta_tilde = np.zeros(p), np.zeros(n)
        theta[gen.choice(p, min(p, 1 + i % 4), replace=False)] = \
            gen.choice([-1.0, 1.0], min(p, 1 + i % 4))
        theta_tilde[gen.choice(n, i % 5, replace=False)] = \
            gen.choice([-1.0, 1.0], i % 5)
        v = check_identifiability(x, theta, theta_tilde,
                                  lam=float(gen.uniform(0.5, 2.0)))
        digest.text(f"{v.identifiable} {v.inconclusive} {v.method} "
                    f"{v.margin!r}")
        for part in v.witness or (None, None):
            digest.array(part)


def sweep_hand_built(digest):
    for i, n in enumerate((20, 40, 50, 64, 80, 100)):
        gen = _gen(6, i)
        p = 2 * n
        x, y = gen.standard_normal((n, p)), gen.standard_normal(n)
        rows = np.sort(gen.choice(n, int(0.44 * n), replace=False))
        block = np.zeros((n, rows.size))
        block[rows, np.arange(rows.size)] = np.sqrt(n)
        for with_g in (True, False):
            g = gen.standard_normal((n, n)) if with_g else np.zeros((n, 0))
            signed = np.hstack([x, block, g])
            costs = np.concatenate([np.ones(p), np.full(rows.size, 1.0),
                                    np.ones(g.shape[1])])
            a, c = np.hstack([signed, -signed]), np.concatenate([costs, costs])
            hint = lp.formulate_jp(x, y, 1.0, rows, g if with_g else None)
            for basis in (hint.basis, None):
                digest.text(f"hand {n} {with_g} {basis is None}")
                digest.lp_result(lp.solve_lp(lp.LpProblem(a=a, b=y, c=c,
                                                          basis=basis)))


def main():
    digest = Digest()
    for part in (sweep_many, sweep_single, sweep_formulate, sweep_fits,
                 sweep_identify, sweep_hand_built):
        part(digest)
    print(digest.sha.hexdigest())


if __name__ == "__main__":
    main()
