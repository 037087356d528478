import json

import numpy as np
import pytest
from scipy.optimize import linprog

from rlasszero import BudgetExceededError, InputError, analysis
from rlasszero.analysis import (
    check_identifiability,
    check_stable_nsp,
    covariance_diagnostics,
)
from rlasszero.core import RngStream, standardize_columns, \
    toeplitz_sigma
from rlasszero.lp import solve_jp

from test_pinned_outputs import DATA, write_inputs
from vertex_oracle import certify_unique_jp


class TestCheckIdentifiability:
    def test_zero_signs_identifiable(self):
        gen = RngStream(0, (101,)).generator()
        x = gen.standard_normal((4, 6))
        v = check_identifiability(x, np.zeros(6), np.zeros(4))
        assert v.identifiable and not v.inconclusive

    def test_duplicated_column_not_identifiable(self):
        gen = RngStream(1, (103,)).generator()
        x = gen.standard_normal((5, 4))
        x[:, 3] = x[:, 0]
        theta = np.array([1, 0, 0, 0])
        v = check_identifiability(x, theta, np.zeros(5))
        assert not v.identifiable
        assert v.witness is not None
        beta_w, omega_w = v.witness
        n = 5
        resid = x @ beta_w + np.sqrt(n) * omega_w  # lam = 1
        assert np.abs(resid).max() < 1e-8

    def test_invalid_signs_rejected(self):
        with pytest.raises(InputError):
            check_identifiability(np.eye(2), np.array([2, 0]), np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            check_identifiability(np.eye(2), np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("x, lam", [
        ([[1.0, np.nan], [0.0, 1.0]], 1.0),
        ([[1.0, np.inf], [0.0, 1.0]], 1.0),
        (np.eye(2)[0], 1.0),
        (np.eye(2), 0.0),
        (np.eye(2), -1.0),
        (np.eye(2), np.nan),
        (np.eye(2), np.inf),
    ])
    def test_bad_design_or_lambda_rejected(self, x, lam):
        with pytest.raises(InputError):
            check_identifiability(x, np.array([1, 0]), np.zeros(2), lam=lam)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_jp_uniqueness_oracle(self, seed):
        gen = RngStream(seed, (107,)).generator()
        n = int(gen.integers(3, 6))
        p = int(gen.integers(3, 9))
        x = gen.standard_normal((n, p))
        lam = float(gen.uniform(0.5, 2.0))
        beta0 = np.zeros(p)
        support = gen.choice(p, 2, replace=False)
        beta0[support] = gen.choice([-1.0, 1.0], 2)
        omega0 = np.zeros(n)
        omega0[int(gen.integers(0, n))] = float(gen.choice([-1.0, 1.0]))
        y = x @ beta0 + np.sqrt(n) * omega0
        verdict = check_identifiability(x, np.sign(beta0), np.sign(omega0),
                                        lam=lam)
        if verdict.inconclusive:
            pytest.skip("decision-boundary instance")
        unique, optima = certify_unique_jp(x, y, lam)
        oracle = False
        if unique:
            beta_u, omega_u = optima[0][:p], optima[0][p:]
            oracle = (np.allclose(beta_u, beta0, atol=1e-8)
                      and np.allclose(omega_u, omega0, atol=1e-8))
        assert verdict.identifiable == oracle


def _assert_witness(x, theta, theta_tilde, lam, margin, beta_w, omega_w):
    """The witness is a null vector of [X, sqrt(n)/lam I] on the budget
    slice with unit weights, and attains the certificate's value."""
    n = len(x)
    assert np.abs(x @ beta_w + np.sqrt(n) / lam * omega_w).max() <= 1e-12
    h = np.concatenate([theta, theta_tilde])
    nu = np.concatenate([beta_w, omega_w])
    assert np.abs(nu[h == 0]).sum() <= 1.0 + 1e-9
    assert h @ nu == pytest.approx(1.0 - margin, abs=1e-9)


class TestWitness:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_witness(self, seed, lam):
        gen = RngStream(seed, (121,)).generator()
        n, p = 20, 40
        x = gen.standard_normal((n, p))
        theta, theta_tilde = np.zeros(p), np.zeros(n)
        theta[gen.choice(p, 4, replace=False)] = gen.choice([-1.0, 1.0], 4)
        theta_tilde[gen.choice(n, 6, replace=False)] = \
            gen.choice([-1.0, 1.0], 6)
        v = check_identifiability(x, theta, theta_tilde, lam=lam)
        # an LP witness: the on-support columns are independent
        assert not v.identifiable and -np.inf < v.margin < -1e-3
        assert np.abs(v.witness[1]).max() > 0.1
        _assert_witness(x, theta, theta_tilde, lam, v.margin, *v.witness)

    def test_pinned_cli_witness(self, tmp_path):
        write_inputs(tmp_path)
        x, theta, theta_tilde = (
            np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            for name in ("X_id.csv", "theta_large.csv", "tt_large.csv"))
        got = json.loads((DATA / "pinned_identify_witness.json")
                         .read_text(encoding="utf-8"))
        assert not got["identifiable"]
        _assert_witness(x, theta, theta_tilde, 1.0, got["margin"],
                        np.array(got["witness"]["beta"]),
                        np.array(got["witness"]["omega"]))


def _recovers(x, beta0, omega0, lam):
    """Whether noiseless Justice Pursuit returns (beta0, omega0)."""
    sol = solve_jp(x, x @ beta0 + np.sqrt(len(x)) * omega0, lam)
    assert sol.status == "optimal"
    return (np.allclose(sol.beta, beta0, rtol=0, atol=1e-8)
            and np.allclose(sol.omega, omega0, rtol=0, atol=1e-8))


def _witness_slope(x, beta0, omega0, lam, nu_beta, nu_omega):
    """The rate of change of ||beta||_1 + lam ||omega||_1 from (beta0,
    omega0) along d = -(nu_beta, nu_omega / lam), after checking that d
    keeps X beta + sqrt(n) omega fixed."""
    n = len(x)
    assert np.abs(x @ nu_beta + np.sqrt(n) / lam * nu_omega).max() <= 1e-12
    z = np.concatenate([beta0, omega0])
    d = -np.concatenate([nu_beta, nu_omega / lam])
    w = np.concatenate([np.ones(beta0.size), np.full(n, lam)])
    # the cost is linear along d until a support entry changes sign
    on = z != 0
    step = min(1.0, 0.5 * np.abs(z[on] / d[on]).min(initial=np.inf))
    return (w @ np.abs(z + step * d) - w @ np.abs(z)) / step


class TestCertificateAtScale:
    """At 50 x 100, where vertex enumeration cannot reach, the verdict
    predicts what noiseless Justice Pursuit returns, and a witness is a
    feasible direction along which the cost falls at the margin's rate."""

    @pytest.mark.parametrize("lam_drawn", [False, True],
                             ids=["lam1", "lam_uniform"])
    def test_verdict_predicts_recovery_and_witness_slope(self, lam_drawn):
        n, p = 50, 100
        verdicts = []
        for seed in range(100):
            gen = RngStream(seed, (123,)).generator()
            x = standardize_columns(gen.standard_normal((n, p)))
            lam = float(gen.uniform(0.5, 2.0)) if lam_drawn else 1.0
            beta0, omega0 = np.zeros(p), np.zeros(n)
            for v, size in ((beta0, int(gen.integers(1, 16))),
                            (omega0, int(gen.integers(0, 16)))):
                at = gen.choice(v.size, size, replace=False)
                v[at] = gen.choice([-1.0, 1.0], size) \
                    * gen.uniform(1.0, 2.0, size)
            v = check_identifiability(x, np.sign(beta0), np.sign(omega0),
                                      lam=lam)
            assert abs(v.margin) > 1e-9 and not v.inconclusive
            assert v.identifiable == _recovers(x, beta0, omega0, lam), seed
            verdicts.append(v.identifiable)
            if not v.identifiable:
                assert _witness_slope(x, beta0, omega0, lam, *v.witness) \
                    == pytest.approx(v.margin, abs=1e-9)
        assert 25 <= sum(verdicts) <= 75  # both verdicts are common

    def test_pinned_cli_witness_recovery_and_slope(self, tmp_path):
        write_inputs(tmp_path)
        x, theta, theta_tilde = (
            np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            for name in ("X_id.csv", "theta_large.csv", "tt_large.csv"))
        got = json.loads((DATA / "pinned_identify_witness.json")
                         .read_text(encoding="utf-8"))
        assert got["margin"] < -1e-9
        assert not _recovers(x, theta, theta_tilde, 1.0)
        assert _witness_slope(x, theta, theta_tilde, 1.0,
                              np.array(got["witness"]["beta"]),
                              np.array(got["witness"]["omega"])) \
            == pytest.approx(got["margin"], abs=1e-9)


def _highs_stable_nsp_value(x, s0, t0, lam):
    """max over the signs h on (S, T) of max h'z s.t. [X, sqrt(n) I] z = 0,
    sum_off w_j |z_j| <= 1, with h_j = +-w_j and w = (1, lam), by HiGHS."""
    n, p = x.shape
    a = np.hstack([x, np.sqrt(n) * np.eye(n)])
    w = np.concatenate([np.ones(p), np.full(n, lam)])
    on = np.zeros(p + n, dtype=bool)
    on[list(s0)] = True
    on[[p + t for t in t0]] = True
    off = np.where(on, 0.0, w)
    worst = -np.inf
    for bits in range(2 ** int(on.sum())):
        h = np.zeros(p + n)
        h[on] = w[on] * (1.0 - 2.0 * (bits >> np.arange(on.sum()) & 1))
        res = linprog(np.concatenate([-h, h]),
                      A_ub=np.concatenate([off, off])[None, :], b_ub=[1.0],
                      A_eq=np.hstack([a, -a]), b_eq=np.zeros(n),
                      bounds=(0, None), method="highs")
        if res.status == 3:
            return np.inf
        assert res.status == 0, res.message
        worst = max(worst, -res.fun)
    return worst


class TestCheckStableNsp:
    def test_empty_supports_true(self):
        gen = RngStream(2, (109,)).generator()
        x = gen.standard_normal((4, 6))
        assert check_stable_nsp(x, [], [], rho_nsp=0.0)

    def test_duplicated_column_false(self):
        gen = RngStream(3, (111,)).generator()
        x = gen.standard_normal((5, 4))
        x[:, 1] = x[:, 0]
        assert not check_stable_nsp(x, [0], [], rho_nsp=0.99)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            check_stable_nsp(np.eye(6), list(range(4)), list(range(4)),
                             budget=100)

    def test_budget_equal_to_lp_count_allowed(self):
        # 8 support entries: 2^7 = 128 LPs, one of each pair h, -h
        check_stable_nsp(np.eye(6), list(range(4)), list(range(4)),
                         budget=128)
        with pytest.raises(BudgetExceededError):
            check_stable_nsp(np.eye(6), list(range(4)), list(range(4)),
                             budget=127)

    def test_solves_one_lp_per_sign_pair(self, monkeypatch):
        calls = []
        solve = analysis._max_inner_product_lp

        def counted(a_null, h, on):
            calls.append(h[on][0])
            return solve(a_null, h, on)

        monkeypatch.setattr(analysis, "_max_inner_product_lp", counted)
        x = RngStream(3, (9,)).generator().standard_normal((40, 20))
        assert check_stable_nsp(x, range(4), range(4), rho_nsp=50.0)
        assert len(calls) == 2 ** 7 and set(calls) == {1.0}

    @pytest.mark.parametrize("kwargs", [
        {"x": [[1.0, np.nan], [0.0, 1.0]]},
        {"x": np.eye(2)[0]},
        {"lam": 0.0}, {"lam": -1.0}, {"lam": np.nan}, {"lam": np.inf},
        {"rho_nsp": np.nan}, {"rho_nsp": -0.1}, {"rho_nsp": np.inf},
        {"s0": [0.7]}, {"s0": [2]}, {"s0": [-1]}, {"s0": ["0"]},
        {"t0": [2]}, {"t0": [1.0]},
        {"s0": [True]}, {"t0": [False]},
    ])
    def test_bad_input_rejected(self, kwargs):
        args = {"x": np.eye(2), "s0": [0], "t0": [1]} | kwargs
        with pytest.raises(InputError):
            check_stable_nsp(**args)

    @pytest.mark.parametrize("s0, t0", [
        ([0, 2], [1]), ((2, 0, 0), (1,)), (range(0, 3, 2), range(1, 2)),
        ({0, 2}, {1}), (np.array([0, 2]), np.array([1], dtype=np.int32)),
    ])
    def test_index_containers_accepted(self, s0, t0):
        x = RngStream(4, (117,)).generator().standard_normal((6, 4))
        assert check_stable_nsp(x, s0, t0, rho_nsp=50.0)
        assert not check_stable_nsp(x, s0, t0, rho_nsp=0.0)

    def test_agrees_with_highs_enumeration(self):
        # every one of the 2^(|S|+|T|) patterns, on [X, sqrt(n) I] with
        # weights (1, lam) as the docstring states the condition
        agree = decided = certified = 0
        for seed in range(40):
            gen = RngStream(seed, (119,)).generator()
            n, p = int(gen.integers(4, 9)), int(gen.integers(4, 10))
            x = gen.standard_normal((n, p))
            s0 = gen.choice(p, int(gen.integers(1, 3)), replace=False)
            t0 = gen.choice(n, int(gen.integers(0, 3)), replace=False)
            lam = float(gen.uniform(0.5, 2.0))
            rho = float(gen.uniform(0.2, 2.5))
            worst = _highs_stable_nsp_value(x, s0, t0, lam)
            if abs(worst - rho) <= 1e-7:
                continue
            decided += 1
            certified += worst < rho
            agree += check_stable_nsp(x, s0, t0, lam=lam,
                                      rho_nsp=rho) == (worst < rho)
        assert agree == decided >= 38
        assert 10 <= certified <= decided - 10

    def test_stability_bound_when_certified(self):
        # when the null-space condition holds with rho = 1/3, l1 error of
        # any feasible competitor is bounded by 4x its off-support mass
        gen = RngStream(0, (113,)).generator()
        n, p = 15, 2
        x = gen.standard_normal((n, p))
        s0, t0 = [0], [2]
        lam = 1.0
        assert check_stable_nsp(x, s0, t0, lam=lam, rho_nsp=1.0 / 3.0)
        a = np.hstack([x, np.sqrt(n) * np.eye(n)])
        weights = np.concatenate([np.ones(p), np.full(n, lam)])
        on = np.zeros(p + n, dtype=bool)
        on[s0] = True
        on[[p + t for t in t0]] = True
        for trial in range(50):
            tgen = RngStream(trial, (115,)).generator()
            z_tilde = tgen.standard_normal(p + n)
            y = a @ z_tilde
            sol = solve_jp(x, y, lam)
            z_hat = np.concatenate([sol.beta, sol.omega])
            err = float(weights @ np.abs(z_hat - z_tilde))
            off_mass = float(weights[~on] @ np.abs(z_tilde[~on]))
            assert err <= 4.0 * off_mass + 1e-6


class TestCovarianceDiagnostics:
    def test_identity(self):
        rep = covariance_diagnostics(np.eye(5), n=100, s=2, k=3,
                                     beta_min=1.0, sigma_noise=0.1, lam=1.0)
        assert rep.condition_number == pytest.approx(1.0)
        assert rep.lambda_min == pytest.approx(1.0)

    def test_toeplitz_vs_power_iteration(self):
        sigma = toeplitz_sigma(200, 0.75)
        rep = covariance_diagnostics(sigma, n=100, s=3, k=5, beta_min=1.0,
                                     sigma_noise=0.5, lam=1.0)
        # independent largest-eigenvalue estimate by power iteration
        v = np.ones(200) / np.sqrt(200)
        for _ in range(5000):
            w = sigma @ v
            v = w / np.linalg.norm(w)
        lam_max = float(v @ sigma @ v)
        assert rep.lambda_max == pytest.approx(lam_max, rel=1e-6)

    def test_beta_min_bound_formula(self):
        n, p = 100, 200
        lam = 1.0 / np.sqrt(np.log(p))
        rep = covariance_diagnostics(np.eye(p), n=n, s=3, k=5, beta_min=1e6,
                                     sigma_noise=0.5, lam=lam)
        denom = np.sqrt(0.25 * (np.sqrt(p / n) - 1.0) ** 2 + 1.0)
        want = 10 * np.sqrt(2) * max(1.0, lam) * 0.5 * np.sqrt(p + n) / denom
        assert rep.beta_min_rhs == pytest.approx(want, rel=1e-12)
        assert rep.beta_min_ok

    def test_zero_corruption_count(self):
        rep = covariance_diagnostics(np.eye(3), n=10, s=1, k=0, beta_min=1.0,
                                     sigma_noise=0.1, lam=1.0)
        assert rep.corruption_lhs == np.inf and rep.corruption_ok

    @pytest.mark.parametrize("kw", [
        dict(n=0), dict(s=0), dict(s=-2, k=-1), dict(k=-1), dict(n=10.5),
        dict(beta_min=np.nan), dict(beta_min=np.inf),
        dict(sigma_noise=-0.5), dict(sigma_noise=np.inf),
        dict(sigma_noise=np.nan), dict(lam=-1.0), dict(lam=0.0),
        dict(lam=np.inf), dict(c_sample=-1.0), dict(c_sample=0.0),
        dict(c_sample=np.nan), dict(c_corruption_1=0.0),
        dict(c_corruption_1=np.inf), dict(c_corruption_2=-1.0),
        dict(c_corruption_2=np.nan), dict(sigma=1.0),
        dict(sigma=np.ones(3)), dict(sigma=np.ones((2, 3))),
        dict(sigma=np.zeros((0, 0))), dict(sigma=np.ones((1, 2, 2))),
        dict(sigma=np.diag([1.0, np.inf])),
        dict(sigma=np.diag([1.0, np.nan]))])
    def test_impossible_inputs_rejected(self, kw):
        args = dict(sigma=np.eye(3), n=10, s=1, k=1, beta_min=1.0,
                    sigma_noise=0.1, lam=1.0)
        with pytest.raises(InputError):
            covariance_diagnostics(**{**args, **kw})

    def test_non_pd_rejected(self):
        with pytest.raises(InputError):
            covariance_diagnostics(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                   n=10, s=1, k=1, beta_min=1.0,
                                   sigma_noise=0.1, lam=1.0)
