import numpy as np
import pytest

from rlasszero import BudgetExceededError, InputError
from rlasszero.analysis import (
    check_identifiability,
    check_stable_nsp,
    covariance_diagnostics,
)
from rlasszero.core import RngStream, toeplitz_sigma
from rlasszero.lp import solve_jp

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

    def test_non_pd_rejected(self):
        with pytest.raises(InputError):
            covariance_diagnostics(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                   n=10, s=1, k=1, beta_min=1.0,
                                   sigma_noise=0.1, lam=1.0)
