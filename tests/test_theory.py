import math
from fractions import Fraction

import numpy as np
import pytest

import costforest.theory as th
from costforest import ConfigError, ValidationError
from costforest.theory import (
    CostGenerator,
    TheoryParams,
    ensemble_correct_prob,
    mc_majority_correct,
    simulate_lemma1,
    simulate_theorem1,
)


class TestEnsembleCorrectProb:
    def test_hand_binomial_sum(self):
        # 3 * 0.6^2 * 0.4 + 0.6^3
        assert ensemble_correct_prob(3, 0.6) == pytest.approx(0.648, abs=1e-12)

    def test_half_is_half_for_odd_T(self):
        for T in (3, 5, 11, 51, 101):
            assert ensemble_correct_prob(T, 0.5) == 0.5

    def test_large_T_limit(self):
        assert ensemble_correct_prob(10001, 0.7) >= 1 - 1e-12

    def test_extremes(self):
        assert ensemble_correct_prob(11, 0.0) == 0.0
        assert ensemble_correct_prob(11, 1.0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            ensemble_correct_prob(2, 0.6)
        with pytest.raises(ValidationError):
            ensemble_correct_prob(5, 1.5)

    def test_at_least_rho_full_grid(self):
        for rho in [round(0.5 + 0.05 * i, 2) for i in range(10)]:
            for T in range(3, 102, 2):
                assert ensemble_correct_prob(T, rho) >= rho

    def test_monotone_in_T(self):
        for rho in (0.55, 0.7, 0.9, 0.95):
            vals = [ensemble_correct_prob(T, rho) for T in range(3, 102, 2)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_agrees_with_log_domain_path(self):
        # the two evaluation branches must agree where both are accurate
        for rho in (0.55, 0.8):
            small = ensemble_correct_prob(th._EXACT_T_LIMIT, rho)
            j = np.arange(th._EXACT_T_LIMIT // 2 + 1, th._EXACT_T_LIMIT + 1)
            from scipy.special import gammaln

            log_terms = (
                gammaln(th._EXACT_T_LIMIT + 1) - gammaln(j + 1)
                - gammaln(th._EXACT_T_LIMIT - j + 1)
                + j * math.log(rho) + (th._EXACT_T_LIMIT - j) * math.log1p(-rho)
            )
            assert small == pytest.approx(math.fsum(np.exp(log_terms)), abs=1e-11)

    @pytest.mark.parametrize("T", [503, 1001, 2001])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.55, 0.6])
    def test_log_domain_branch_matches_exact_tail(self, T, rho):
        assert T > th._EXACT_T_LIMIT
        assert abs(ensemble_correct_prob(T, rho) - _exact_upper_tail(T, rho)) <= 1e-11


def _exact_upper_tail(T, rho):
    """sum over j > T/2 of C(T, j) m^j (d - m)^(T - j) / d^T, rho = m/d exactly."""
    m, d = rho.as_integer_ratio()
    lo = T // 2 + 1
    term = math.comb(T, lo) * m**lo * (d - m) ** (T - lo)
    total = 0
    for j in range(lo, T + 1):
        total += term
        # C(T, j+1) m^(j+1) (d-m)^(T-j-1) = term (T-j) m / ((j+1) (d-m)), an exact division
        term = term * (T - j) * m // ((j + 1) * (d - m))
    return float(Fraction(total, d**T))


class TestMonteCarloPc:
    def test_matches_closed_form_within_3se(self):
        T, rho, n = 11, 0.7, 100_000
        closed = ensemble_correct_prob(T, rho)
        est = mc_majority_correct(T, rho, n, seed=5)
        se = math.sqrt(closed * (1 - closed) / n)
        assert abs(est - closed) <= 3 * se


class TestLemma1:
    def test_rho_one_exact_equality(self):
        params = TheoryParams(T=5, rho=1.0, n_examples=50, n_trials=20, seed=1)
        for report in simulate_lemma1(params).values():
            assert report.mean_diff == 0.0
            assert report.frac_held == 1.0

    def test_rho_half_equality_in_expectation(self):
        params = TheoryParams(T=11, rho=0.5, n_examples=200, n_trials=400, seed=2)
        for report in simulate_lemma1(params).values():
            bound = 3 * report.se_diff if report.se_diff > 0 else 1e-9
            assert abs(report.mean_diff) <= bound

    def test_rho_07_strict_improvement(self):
        params = TheoryParams(T=11, rho=0.7, n_examples=500, n_trials=1000, seed=3)
        for report in simulate_lemma1(params).values():
            assert report.mean_diff > 0
            assert report.mean_diff > 3 * report.se_diff

    def test_rho_below_half_rejected(self):
        with pytest.raises(ConfigError):
            simulate_lemma1(TheoryParams(rho=0.4))

    def test_even_T_rejected(self):
        with pytest.raises(ConfigError):
            TheoryParams(T=10).validate()


class TestTheorem1:
    def test_rho_one_exact_zero(self):
        report = simulate_theorem1(
            TheoryParams(T=5, rho=1.0, n_examples=50, n_trials=20, seed=4)
        )
        assert report.mean_diff == 0.0

    def test_rho_07_strict_improvement(self):
        report = simulate_theorem1(
            TheoryParams(T=11, rho=0.7, n_examples=500, n_trials=1000, seed=5)
        )
        assert report.mean_diff > 0
        assert report.mean_diff > 3 * report.se_diff
        assert report.frac_held > 0.95

    def test_correlated_errors_zero_every_trial(self):
        report = simulate_theorem1(
            TheoryParams(T=11, rho=0.7, n_examples=100, n_trials=50, seed=6, correlated=True)
        )
        assert report.mean_diff == 0.0
        assert report.frac_held == 1.0


def test_cost_generator_strictly_reasonable():
    rng = np.random.default_rng(0)
    costs = CostGenerator().draw(rng, 1000)
    c_tp, c_fp, c_fn, c_tn = costs.T
    assert (c_fp > c_tn).all()
    assert (c_fn > c_tp).all()
    assert (costs >= 0).all()
