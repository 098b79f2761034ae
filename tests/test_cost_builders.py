import numpy as np
import pytest

from costforest import ValidationError
from costforest.cost_builders import (
    ChurnCostParams,
    CreditCostParams,
    FraudCostParams,
    MarketingCostParams,
    build_churn_costs,
    build_credit_costs,
    build_fraud_costs,
    build_marketing_costs,
)


class TestFraud:
    def test_table_entries(self):
        got = build_fraud_costs(np.array([100.0]), FraudCostParams(admin_cost=3))
        assert got.tolist() == [[3, 3, 100, 0]]

    def test_amount_equal_admin_strict_rejects(self):
        with pytest.raises(ValidationError, match="reasonableness"):
            build_fraud_costs(np.array([3.0]), FraudCostParams(admin_cost=3))

    def test_zero_amount_relaxed_kept(self):
        got = build_fraud_costs(
            np.array([0.0]), FraudCostParams(admin_cost=3), strict=False
        )
        assert got.tolist() == [[3, 3, 0, 0]]
        with pytest.raises(ValidationError):
            build_fraud_costs(np.array([0.0]), FraudCostParams(admin_cost=3))

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            FraudCostParams(admin_cost=0)


class TestChurn:
    PARAMS = ChurnCostParams(admin_cost=3)

    def test_gamma_one_collapses_tp(self):
        got = build_churn_costs(
            np.array([1.0]), np.array([10.0]), np.array([200.0]), self.PARAMS
        )
        assert got.tolist() == [[10, 13, 200, 0]]

    def test_gamma_zero_violates_reasonableness(self):
        args = (np.array([0.0]), np.array([10.0]), np.array([200.0]), self.PARAMS)
        with pytest.raises(ValidationError, match="reasonableness"):
            build_churn_costs(*args)
        got = build_churn_costs(*args, strict=False)
        assert got.tolist() == [[203, 13, 200, 0]]

    def test_gamma_half(self):
        got = build_churn_costs(
            np.array([0.5]), np.array([10.0]), np.array([200.0]), self.PARAMS,
            strict=False,
        )
        assert got.tolist() == [[106.5, 13, 200, 0]]

    def test_gamma_out_of_range(self):
        with pytest.raises(ValidationError, match="gamma"):
            build_churn_costs(
                np.array([1.5]), np.array([10.0]), np.array([200.0]), self.PARAMS
            )


class TestCredit:
    PARAMS = CreditCostParams(
        loss_given_default=0.75, pi_0=0.9, pi_1=0.1,
        mean_profit=30.0, mean_credit_line=1000.0,
    )

    def test_fn_is_line_times_lgd(self):
        got = build_credit_costs(np.array([1000.0]), np.array([20.0]), self.PARAMS)
        assert got[0, 2] == 750.0

    def test_fp_formula(self):
        # C^a_FP = -30*0.9 + 1000*0.75*0.1 = 48; c_fp = 20 + 48 = 68
        got = build_credit_costs(np.array([1000.0]), np.array([20.0]), self.PARAMS)
        assert got[0, 1] == pytest.approx(68.0, abs=1e-12)

    def test_pi0_one_limit(self):
        params = CreditCostParams(
            loss_given_default=0.75, pi_0=1.0, pi_1=0.0,
            mean_profit=30.0, mean_credit_line=1000.0,
        )
        got = build_credit_costs(np.array([1000.0]), np.array([50.0]), params)
        assert got[0, 1] == pytest.approx(50.0 - 30.0, abs=1e-12)

    def test_negative_fp_strict_rejects_relaxed_clamps(self):
        params = CreditCostParams(
            loss_given_default=0.75, pi_0=1.0, pi_1=0.0,
            mean_profit=30.0, mean_credit_line=1000.0,
        )
        args = (np.array([1000.0]), np.array([10.0]), params)  # c_fp = -20
        with pytest.raises(ValidationError, match="negative c_fp"):
            build_credit_costs(*args)
        got = build_credit_costs(*args, strict=False)
        assert got[0, 1] == 0.0

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            CreditCostParams(0.75, 0.8, 0.1, 30.0, 1000.0)


class TestMarketing:
    def test_table_entries(self):
        got = build_marketing_costs(np.array([50.0]), MarketingCostParams(admin_cost=1))
        assert got.tolist() == [[1, 1, 50, 0]]

    def test_deposit_times_spread(self):
        income = 1000.0 * 0.02
        got = build_marketing_costs(np.array([income]), MarketingCostParams(admin_cost=1))
        assert got[0, 2] == pytest.approx(20.0)

    def test_zero_income_strict_rejects(self):
        with pytest.raises(ValidationError):
            build_marketing_costs(np.array([0.0]), MarketingCostParams(admin_cost=1))
        got = build_marketing_costs(
            np.array([0.0]), MarketingCostParams(admin_cost=1), strict=False
        )
        assert got.tolist() == [[1, 1, 0, 0]]


def test_all_builders_zero_tn():
    fraud = build_fraud_costs(np.array([40.0]), FraudCostParams(3))
    churn = build_churn_costs(
        np.array([0.9]), np.array([5.0]), np.array([300.0]), ChurnCostParams(3)
    )
    credit = build_credit_costs(
        np.array([500.0]), np.array([90.0]),
        CreditCostParams(0.5, 0.9, 0.1, 30.0, 1000.0),
    )
    marketing = build_marketing_costs(np.array([25.0]), MarketingCostParams(1))
    for costs in (fraud, churn, credit, marketing):
        assert (costs[:, 3] == 0).all()


def test_fraud_and_marketing_same_structure():
    amounts = np.array([40.0, 75.0])
    fraud = build_fraud_costs(amounts, FraudCostParams(3))
    marketing = build_marketing_costs(amounts, MarketingCostParams(3))
    assert np.array_equal(fraud, marketing)


def test_builders_row_local():
    rng = np.random.default_rng(0)
    amounts = rng.uniform(10, 500, size=20)
    whole = build_fraud_costs(amounts, FraudCostParams(3))
    parts = np.vstack(
        [build_fraud_costs(amounts[i:i + 1], FraudCostParams(3)) for i in range(20)]
    )
    assert np.array_equal(whole, parts)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, columns, message", [
    (lambda c: build_fraud_costs(*c, FraudCostParams(3)),
     [[40.0, NAN, INF]], r"fraud: amount not finite at rows \[1, 2\]"),
    (lambda c: build_churn_costs(*c, ChurnCostParams(3)),
     [[0.9, NAN], [5.0, 5.0], [300.0, 300.0]], r"churn: gamma not finite at rows \[1\]"),
    (lambda c: build_churn_costs(*c, ChurnCostParams(3)),
     [[0.9, 0.9], [5.0, 5.0], [-INF, 300.0]], r"churn: clv not finite at rows \[0\]"),
    (lambda c: build_credit_costs(*c, CreditCostParams(0.5, 0.9, 0.1, 30.0, 1000.0),
                                  strict=False),
     [[500.0, 500.0], [90.0, -INF]], r"credit: profit not finite at rows \[1\]"),
    (lambda c: build_marketing_costs(*c, MarketingCostParams(1)),
     [[INF, 25.0]], r"marketing: income not finite at rows \[0\]"),
], ids=["fraud-amount", "churn-gamma", "churn-clv", "credit-profit-relaxed", "marketing-income"])
def test_non_finite_domain_column_rejected(build, columns, message):
    # these were copied into the costs, or clamped to zero (credit, relaxed)
    with pytest.raises(ValidationError, match=message):
        build([np.array(column) for column in columns])


@pytest.mark.parametrize("build", [
    lambda: build_churn_costs(np.array([0.5, 1.0]), np.array([5.0, 5.0]),
                              np.array([1e308, 1e308]), ChurnCostParams(1e308), strict=False),
    lambda: build_credit_costs(np.array([500.0]), np.array([-1.5e308]),
                               CreditCostParams(0.5, 1.0, 0.0, 1.5e308, 1000.0), strict=False),
], ids=["churn", "credit"])
def test_overflowing_costs_rejected(build):
    with pytest.raises(ValidationError, match="not finite at rows"):
        build()


@pytest.mark.parametrize("make", [
    lambda v: FraudCostParams(admin_cost=v),
    lambda v: ChurnCostParams(admin_cost=v),
    lambda v: MarketingCostParams(admin_cost=v),
    lambda v: CreditCostParams(0.75, v, 0.1, 30.0, 1000.0),
    lambda v: CreditCostParams(0.75, 0.9, 0.1, v, 1000.0),
    lambda v: CreditCostParams(0.75, 0.9, 0.1, 30.0, v),
], ids=["fraud", "churn", "marketing", "credit-pi_0", "credit-mean_profit",
        "credit-mean_credit_line"])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_param_rejected(make, value):
    with pytest.raises(ValidationError, match="must be finite"):
        make(value)
