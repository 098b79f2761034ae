"""Domain cost-matrix builders: fraud, churn, credit scoring, direct marketing.

Each builder maps raw domain columns to per-row (c_tp, c_fp, c_fn, c_tn)
costs. All four domains charge nothing for true negatives. Every parameter
number and domain value must be finite, and so must the costs built from
them. Strict mode rejects rows violating reasonableness (misclassification
must cost more than correct classification); relaxed mode keeps them, which
churn rows with a low offer-acceptance probability require.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .cost_model import unreasonable_rows
from .errors import ValidationError

logger = logging.getLogger(__name__)


def _check_params(params) -> None:
    """Reject a parameter number that is not finite (NaN, inf)."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not isinstance(value, str) and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class FraudCostParams:
    """Fraud detection: fixed alert-handling cost, loss equal to the amount."""

    admin_cost: float
    amount_col: str = "amount"

    def __post_init__(self):
        _check_params(self)
        if self.admin_cost <= 0:
            raise ValidationError("admin_cost must be positive")


@dataclass(frozen=True)
class ChurnCostParams:
    """Churn modeling: retention-offer economics per customer."""

    admin_cost: float
    gamma_col: str = "gamma"       # offer acceptance probability
    offer_col: str = "offer_cost"
    clv_col: str = "clv"           # customer lifetime value

    def __post_init__(self):
        _check_params(self)
        if self.admin_cost <= 0:
            raise ValidationError("admin_cost must be positive")


@dataclass(frozen=True)
class CreditCostParams:
    """Credit scoring: credit-line loss on default, lost profit on rejection."""

    loss_given_default: float
    pi_0: float                    # prior fraction of good customers
    pi_1: float                    # prior fraction of defaulters
    mean_profit: float             # portfolio average lost profit
    mean_credit_line: float        # portfolio average credit line
    credit_line_col: str = "credit_line"
    profit_col: str = "profit"

    def __post_init__(self):
        _check_params(self)
        if not 0 < self.loss_given_default <= 1:
            raise ValidationError("loss_given_default must be in (0, 1]")
        if not abs(self.pi_0 + self.pi_1 - 1.0) <= 1e-9:
            raise ValidationError("pi_0 + pi_1 must equal 1")

    @property
    def alternative_fp_cost(self) -> float:
        """Cost of lending to an alternative customer instead of the rejected one."""
        return (
            -self.mean_profit * self.pi_0
            + self.mean_credit_line * self.loss_given_default * self.pi_1
        )


@dataclass(frozen=True)
class MarketingCostParams:
    """Direct marketing: fixed contact cost, loss equal to the expected income."""

    admin_cost: float
    income_col: str = "income"

    def __post_init__(self):
        _check_params(self)
        if self.admin_cost <= 0:
            raise ValidationError("admin_cost must be positive")


def _stack(c_tp, c_fp, c_fn, c_tn) -> np.ndarray:
    return np.column_stack([c_tp, c_fp, c_fn, c_tn]).astype(np.float64)


def _finite(values, domain: str, name: str) -> np.ndarray:
    """``values`` as float64, or a ValidationError naming the first rows that
    hold a non-finite value."""
    array = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(array))
    if bad.size:
        raise ValidationError(f"{domain}: {name} not finite at rows {bad[:5].tolist()}")
    return array


def _check_reasonableness(costs: np.ndarray, strict: bool, domain: str) -> np.ndarray:
    flagged = np.flatnonzero(unreasonable_rows(costs))
    if flagged.size:
        if strict:
            raise ValidationError(
                f"{domain}: {flagged.size} rows violate reasonableness "
                f"(first rows: {flagged[:5].tolist()}); rerun with relaxed validation "
                "to keep them"
            )
        logger.warning(
            "%s: keeping %d rows that violate reasonableness (relaxed mode)",
            domain, flagged.size,
        )
    return costs


def build_fraud_costs(
    amounts: np.ndarray, params: FraudCostParams, strict: bool = True
) -> np.ndarray:
    """(C_a, C_a, Amt_i, 0) per row."""
    amt = _finite(amounts, "fraud", "amount")
    if (amt < 0).any():
        raise ValidationError("fraud: transaction amounts must be nonnegative")
    n = amt.shape[0]
    ca = np.full(n, params.admin_cost)
    return _check_reasonableness(_stack(ca, ca, amt, np.zeros(n)), strict, "fraud")


def build_churn_costs(
    gamma: np.ndarray,
    offer_cost: np.ndarray,
    clv: np.ndarray,
    params: ChurnCostParams,
    strict: bool = True,
) -> np.ndarray:
    """c_tp = gamma*C_o + (1-gamma)*(CLV + C_a); c_fp = C_o + C_a; c_fn = CLV."""
    gamma = _finite(gamma, "churn", "gamma")
    offer_cost = _finite(offer_cost, "churn", "offer_cost")
    clv = _finite(clv, "churn", "clv")
    if ((gamma < 0) | (gamma > 1)).any():
        bad = np.flatnonzero((gamma < 0) | (gamma > 1))
        raise ValidationError(f"churn: gamma outside [0, 1] at rows {bad[:5].tolist()}")
    if (clv < 0).any():
        raise ValidationError("churn: CLV must be nonnegative")
    ca = params.admin_cost
    with np.errstate(over="ignore", invalid="ignore"):  # finite inputs may overflow
        c_tp = _finite(gamma * offer_cost + (1.0 - gamma) * (clv + ca), "churn", "c_tp")
        c_fp = _finite(offer_cost + ca, "churn", "c_fp")
    return _check_reasonableness(
        _stack(c_tp, c_fp, clv, np.zeros_like(clv)), strict, "churn"
    )


def build_credit_costs(
    credit_line: np.ndarray,
    profit: np.ndarray,
    params: CreditCostParams,
    strict: bool = True,
) -> np.ndarray:
    """c_fn = Cl_i * L_gd; c_fp = r_i + alternative-customer cost; zero otherwise."""
    cl = _finite(credit_line, "credit", "credit_line")
    r = _finite(profit, "credit", "profit")
    c_fn = cl * params.loss_given_default
    with np.errstate(over="ignore"):  # finite inputs may overflow; checked before the clamp
        c_fp = _finite(r + params.alternative_fp_cost, "credit", "c_fp")
    negative = np.flatnonzero(c_fp < 0)
    if negative.size:
        if strict:
            raise ValidationError(
                f"credit: negative c_fp at rows {negative[:5].tolist()}; "
                "rerun relaxed to clamp to zero"
            )
        logger.warning("credit: clamping %d negative c_fp rows to zero", negative.size)
        c_fp = np.maximum(c_fp, 0.0)
    zeros = np.zeros_like(c_fn)
    return _check_reasonableness(_stack(zeros, c_fp, c_fn, zeros), strict, "credit")


def build_marketing_costs(
    income: np.ndarray, params: MarketingCostParams, strict: bool = True
) -> np.ndarray:
    """(C_a, C_a, Int_i, 0) per row; Int_i is deposit amount times interest spread."""
    inc = _finite(income, "marketing", "income")
    if (inc < 0).any():
        raise ValidationError("marketing: expected income must be nonnegative")
    n = inc.shape[0]
    ca = np.full(n, params.admin_cost)
    return _check_reasonableness(_stack(ca, ca, inc, np.zeros(n)), strict, "marketing")
