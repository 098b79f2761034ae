"""Majority-vote correctness probability and Monte-Carlo inequality checks.

The closed form gives the probability that a majority of T independent base
classifiers, each correct with probability rho, decides correctly. The
simulators draw synthetic strictly-reasonable cost data and per-example
correctness events to verify two inequalities empirically: the ensemble's
cost on a single-class set never exceeds the average base cost, and the
ensemble's savings on a mixed set are at least the average base savings.
Both rest on independent base-classifier errors; a correlated mode shows the
inequalities degenerating to equality when every base classifier shares the
same errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, ValidationError
from .rng import STREAM_TRIALS, make_rng


@dataclass(frozen=True)
class CostGenerator:
    """Random strictly-reasonable costs: correct costs plus positive margins."""

    correct_high: float = 2.0       # c_tp, c_tn ~ U[0, correct_high]
    margin_low: float = 0.5         # misclassification premium ~ U[low, high]
    margin_high: float = 20.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        c_tp = rng.uniform(0.0, self.correct_high, n)
        c_tn = rng.uniform(0.0, self.correct_high, n)
        c_fn = c_tp + rng.uniform(self.margin_low, self.margin_high, n)
        c_fp = c_tn + rng.uniform(self.margin_low, self.margin_high, n)
        return np.column_stack([c_tp, c_fp, c_fn, c_tn])


@dataclass(frozen=True)
class TheoryParams:
    T: int = 11
    rho: float = 0.7
    n_examples: int = 500
    n_trials: int = 1000
    seed: int = 0
    pos_fraction: float = 0.5
    correlated: bool = False
    cost_generator: CostGenerator = field(default_factory=CostGenerator)

    def validate(self) -> None:
        if self.T < 3 or self.T % 2 == 0:
            raise ConfigError(f"simulation needs odd T >= 3, got {self.T}")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError(f"rho must be in (0, 1], got {self.rho}")
        if self.n_examples < 1 or self.n_trials < 1:
            raise ConfigError("n_examples and n_trials must be positive")


# Above this T the binomial tail falls back to log-domain evaluation;
# below it, exact rational arithmetic gives the correctly rounded value.
# 501 keeps the exact path under ~0.3 s.
_EXACT_T_LIMIT = 501


def ensemble_correct_prob(T: int, rho: float) -> float:
    """Probability a strict majority of T rho-correct voters is correct.

    Sum of the binomial upper tail j > T/2. A float rho is a dyadic
    rational, so for moderate T the tail is evaluated exactly in rational
    arithmetic and rounded once: the symmetric case rho = 1/2 comes out as
    exactly 0.5 and the tail never dips below rho by rounding dust. Very
    large T (up to 10001) uses log-domain binomial coefficients instead.
    """
    if T < 3:
        raise ConfigError(f"majority-vote analysis needs T >= 3, got {T}")
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        return 1.0
    lo = T // 2 + 1
    if T <= _EXACT_T_LIMIT:
        p = Fraction(rho)
        q = 1 - p
        total = Fraction(0)
        power = p ** lo * q ** (T - lo)  # term value at j = lo, then roll up
        ratio_step = p / q
        for j in range(lo, T + 1):
            total += math.comb(T, j) * power
            power *= ratio_step
        return float(total)
    j = np.arange(lo, T + 1, dtype=np.float64)
    log_terms = (
        gammaln(T + 1) - gammaln(j + 1) - gammaln(T - j + 1)
        + j * math.log(rho) + (T - j) * math.log1p(-rho)
    )
    return min(1.0, math.fsum(np.exp(log_terms).tolist()))


def mc_majority_correct(T: int, rho: float, n_samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of :func:`ensemble_correct_prob`."""
    rng = make_rng(seed, STREAM_TRIALS)
    correct = rng.random((n_samples, T)) < rho
    return float((correct.sum(axis=1) * 2 > T).mean())


@dataclass
class InequalityReport:
    """Per-trial difference statistics for one inequality check."""

    mean_lhs: float           # ensemble side
    mean_rhs: float           # average-base side
    mean_diff: float          # rhs - lhs for costs, lhs - rhs for savings
    se_diff: float
    frac_held: float          # fraction of trials where the inequality held
    n_trials: int


def _summarize(lhs: np.ndarray, rhs: np.ndarray, diffs: np.ndarray) -> InequalityReport:
    n = diffs.size
    se = float(diffs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return InequalityReport(
        mean_lhs=float(lhs.mean()),
        mean_rhs=float(rhs.mean()),
        mean_diff=float(diffs.mean()),
        se_diff=se,
        frac_held=float((diffs >= -1e-9).mean()),
        n_trials=n,
    )


def _trial_costs(
    rng: np.random.Generator, params: TheoryParams, y: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """One trial on labels ``y``: draw costs, then the (T, n) votes, from ``rng``.

    Each vote is correct with probability rho, independently per base
    classifier unless ``params.correlated``. Returns the majority vote's
    total cost, each base classifier's total cost and the costless-class
    cost.
    """
    n = y.size
    c_tp, c_fp, c_fn, c_tn = params.cost_generator.draw(rng, n).T
    cost0 = np.where(y == 1, c_fn, c_tn)
    cost1 = np.where(y == 1, c_tp, c_fp)
    if params.correlated:
        correct = np.tile(rng.random(n) < params.rho, (params.T, 1))
    else:
        correct = rng.random((params.T, n)) < params.rho
    votes = np.where(correct, y[None, :], 1 - y[None, :])
    majority = (votes.sum(axis=0) * 2 > params.T).astype(np.int64)
    ens_cost = float(np.where(majority == 1, cost1, cost0).sum())
    base_costs = np.where(votes == 1, cost1, cost0).sum(axis=1)
    return ens_cost, base_costs, min(cost0.sum(), cost1.sum())


def simulate_lemma1(params: TheoryParams) -> dict[int, InequalityReport]:
    """Single-class check: ensemble cost <= average base cost, per class.

    The per-trial difference is the mean over base classifiers of
    (base cost - ensemble cost), so identical predictions cancel exactly.
    """
    params.validate()
    if params.rho < 0.5:
        raise ConfigError("the inequality's hypothesis needs rho >= 0.5")
    reports = {}
    for a in (0, 1):
        ens = np.empty(params.n_trials)
        avg = np.empty(params.n_trials)
        diffs = np.empty(params.n_trials)
        for t in range(params.n_trials):
            rng = make_rng(params.seed, STREAM_TRIALS, a, t)
            y = np.full(params.n_examples, a, dtype=np.int64)
            ens_cost, base_costs, _ = _trial_costs(rng, params, y)
            ens[t] = ens_cost
            avg[t] = float(base_costs.mean())
            diffs[t] = math.fsum((base_costs - ens_cost).tolist()) / params.T
        reports[a] = _summarize(ens, avg, diffs)
    return reports


def simulate_theorem1(params: TheoryParams) -> InequalityReport:
    """Mixed-class check: ensemble savings >= average base savings.

    Per-trial difference is the mean over base classifiers of
    (ensemble savings - base savings); at rho = 1 every term is exactly zero.
    """
    params.validate()
    if params.rho < 0.5:
        raise ConfigError("the inequality's hypothesis needs rho >= 0.5")
    ens = np.empty(params.n_trials)
    avg = np.empty(params.n_trials)
    diffs = np.empty(params.n_trials)
    for t in range(params.n_trials):
        rng = make_rng(params.seed, STREAM_TRIALS, 2, t)
        n = params.n_examples
        y = (rng.random(n) < params.pos_fraction).astype(np.int64)
        if y.min() == y.max():  # force both classes so savings is defined
            y[0] = 1 - y[0]
        ens_cost, base_costs, cost_l = _trial_costs(rng, params, y)
        ens_sav = (cost_l - ens_cost) / cost_l
        base_sav = (cost_l - base_costs) / cost_l
        ens[t] = ens_sav
        avg[t] = float(base_sav.mean())
        diffs[t] = math.fsum((ens_sav - base_sav).tolist()) / params.T
    return _summarize(ens, avg, diffs)
