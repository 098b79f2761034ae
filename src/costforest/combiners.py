"""Combining base-classifier votes: majority, weighted, and stacking.

Weighted voting weighs each base classifier by its out-of-bag savings (wv)
or accuracy (wv-acc); negative scores clamp to zero so a losing tree never
inverts votes.
Stacking learns a sigmoid-linear second level whose weights minimize the
example-dependent expected-cost objective; that objective is non-convex, so
a real-coded genetic algorithm searches for the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_integers
from .cost_model import CostedDataset, check_binary
from .errors import ConfigError, ValidationError
from .rng import STREAM_GA, make_rng

COMBINER_KINDS = ("mv", "wv", "wv-acc", "stacking")


@dataclass(frozen=True)
class WeightVector:
    """Finite, nonnegative voting weights summing to one."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        object.__setattr__(self, "alphas", alphas)
        if not (np.isfinite(alphas) & (alphas >= 0)).all():
            raise ValidationError("voting weights must be finite and nonnegative")
        if abs(alphas.sum() - 1.0) > 1e-9:
            raise ValidationError(f"voting weights must sum to 1, got {alphas.sum()}")


@dataclass
class StackingWeights:
    """Sigmoid-linear second-level model: predict 1 iff g(b0 + b . votes) >= threshold."""

    betas: np.ndarray
    intercept: float
    threshold: float = 0.5
    trace: np.ndarray | None = None  # best objective per generation, fit metadata

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if not np.isfinite(self.betas).all() or not np.isfinite(self.intercept):
            raise ValidationError("stacking weights must be finite")
        if not 0.0 <= self.threshold <= 1.0:  # NaN fails too
            raise ValidationError(f"stacking threshold must be in [0, 1], got {self.threshold}")

    def scores(self, base_predictions: np.ndarray) -> np.ndarray:
        votes = as_vote_matrix(base_predictions)
        if votes.shape[0] != self.betas.size:
            raise ValidationError(
                f"{votes.shape[0]} base classifiers but {self.betas.size} weights"
            )
        return _sigmoid(self.intercept + self.betas @ votes)


@dataclass(frozen=True)
class GaConfig:
    """Real-coded genetic algorithm hyperparameters.

    beta_bounds is the random-initialization range; evolution may wander
    beyond it (hard clipping would wall off the sigmoid's saturation region,
    where the stacking optimum often lives).
    """

    population: int = 64
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    mutation_sigma: float = 0.5
    beta_bounds: tuple[float, float] = (-5.0, 5.0)
    elitism: int = 2
    tournament: int = 3
    seed: int = 0

    def validate(self) -> None:
        check_integers(self, "population", "generations", "elitism", "tournament", "seed")
        if self.population < 4:
            raise ConfigError(f"population must be >= 4, got {self.population}")
        if not all(np.isfinite(self.beta_bounds)) or self.beta_bounds[0] >= self.beta_bounds[1]:
            raise ConfigError(f"beta_bounds must be a finite (lo, hi), got {self.beta_bounds}")
        if self.elitism < 1 or self.elitism >= self.population:
            raise ConfigError("elitism must be in [1, population)")
        if self.generations < 0:
            raise ConfigError(f"generations must be >= 0, got {self.generations}")
        if self.tournament < 1:
            raise ConfigError(f"tournament must be >= 1, got {self.tournament}")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not self.mutation_sigma >= 0.0:
            raise ConfigError(f"mutation_sigma must be >= 0, got {self.mutation_sigma}")
        if not math.isfinite(self.mutation_sigma):  # an unmutated gene would add 0 * inf
            raise ConfigError(f"mutation_sigma must be finite, got {self.mutation_sigma}")


def _sigmoid(z) -> np.ndarray:
    """Logistic function of ``z``.

    With e = exp(-|z|) it is 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, so no exp can overflow; a NaN passes through with its sign.
    """
    z = np.asarray(z, dtype=np.float64)
    nonneg = z >= 0
    e = np.exp(np.where(nonneg, -z, z))
    return np.where(nonneg, 1 / (1 + e), e / (1 + e))


def as_vote_matrix(base_predictions) -> np.ndarray:
    """Coerce per-classifier prediction vectors into a (T, N) binary matrix."""
    if isinstance(base_predictions, np.ndarray) and base_predictions.ndim == 2:
        votes = base_predictions
    else:
        rows = [np.asarray(r) for r in base_predictions]
        if len({r.shape for r in rows}) > 1:
            raise ValidationError("base prediction vectors have unequal lengths")
        votes = np.vstack(rows) if rows else np.empty((0, 0))
    votes = np.asarray(votes)
    if votes.ndim != 2 or votes.shape[0] < 1:
        raise ValidationError(f"vote matrix must be (T, N) with T >= 1, got {votes.shape}")
    check_binary(votes, "votes")
    return votes.astype(np.int64)


def majority_vote(base_predictions) -> np.ndarray:
    """Per-example class with most votes; ties go to 0."""
    votes = as_vote_matrix(base_predictions)
    ones = votes.sum(axis=0)
    return (2 * ones > votes.shape[0]).astype(np.int64)


def _signed_margins(votes: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Weight mass for class 1 minus mass for class 0, exactly rounded near zero.

    The fast dot product can misround an exact tie by an ulp; any margin that
    small is recomputed with math.fsum, whose single correctly-rounded result
    preserves the true sign (and yields exactly 0.0 on ties).
    """
    signs = 2.0 * votes - 1.0
    margins = alphas @ signs
    tol = 64 * np.finfo(np.float64).eps * max(float(np.abs(alphas).sum()), 1.0)
    for i in np.flatnonzero(np.abs(margins) <= tol):
        margins[i] = math.fsum((alphas * signs[:, i]).tolist())
    return margins


def weighted_vote(base_predictions, weights: WeightVector) -> np.ndarray:
    """Per-example argmax of weighted vote mass; ties go to 0."""
    votes = as_vote_matrix(base_predictions)
    if weights.alphas.size != votes.shape[0]:
        raise ValidationError(
            f"{votes.shape[0]} base classifiers but {weights.alphas.size} weights"
        )
    return (_signed_margins(votes, weights.alphas) > 0).astype(np.int64)


def weights_from_scores(scores) -> WeightVector:
    """Voting weights proportional to per-tree scores (OOB savings or accuracy).

    Negative scores clamp to zero so a losing tree never inverts votes; an
    all-nonpositive vector falls back to uniform weights.
    """
    raw = np.asarray(scores, dtype=np.float64)
    clamped = np.maximum(raw, 0.0)
    total = clamped.sum()
    if total <= 0.0:
        return WeightVector(np.full(raw.size, 1.0 / raw.size))
    return WeightVector(clamped / total)


def stacking_predict(base_predictions, weights: StackingWeights) -> np.ndarray:
    """Predict 1 wherever the second-level score reaches the threshold."""
    return (weights.scores(base_predictions) >= weights.threshold).astype(np.int64)


@dataclass
class GaResult:
    best: np.ndarray
    best_cost: float
    trace: np.ndarray  # best-ever objective after each generation


def ga_minimize(objective_batch, dim: int, config: GaConfig, seeds=()) -> GaResult:
    """Minimize a batched objective with a real-coded genetic algorithm.

    objective_batch maps a (P, dim) population to (P,) costs. ``seeds`` are
    individuals injected into the initial population. Tournament selection,
    uniform crossover, Gaussian mutation, elitism; returns the best
    individual ever evaluated.
    """
    config.validate()
    rng = make_rng(config.seed, STREAM_GA)
    lo, hi = config.beta_bounds
    pop = rng.uniform(lo, hi, size=(config.population, dim))
    for i, seed_vec in enumerate(seeds):
        if i >= config.population:
            break
        pop[i] = np.asarray(seed_vec, dtype=np.float64)
    costs = np.asarray(objective_batch(pop), dtype=np.float64)

    best_idx = int(np.argmin(costs))
    best = pop[best_idx].copy()
    best_cost = float(costs[best_idx])
    trace = [best_cost]

    n_children = config.population - config.elitism
    for _ in range(config.generations):
        elite_order = np.argsort(costs, kind="stable")[: config.elitism]
        # tournament selection: the cheapest of `tournament` random rivals
        rivals = rng.integers(0, config.population, size=(2 * n_children, config.tournament))
        winners = rivals[np.arange(2 * n_children), np.argmin(costs[rivals], axis=1)]
        parents_a = pop[winners[:n_children]]
        parents_b = pop[winners[n_children:]]
        # uniform crossover per pair
        cross = rng.random(n_children) < config.crossover_rate
        take_b = rng.random((n_children, dim)) < 0.5
        children = np.where(cross[:, None] & take_b, parents_b, parents_a)
        # Gaussian mutation per gene
        mutate = rng.random((n_children, dim)) < config.mutation_rate
        children = children + mutate * rng.normal(0.0, config.mutation_sigma, (n_children, dim))
        pop = np.vstack([pop[elite_order], children])
        costs = np.concatenate(
            [costs[elite_order], np.asarray(objective_batch(children), dtype=np.float64)]
        )
        gen_best = int(np.argmin(costs))
        if costs[gen_best] < best_cost:
            best_cost = float(costs[gen_best])
            best = pop[gen_best].copy()
        trace.append(best_cost)
    return GaResult(best=best, best_cost=best_cost, trace=np.array(trace))


def fit_stacking(
    dataset: CostedDataset, base_predictions, ga: GaConfig | None = None
) -> StackingWeights:
    """Search stacking weights minimizing the expected-cost objective.

    The objective is J = sum_i f_s(v_i) (cost1_i - cost0_i) + sum_i cost0_i,
    with v_i row i's vote column. Rows with equal vote columns share one
    score, so J is evaluated once per distinct column, weighted by the summed
    slopes of its rows; only the order of the sum differs from the per-row
    form, so the GA trace may differ from it in the last ulp.

    The individual is (intercept, beta_1..beta_T). The initial population
    includes the zero vector and the uniform vector (beta_j = 1/T with
    intercept -0.5, so all-positive votes score just above one half).
    """
    ga = ga or GaConfig()
    ga.validate()
    votes = as_vote_matrix(base_predictions)
    T = votes.shape[0]
    if votes.shape[1] != dataset.n:
        raise ValidationError(
            f"votes cover {votes.shape[1]} examples, dataset has {dataset.n}"
        )
    cost0, cost1 = dataset.costs_if_predicted()
    offset = float(cost0.sum())
    # one byte string per vote column (bits packed in order, so the byte order
    # is the votes' lexicographic order); np.unique on these is ~35x faster
    # than np.unique(votes.T, axis=0) on 100 x 3000 votes, same patterns
    packed = np.packbits(votes.astype(np.uint8), axis=0)
    keys = np.ascontiguousarray(packed.T).view(f"V{packed.shape[0]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    pattern_slope = np.bincount(inverse, weights=cost1 - cost0)
    patterns_f = votes[:, first].astype(np.float64)

    def objective(pop: np.ndarray) -> np.ndarray:
        return _sigmoid(pop[:, 1:] @ patterns_f + pop[:, :1]) @ pattern_slope + offset

    uniform = np.concatenate([[-0.5], np.full(T, 1.0 / T)])
    result = ga_minimize(objective, T + 1, ga, seeds=[np.zeros(T + 1), uniform])
    return StackingWeights(
        betas=result.best[1:], intercept=float(result.best[0]), trace=result.trace
    )
