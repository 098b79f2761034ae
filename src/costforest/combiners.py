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

from .cost_model import CostedDataset
from .errors import ConfigError, ValidationError
from .rng import STREAM_GA, make_rng

COMBINER_KINDS = ("mv", "wv", "wv-acc", "stacking")


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative voting weights summing to one."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        object.__setattr__(self, "alphas", alphas)
        if (alphas < 0).any():
            raise ValidationError("voting weights must be nonnegative")
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
        if self.population < 4:
            raise ConfigError(f"population must be >= 4, got {self.population}")
        if not all(np.isfinite(self.beta_bounds)) or self.beta_bounds[0] >= self.beta_bounds[1]:
            raise ConfigError(f"beta_bounds must be a finite (lo, hi), got {self.beta_bounds}")
        if self.elitism < 1 or self.elitism >= self.population:
            raise ConfigError("elitism must be in [1, population)")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of ``z``, written into ``out`` (which may be ``z``).

    With e = exp(-|z|) it is 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, so no exp can overflow; a NaN passes through with its sign.
    """
    z = np.asarray(z, dtype=np.float64)
    nonneg = z >= 0
    e = np.empty_like(z) if out is None else out
    np.copyto(e, z)
    np.negative(e, out=e, where=nonneg)
    np.exp(e, out=e)
    denom = e + 1.0
    np.divide(e, denom, out=e)
    np.divide(1.0, denom, out=e, where=nonneg)
    return e


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
    if not np.isin(votes, (0, 1)).all():
        raise ValidationError("votes must be binary in {0, 1}")
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


def _stacking_cost_terms(dataset: CostedDataset) -> tuple[np.ndarray, float]:
    """J = f_s . slope + offset: per-example slopes and the constant offset."""
    cost0, cost1 = dataset.costs_if_predicted()
    return cost1 - cost0, float(cost0.sum())


def stacking_cost(
    dataset: CostedDataset, base_predictions, weights: StackingWeights
) -> float:
    """Expected-cost objective of the sigmoid-linear combiner on a dataset."""
    votes = as_vote_matrix(base_predictions)
    if votes.shape[1] != dataset.n:
        raise ValidationError(
            f"votes cover {votes.shape[1]} examples, dataset has {dataset.n}"
        )
    f_s = weights.scores(votes)
    slope, offset = _stacking_cost_terms(dataset)
    return float(f_s @ slope + offset)


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

    The individual is (intercept, beta_1..beta_T). The initial population
    includes the zero vector and the uniform vector (beta_j = 1/T with
    intercept -0.5, so all-positive votes score just above one half).
    """
    ga = ga or GaConfig()
    ga.validate()  # before the population sizes a buffer
    votes = as_vote_matrix(base_predictions)
    T = votes.shape[0]
    if votes.shape[1] != dataset.n:
        raise ValidationError(
            f"votes cover {votes.shape[1]} examples, dataset has {dataset.n}"
        )
    slope, offset = _stacking_cost_terms(dataset)
    votes_f = votes.astype(np.float64)
    # one (population, n) buffer serves every batch: the whole population
    # first, then each generation's children
    z_buffer = np.empty((ga.population, dataset.n))

    def objective(pop: np.ndarray) -> np.ndarray:
        z = z_buffer[: pop.shape[0]]
        np.matmul(pop[:, 1:], votes_f, out=z)
        z += pop[:, :1]
        return _sigmoid(z, out=z) @ slope + offset

    uniform = np.concatenate([[-0.5], np.full(T, 1.0 / T)])
    result = ga_minimize(objective, T + 1, ga, seeds=[np.zeros(T + 1), uniform])
    return StackingWeights(
        betas=result.best[1:], intercept=float(result.best[0]), trace=result.trace
    )
