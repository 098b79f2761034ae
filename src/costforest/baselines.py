"""Cost-insensitive reference learners and the Bayes-minimum-risk layer.

The logistic model trains by plain gradient descent on L2-regularized
cross-entropy over z-scored features. BMR turns any positive-class
probability into a per-example decision by comparing expected costs.
The tree and forest baselines reuse the cost-sensitive machinery with the
error-count impurity, which ignores the money columns entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ensemble
from .combiners import _sigmoid
from .cost_model import CostedDataset
from .csdt import CsdtConfig, CsdtModel, grow, leaf_proba, predict_proba_many, route
from .ensemble import EcsdtConfig, EnsembleModel
from .errors import ConfigError, ValidationError
from .inducers import InducerConfig


@dataclass(frozen=True)
class LrConfig:
    learning_rate: float = 0.1
    n_iter: int = 500
    l2: float = 1e-4
    standardize: bool = True

    def validate(self) -> None:
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.n_iter < 1:
            raise ConfigError(f"n_iter must be >= 1, got {self.n_iter}")
        if not self.l2 >= 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    mean: np.ndarray
    std: np.ndarray

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        z = (X - self.mean) / self.std
        return _sigmoid(z @ self.weights + self.intercept)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def logistic_loss_grad(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray, intercept: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy with L2 on the weights (intercept unpenalized)."""
    n = X.shape[0]
    z = X @ weights + intercept
    p = _sigmoid(z)
    eps = 1e-12
    loss = float(
        -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        + 0.5 * l2 * (weights @ weights)
    )
    residual = p - y
    grad_w = X.T @ residual / n + l2 * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def train_logistic(train: CostedDataset, config: LrConfig | None = None) -> LogisticModel:
    """Deterministic full-batch gradient descent from a zero start."""
    config = config or LrConfig()
    config.validate()
    X = train.X
    if config.standardize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)
    else:
        mean = np.zeros(train.k)
        std = np.ones(train.k)
    Xz = (X - mean) / std
    y = train.y.astype(np.float64)
    w = np.zeros(train.k)
    b = 0.0
    for _ in range(config.n_iter):
        loss, grad_w, grad_b = logistic_loss_grad(Xz, y, w, b, config.l2)
        if not np.isfinite(loss):
            raise ValidationError(
                "logistic training diverged (non-finite loss); try a smaller "
                "learning_rate"
            )
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b
    return LogisticModel(weights=w, intercept=b, mean=mean, std=std)


def bmr_predict_dataset(p_hats: np.ndarray, dataset: CostedDataset) -> np.ndarray:
    """Vectorized BMR over a dataset's own cost rows."""
    p = np.asarray(p_hats, dtype=np.float64)
    if p.shape != (dataset.n,):
        raise ValidationError(f"p_hats have shape {p.shape}, expected ({dataset.n},)")
    if ((p < 0) | (p > 1)).any():
        raise ValidationError("p_hats must be in [0, 1]")
    c_tp, c_fp, c_fn, c_tn = dataset.costs.T
    risk_pos = p * c_tp + (1 - p) * c_fp
    risk_neg = p * c_fn + (1 - p) * c_tn
    return (risk_pos <= risk_neg).astype(np.int64)


@dataclass
class BmrWrapper:
    """Attach the BMR decision layer to any positive-class probability model."""

    base: object  # anything with predict_proba(X) -> (n,) probabilities

    def predict_on(self, dataset: CostedDataset) -> np.ndarray:
        return bmr_predict_dataset(self.base.predict_proba(dataset.X), dataset)


def gini_tree(train: CostedDataset, config: CsdtConfig | None = None) -> CsdtModel:
    """Plain error-count decision tree (the DT baseline)."""
    return grow(train, replace(config or CsdtConfig(), impurity="gini"))


@dataclass
class ForestModel:
    """Majority-vote forest with probability output for the BMR layer."""

    inner: EnsembleModel

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return self.inner.predict_many(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf probabilities; ``X`` is checked once."""
        X = self.inner.features(X)
        probs = np.zeros(X.shape[0])
        for model, subset in zip(self.inner.base_models, self.inner.feature_subsets):
            probs += leaf_proba(model.tree, route(model.tree, X, subset))
        return probs / len(self.inner.base_models)


def plain_forest(
    train: CostedDataset,
    T: int = 100,
    seed: int = 0,
    tree: CsdtConfig | None = None,
) -> ForestModel:
    """Classical random forest: bootstrap, per-node features, majority vote."""
    return ForestModel(inner=ensemble.train(train, forest_config(T, seed, tree)))


def forest_config(T: int = 100, seed: int = 0, tree: CsdtConfig | None = None) -> EcsdtConfig:
    """The ensemble config :func:`plain_forest` trains with."""
    return EcsdtConfig(
        inducer=InducerConfig(kind="random_forest", T=T, seed=seed),
        tree=replace(tree or CsdtConfig(), impurity="gini"),
        combiner="mv",
    )


@dataclass
class TreeProbaModel:
    """Probability adapter for a single tree (leaf frequency, Laplace smoothed)."""

    inner: CsdtModel

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return predict_proba_many(self.inner, X)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return self.inner.predict_many(X)
