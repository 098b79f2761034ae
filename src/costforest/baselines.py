"""Cost-insensitive reference learners and the Bayes-minimum-risk layer.

The logistic model trains by plain gradient descent on L2-regularized
cross-entropy over z-scored features. BMR turns any positive-class
probability into a per-example decision by comparing expected costs.
The tree and forest baselines are the cost-sensitive learners grown with
the error-count impurity, which ignores the money columns entirely;
``evaluation`` builds their configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combiners import _sigmoid
from .cost_model import CostedDataset
# grow and predict_proba_many are not called here; they stay importable as
# baselines.grow and baselines.predict_proba_many, names that perfbench's
# traced runs wrap
from .csdt import _check_finite, as_features, grow, predict_proba_many  # noqa: F401
from .errors import ConfigError, ValidationError


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
        X = as_features(X, self.weights.size)
        _check_finite(X)
        z = (X - self.mean) / self.std
        return _sigmoid(z @ self.weights + self.intercept)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def train_logistic(train: CostedDataset, config: LrConfig | None = None) -> LogisticModel:
    """Deterministic full-batch gradient descent from a zero start.

    A step raises if the loss, mean cross-entropy plus L2 on the weights
    (intercept unpenalized), is not finite at the current weights. The
    probabilities lie in [0, 1] unless one is NaN, so that is when a
    probability is NaN or the L2 term is not finite.
    """
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
        p = _sigmoid(Xz @ w + b)
        if np.isnan(p).any() or not np.isfinite(0.5 * config.l2 * (w @ w)):
            raise ValidationError(
                "logistic training diverged (non-finite loss); try a smaller "
                "learning_rate"
            )
        residual = p - y
        w -= config.learning_rate * (Xz.T @ residual / train.n + config.l2 * w)
        b -= config.learning_rate * float(residual.mean())
    return LogisticModel(weights=w, intercept=b, mean=mean, std=std)


def bmr_predict_dataset(p_hats: np.ndarray, dataset: CostedDataset) -> np.ndarray:
    """Vectorized BMR over a dataset's own cost rows."""
    p = np.asarray(p_hats, dtype=np.float64)
    if p.shape != (dataset.n,):
        raise ValidationError(f"p_hats have shape {p.shape}, expected ({dataset.n},)")
    if not ((p >= 0) & (p <= 1)).all():
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
