"""Cost-insensitive reference learners and the Bayes-minimum-risk layer.

The logistic model minimizes L2-regularized cross-entropy over z-scored
features with damped Newton steps, run until the gradient vanishes. BMR
turns any positive-class probability into a per-example decision by
comparing expected costs. The tree and forest baselines are the
cost-sensitive learners grown with the error-count impurity, which ignores
the money columns entirely; ``evaluation`` builds their configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combiners import _sigmoid
from .config import check_integers
from .cost_model import CostedDataset
# grow and predict_proba_many are not called here; they stay importable as
# baselines.grow and baselines.predict_proba_many, names that perfbench's
# traced runs wrap
from .csdt import as_features, grow, predict_proba_many  # noqa: F401
from .errors import ConfigError, ValidationError


# train_logistic stops once every component of the objective's gradient is
# at most this small in magnitude
GRAD_TOL = 1e-10
# a Newton step halves at most this many times before training gives up on it
MAX_HALVINGS = 60


@dataclass(frozen=True)
class LrConfig:
    """``learning_rate`` scales each Newton step before it is damped (1 is the
    full step); ``n_iter`` caps the number of steps."""

    learning_rate: float = 1.0
    n_iter: int = 50
    l2: float = 1e-4
    standardize: bool = True

    def validate(self) -> None:
        check_integers(self, "n_iter")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.n_iter < 1:
            raise ConfigError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    mean: np.ndarray
    std: np.ndarray

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = as_features(X, self.weights.size)
        z = (X - self.mean) / self.std
        return _sigmoid(z @ self.weights + self.intercept)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def train_logistic(train: CostedDataset, config: LrConfig | None = None) -> LogisticModel:
    """Damped Newton minimization from a zero start, deterministic.

    The objective is mean cross-entropy plus ``0.5 * l2 * |w|^2`` (intercept
    unpenalized). Each step solves the Newton system, with the intercept as a
    column of ones, and tries ``learning_rate`` times the Newton direction,
    halving it (up to MAX_HALVINGS times) while the loss there is not finite
    or above the current loss. Training stops when max |gradient| <= GRAD_TOL,
    when no tried step lowers the loss, or after ``n_iter`` steps. It raises if
    no tried step has a finite loss, or if the Hessian is not finite, and, when
    it standardizes, on a column whose standard deviation overflows. With
    ``l2 = 0`` on separable data no optimum exists: the weights grow until one
    of the stops, and stay finite.
    """
    config = config or LrConfig()
    config.validate()
    X = train.X
    if config.standardize:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = X.std(axis=0)
        overflowed = np.flatnonzero(~np.isfinite(std))
        if overflowed.size:
            j = int(overflowed[0])
            name = "" if train.feature_names is None else f" ({train.feature_names[j]!r})"
            raise ValidationError(
                f"feature column {j}{name} has a standard deviation that overflows float64; "
                "rescale it"
            )
        std = np.where(std > 0, std, 1.0)
    else:
        mean = np.zeros(train.k)
        std = np.ones(train.k)
    Xa = np.column_stack([(X - mean) / std, np.ones(train.n)])
    y = train.y.astype(np.float64)
    penalty = np.append(np.full(train.k, config.l2), 0.0)
    theta = np.zeros(train.k + 1)
    z = np.zeros(train.n)
    loss = _logistic_loss(z, y, theta, penalty)
    with np.errstate(all="ignore"):
        for _ in range(config.n_iter):
            p = _sigmoid(z)
            grad = Xa.T @ (p - y) / train.n + penalty * theta
            if np.abs(grad).max() <= GRAD_TOL:
                break
            hessian = (Xa.T * (p * (1 - p))) @ Xa / train.n + np.diag(penalty)
            if not np.isfinite(hessian).all():
                raise _diverged("non-finite Hessian; standardize the features")
            direction = _solve(hessian, grad)
            step, finite = config.learning_rate, False
            for _ in range(MAX_HALVINGS + 1):
                trial = theta - step * direction
                trial_z = Xa @ trial
                trial_loss = _logistic_loss(trial_z, y, trial, penalty)
                finite |= np.isfinite(trial_loss)
                if trial_loss <= loss:
                    break
                step /= 2
            else:
                if not finite:
                    raise _diverged("non-finite loss; try a smaller learning_rate")
                break  # no tried step lowers the loss: as low as it gets
            theta, z, loss = trial, trial_z, trial_loss
    return LogisticModel(weights=theta[:-1], intercept=float(theta[-1]), mean=mean, std=std)


def _logistic_loss(z: np.ndarray, y: np.ndarray, theta: np.ndarray, penalty: np.ndarray) -> float:
    """Mean cross-entropy at logits ``z``, log(1 + e^z) - y z, plus the L2 term."""
    return float((np.logaddexp(0.0, z) - y * z).mean() + 0.5 * (penalty * theta) @ theta)


def _solve(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Newton direction. A singular Hessian (l2 = 0 with a constant column,
    or every probability saturated) takes the least-squares direction."""
    try:
        return np.linalg.solve(hessian, grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hessian, grad, rcond=None)[0]


def _diverged(reason: str) -> ValidationError:
    return ValidationError(f"logistic training diverged ({reason})")


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
