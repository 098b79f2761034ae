"""Per-example cost accounting: cost matrices, datasets, and the savings metric.

Every example carries its own 2x2 cost matrix (true/false positive/negative
costs). A classifier is scored by the money it loses on a dataset, and by the
fraction of that loss it saves relative to the best constant prediction.
All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError

# Column order of the internal (N, 4) cost array.
COST_COLUMNS = ("c_tp", "c_fp", "c_fn", "c_tn")


def unreasonable_rows(costs: np.ndarray) -> np.ndarray:
    """Mask of the (N, 4) cost rows that break reasonableness: c_fp <= c_tn or c_fn <= c_tp."""
    c_tp, c_fp, c_fn, c_tn = costs.T
    return (c_fp <= c_tn) | (c_fn <= c_tp)


class CostedDataset:
    """An ordered set of examples, each with features, a binary label and costs.

    Internally stored as arrays: ``X`` (N, k) float features, ``y`` (N,) int
    labels in {0, 1}, ``costs`` (N, 4) in :data:`COST_COLUMNS` order. The
    arrays are frozen after validation; subsets share no mutable state with
    their source.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        costs: np.ndarray,
        feature_names: Sequence[str] | None = None,
        strict: bool = True,
    ):
        # copy before freezing: constructing a dataset must not make the
        # caller's arrays read-only or let later caller writes leak in
        self.X = np.array(X, dtype=np.float64, order="C")
        self.y = np.array(y)
        self.costs = np.array(costs, dtype=np.float64, order="C")
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.strict = strict
        self._validate()
        # cast only after the check, which must see a label of 0.7 as given
        self.y = self.y.astype(np.int64, copy=False)
        self._freeze()

    def _freeze(self) -> None:
        for arr in (self.X, self.y, self.costs):
            arr.setflags(write=False)

    def _validate(self) -> None:
        if self.X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional, got shape {self.X.shape}")
        n, k = self.X.shape
        if n == 0:
            raise ValidationError("dataset must be nonempty")
        if k == 0:
            raise ValidationError("dataset must have at least one feature column")
        if self.y.shape != (n,):
            raise ValidationError(f"y has shape {self.y.shape}, expected ({n},)")
        if self.costs.shape != (n, 4):
            raise ValidationError(f"costs have shape {self.costs.shape}, expected ({n}, 4)")
        if self.feature_names is not None and len(self.feature_names) != k:
            raise ValidationError("feature_names length does not match feature count")
        if not np.isfinite(self.X).all():
            raise ValidationError("features contain non-finite values")
        check_binary(self.y, "labels")
        if not np.isfinite(self.costs).all():
            raise ValidationError("costs contain non-finite values")
        if (self.costs < 0).any():
            rows = np.flatnonzero((self.costs < 0).any(axis=1))
            raise ValidationError(f"negative costs at rows {rows[:5].tolist()}")
        if self.strict:
            rows = np.flatnonzero(unreasonable_rows(self.costs))
            if rows.size:
                raise ValidationError(
                    "reasonableness violated (need c_fp > c_tn and c_fn > c_tp) "
                    f"at rows {rows[:5].tolist()}"
                    + (f" and {rows.size - 5} more" if rows.size > 5 else "")
                )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices: np.ndarray | Sequence[int]) -> "CostedDataset":
        """Row subset (duplicates allowed); skips re-validation of row contents."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValidationError("subset must be nonempty")
        # the gathers are fresh C-ordered arrays of the final dtypes, so they
        # are frozen as they are, not copied again by __init__
        sub = CostedDataset.__new__(CostedDataset)
        sub.X, sub.y, sub.costs = self.X[idx], self.y[idx], self.costs[idx]
        sub.feature_names = list(self.feature_names) if self.feature_names is not None else None
        sub.strict = self.strict
        sub._freeze()
        return sub

    def class_counts(self) -> tuple[int, int]:
        """(N_0, N_1): how many negatives and positives."""
        n1 = int(self.y.sum())
        return self.n - n1, n1

    def costs_if_predicted(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-example cost under constant prediction 0 and constant prediction 1.

        Predicting 0 charges c_fn on positives and c_tn on negatives;
        predicting 1 charges c_tp on positives and c_fp on negatives.
        """
        c_tp, c_fp, c_fn, c_tn = self.costs.T
        pos = self.y == 1
        cost0 = np.where(pos, c_fn, c_tn)
        cost1 = np.where(pos, c_tp, c_fp)
        return cost0, cost1


def check_binary(values: np.ndarray, what: str) -> None:
    """Raise unless every value is exactly 0 or 1; check before any cast to int."""
    bad = ~np.isin(values, (0, 1))
    if bad.any():
        raise ValidationError(f"{what} must be exactly 0 or 1, got {values[bad][0]}")


def _check_alignment(dataset: CostedDataset, predictions: np.ndarray) -> np.ndarray:
    preds = np.asarray(predictions)
    if preds.shape != (dataset.n,):
        raise ValidationError(
            f"predictions have shape {preds.shape}, expected ({dataset.n},)"
        )
    check_binary(preds, "predictions")
    return preds.astype(np.int64, copy=False)


def total_cost(dataset: CostedDataset, predictions: np.ndarray) -> float:
    """Sum of per-example costs for a prediction vector aligned with the dataset."""
    preds = _check_alignment(dataset, predictions)
    return _charged(*dataset.costs_if_predicted(), preds)


def _charged(cost0: np.ndarray, cost1: np.ndarray, preds: np.ndarray) -> float:
    return float(np.where(preds == 1, cost1, cost0).sum())


def misclassification_weights(dataset: CostedDataset) -> np.ndarray:
    """Per-example cost of a wrong prediction: w_i = y_i * c_fn_i + (1 - y_i) * c_fp_i."""
    _, c_fp, c_fn, _ = dataset.costs.T
    return np.where(dataset.y == 1, c_fn, c_fp)


def misclassified_cost(dataset: CostedDataset) -> float:
    """Cost of getting every example wrong: c_fn on positives, c_fp on negatives."""
    return float(misclassification_weights(dataset).sum())


def normalized_cost(dataset: CostedDataset, predictions: np.ndarray) -> float:
    """Total cost divided by the all-misclassified cost."""
    denom = misclassified_cost(dataset)
    if denom <= 0.0:
        raise ValidationError(
            "normalized cost undefined: all-misclassified cost is zero"
        )
    return total_cost(dataset, predictions) / denom


def costless_class_cost(dataset: CostedDataset) -> tuple[float, int]:
    """Cheapest constant prediction: (its total cost, the constant), ties -> 0."""
    return _costless_class_cost(*dataset.costs_if_predicted())


def _costless_class_cost(cost0: np.ndarray, cost1: np.ndarray) -> tuple[float, int]:
    total0 = float(cost0.sum())
    total1 = float(cost1.sum())
    if total0 <= total1:
        return total0, 0
    return total1, 1


def savings(dataset: CostedDataset, predictions: np.ndarray) -> float:
    """Fractional cost reduction relative to the costless class.

    1 means zero cost, 0 matches the best constant prediction, negative means
    the classifier loses more money than predicting a constant. A positive
    cost too small to show in the quotient still keeps it below 1.
    """
    preds = _check_alignment(dataset, predictions)
    return savings_of_costs(*dataset.costs_if_predicted(), preds)


def savings_of_costs(cost0: np.ndarray, cost1: np.ndarray, predictions: np.ndarray) -> float:
    """``savings`` from each example's cost of predicting 0 and 1; predictions unchecked."""
    cost_l, _ = _costless_class_cost(cost0, cost1)
    if cost_l <= 0.0:
        raise ValidationError("savings undefined: costless-class cost is zero")
    cost = _charged(cost0, cost1, predictions)
    result = (cost_l - cost) / cost_l
    if result == 1.0 and cost > 0.0:
        return float(np.nextafter(1.0, 0.0))
    return result
