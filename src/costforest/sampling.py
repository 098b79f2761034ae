"""Training-set resampling: undersampling and cost-proportionate variants.

The misclassification weight of an example is its only misclassification
exposure: w_i = c_fn on positives, c_fp on negatives. Rejection sampling
keeps examples with probability w_i / max_j w_j; over-sampling replicates
them round-half-up proportionally to w_i / min positive weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .cost_model import CostedDataset, misclassification_weights
from .errors import ValidationError
from .rng import STREAM_RESAMPLE, make_rng

METHODS = ("undersample", "rejection", "oversample")
# one-letter training-set codes of the benchmark grid and the CLI; "t" trains
# on the data as given
SAMPLING_CODES = {"t": None, "u": "undersample", "r": "rejection", "o": "oversample"}


@dataclass(frozen=True)
class SamplingSpec:
    method: str = "undersample"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown sampling method {self.method!r}, want one of {METHODS}")


def undersample_indices(dataset: CostedDataset, seed: int = 0) -> np.ndarray:
    """Row indices of the balanced subset behind :func:`undersample`."""
    n0, n1 = dataset.class_counts()
    if n0 == 0 or n1 == 0:
        raise ValidationError("undersampling needs both classes present")
    minority = 1 if n1 <= n0 else 0
    keep = np.flatnonzero(dataset.y == minority)
    majority_idx = np.flatnonzero(dataset.y != minority)
    rng = make_rng(seed, STREAM_RESAMPLE)
    chosen = rng.choice(majority_idx, size=keep.size, replace=False)
    return np.sort(np.concatenate([keep, chosen]))


def undersample(dataset: CostedDataset, seed: int = 0) -> CostedDataset:
    """Balance classes: keep the minority, uniformly thin the majority."""
    return dataset.subset(undersample_indices(dataset, seed))


def rejection_sample_indices(
    dataset: CostedDataset, seed: int = 0, max_retries: int = 100
) -> np.ndarray:
    """Row indices kept by :func:`rejection_sample`."""
    w = misclassification_weights(dataset)
    w_max = w.max()
    if w_max <= 0:
        raise ValidationError("rejection sampling needs a positive misclassification weight")
    accept_p = w / w_max
    for attempt in range(max_retries):
        rng = make_rng(seed, STREAM_RESAMPLE, attempt)
        kept = np.flatnonzero(rng.random(dataset.n) < accept_p)
        if kept.size:
            return kept
    raise ValidationError(
        f"rejection sampling produced an empty set {max_retries} times in a row"
    )


def rejection_sample(
    dataset: CostedDataset, seed: int = 0, max_retries: int = 100
) -> CostedDataset:
    """Keep each example independently with probability w_i / max_j w_j.

    An all-rejected draw retries on the next substream; after
    ``max_retries`` empty draws the dataset is declared degenerate.
    """
    return dataset.subset(rejection_sample_indices(dataset, seed, max_retries))


def oversample_indices(dataset: CostedDataset) -> np.ndarray:
    """Row indices (with repeats) behind :func:`oversample`."""
    w = misclassification_weights(dataset)
    positive = w[w > 0]
    if positive.size == 0:
        raise ValidationError("over-sampling needs at least one positive misclassification weight")
    w_min = positive.min()
    copies = np.floor(w / w_min + 0.5).astype(np.int64)  # round half up
    copies = np.maximum(copies, 1)
    return np.repeat(np.arange(dataset.n), copies)


def oversample(dataset: CostedDataset) -> CostedDataset:
    """Replicate example i round-half-up(w_i / min positive weight) times, at least once."""
    return dataset.subset(oversample_indices(dataset))


def _by_method(spec: SamplingSpec, under: Callable, rejection: Callable, over: Callable):
    """The function of ``spec``'s method among the three, with its seed bound."""
    if spec.method == "undersample":
        return partial(under, seed=spec.seed)
    if spec.method == "rejection":
        return partial(rejection, seed=spec.seed)
    return over


def resample_indices(dataset: CostedDataset, spec: SamplingSpec) -> np.ndarray:
    """Row indices (repeats allowed) of the training set :func:`resample` returns."""
    return _by_method(spec, undersample_indices, rejection_sample_indices, oversample_indices)(
        dataset
    )


def resample(dataset: CostedDataset, spec: SamplingSpec) -> CostedDataset:
    return _by_method(spec, undersample, rejection_sample, oversample)(dataset)
