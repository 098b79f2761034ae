"""Randomized subsample generation for ensemble base learners.

Four schemes: bagging (bootstrap), pasting (without replacement), random
forests (bootstrap plus per-node feature sampling, done by the tree), and
random patches (bootstrap of both examples and features). Every sample keeps
its out-of-bag complement: the rows never drawn into it. A bootstrap that
draws every row is re-drawn once, so each sample has out-of-bag rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_integers
from .errors import ConfigError, ValidationError
from .rng import STREAM_SAMPLES, make_rng

KINDS = ("bagging", "pasting", "random_forest", "random_patches")


@dataclass(frozen=True)
class InducerConfig:
    """How to draw the per-tree training subsets.

    n_examples / n_features accept an absolute count (int) or a fraction of
    N / k (float in (0, 1]). None picks the classical default: full bootstrap
    for bagging and random forests, half for pasting and patches; sqrt(k)
    features per node for random forests, half the features for patches.
    """

    kind: str = "bagging"
    T: int = 100
    n_examples: int | float | None = None
    n_features: int | float | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"inducer kind must be one of {KINDS}, got {self.kind!r}")
        check_integers(self, "T", "seed")
        if self.T < 3:
            raise ConfigError(f"ensembles need T >= 3 base classifiers, got T={self.T}")
        for name in ("n_examples", "n_features"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ConfigError(f"{name} must be a count or fraction, got a bool")
            if isinstance(value, float) and not 0.0 < value <= 1.0:
                raise ConfigError(f"fractional {name} must be in (0, 1], got {value}")
            if isinstance(value, int) and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    def resolved_n_examples(self, n: int) -> int:
        # with-replacement draws may exceed N; pasting is checked separately
        default_frac = 1.0 if self.kind in ("bagging", "random_forest") else 0.5
        return _resolve(self.n_examples, n, default_frac, "n_examples", cap=None)

    def resolved_n_features(self, k: int) -> int:
        if self.kind == "random_forest":
            if self.n_features is None:
                return max(1, int(math.sqrt(k)))
            return _resolve(self.n_features, k, 1.0, "n_features", cap=k)
        return _resolve(self.n_features, k, 0.5, "n_features", cap=k)


def _resolve(
    value: int | float | None, total: int, default_frac: float, name: str,
    cap: int | None,
) -> int:
    if value is None:
        resolved = max(1, int(round(default_frac * total)))
    elif isinstance(value, bool):
        raise ConfigError(f"{name} must be a count or fraction, got a bool")
    elif isinstance(value, int):
        resolved = value
    else:
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"fractional {name} must be in (0, 1], got {value}")
        resolved = max(1, int(round(value * total)))
    if resolved < 1 or (cap is not None and resolved > cap):
        bound = cap if cap is not None else "inf"
        raise ConfigError(f"{name}={resolved} out of range [1, {bound}]")
    return resolved


@dataclass(frozen=True)
class BaseSample:
    """One base classifier's draw: row multiset, feature view, OOB complement."""

    example_indices: np.ndarray           # drawn rows, duplicates allowed
    oob_indices: np.ndarray               # rows never drawn
    feature_indices: np.ndarray | None    # patches only: the visible features
    node_features: int | None             # random forest only: per-node subset size


def _oob(n: int, drawn: np.ndarray) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[drawn] = False
    return np.flatnonzero(mask)


def draw_samples(dataset_size: int, k: int, config: InducerConfig) -> list[BaseSample]:
    """The T per-tree samples for a dataset of given size and feature count."""
    config.validate()
    n_e = config.resolved_n_examples(dataset_size)
    if config.kind == "pasting" and n_e >= dataset_size:
        # n_e > N cannot be drawn; n_e = N leaves no out-of-bag row
        raise ConfigError(
            f"pasting draws without replacement: n_examples={n_e} must be < N={dataset_size}"
        )
    samples = []
    for j in range(config.T):
        rng = make_rng(config.seed, STREAM_SAMPLES, j)
        feature_indices = None
        node_features = None
        if config.kind == "pasting":
            rows = np.sort(rng.choice(dataset_size, size=n_e, replace=False))
        else:
            rows = np.sort(rng.integers(0, dataset_size, size=n_e))
        oob = _oob(dataset_size, rows)
        if oob.size == 0:
            # one re-draw of the rows on a fresh substream, then give up
            redraw = make_rng(config.seed, STREAM_SAMPLES, j, 1)
            rows = np.sort(redraw.integers(0, dataset_size, size=n_e))
            oob = _oob(dataset_size, rows)
            if oob.size == 0:
                raise ValidationError(
                    f"base sample {j} covers every row twice in a row; "
                    "reduce n_examples"
                )
        if config.kind == "random_forest":
            node_features = config.resolved_n_features(k)
        elif config.kind == "random_patches":
            n_f = config.resolved_n_features(k)
            # drawn with replacement, then deduplicated: repeats add nothing
            feature_indices = np.unique(rng.integers(0, k, size=n_f))
        samples.append(
            BaseSample(
                example_indices=rows,
                oob_indices=oob,
                feature_indices=feature_indices,
                node_features=node_features,
            )
        )
    return samples
