"""The full ensemble: induce subsamples, train base trees, combine.

Training follows one recipe for every inducer/combiner pairing: draw the T
subsamples, grow a cost-sensitive tree on each, score each tree's savings and
accuracy on its out-of-bag rows with one prediction, then fit the chosen
combiner. Out-of-bag savings are recorded even when the combiner ignores
them, so reports can always show per-tree quality.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import combiners, csdt
from .combiners import GaConfig, StackingWeights, WeightVector
from .config import from_json
# savings is not called here; it stays importable as ensemble.savings, a name
# that perfbench's traced runs wrap
from .cost_model import CostedDataset, savings, savings_of_costs  # noqa: F401
from .csdt import CsdtConfig, CsdtModel
from .errors import ConfigError, ValidationError
from .inducers import BaseSample, InducerConfig, draw_samples
from .rng import STREAM_NODES, mix64


@dataclass(frozen=True)
class EcsdtConfig:
    inducer: InducerConfig = field(default_factory=InducerConfig)
    tree: CsdtConfig = field(default_factory=CsdtConfig)
    combiner: str = "wv"
    ga: GaConfig = field(default_factory=GaConfig)

    def validate(self) -> None:
        self.inducer.validate()
        self.tree.validate()
        if self.combiner not in combiners.COMBINER_KINDS:
            raise ConfigError(
                f"combiner must be one of {combiners.COMBINER_KINDS}, got {self.combiner!r}"
            )
        if self.combiner == "stacking":
            self.ga.validate()


@dataclass
class EnsembleModel:
    """T base trees plus exactly one populated combiner parameter set."""

    base_models: list[CsdtModel]
    feature_subsets: list[np.ndarray | None]
    oob_savings: np.ndarray
    combiner: str
    config: EcsdtConfig
    k: int
    weights: WeightVector | None = None
    stacking: StackingWeights | None = None

    @property
    def T(self) -> int:
        return len(self.base_models)

    def features(self, X: np.ndarray) -> np.ndarray:
        """``X`` as the trees route it; rejects non-finite values in any
        column that some tree reads."""
        X = csdt.as_features(X, self.k)
        finite = np.isfinite(X).all(axis=0)
        if not finite.all() and any(
            subset is None or not finite[subset].all() for subset in self.feature_subsets
        ):
            raise ValidationError("features contain non-finite values")
        return X

    def leaves(self, X: np.ndarray) -> Iterator[tuple[csdt.Tree, np.ndarray]]:
        """Each base tree, in order, with the leaf that each row of ``X`` (as
        :meth:`features` returns it) reaches in it."""
        for model, subset in zip(self.base_models, self.feature_subsets):
            yield model.tree, csdt.route(model.tree, X, subset)

    def base_votes(self, X: np.ndarray) -> np.ndarray:
        """(T, N) matrix of base-tree predictions, feature subsets remapped."""
        X = self.features(X)
        votes = np.empty((self.T, X.shape[0]), dtype=np.int64)
        for j, (tree, leaves) in enumerate(self.leaves(X)):
            votes[j] = tree.predicted_class[leaves]
        return votes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the base trees' leaf probabilities (the forest estimate that
        BMR reads); the combiner plays no part."""
        leaves = self.leaves(self.features(X))
        return sum(csdt.leaf_proba(tree, at) for tree, at in leaves) / self.T

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        votes = self.base_votes(X)
        if self.combiner == "mv":
            return combiners.majority_vote(votes)
        if self.combiner in ("wv", "wv-acc"):
            return combiners.weighted_vote(votes, self.weights)
        return combiners.stacking_predict(votes, self.stacking)


def _train_one(
    train_set: CostedDataset,
    ranks: np.ndarray,
    sample: BaseSample,
    config: EcsdtConfig,
    j: int,
) -> tuple[CsdtModel, np.ndarray | None]:
    """Grow tree j on its sample, sorting nodes on its rows' slice of ``ranks``."""
    rows = sample.example_indices
    if sample.feature_indices is not None:
        patch = np.ix_(rows, sample.feature_indices)
        sub = CostedDataset(
            train_set.X[patch],
            train_set.y[rows],
            train_set.costs[rows],
            strict=train_set.strict,
            validate=False,
        )
        model = csdt.grow(sub, config.tree, ranks=ranks[patch])
        return model, sample.feature_indices
    seed = None if sample.node_features is None else mix64(config.inducer.seed, STREAM_NODES, j)
    model = csdt.grow(
        train_set.subset(rows), config.tree, seed=seed, node_features=sample.node_features,
        ranks=ranks[rows],
    )
    return model, None


def _oob_scores(
    y: np.ndarray, cost0: np.ndarray, cost1: np.ndarray, preds: np.ndarray
) -> tuple[float, float]:
    """Savings and accuracy of a tree's out-of-bag predictions, given those rows'
    labels and costs of predicting 0 and 1."""
    accuracy = 1.0 - float((preds != y).mean())
    try:
        return savings_of_costs(cost0, cost1, preds), accuracy
    except ValidationError:
        # costless-class cost of this OOB draw is zero: no savings to measure,
        # record a neutral zero so the tree earns no voting weight from it
        return 0.0, accuracy


def train(train_set: CostedDataset, config: EcsdtConfig | None = None) -> EnsembleModel:
    """Run the ensemble training recipe end to end, deterministically per seed."""
    config = config or EcsdtConfig()
    config.validate()
    samples = draw_samples(train_set.n, train_set.k, config.inducer)
    # every sample's rows are sorted, so slices of one table's ranks sort
    # each tree's nodes as their own would
    ranks = csdt.column_ranks(train_set.X)
    base_models, subsets = zip(
        *(_train_one(train_set, ranks, sample, config, j) for j, sample in enumerate(samples))
    )
    oob_savings = np.empty(len(samples))
    oob_accuracy = np.empty(len(samples))
    ensemble = EnsembleModel(
        base_models=list(base_models),
        feature_subsets=list(subsets),
        oob_savings=oob_savings,
        combiner=config.combiner,
        config=config,
        k=train_set.k,
    )
    # one routing pass gives every tree's out-of-bag predictions and the
    # stacking level's training votes
    votes = ensemble.base_votes(train_set.X)
    cost0, cost1 = train_set.costs_if_predicted()
    for j, sample in enumerate(samples):
        oob = sample.oob_indices
        oob_savings[j], oob_accuracy[j] = _oob_scores(
            train_set.y[oob], cost0[oob], cost1[oob], votes[j, oob]
        )
    if config.combiner == "wv":
        ensemble.weights = combiners.weights_from_scores(oob_savings)
    elif config.combiner == "wv-acc":
        ensemble.weights = combiners.weights_from_scores(oob_accuracy)
    elif config.combiner == "stacking":
        # second level trains on in-sample base votes over the full training set
        ensemble.stacking = combiners.fit_stacking(train_set, votes, config.ga)
    return ensemble


def predict(model: EnsembleModel, data: CostedDataset | np.ndarray) -> np.ndarray:
    X = data.X if isinstance(data, CostedDataset) else np.asarray(data, dtype=np.float64)
    return model.predict_many(X)


# --- serialization ---------------------------------------------------------


def model_to_dict(model: EnsembleModel) -> dict:
    return {
        "format_version": csdt.FORMAT_VERSION,
        "kind": "ecsdt",
        "k": model.k,
        "combiner": model.combiner,
        "config": asdict(model.config),
        "oob_savings": model.oob_savings.tolist(),
        "feature_subsets": [
            None if s is None else [int(i) for i in s] for s in model.feature_subsets
        ],
        "base_models": [csdt.tree_to_dict(m.tree) for m in model.base_models],
        "weights": None if model.weights is None else model.weights.alphas.tolist(),
        "stacking": None if model.stacking is None else {
            "betas": model.stacking.betas.tolist(),
            "intercept": model.stacking.intercept,
            "threshold": model.stacking.threshold,
        },
    }


def model_from_dict(data: dict) -> EnsembleModel:
    """The ensemble a model file stores. Each base tree's config is the file's
    ``config.tree``, and it reads the features of its subset (all k without one)."""
    version = csdt.check_model_header(data, "ecsdt")
    try:
        weights = data.get("weights")
        stacking = data.get("stacking")
        k = int(data["k"])
        config = from_json(EcsdtConfig, data["config"], "config", complete=True)
        subsets = [None if s is None else np.asarray(s, dtype=np.int64)
                   for s in data["feature_subsets"]]
        stored = data["base_models"]
        if version != csdt.FORMAT_VERSION:
            stored = [csdt.tree_dict_from_v1(entry["root"]) for entry in stored]
        if len(stored) != len(subsets):
            raise ValidationError(f"{len(stored)} base models but {len(subsets)} feature subsets")
        widths = [k if subset is None else subset.size for subset in subsets]
        base_models = [CsdtModel(csdt.tree_from_dict(arrays, width), config.tree, width)
                       for arrays, width in zip(stored, widths)]
        model = EnsembleModel(
            base_models=base_models,
            feature_subsets=subsets,
            oob_savings=np.asarray(data["oob_savings"], dtype=np.float64),
            combiner=data["combiner"],
            config=config,
            k=k,
            weights=None if weights is None else WeightVector(np.asarray(weights)),
            stacking=None if stacking is None else StackingWeights(
                betas=np.asarray(stacking["betas"]),
                intercept=float(stacking["intercept"]),
                threshold=float(stacking["threshold"]),
            ),
        )
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed ensemble model: {type(exc).__name__}: {exc}") from None
    _check_consistent(model)
    return model


def _check_consistent(model: EnsembleModel) -> None:
    """Reject a loaded model whose parts disagree on T, k or the combiner."""
    lengths = {
        "oob_savings": model.oob_savings.size,
        "weights": None if model.weights is None else model.weights.alphas.size,
        "betas": None if model.stacking is None else model.stacking.betas.size,
    }
    wrong = {name: size for name, size in lengths.items() if size not in (None, model.T)}
    if wrong:
        raise ValidationError(f"model has {model.T} base models but lengths {wrong}")
    for j, subset in enumerate(model.feature_subsets):
        if subset is not None and (
            subset.ndim != 1 or ((subset < 0) | (subset >= model.k)).any()
        ):
            raise ValidationError(f"feature subset {j} is not a list of indices in [0, {model.k})")
    if (
        model.combiner not in combiners.COMBINER_KINDS
        or (model.combiner in ("wv", "wv-acc")) != (model.weights is not None)
        or (model.combiner == "stacking") != (model.stacking is not None)
    ):
        raise ValidationError(
            f"combiner {model.combiner!r} does not match the stored combiner parameters"
        )


def save(model: EnsembleModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def load(path: str | Path) -> EnsembleModel:
    return model_from_dict(csdt.read_model_file(path))
