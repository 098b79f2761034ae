"""The full ensemble: induce subsamples, train base trees, combine.

Training follows one recipe for every inducer/combiner pairing: draw the T
subsamples, grow a cost-sensitive tree on each, score each tree's savings and
accuracy on its out-of-bag rows with one prediction, then fit the chosen
combiner. Out-of-bag savings are recorded even when the combiner ignores
them, so reports can always show per-tree quality.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import combiners, csdt
from .combiners import GaConfig, StackingWeights, WeightVector
from .config import from_json
# savings is not called here; it stays importable as ensemble.savings, a name
# that perfbench's traced runs wrap
from .cost_model import CostedDataset, savings, savings_of_costs  # noqa: F401
from .csdt import CsdtConfig
from .errors import ConfigError, ValidationError
from .inducers import InducerConfig, draw_samples
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
    """T base trees, which split on columns of the ensemble's k features and were
    grown with ``config.tree``, plus the parameter set of ``config.combiner``."""

    trees: list[csdt.Tree]
    oob_savings: np.ndarray
    config: EcsdtConfig
    k: int
    weights: WeightVector | None = None
    stacking: StackingWeights | None = None

    @property
    def T(self) -> int:
        return len(self.trees)

    def base_votes(self, X: np.ndarray) -> np.ndarray:
        """(T, N) matrix of base-tree predictions."""
        X = csdt.as_features(X, self.k)
        votes = np.empty((self.T, X.shape[0]), dtype=np.int64)
        for j, tree in enumerate(self.trees):
            votes[j] = tree.predicted_class[csdt.route(tree, X)]
        return votes

    def votes_and_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``base_votes(X)`` and the mean of the base trees' leaf probabilities
        (the forest estimate that BMR reads), from one routing pass."""
        X = csdt.as_features(X, self.k)
        votes = np.empty((self.T, X.shape[0]), dtype=np.int64)
        proba = np.zeros(X.shape[0])
        for j, tree in enumerate(self.trees):
            leaves = csdt.route(tree, X)
            votes[j] = tree.predicted_class[leaves]
            proba += csdt.leaf_proba(tree, leaves)
        return votes, proba / self.T

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the base trees' leaf probabilities; the combiner plays no part."""
        return self.votes_and_proba(X)[1]

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return self.combine(self.base_votes(X))

    def combine(self, votes: np.ndarray) -> np.ndarray:
        """The decisions of ``config.combiner`` from a (T, N) matrix of base-tree votes."""
        if self.config.combiner == "mv":
            return combiners.majority_vote(votes)
        if self.config.combiner in ("wv", "wv-acc"):
            return combiners.weighted_vote(votes, self.weights)
        return combiners.stacking_predict(votes, self.stacking)


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
    specs = [
        csdt.TreeSpec(
            sample.example_indices,
            None if sample.node_features is None else mix64(config.inducer.seed, STREAM_NODES, j),
            sample.node_features,
            sample.feature_indices,
        )
        for j, sample in enumerate(samples)
    ]
    trees = [model.tree for model in csdt.grow_forest(train_set, config.tree, specs)]
    oob_savings = np.empty(len(samples))
    oob_accuracy = np.empty(len(samples))
    ensemble = EnsembleModel(
        trees=trees,
        oob_savings=oob_savings,
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
        "combiner": model.config.combiner,
        "config": asdict(model.config),
        "oob_savings": model.oob_savings.tolist(),
        # null: the tree splits on the file's k columns, to this reader and earlier ones
        "feature_subsets": [None] * model.T,
        "base_models": [csdt.tree_to_dict(tree) for tree in model.trees],
        "weights": None if model.weights is None else model.weights.alphas.tolist(),
        "stacking": None if model.stacking is None else {
            "betas": model.stacking.betas.tolist(),
            "intercept": model.stacking.intercept,
            "threshold": model.stacking.threshold,
        },
    }


def model_from_dict(data: dict) -> EnsembleModel:
    """The ensemble a model file stores. Each base tree's config is the file's
    ``config.tree``, and its top-level ``combiner`` must equal ``config.combiner``."""
    version = csdt.check_model_header(data, "ecsdt")
    try:
        weights = data.get("weights")
        stacking = data.get("stacking")
        k = csdt.read_k(data)
        config = from_json(EcsdtConfig, data["config"], "config", complete=True)
        subsets = data["feature_subsets"]
        stored = data["base_models"]
        if version != csdt.FORMAT_VERSION:
            stored = [csdt.tree_dict_from_v1(entry["root"]) for entry in stored]
        if len(stored) != len(subsets):
            raise ValidationError(f"{len(stored)} base models but {len(subsets)} feature subsets")
        if data["combiner"] != config.combiner:
            raise ValidationError(
                f"combiner {data['combiner']!r} but config.combiner {config.combiner!r}"
            )
        model = EnsembleModel(
            trees=[_read_tree(arrays, subset, k, j)
                   for j, (arrays, subset) in enumerate(zip(stored, subsets))],
            oob_savings=csdt.as_floats(data["oob_savings"], "oob_savings"),
            config=config,
            k=k,
            weights=None if weights is None else WeightVector(csdt.as_floats(weights, "weights")),
            stacking=None if stacking is None else StackingWeights(
                betas=csdt.as_floats(stacking["betas"], "betas"),
                intercept=_read_scalar(stacking, "intercept"),
                threshold=_read_scalar(stacking, "threshold"),
            ),
        )
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed ensemble model: {type(exc).__name__}: {exc}") from None
    _check_consistent(model)
    return model


def _read_scalar(stacking: dict, name: str) -> float:
    """The stacking parameter ``name``: one number."""
    value = csdt.as_floats(stacking[name], name)
    if value.ndim:
        raise ValidationError(f"{name} must be a number, got {stacking[name]!r}")
    return float(value)


def _read_tree(arrays: dict, subset: list | None, k: int, j: int) -> csdt.Tree:
    """Base tree j of a model file with k features.

    Older files store a random-patches tree with a ``feature_subsets`` entry,
    its features counted within that subset; such a tree is remapped to the
    file's columns here, once.
    """
    if subset is None:
        return csdt.tree_from_dict(arrays, k)
    columns = csdt.as_integers(subset, f"feature subset {j}")
    if columns.ndim != 1 or ((columns < 0) | (columns >= k)).any():
        raise ValidationError(f"feature subset {j} is not a list of indices in [0, {k})")
    tree = csdt.tree_from_dict(arrays, columns.size)
    return replace(tree, feature=np.append(columns, -1)[tree.feature])


def _check_consistent(model: EnsembleModel) -> None:
    """Reject a loaded model whose parts disagree on T or the combiner."""
    shapes = {
        "oob_savings": model.oob_savings.shape,
        "weights": None if model.weights is None else model.weights.alphas.shape,
        "betas": None if model.stacking is None else model.stacking.betas.shape,
    }
    wrong = {name: shape for name, shape in shapes.items() if shape not in (None, (model.T,))}
    if wrong:
        raise ValidationError(f"model has {model.T} base models but shapes {wrong}")
    if (
        (model.config.combiner in ("wv", "wv-acc")) != (model.weights is not None)
        or (model.config.combiner == "stacking") != (model.stacking is not None)
    ):
        raise ValidationError(
            f"combiner {model.config.combiner!r} does not match the stored combiner parameters"
        )
    if model.config.inducer.T != model.T:
        raise ValidationError(
            f"model has {model.T} base models but config.inducer.T {model.config.inducer.T}"
        )


def save(model: EnsembleModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def load(path: str | Path) -> EnsembleModel:
    return model_from_dict(csdt.read_model_file(path))
