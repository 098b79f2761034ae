"""The example-dependent cost-sensitive decision tree.

Nodes are split to maximize the decrease in cost-based impurity, where the
impurity of a subset is the cost of its cheapest constant prediction, and
leaves predict that cheapest constant. After growth the tree is pruned
greedily: the internal node whose constant replacement lowers the pruning-set
cost the most (or leaves it equal) is collapsed, and the search repeats until
every collapse would cost more.

Setting ``impurity="gini"`` swaps the money columns for unit costs
(tp = tn = 0, fp = fn = 1) in every internal computation, which turns the
learner into a plain error-count tree: the cost-insensitive baseline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .cost_model import CostedDataset
from .errors import ConfigError, ValidationError
from .inducers import node_feature_subset

FORMAT_VERSION = "1"

THRESHOLD_MODES = ("exact_midpoints", "quantiles")
IMPURITY_MODES = ("cost", "gini")


@dataclass(frozen=True)
class SplitRule:
    """Send x to the left child iff x[feature_index] <= threshold."""

    feature_index: int
    threshold: float


@dataclass(frozen=True)
class Leaf:
    """Terminal node: the cheapest constant for the examples that reached it."""

    predicted_class: int
    cost_f0: float  # cost of predicting all-0 here
    cost_f1: float  # cost of predicting all-1 here
    n: int
    n_pos: int

    @property
    def probability(self) -> float:
        """Laplace-smoothed positive-class frequency."""
        return (self.n_pos + 1.0) / (self.n + 2.0)


@dataclass(frozen=True)
class Internal:
    rule: SplitRule
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class CsdtConfig:
    """Growth and pruning hyperparameters.

    A node searches all its candidate features in one pass.
    candidate_thresholds "exact_midpoints" tries every midpoint of
    consecutive distinct values; "quantiles" caps per-node work at
    ``n_quantiles`` cut points per feature, numpy's "linear" quantiles of
    the node's column; a zero quantile threshold is always +0.0, even where
    the column holds -0.0. A threshold always puts the cut exactly where it
    was scored: a midpoint that rounds up to the upper value is replaced by
    the lower value.
    """

    max_depth: int = 10
    min_samples_split: int = 2
    min_gain: float = 0.0
    candidate_thresholds: str = "quantiles"
    n_quantiles: int = 100
    pruning: bool = True
    impurity: str = "cost"

    def validate(self) -> None:
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.candidate_thresholds not in THRESHOLD_MODES:
            raise ConfigError(
                f"candidate_thresholds must be one of {THRESHOLD_MODES}, "
                f"got {self.candidate_thresholds!r}"
            )
        if self.candidate_thresholds == "quantiles" and self.n_quantiles < 2:
            raise ConfigError(f"n_quantiles must be >= 2, got {self.n_quantiles}")
        if self.impurity not in IMPURITY_MODES:
            raise ConfigError(f"impurity must be one of {IMPURITY_MODES}")


@dataclass(frozen=True)
class CsdtModel:
    root: TreeNode
    config: CsdtConfig
    k: int

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return predict_many(self, X)

    def predict_proba_many(self, X: np.ndarray) -> np.ndarray:
        return predict_proba_many(self, X)

    def depth(self) -> int:
        return _depth(self.root)

    def n_nodes(self) -> int:
        return _count(self.root)


def _depth(node: TreeNode) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def _count(node: TreeNode) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + _count(node.left) + _count(node.right)


def _prediction_costs(dataset: CostedDataset, impurity: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-example cost of predicting 0 and of predicting 1, per the active view."""
    if impurity == "gini":
        pos = (dataset.y == 1).astype(np.float64)
        return pos, 1.0 - pos  # unit costs: errors count 1, correct answers 0
    return dataset.costs_if_predicted()


def _make_leaf(y: np.ndarray, cost0: np.ndarray, cost1: np.ndarray) -> Leaf:
    s0 = float(cost0.sum())
    s1 = float(cost1.sum())
    return Leaf(
        predicted_class=0 if s0 <= s1 else 1,
        cost_f0=s0,
        cost_f1=s1,
        n=int(y.size),
        n_pos=int(y.sum()),
    )


def _cut_levels(config: CsdtConfig) -> np.ndarray | None:
    """Quantile levels of the candidate cuts, or None for exact midpoints."""
    if config.candidate_thresholds == "exact_midpoints":
        return None
    return np.linspace(0.0, 1.0, config.n_quantiles + 1)[1:-1]


def _best_split(
    X: np.ndarray,
    cost0: np.ndarray,
    cost1: np.ndarray,
    levels: np.ndarray | None,
) -> tuple[float, int, float] | None:
    """Max-gain (gain, column, threshold) over every column of a node's block.

    ``X`` holds the node's (n, F) candidate columns. A cut at position p
    sends the first p + 1 rows of a column's stable sort left, so only the
    last row of a run of equal values is a cut. With ``levels`` None every
    run end is a candidate, with the midpoint as threshold. Otherwise the
    candidates are the run ends that the column's quantiles at ``levels``
    fall in, each keeping its first quantile as threshold. Every threshold
    sends exactly the rows it was scored with to the left. Ties go to the
    first column, then the first position. Returns None if no column has
    a cut.
    """
    n, n_cols = X.shape
    cols = np.arange(n_cols)
    order = np.argsort(X, axis=0, kind="stable")
    sv = X[order, cols]
    cum0 = np.cumsum(cost0[order], axis=0)
    cum1 = np.cumsum(cost1[order], axis=0)
    left0, left1 = cum0[:-1], cum1[:-1]
    n_left = np.arange(1, n)[:, None]
    i_left = np.minimum(left0, left1)
    i_right = np.minimum(cum0[-1] - left0, cum1[-1] - left1)
    parent = min(cost0.sum(), cost1.sum())
    gains = parent - (n_left / n) * i_left - ((n - n_left) / n) * i_right
    run_end = sv[:-1] != sv[1:]
    if levels is None:
        valid = run_end
    else:
        # numpy's "linear" quantile, interpolated on the sorted block with
        # the arithmetic of numpy's _lerp: cut j of a column lies between
        # the values at rows lo[j] and hi[j]. Adding 0.0 makes a zero cut
        # +0.0 whichever signed zero the rows hold.
        virtual = (n - 1) * levels
        lo = np.floor(virtual).astype(np.intp)
        hi = np.minimum(lo + 1, n - 1)
        gamma = (virtual - lo)[:, None]
        below, above = sv[lo], sv[hi]
        diff = above - below
        cuts = below + diff * gamma
        np.subtract(above, diff * (1 - gamma), out=cuts, where=gamma >= 0.5)
        cuts += 0.0
        # Only an overflowing difference leaves a cut non-finite, and then
        # it sends no row or every row left. A finite cut sends rows up to
        # lo left when it is below the value at hi, else rows up to the end
        # of that value's run.
        ends = np.full((n, n_cols), n - 1)
        ends[:-1] = np.where(run_end, n_left - 1, n - 1)
        run_last = np.minimum.accumulate(ends[::-1], axis=0)[::-1]
        pos = np.where(cuts < above, lo[:, None], run_last[hi])
        pos[~np.isfinite(cuts)] = n - 1
        valid = np.zeros((n, n_cols), dtype=bool)
        valid[pos, cols] = True
        valid = valid[:-1]
    gains[~valid] = -np.inf
    col, p = divmod(int(np.argmax(gains.T)), n - 1)
    if not valid[p, col]:
        return None
    if levels is None:
        lower, upper = sv[p, col], sv[p + 1, col]
        threshold = 0.5 * (lower + upper)
        if not threshold < upper:  # the midpoint of adjacent doubles can round up
            threshold = lower
    else:
        threshold = cuts[np.argmax(pos[:, col] == p), col]
    return float(gains[p, col]), col, float(threshold)


def grow(
    train: CostedDataset,
    config: CsdtConfig | None = None,
    rng: np.random.Generator | None = None,
    node_features: int | None = None,
) -> CsdtModel:
    """Grow (and by default prune) a cost-sensitive tree.

    ``node_features`` activates random-forest style feature sampling: each
    node considers a fresh uniform subset of that many features, drawn from
    ``rng``.
    """
    config = config or CsdtConfig()
    config.validate()
    if node_features is not None:
        if rng is None:
            raise ConfigError("node_features requires an rng")
        if not 1 <= node_features <= train.k:
            raise ConfigError(
                f"node_features must be in [1, {train.k}], got {node_features}"
            )
    cost0, cost1 = _prediction_costs(train, config.impurity)
    levels = _cut_levels(config)
    all_features = np.arange(train.k)

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        y_sub = train.y[idx]
        c0, c1 = cost0[idx], cost1[idx]
        if (
            depth >= config.max_depth
            or idx.size < config.min_samples_split
            or y_sub.min() == y_sub.max()
        ):
            return _make_leaf(y_sub, c0, c1)
        if node_features is not None and node_features < train.k:
            features = node_feature_subset(train.k, node_features, rng)
        else:
            features = all_features
        block = train.X[idx[:, None], features]
        found = _best_split(block, c0, c1, levels)
        if found is None or found[0] <= config.min_gain:
            return _make_leaf(y_sub, c0, c1)
        _, col, threshold = found
        left_mask = block[:, col] <= threshold
        left = build(idx[left_mask], depth + 1)
        right = build(idx[~left_mask], depth + 1)
        return Internal(SplitRule(int(features[col]), threshold), left, right)

    model = CsdtModel(root=build(np.arange(train.n), 0), config=config, k=train.k)
    if config.pruning:
        model = prune(model, train)
    return model


def _route(
    node: TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray, value: str
) -> None:
    """Write the leaf attribute ``value`` of the leaf each row reaches into ``out``."""
    if isinstance(node, Leaf):
        out[idx] = getattr(node, value)
        return
    left = X[idx, node.rule.feature_index] <= node.rule.threshold
    _route(node.left, X, idx[left], out, value)
    _route(node.right, X, idx[~left], out, value)


def _route_all(model: CsdtModel, X: np.ndarray, value: str, dtype) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.k:
        raise ValidationError(f"X has shape {X.shape}, expected (n, {model.k})")
    if not np.isfinite(X).all():
        # NaN fails every <= test and would silently route right
        raise ValidationError("features contain non-finite values")
    out = np.empty(X.shape[0], dtype=dtype)
    _route(model.root, X, np.arange(X.shape[0]), out, value)
    return out


def predict(model: CsdtModel, features: np.ndarray) -> int:
    """Predict one example's class."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (model.k,):
        raise ValidationError(f"feature vector has shape {x.shape}, expected ({model.k},)")
    return int(predict_many(model, x[None, :])[0])


def predict_many(model: CsdtModel, X: np.ndarray) -> np.ndarray:
    return _route_all(model, X, "predicted_class", np.int64)


def predict_proba_many(model: CsdtModel, X: np.ndarray) -> np.ndarray:
    """Positive-class probability per row (leaf frequency, Laplace smoothed)."""
    return _route_all(model, X, "probability", np.float64)


def prune(model: CsdtModel, prune_set: CostedDataset) -> CsdtModel:
    """Collapse subtrees whose constant replacement does not cost more.

    Repeatedly replaces the internal node with the largest nonnegative
    cost decrease by its cheapest constant leaf (statistics taken on the
    pruning set). Never increases the pruning-set cost.
    """
    if prune_set.k != model.k:
        raise ValidationError("prune set feature count does not match the model")
    cost0, cost1 = _prediction_costs(prune_set, model.config.impurity)
    root = model.root

    def stats(node: TreeNode, idx: np.ndarray, acc: list) -> float:
        """Post-order walk; returns subtree prediction cost, collects candidates."""
        c0, c1 = cost0[idx], cost1[idx]
        if isinstance(node, Leaf):
            return float((c1 if node.predicted_class == 1 else c0).sum())
        left = prune_set.X[idx, node.rule.feature_index] <= node.rule.threshold
        sub = stats(node.left, idx[left], acc) + stats(node.right, idx[~left], acc)
        s0, s1 = float(c0.sum()), float(c1.sum())
        acc.append((sub - min(s0, s1), node, idx))
        return sub

    while True:
        candidates: list = []
        stats(root, np.arange(prune_set.n), candidates)
        if not candidates:
            break
        decrease, target, idx = max(candidates, key=lambda item: item[0])
        if decrease < 0:
            break
        replacement = _make_leaf(prune_set.y[idx], cost0[idx], cost1[idx])
        root = _replace(root, target, replacement)
    return CsdtModel(root=root, config=model.config, k=model.k)


def _replace(node: TreeNode, target: TreeNode, replacement: Leaf) -> TreeNode:
    if node is target:
        return replacement
    if isinstance(node, Leaf):
        return node
    return Internal(
        rule=node.rule,
        left=_replace(node.left, target, replacement),
        right=_replace(node.right, target, replacement),
    )


# --- serialization ---------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": {
                "class": node.predicted_class,
                "cost_f0": node.cost_f0,
                "cost_f1": node.cost_f1,
                "n": node.n,
                "n_pos": node.n_pos,
            }
        }
    return {
        "rule": {"feature": node.rule.feature_index, "threshold": node.rule.threshold},
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: dict, k: int) -> TreeNode:
    if "leaf" in data:
        leaf = data["leaf"]
        return Leaf(
            predicted_class=int(leaf["class"]),
            cost_f0=float(leaf["cost_f0"]),
            cost_f1=float(leaf["cost_f1"]),
            n=int(leaf["n"]),
            n_pos=int(leaf["n_pos"]),
        )
    if not {"rule", "left", "right"} <= set(data):
        raise ValidationError(
            f"tree node with keys {sorted(data)} is neither a leaf nor a rule "
            "with both children"
        )
    rule = SplitRule(int(data["rule"]["feature"]), float(data["rule"]["threshold"]))
    if not 0 <= rule.feature_index < k:
        raise ValidationError(f"split feature {rule.feature_index} is outside [0, {k})")
    if not np.isfinite(rule.threshold):
        raise ValidationError(f"split threshold {rule.threshold} is not finite")
    return Internal(rule, _node_from_dict(data["left"], k), _node_from_dict(data["right"], k))


def model_to_dict(model: CsdtModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "csdt",
        "k": model.k,
        "config": asdict(model.config),
        "root": _node_to_dict(model.root),
    }


def model_from_dict(data: dict) -> CsdtModel:
    if not isinstance(data, dict):
        raise ValidationError(f"a model must be a JSON object, got {type(data).__name__}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported model format version {data.get('format_version')!r}"
        )
    if data.get("kind") != "csdt":
        raise ValidationError(f"not a csdt model file: kind={data.get('kind')!r}")
    try:
        k = int(data["k"])
        return CsdtModel(
            root=_node_from_dict(data["root"], k),
            config=CsdtConfig(**data["config"]),
            k=k,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed csdt model: {type(exc).__name__}: {exc}") from None


def save(model: CsdtModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def load(path: str | Path) -> CsdtModel:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
