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

from .config import from_json
from .cost_model import CostedDataset
from .errors import ConfigError, ValidationError
from .inducers import node_feature_subset

FORMAT_VERSION = "1"  # of csdt and ensemble model files

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


def column_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's position in a stable sort of its column.

    Equal values rank by row, so the ranks of any rows, taken in increasing
    row order (repeats allowed), sort as the stable sort of their values
    does. They are stored in the narrowest unsigned dtype, uint16 up to
    65536 rows, which numpy sorts by radix.
    """
    n, n_cols = X.shape
    ranks = np.empty((n, n_cols), dtype=np.min_scalar_type(max(n - 1, 0)))
    ranks[np.argsort(X, axis=0, kind="stable"), np.arange(n_cols)] = np.arange(n)[:, None]
    return ranks


def _best_split(
    columns: np.ndarray,
    keys: np.ndarray,
    cost0: np.ndarray,
    cost1: np.ndarray,
    levels: np.ndarray | None,
) -> tuple[float, int, float] | None:
    """Max-gain (gain, column, threshold) over every column of a node's block.

    Row f of ``columns`` holds candidate feature f at the node's n examples,
    and row f of ``keys`` sorts it as a stable sort of its values does (see
    ``column_ranks``). A cut at position p sends the first p + 1 examples of
    a column's sort left, so only the last of a run of equal values is a
    cut. With ``levels`` None every run end is a candidate, with the
    midpoint as threshold. Otherwise the candidates are the run ends that
    the column's quantiles at ``levels`` fall in, each keeping its first
    quantile as threshold, and gains are computed at those positions only.
    Every threshold sends exactly the examples it was scored with to the
    left. Ties go to the first column, then the first position. Returns
    None if no column has a cut.
    """
    n_cols, n = columns.shape
    order = keys.argsort(axis=1, kind="stable")
    offset = np.arange(0, n_cols * n, n)[:, None]  # flat index of each column's start
    sv = columns.take(order + offset)
    cum0 = cost0[order].cumsum(axis=1)
    cum1 = cost1[order].cumsum(axis=1)
    parent = min(cost0.sum(), cost1.sum())

    def gains_at(left0, left1, total0, total1, n_left):
        i_left = np.minimum(left0, left1)
        i_right = np.minimum(total0 - left0, total1 - left1)
        return parent - (n_left / n) * i_left - ((n - n_left) / n) * i_right

    if levels is None:
        gains = gains_at(
            cum0[:, :-1], cum1[:, :-1], cum0[:, -1:], cum1[:, -1:], np.arange(1, n)
        )
        gains[sv[:, :-1] == sv[:, 1:]] = -np.inf
        col, p = divmod(int(gains.argmax()), n - 1)
        if gains[col, p] == -np.inf:
            return None
        lower, upper = sv[col, p], sv[col, p + 1]
        threshold = 0.5 * (lower + upper)
        if not threshold < upper:  # the midpoint of adjacent doubles can round up
            threshold = lower
        return float(gains[col, p]), col, float(threshold)

    # numpy's "linear" quantile, interpolated on the sorted block with the
    # arithmetic of numpy's _lerp: cut j of a column lies between the values
    # at positions lo[j] and hi[j]. Adding 0.0 makes a zero cut +0.0
    # whichever signed zero the column holds.
    virtual = (n - 1) * levels
    lo = np.floor(virtual).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    gamma = virtual - lo
    below, above = sv[:, lo], sv[:, hi]
    diff = above - below
    cuts = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=cuts, where=gamma >= 0.5)
    cuts += 0.0
    # A finite cut below the value at hi sends positions up to lo left, else
    # up to the end of that value's run: the first run end at or after hi,
    # searched among the flat indices of every column's run ends. Only an
    # overflowing difference leaves a cut non-finite, and then it sends no
    # example or every example left, as a cut at the last position does.
    run_end = np.empty((n_cols, n), dtype=bool)
    run_end[:, -1] = True
    np.not_equal(sv[:, :-1], sv[:, 1:], out=run_end[:, :-1])
    ends = run_end.ravel().nonzero()[0]
    at = np.where(cuts < above, lo + offset, ends[ends.searchsorted(hi + offset)])
    np.copyto(at, offset + (n - 1), where=~np.isfinite(cuts))
    # Each distinct cut once, ordered by column, then position.
    is_cut = np.zeros((n_cols, n), dtype=bool)
    is_cut.ravel()[at] = True
    is_cut[:, -1] = False
    cand = is_cut.ravel().nonzero()[0]
    if cand.size == 0:
        return None
    col, pos = np.divmod(cand, n)
    gains = gains_at(cum0.take(cand), cum1.take(cand), cum0[col, -1], cum1[col, -1], pos + 1)
    best = int(gains.argmax())
    threshold = cuts.take((at == cand[best]).argmax())
    return float(gains[best]), int(col[best]), float(threshold)


def grow(
    train: CostedDataset,
    config: CsdtConfig | None = None,
    rng: np.random.Generator | None = None,
    node_features: int | None = None,
    ranks: np.ndarray | None = None,
) -> CsdtModel:
    """Grow (and by default prune) a cost-sensitive tree.

    ``node_features`` activates random-forest style feature sampling: each
    node considers a fresh uniform subset of that many features, drawn from
    ``rng``. ``ranks`` are the sort keys of ``train.X``: its own
    ``column_ranks`` by default, or the rows' slice of a larger table's, if
    those rows are in increasing order. Either gives the same tree.
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
    if ranks is None:
        ranks = column_ranks(train.X)
    elif ranks.shape != train.X.shape:
        raise ValidationError(f"ranks have shape {ranks.shape}, expected {train.X.shape}")
    cost0, cost1 = _prediction_costs(train, config.impurity)
    levels = _cut_levels(config)
    # one row per feature, so a node's block and its sort are row-contiguous
    table, key_table = np.ascontiguousarray(train.X.T), np.ascontiguousarray(ranks.T)
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
            cells = (features[:, None], idx)
        else:
            features = all_features
            cells = (slice(None), idx)
        block = table[cells]
        found = _best_split(block, key_table[cells], c0, c1, levels)
        if found is None or found[0] <= config.min_gain:
            return _make_leaf(y_sub, c0, c1)
        _, col, threshold = found
        left_mask = block[col] <= threshold
        left = build(idx[left_mask], depth + 1)
        right = build(idx[~left_mask], depth + 1)
        return Internal(SplitRule(int(features[col]), threshold), left, right)

    model = CsdtModel(root=build(np.arange(train.n), 0), config=config, k=train.k)
    # build refers to itself; emptying its name frees the tree's arrays now,
    # not at the next garbage collection
    del build
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
    del stats  # frees the pruning set's arrays now, as in grow
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


def check_model_header(data, kind: str) -> None:
    """Reject ``data`` unless it is a model object of this format version and ``kind``."""
    if not isinstance(data, dict):
        raise ValidationError(f"a model must be a JSON object, got {type(data).__name__}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {data.get('format_version')!r}")
    if data.get("kind") != kind:
        raise ValidationError(f"not a {kind!r} model file: kind={data.get('kind')!r}")


def model_from_dict(data: dict) -> CsdtModel:
    check_model_header(data, "csdt")
    try:
        k = int(data["k"])
        return CsdtModel(
            root=_node_from_dict(data["root"], k),
            config=from_json(CsdtConfig, data["config"], "config", complete=True),
            k=k,
        )
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed csdt model: {type(exc).__name__}: {exc}") from None


def save(model: CsdtModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def load(path: str | Path) -> CsdtModel:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
