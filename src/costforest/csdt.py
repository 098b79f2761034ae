"""The example-dependent cost-sensitive decision tree.

Nodes are split to maximize the decrease in cost-based impurity, where the
impurity of a subset is the cost of its cheapest constant prediction, and
leaves predict that cheapest constant. After growth the tree is pruned
greedily: the internal node whose constant replacement lowers the pruning-set
cost the most (or leaves it equal) is collapsed, and the search repeats until
every collapse would cost more.

A tree is stored as flat preorder arrays (:class:`Tree`). Growth records
every node's cost statistics, so pruning on the training rows routes
nothing, and one level-by-level kernel (:func:`route`) serves every
prediction.

Setting ``impurity="gini"`` swaps the money columns for unit costs
(tp = tn = 0, fp = fn = 1) in every internal computation, which turns the
learner into a plain error-count tree: the cost-insensitive baseline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
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


@dataclass(frozen=True, eq=False)
class Tree:
    """A tree as flat arrays in preorder, one entry per node.

    Node i splits on ``feature[i]`` at ``threshold[i]`` (``feature`` is -1
    at a leaf). Its left child is node i + 1 and its right child is node
    ``right[i]``, so the subtree of node i is a contiguous range. Every node
    holds the class its rows predict as a leaf and four statistics of those
    rows: the cost of predicting all-0 and all-1 (pairwise sums over the
    rows in increasing order), their count and their positive count. A
    grown tree records them at every node; a tree flattened from nested
    nodes has them at its leaves only, and NaN costs and zero counts at its
    internal nodes. The arrays are read-only.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    predicted_class: np.ndarray
    cost_f0: np.ndarray
    cost_f1: np.ndarray
    n: np.ndarray
    n_pos: np.ndarray

    def __post_init__(self):
        dtypes = (np.intp, np.float64, np.intp, np.int64, np.float64, np.float64, np.int64,
                  np.int64)
        for field, dtype in zip(fields(self), dtypes):
            array = np.array(getattr(self, field.name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, field.name, array)

    @property
    def size(self) -> int:
        return self.feature.size


class CsdtModel:
    """A cost-sensitive tree: its node arrays, its config and its feature count.

    ``root`` is a :class:`Tree`, or a nested ``Leaf``/``Internal`` root that
    is flattened into one. ``stats_of`` is the dataset whose rows the node
    statistics describe, set by :func:`grow` only while it prunes, so that
    :func:`prune` on that dataset needs no routing; ``grow`` returns every
    model with it empty.
    """

    def __init__(self, root: Tree | TreeNode, config: CsdtConfig, k: int):
        self.tree = root if isinstance(root, Tree) else _flatten(root)
        self.config = config
        self.k = k
        self.stats_of: CostedDataset | None = None
        self._root: TreeNode | None = None

    @property
    def root(self) -> TreeNode:
        """The tree as nested nodes, built on first use."""
        if self._root is None:
            self._root = _nested(self.tree, 0)
        return self._root

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return predict_many(self, X)

    def predict_proba_many(self, X: np.ndarray) -> np.ndarray:
        return predict_proba_many(self, X)

    def depth(self) -> int:
        return max(_layout(self.tree)[1])

    def n_nodes(self) -> int:
        return self.tree.size


def _flatten(root: TreeNode) -> Tree:
    nodes: list[list] = []
    _append_subtree(root, nodes)
    return Tree(*zip(*nodes))


def _append_subtree(node: TreeNode, nodes: list[list]) -> None:
    """Append a row of Tree's fields per node of the nested subtree, in preorder."""
    if isinstance(node, Leaf):
        nodes.append([-1, 0.0, -1, node.predicted_class, node.cost_f0, node.cost_f1,
                      node.n, node.n_pos])
        return
    row = [node.rule.feature_index, node.rule.threshold, -1, 0, np.nan, np.nan, 0, 0]
    nodes.append(row)
    _append_subtree(node.left, nodes)
    row[2] = len(nodes)
    _append_subtree(node.right, nodes)


def _nested(tree: Tree, i: int) -> TreeNode:
    if tree.feature[i] < 0:
        return Leaf(
            predicted_class=int(tree.predicted_class[i]),
            cost_f0=float(tree.cost_f0[i]),
            cost_f1=float(tree.cost_f1[i]),
            n=int(tree.n[i]),
            n_pos=int(tree.n_pos[i]),
        )
    rule = SplitRule(int(tree.feature[i]), float(tree.threshold[i]))
    return Internal(rule, _nested(tree, i + 1), _nested(tree, int(tree.right[i])))


def _layout(tree: Tree) -> tuple[list[int], list[int], list[int]]:
    """Each node's parent (-1 at the root), depth, and the end of its subtree range."""
    size = tree.size
    right = tree.right.tolist()
    internal = np.flatnonzero(tree.feature >= 0).tolist()
    parent, depth, end = [-1] * size, [0] * size, list(range(1, size + 1))
    for i in internal:  # parents come before their children
        parent[i + 1] = parent[right[i]] = i
        depth[i + 1] = depth[right[i]] = depth[i] + 1
    for i in reversed(internal):
        end[i] = end[right[i]]
    return parent, depth, end


def _prediction_costs(dataset: CostedDataset, impurity: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-example cost of predicting 0 and of predicting 1, per the active view."""
    if impurity == "gini":
        pos = (dataset.y == 1).astype(np.float64)
        return pos, 1.0 - pos  # unit costs: errors count 1, correct answers 0
    return dataset.costs_if_predicted()


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
    parent: float,
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
    left. Ties go to the first column, then the first position. ``parent``
    is the node's impurity, ``min(cost0.sum(), cost1.sum())``. Returns
    None if no column has a cut.
    """
    n_cols, n = columns.shape
    order = keys.argsort(axis=1, kind="stable")
    offset = np.arange(0, n_cols * n, n)[:, None]  # flat index of each column's start
    sv = columns.take(order + offset)
    cum0 = cost0[order].cumsum(axis=1)
    cum1 = cost1[order].cumsum(axis=1)

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

    nodes: list[list] = []  # one row of Tree's fields per node, in preorder

    def build(idx: np.ndarray, depth: int) -> None:
        """Append the subtree of the rows ``idx`` to ``nodes``."""
        y_sub = train.y[idx]
        c0, c1 = cost0[idx], cost1[idx]
        s0, s1 = float(c0.sum()), float(c1.sum())
        node = [-1, 0.0, -1, 0 if s0 <= s1 else 1, s0, s1, idx.size, int(y_sub.sum())]
        nodes.append(node)
        if (
            depth >= config.max_depth
            or idx.size < config.min_samples_split
            or y_sub.min() == y_sub.max()
        ):
            return
        if node_features is not None and node_features < train.k:
            features = node_feature_subset(train.k, node_features, rng)
            cells = (features[:, None], idx)
        else:
            features = all_features
            cells = (slice(None), idx)
        block = table[cells]
        found = _best_split(block, key_table[cells], c0, c1, levels, min(s0, s1))
        if found is None or found[0] <= config.min_gain:
            return
        _, col, cut = found
        node[0], node[1] = int(features[col]), cut
        left_mask = block[col] <= cut
        build(idx[left_mask], depth + 1)
        node[2] = len(nodes)
        build(idx[~left_mask], depth + 1)

    build(np.arange(train.n), 0)
    # build refers to itself; emptying its name frees the rows' arrays now,
    # not at the next garbage collection
    del build
    model = CsdtModel(Tree(*zip(*nodes)), config, train.k)
    if config.pruning:
        model.stats_of = train
        model = prune(model, train)
        model.stats_of = None
    return model


def as_features(X: np.ndarray, k: int) -> np.ndarray:
    """``X`` as a C-ordered float64 (n, k) matrix; shape checked, values not."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != k:
        raise ValidationError(f"X has shape {X.shape}, expected (n, {k})")
    return X


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        # NaN fails every <= test and would silently route right
        raise ValidationError("features contain non-finite values")


def route(tree: Tree, X: np.ndarray, subset: np.ndarray | None = None) -> np.ndarray:
    """Preorder index of the leaf that each row of ``X`` reaches.

    ``X`` is C-ordered float64. The rows descend one level per step, and
    only rows still at an internal node take the next step. ``subset`` maps
    the tree's feature indices to columns of ``X`` (a patch's features).
    """
    n_rows, width = X.shape
    at = np.zeros(n_rows, dtype=np.intp)
    if tree.feature[0] < 0:
        return at
    # a leaf's -1 maps to the subset's last column, which no moving row reads
    columns = tree.feature if subset is None else subset[tree.feature]
    internal = tree.feature >= 0
    flat = X.ravel()
    rows, nodes = np.arange(n_rows), np.zeros(n_rows, dtype=np.intp)
    while rows.size:
        go_left = flat.take(rows * width + columns.take(nodes)) <= tree.threshold.take(nodes)
        nodes = np.where(go_left, nodes + 1, tree.right.take(nodes))
        at[rows] = nodes
        moving = internal.take(nodes)
        rows, nodes = rows[moving], nodes[moving]
    return at


def predict(model: CsdtModel, features: np.ndarray) -> int:
    """Predict one example's class."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (model.k,):
        raise ValidationError(f"feature vector has shape {x.shape}, expected ({model.k},)")
    return int(predict_many(model, x[None, :])[0])


def predict_many(model: CsdtModel, X: np.ndarray) -> np.ndarray:
    X = as_features(X, model.k)
    _check_finite(X)
    return model.tree.predicted_class[route(model.tree, X)]


def predict_proba_many(model: CsdtModel, X: np.ndarray) -> np.ndarray:
    """Positive-class probability per row (leaf frequency, Laplace smoothed)."""
    X = as_features(X, model.k)
    _check_finite(X)
    leaves = route(model.tree, X)
    return (model.tree.n_pos[leaves] + 1.0) / (model.tree.n[leaves] + 2.0)


def _node_stats(
    tree: Tree, dataset: CostedDataset, impurity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node all-0 cost, all-1 cost, count and positive count of ``dataset``'s rows.

    One pass routes the rows down the tree; each node sums its rows in
    increasing order, as growth does.
    """
    cost0, cost1 = _prediction_costs(dataset, impurity)
    s0, s1 = np.zeros(tree.size), np.zeros(tree.size)
    n, n_pos = np.zeros(tree.size, dtype=np.int64), np.zeros(tree.size, dtype=np.int64)
    pending = [(0, np.arange(dataset.n))]
    while pending:
        i, idx = pending.pop()
        s0[i], s1[i] = cost0[idx].sum(), cost1[idx].sum()
        n[i], n_pos[i] = idx.size, dataset.y[idx].sum()
        if tree.feature[i] >= 0:
            left = dataset.X[idx, tree.feature[i]] <= tree.threshold[i]
            pending += [(tree.right[i], idx[~left]), (i + 1, idx[left])]
    return s0, s1, n, n_pos


def prune(model: CsdtModel, prune_set: CostedDataset) -> CsdtModel:
    """Collapse subtrees whose constant replacement does not cost more.

    Repeatedly replaces the internal node with the largest nonnegative
    cost decrease by its cheapest constant leaf (statistics taken on the
    pruning set; ties go to the first node in post-order). Never increases
    the pruning-set cost. The node statistics come from the model when the
    pruning set is its ``stats_of``, else from one routing pass.
    """
    if prune_set.k != model.k:
        raise ValidationError("prune set feature count does not match the model")
    tree = model.tree
    if prune_set is model.stats_of:
        stats = tree.cost_f0, tree.cost_f1, tree.n, tree.n_pos
    else:
        stats = _node_stats(tree, prune_set, model.config.impurity)
    s0, s1 = stats[0].tolist(), stats[1].tolist()
    cheapest = [b if b < a else a for a, b in zip(s0, s1)]  # min(s0, s1) as Python takes it
    parent, depth, end = _layout(tree)
    right = tree.right.tolist()
    internal = np.flatnonzero(tree.feature >= 0).tolist()
    # A subtree's cost is that of its leaves' classes, added as left + right.
    sub = np.where(tree.predicted_class == 1, stats[1], stats[0]).tolist()
    for i in reversed(internal):
        sub[i] = sub[i + 1] + sub[right[i]]
    # Each node's cost decrease sits at its post-order position, where every
    # subtree is a contiguous range ending at its root; -inf marks leaves and
    # removed nodes, so argmax finds the first largest decrease in post-order.
    post = [e - d - 1 for e, d in zip(end, depth)]
    decrease = np.full(tree.size, -np.inf)
    for i in internal:
        decrease[post[i]] = sub[i] - cheapest[i]
    node_at = np.empty(tree.size, dtype=np.intp)
    node_at[post] = np.arange(tree.size)
    collapsed = np.zeros(tree.size, dtype=bool)
    while True:
        p = int(decrease.argmax())
        if decrease[p] < 0:
            break
        v = int(node_at[p])
        collapsed[v] = True
        decrease[p - (end[v] - v) + 1:p + 1] = -np.inf
        sub[v] = cheapest[v]
        a = parent[v]
        while a >= 0:
            sub[a] = sub[a + 1] + sub[right[a]]
            decrease[post[a]] = sub[a] - cheapest[a]
            a = parent[a]
    if not collapsed.any():
        return CsdtModel(tree, model.config, model.k)
    keep = np.ones(tree.size, dtype=bool)
    for v in np.flatnonzero(collapsed).tolist():
        keep[v + 1:end[v]] = False
    leaf = collapsed & keep
    columns = [np.array(getattr(tree, f.name)) for f in fields(Tree)]
    feature, threshold, right_of, predicted_class = columns[:4]
    feature[leaf], threshold[leaf], right_of[leaf] = -1, 0.0, -1
    predicted_class[leaf] = stats[0][leaf] > stats[1][leaf]
    for column, stat in zip(columns[4:], stats):
        column[leaf] = stat[leaf]
    index = np.cumsum(keep) - 1
    right_of[right_of >= 0] = index[right_of[right_of >= 0]]
    return CsdtModel(Tree(*(column[keep] for column in columns)), model.config, model.k)


# --- serialization ---------------------------------------------------------


def _node_to_dict(columns: dict, i: int) -> dict:
    if columns["feature"][i] < 0:
        return {
            "leaf": {
                "class": columns["predicted_class"][i],
                "cost_f0": columns["cost_f0"][i],
                "cost_f1": columns["cost_f1"][i],
                "n": columns["n"][i],
                "n_pos": columns["n_pos"][i],
            }
        }
    return {
        "rule": {"feature": columns["feature"][i], "threshold": columns["threshold"][i]},
        "left": _node_to_dict(columns, i + 1),
        "right": _node_to_dict(columns, columns["right"][i]),
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
        "root": _node_to_dict(
            {f.name: getattr(model.tree, f.name).tolist() for f in fields(Tree)}, 0
        ),
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
