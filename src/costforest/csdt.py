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
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .config import from_json
from .cost_model import CostedDataset
from .errors import ConfigError, ValidationError
from .rng import feature_subsets, mix64_array

FORMAT_VERSION = "2"  # of csdt and ensemble model files; version "1" files are still read

THRESHOLD_MODES = ("exact_midpoints", "quantiles")
IMPURITY_MODES = ("cost", "gini")


@dataclass(frozen=True)
class Leaf:
    """A one-node tree: the cheapest constant for the examples that reached it.

    Trees are :class:`Tree` arrays; a ``Leaf`` is a short way to build a
    one-node :class:`CsdtModel` by hand, as perfbench's tests do."""

    predicted_class: int
    cost_f0: float  # cost of predicting all-0 here
    cost_f1: float  # cost of predicting all-1 here
    n: int
    n_pos: int


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
    rows in increasing order), their count and their positive count. Model
    files store the eight arrays as they are (see :func:`tree_from_dict`).
    The arrays are read-only.
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

    ``tree`` is a :class:`Tree`, or a :class:`Leaf` for a one-node tree.
    ``stats_of`` is the dataset whose rows the node statistics describe,
    set by :func:`grow` only while it prunes, so that :func:`prune` on that
    dataset needs no routing; ``grow`` returns every model with it empty.
    """

    def __init__(self, tree: Tree | Leaf, config: CsdtConfig, k: int):
        if isinstance(tree, Leaf):
            tree = Tree([-1], [0.0], [-1], *([value] for value in astuple(tree)))
        self.tree = tree
        self.config = config
        self.k = k
        self.stats_of: CostedDataset | None = None

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return predict_many(self, X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return predict_proba_many(self, X)

    def depth(self) -> int:
        return max(_layout(self.tree)[1])

    def n_nodes(self) -> int:
        return self.tree.size


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
    n: np.ndarray,
    levels: np.ndarray | None,
    parent: np.ndarray,
) -> list[tuple[float, int, float] | None]:
    """Max-gain (gain, column, threshold) of each node of a padded block.

    The block holds B nodes of F candidate features each: row b * F + f of
    ``columns`` holds feature f at node b's examples, and the same row of
    ``keys`` sorts it as a stable sort of its values does (see
    ``column_ranks``). ``n`` is the size of each row's node. Past it a row
    is padded with the value -inf and the key dtype's largest key, so pads
    sort after the node's examples. Row b of ``cost0`` and ``cost1`` holds
    node b's costs, padded with zeros, and ``parent[b]`` is its impurity,
    ``min(cost0[b].sum(), cost1[b].sum())``.

    A cut at position p sends the first p + 1 examples of a column's sort
    left, so only the last of a run of equal values is a cut, and a node's
    last position is none. With ``levels`` None every run end is a
    candidate, with the midpoint as threshold. Otherwise the candidates are
    the run ends that the column's quantiles at ``levels`` fall in, each
    keeping its first quantile as threshold. A block with no more
    positions than levels (``width - 1 <= levels.size``) computes the gain
    once per position, as exact mode does, and keeps the positions some
    cut reaches (``_cut_positions``); a larger block computes it once per
    level. Both give the same floats. Every
    threshold sends exactly the examples it was scored with to the left.
    Ties go to the first column, then the first position. Pads add zero to
    the running sums and lie past every cut, so each node gets the answer
    it would get alone in an unpadded block: its (gain, column, threshold),
    or None if no column has a cut.
    """
    rows, width = columns.shape
    n_nodes = parent.size
    n_cols = rows // n_nodes
    order = keys.argsort(axis=1, kind="stable")
    offset = np.arange(0, rows * width, width)[:, None]  # flat index of each row's start
    sv = columns.take(order + offset)
    order += np.arange(0, cost0.size, width).repeat(n_cols)[:, None]  # row r: node r // n_cols
    cum0 = cost0.take(order).cumsum(axis=1)
    cum1 = cost1.take(order).cumsum(axis=1)
    top = (n - 1)[:, None]  # each row's last position
    last = offset + top
    # gains have (node, column, candidate) axes, so node sizes broadcast
    by_node = (n_nodes, n_cols, -1)
    total0, total1 = cum0.take(last).reshape(by_node), cum1.take(last).reshape(by_node)
    size, parent = n[::n_cols, None, None], parent[:, None, None]

    def gains_at(left0, left1, n_left):
        i_left = np.minimum(left0, left1)
        i_right = np.minimum(total0 - left0, total1 - left1)
        return parent - (n_left / size) * i_left - ((size - n_left) / size) * i_right

    # a block with no more positions than levels is scored per position
    by_position = levels is not None and width - 1 <= levels.size
    if levels is None or by_position:
        gains = gains_at(
            cum0[:, :-1].reshape(by_node), cum1[:, :-1].reshape(by_node), np.arange(1, width)
        )
    if levels is None:
        # Sorted values never decrease, so >= finds the ends of runs of
        # equal values; it also finds the last example of a padded row,
        # whose -inf pads follow it, and every pad.
        gains[(sv[:, :-1] >= sv[:, 1:]).reshape(by_node)] = -np.inf
    elif by_position:
        reached, cuts = _cut_positions(sv, n[::n_cols], levels, last)
        gains[~reached] = -np.inf
    else:
        # numpy's "linear" quantile, interpolated on the sorted block with
        # the arithmetic of numpy's _lerp: cut j of a row lies between the
        # values at positions lo[j] and hi[j]. Adding 0.0 makes a zero cut
        # +0.0 whichever signed zero the column holds.
        virtual = top * levels
        lo = np.floor(virtual).astype(np.intp)
        hi = np.minimum(lo + 1, top)
        gamma = virtual - lo
        lo += offset
        hi += offset
        below, above = sv.take(lo), sv.take(hi)
        cuts = _lerp(below, above, above - below, gamma)
        cuts += 0.0
        # A cut below the value at hi sends positions up to lo left, else up
        # to the end of that value's run: the first run end at or after hi,
        # searched among the flat indices of every row's run ends (a node's
        # last example ends a run, as its pads differ from it). So cut
        # positions never decrease with j, and equal ones score equal
        # gains: the first largest gain of a row is at its first largest
        # distinct cut, and its j at that cut's first quantile.
        ends = _run_ends(sv)
        at = np.where(cuts < above, lo, ends[ends.searchsorted(hi)])
        gains = gains_at(
            cum0.take(at).reshape(by_node), cum1.take(at).reshape(by_node),
            (at - offset + 1).reshape(by_node),
        )
        # Only an overflowing difference leaves a cut non-finite, and then it
        # sends no example or every example left, as the last position does.
        gains[((at == last) | ~np.isfinite(cuts)).reshape(by_node)] = -np.inf
    found: list[tuple[float, int, float] | None] = []
    step = gains.shape[2]
    for b, best in enumerate(gains.reshape(n_nodes, -1).argmax(axis=1).tolist()):
        col, j = divmod(best, step)
        r = b * n_cols + col
        gain = gains[b, col, j]
        if gain == -np.inf:
            found.append(None)
            continue
        if levels is None:
            lower, upper = sv[r, j], sv[r, j + 1]
            threshold = 0.5 * (lower + upper)
            if not threshold < upper:  # the midpoint of adjacent doubles can round up
                threshold = lower
        else:
            threshold = cuts[r, j]
        found.append((float(gain), col, float(threshold)))
    return found


def _run_ends(sv: np.ndarray) -> np.ndarray:
    """Flat indices of the last value of each run of equal values in each row."""
    run_end = np.empty(sv.shape, dtype=bool)
    run_end[:, -1] = True
    np.not_equal(sv[:, :-1], sv[:, 1:], out=run_end[:, :-1])
    return run_end.ravel().nonzero()[0]


def _lerp(below: np.ndarray, above: np.ndarray, diff: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """numpy's linear quantile between two values, with the arithmetic of its _lerp."""
    cuts = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=cuts, where=gamma >= 0.5)
    return cuts


def _cut_positions(
    sv: np.ndarray, size: np.ndarray, levels: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions that some quantile cut reaches, and the first such cut.

    ``sv`` is a sorted, padded (nodes * F, width) block, ``size`` each
    node's example count and ``last`` each row's flat index of its last
    example. Returns a boolean (nodes, F, width - 1) array of the positions
    that the cuts at ``levels`` send examples up to, and a (rows, width - 1)
    array of each reached position's threshold: that of its first level.
    This is what scoring the levels one by one finds, computed once per
    position, so it pays off when a block has no more positions than levels.

    The levels whose cut lies between the values at positions p and p + 1
    of a node (numpy's lower index p) form a group. Their cuts never
    decrease, so the group reaches p if its first cut is below the upper
    value, and the end of that value's run if its last cut is not. A run
    end reached from an earlier group's upper value takes that value (plus
    0.0) as threshold, since its levels come first; otherwise p takes the
    first cut (plus 0.0). A non-finite cut (an overflowing difference)
    reaches nothing, and no cut reaches a node's last position.
    """
    rows, width = sv.shape
    n_nodes, n_pos = size.size, width - 1
    virtual = (size - 1)[:, None] * levels
    lo = virtual.astype(np.intp)  # the floor, as virtual >= 0
    gamma = (virtual - lo).ravel()
    # Each group's first and last interpolation weight, at its (node,
    # position) cell, NaN where no level falls. A node's last position
    # reaches nothing: its upper value is a -inf pad, or the cell lies past
    # the positions of the block.
    cell = (lo + np.arange(0, n_nodes * width, width)[:, None]).ravel()
    first = np.empty(cell.size, dtype=bool)
    first[0] = True
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    final = np.append(first[1:], True)
    gamma_first, gamma_last = np.full((2, n_nodes * width), np.nan)
    gamma_first[cell[first]] = gamma[first]
    gamma_last[cell[final]] = gamma[final]
    gamma_first, gamma_last = (g.reshape(n_nodes, 1, width)[:, :, :-1]
                               for g in (gamma_first, gamma_last))
    by_node = (n_nodes, rows // n_nodes, n_pos)
    below, above = sv[:, :-1].reshape(by_node), sv[:, 1:].reshape(by_node)
    with np.errstate(invalid="ignore", over="ignore"):  # pads are -inf
        diff = above - below
        cuts = _lerp(below, above, diff, gamma_first)
        last_cuts = _lerp(below, above, diff, gamma_last)
        reached = (cuts < above) & np.isfinite(cuts)
        tie = (last_cuts >= above) & np.isfinite(last_cuts)
    cuts = cuts.reshape(rows, n_pos)
    tie = tie.ravel().nonzero()[0]
    if tie.size:
        # the first run end at or after the upper value's position
        ends = _run_ends(sv)
        end = ends.take(ends.searchsorted(tie + tie // n_pos + 1))
        end = end[end < last.take(end // width)]
        cell = end - end // width
        reached.ravel()[cell] = True
        cuts.ravel()[cell] = sv.take(end)
    cuts += 0.0
    return reached, cuts


def grow(
    train: CostedDataset,
    config: CsdtConfig | None = None,
    seed: int | None = None,
    node_features: int | None = None,
    ranks: np.ndarray | None = None,
) -> CsdtModel:
    """Grow (and by default prune) a cost-sensitive tree.

    The tree grows level by level. Each step takes the open nodes and
    groups them into buckets: in quantile mode, every node with no more
    rows than ``n_quantiles`` in one bucket, which ``_best_split`` scores
    per position; every other node by the ``floor(log2 n)`` of its row
    count. It scores each bucket with one ``_best_split`` call on a padded
    block, then splits the nodes and opens their children.
    ``node_features`` activates random-forest style feature sampling: each
    node considers its own subset of that many features, drawn by
    ``rng.feature_subsets`` from a key for the node. The root's key is
    ``seed``, an int in [0, 2**64); a child's is ``mix64(key, side)``,
    side 0 for left and 1 for right. So the tree does not depend on the
    order in which nodes are grown.
    ``ranks`` are the sort keys of ``train.X``: its own ``column_ranks`` by
    default, or the rows' slice of a larger table's, if those rows are in
    increasing order. Either gives the same tree.
    """
    config = config or CsdtConfig()
    config.validate()
    if node_features is not None:
        if seed is None or not 0 <= seed < 2**64:
            raise ConfigError(f"node_features needs a seed in [0, 2**64), got {seed!r}")
        if not 1 <= node_features <= train.k:
            raise ConfigError(
                f"node_features must be in [1, {train.k}], got {node_features}"
            )
    if ranks is None:
        ranks = column_ranks(train.X)
    elif ranks.shape != train.X.shape:
        raise ValidationError(f"ranks have shape {ranks.shape}, expected {train.X.shape}")
    sampled = node_features is not None and node_features < train.k
    levels = _cut_levels(config)
    # nodes that _best_split scores by position share one bucket
    small = 0 if levels is None else levels.size + 1
    # One row per feature, and a pad column past the last example: value
    # -inf, the largest key and zero costs, so pads sort after every
    # example and add nothing.
    pad, width = train.n, train.n + 1
    table = np.empty((train.k, width))
    table[:, :pad], table[:, pad] = train.X.T, -np.inf
    key_table = np.empty((train.k, width), dtype=ranks.dtype)
    key_table[:, :pad] = ranks.T
    key_table[:, pad] = np.iinfo(ranks.dtype).max if ranks.dtype.kind in "ui" else np.inf
    cost0, cost1 = (np.append(c, 0.0) for c in _prediction_costs(train, config.impurity))
    all_features, sides = np.arange(train.k)[None], np.arange(2, dtype=np.uint64)

    nodes: list[list] = []  # one row of Tree's fields per node, in the order opened
    left_of: list[int] = []  # each node's left child, -1 at a leaf
    frontier: list[tuple] = []  # (node, rows, depth, key) of open nodes

    def open_node(idx: np.ndarray, n_pos: int, depth: int, key: int | None) -> int:
        s0, s1 = float(cost0.take(idx).sum()), float(cost1.take(idx).sum())
        nodes.append([-1, 0.0, -1, 0 if s0 <= s1 else 1, s0, s1, idx.size, n_pos])
        left_of.append(-1)
        if depth < config.max_depth and idx.size >= config.min_samples_split and (
            0 < n_pos < idx.size
        ):
            frontier.append((len(nodes) - 1, idx, depth, key))
        return len(nodes) - 1

    def search(bucket: list[tuple]) -> None:
        """Score a bucket's nodes with one kernel call, then split them."""
        sizes = np.array([node[1].size for node in bucket])
        n_max = int(sizes.max())
        rows = np.full((len(bucket), n_max), pad)
        rows[np.arange(n_max) < sizes[:, None]] = np.concatenate([node[1] for node in bucket])
        if sampled:
            keys = np.array([node[3] for node in bucket], dtype=np.uint64)
            features = feature_subsets(keys, train.k, node_features)
            children = mix64_array(keys[:, None], sides).tolist()
            # each node's features at its rows: (nodes, features, n_max)
            cells = (features * width)[:, :, None] + rows[:, None, :]
            block, block_keys = table.take(cells), key_table.take(cells)
        else:
            features = all_features.repeat(len(bucket), axis=0)
            children = [[None, None]] * len(bucket)
            # (features, nodes, n_max), swapped to nodes of features
            block, block_keys = (t.take(rows, axis=1).swapaxes(0, 1)
                                 for t in (table, key_table))
        n_cols = features.shape[1]
        block, block_keys = block.reshape(-1, n_max), block_keys.reshape(-1, n_max)
        found = _best_split(
            block,
            block_keys,
            cost0.take(rows),
            cost1.take(rows),
            sizes.repeat(n_cols),
            levels,
            np.array([min(nodes[i][4:6]) for i, *_ in bucket]),
        )
        for b, ((i, idx, depth, _), best) in enumerate(zip(bucket, found)):
            if best is None or best[0] <= config.min_gain:
                continue
            _, col, cut = best
            nodes[i][:2] = int(features[b, col]), cut
            goes_left = block[b * n_cols + col, :idx.size] <= cut
            left, right = idx[goes_left], idx[~goes_left]
            n_pos_left = int(train.y.take(left).sum())
            key_left, key_right = children[b]
            left_of[i] = open_node(left, n_pos_left, depth + 1, key_left)
            nodes[i][2] = open_node(right, nodes[i][7] - n_pos_left, depth + 1, key_right)

    open_node(np.arange(train.n), int(train.y.sum()), 0, seed)
    while frontier:
        buckets: dict[int, list] = {}
        for node in frontier:
            size = node[1].size
            buckets.setdefault(0 if size <= small else size.bit_length(), []).append(node)
        frontier = []
        for bucket in buckets.values():
            search(bucket)
    # renumber the nodes in preorder
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if left_of[i] >= 0:
            stack += [nodes[i][2], left_of[i]]
    position = [0] * len(order)
    for p, i in enumerate(order):
        position[i] = p
    preorder = [nodes[i] for i in order]
    for node in preorder:
        if node[2] >= 0:
            node[2] = position[node[2]]
    model = CsdtModel(Tree(*zip(*preorder)), config, train.k)
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
    return leaf_proba(model.tree, route(model.tree, X))


def leaf_proba(tree: Tree, leaves: np.ndarray) -> np.ndarray:
    """Positive-class probability at each of ``leaves`` (leaf frequency, Laplace smoothed)."""
    return (tree.n_pos[leaves] + 1.0) / (tree.n[leaves] + 2.0)


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

def tree_to_dict(tree: Tree) -> dict:
    """The tree's eight arrays as lists, as model files store it."""
    return {name: array.tolist() for name, array in vars(tree).items()}


def tree_from_dict(arrays: dict, k: int) -> Tree:
    """The tree stored as ``arrays``, one list per Tree field.

    A ValidationError unless the lists are nonempty and of equal length, the
    features in [-1, k), internal thresholds finite, classes 0 or 1, and a walk
    that pushes ``right[i]``, then ``i + 1``, pops node i at step i, with
    ``i + 1 < right[i] < size`` at internal nodes: a preorder tree, in which
    routing ends at a leaf. Conversion errors (KeyError, TypeError, ValueError,
    OverflowError) are the caller's to handle.
    """
    tree = Tree(*(arrays[field.name] for field in fields(Tree)))
    size = tree.size
    if size == 0 or any(array.shape != (size,) for array in vars(tree).values()):
        raise ValidationError("tree arrays must be nonempty lists of equal length")
    outside = tree.feature[(tree.feature < -1) | (tree.feature >= k)]
    if outside.size:
        raise ValidationError(f"split feature {outside[0]} is outside [0, {k})")
    if not np.isfinite(tree.threshold[tree.feature >= 0]).all():
        raise ValidationError("a split threshold is not finite")
    if ((tree.predicted_class != 0) & (tree.predicted_class != 1)).any():
        raise ValidationError("a predicted class is not 0 or 1")
    right, internal = tree.right.tolist(), (tree.feature >= 0).tolist()
    stack, visited = [0], 0
    while stack:
        i = stack.pop()
        if i != visited or internal[i] and not i + 1 < right[i] < size:
            raise ValidationError(f"tree arrays are not a preorder tree at node {visited}")
        visited += 1
        if internal[i]:
            stack += (right[i], i + 1)
    if visited != size:
        raise ValidationError(f"tree arrays are not a preorder tree: node {visited} is unreached")
    return tree


def tree_dict_from_v1(root: dict) -> dict:
    """The arrays of a version-1 file's nested ``rule``/``leaf`` tree, built without
    recursion. Version 1 stored statistics at the leaves only, so an internal
    node gets its children's sums and the class of the cheaper sum."""
    rows: list[list] = []  # one row of Tree's fields per node, in preorder; 3 at a rule
    pending = [(root, -1)]  # (node, the row whose right child it is, or -1)
    while pending:
        node, parent = pending.pop()
        if parent >= 0:
            rows[parent][2] = len(rows)
        if isinstance(node, dict) and "leaf" in node:
            leaf = node["leaf"]
            rows.append([-1, 0.0, -1, int(leaf["class"]), float(leaf["cost_f0"]),
                         float(leaf["cost_f1"]), int(leaf["n"]), int(leaf["n_pos"])])
        elif isinstance(node, dict) and {"rule", "left", "right"} <= node.keys():
            rows.append([int(node["rule"]["feature"]), float(node["rule"]["threshold"]), -1])
            pending += [(node["right"], len(rows) - 1), (node["left"], -1)]
        else:
            raise ValidationError("a tree node is neither a leaf nor a rule with both children")
    for i in reversed(range(len(rows))):  # children come after their parent
        if len(rows[i]) == 3:
            left, right = rows[i + 1], rows[rows[i][2]]
            s0, s1 = left[4] + right[4], left[5] + right[5]
            rows[i] += [0 if s0 <= s1 else 1, s0, s1, left[6] + right[6], left[7] + right[7]]
    return tree_to_dict(Tree(*zip(*rows)))


def model_to_dict(model: CsdtModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "csdt",
        "k": model.k,
        "config": asdict(model.config),
        "tree": tree_to_dict(model.tree),
    }


def check_model_header(data, kind: str) -> str:
    """The format version of ``data``, a model object of a readable version and ``kind``."""
    if not isinstance(data, dict):
        raise ValidationError(f"a model must be a JSON object, got {type(data).__name__}")
    version = data.get("format_version")
    if version not in ("1", FORMAT_VERSION):
        raise ValidationError(f"unsupported model format version {version!r}")
    if data.get("kind") != kind:
        raise ValidationError(f"not a {kind!r} model file: kind={data.get('kind')!r}")
    return version


def model_from_dict(data: dict) -> CsdtModel:
    version = check_model_header(data, "csdt")
    try:
        k = int(data["k"])
        arrays = data["tree"] if version == FORMAT_VERSION else tree_dict_from_v1(data["root"])
        config = from_json(CsdtConfig, data["config"], "config", complete=True)
        return CsdtModel(tree_from_dict(arrays, k), config, k)
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed csdt model: {type(exc).__name__}: {exc}") from None


def save(model: CsdtModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def read_model_file(path: str | Path):
    """The JSON value in a model file; a ValidationError if the file cannot
    be read, is not valid UTF-8 JSON or nests deeper than the JSON decoder
    allows."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not a model file: {type(exc).__name__}: {exc}") from None


def load(path: str | Path) -> CsdtModel:
    return model_from_dict(read_model_file(path))
