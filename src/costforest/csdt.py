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

An ensemble's trees grow together (:func:`grow_forest`; :func:`grow` is a
forest of one): level by level, at most WAVE_TREES trees at a time, with
the open nodes of every growing tree bucketed together and each bucket
scored in blocks of at most BLOCK_CELLS cells, one split-search call per
block. A node's rows index one table of the training set in increasing
order, so every sort, gathered cost and sum is the one its tree makes
alone: each tree is the one its :class:`TreeSpec` gives on its rows' subset.

Setting ``impurity="gini"`` swaps the money columns for unit costs
(tp = tn = 0, fp = fn = 1) in every internal computation, which turns the
learner into a plain error-count tree: the cost-insensitive baseline.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
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

# Forest growth cuts a bucket into blocks of at most this many cells (nodes x
# features x padded rows), with at least one node per block. The cap trades
# kernel calls for the kernel's temporaries, about 80 bytes a cell. On seed
# 1 of perfbench's data a grid operation made 1119 kernel calls with
# per-tree blocks, 456 at 2**14 and 554 at 2**13, and the tracemalloc peak
# of one of its random-forest fits went from 1.26 MB (per-tree blocks) to
# 2.25 MB at 2**14 and 1.56 MB at 2**13. Uncapped blocks made fit-stacking
# (60 calls of up to 2.4M cells) slower than capped ones.
BLOCK_CELLS = 2**13
# Forest growth grows at most this many trees at once, as the open nodes of
# every growing tree are alive together: growing fit-stacking's 100 depth-3
# trees peaked at 2.7 MB (tracemalloc) 10 trees at a time, 6.2 MB all at once.
WAVE_TREES = 10


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
    ``n_quantiles`` - 1 cuts per feature: quantile j of a node of n rows
    lies at the exact index (n - 1) j / n_quantiles, and its cut sends the
    run of equal values holding that index's integer part left. Its
    threshold is numpy's "linear" interpolation there; a zero threshold
    is always +0.0, even where the column holds -0.0. A threshold always
    puts the cut exactly where it was scored: one that rounds or
    overflows out of the cut's two values is replaced by the lower value.
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
        if not np.isfinite(self.min_gain):
            raise ConfigError(f"min_gain must be finite, got {self.min_gain}")
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
    The arrays are read-only. Every field takes only numbers, and an
    integer field only integers (see :func:`as_floats`, :func:`as_integers`).
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
            value = getattr(self, field.name)
            array = (as_floats(value, field.name) if dtype is np.float64
                     else as_integers(value, field.name, dtype))
            array.setflags(write=False)
            object.__setattr__(self, field.name, array)

    @property
    def size(self) -> int:
        return self.feature.size


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as an array, checked to hold numbers only: text, a boolean
    or null is a ValueError, as a model file holds numbers as JSON numbers."""
    given = np.asarray(values)
    listed = values if isinstance(values, list) else [values]
    if given.dtype.kind not in "iuf" or any(v is True or v is False for v in listed):
        raise ValueError(f"{name} must hold numbers only, not text, booleans or null")
    return given


def as_floats(values, name: str) -> np.ndarray:
    """``values`` as a new float64 array, checked before the cast (see :func:`_numbers`)."""
    return _numbers(values, name).astype(np.float64)


def as_integers(values, name: str, dtype=np.int64) -> np.ndarray:
    """``values`` as a new integer array, checked before the cast: a
    fractional value is a ValidationError, a non-number a ValueError."""
    given = _numbers(values, name)
    if given.dtype.kind in "iu":
        return given.astype(dtype)
    with np.errstate(invalid="ignore"):
        array = np.array(values, dtype=dtype)
    changed = array != given
    if changed.any():
        raise ValidationError(f"{name} holds {given[changed][0]}, which is not an integer")
    return array


class CsdtModel:
    """A cost-sensitive tree: its node arrays, its config and its feature count.

    ``tree`` is a :class:`Tree`, or a :class:`Leaf` for a one-node tree.
    ``stats_of`` is the dataset whose rows the node statistics describe,
    set by :func:`grow_forest` only while it prunes, so that :func:`prune` on
    that dataset needs no routing; growth returns every model with it empty.
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
    q: int | None,
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
    last position is none. With ``q`` None every run end is a candidate,
    with the midpoint as threshold. Otherwise quantile j (0 < j < q) of a
    node of s examples lies at the exact index (s - 1) j / q, computed in
    integers as ``lo, rem = divmod((s - 1) * j, q)``, and the candidates
    are the run ends of the runs that hold some ``lo``. A block with no
    more positions than quantiles (``width - 1 < q``) computes the gain
    once per position, as exact mode does; a larger block computes it once
    per quantile. Only each node's winning cut gets a threshold: the
    midpoint, or the first quantile in the winning run interpolated as
    numpy's "linear" quantiles are, at weight w = ``rem / q``: lower +
    diff * w, or upper - diff * (1 - w) if w >= 0.5 (the run's value
    unless that ``lo`` is the run end), plus 0.0 so that a zero
    threshold is +0.0. A threshold that is not at least the run's value
    and below the next value (a rounded or overflowing one) is the run's
    value, so every threshold sends exactly the examples it was scored
    with to the left. Ties go to the first column, then the first
    candidate. Pads add zero to the running sums and lie past every cut,
    so each node gets the answer it would get alone in an unpadded block:
    its (gain, column, threshold), or None if no column has a cut.
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

    by_position = q is None or width - 1 < q
    if by_position:
        gains = gains_at(
            cum0[:, :-1].reshape(by_node), cum1[:, :-1].reshape(by_node), np.arange(1, width)
        )
        # Sorted values never decrease, so < finds the ends of runs of equal
        # values; a node's last example is followed by -inf pads, if any.
        cut = sv[:, :-1] < sv[:, 1:]
        if q is not None:
            # lo >= start iff (s - 1) j >= start q, so the first quantile at
            # or after a run's start is max(1, ceil(start q / (s - 1))), and
            # the run's end is a candidate if that quantile's lo is in the run
            positions = np.arange(width - 1)
            start = np.zeros(cut.shape, dtype=np.intp)
            np.maximum.accumulate(cut[:, :-1] * positions[1:], axis=1, out=start[:, 1:])
            first = np.maximum(-(-start * q // top), 1)
            cut &= first * top // q <= positions
        gains[~cut.reshape(by_node)] = -np.inf
    else:
        # each quantile's lo moves to the end of its run: the first run end
        # at or after it, searched among the flat indices of every row's run
        # ends (a node's last example ends a run, as its pads differ from it)
        lo = (n[::n_cols, None] - 1) * np.arange(1, q) // q
        ends = _run_ends(sv)
        at = ends.take(ends.searchsorted(lo.repeat(n_cols, axis=0) + offset))
        gains = gains_at(
            cum0.take(at).reshape(by_node), cum1.take(at).reshape(by_node),
            (at - offset + 1).reshape(by_node),
        )
        gains[(at == last).reshape(by_node)] = -np.inf
    # Each node's winner: its first largest gain, which is at the first
    # column and, as the cut positions never decrease with the quantile, at
    # the first quantile in the winning run.
    flat = gains.reshape(n_nodes, -1)
    best, gain = flat.argmax(axis=1), flat.max(axis=1)
    won = np.flatnonzero(gain > -np.inf)
    col, pick = np.divmod(best[won], gains.shape[2])
    r = won * n_cols + col
    e = pick if by_position else at[r, pick] - r * width
    lower, upper = sv[r, e], sv[r, e + 1]
    with np.errstate(over="ignore", invalid="ignore"):  # differences may overflow
        if q is None:
            cuts = 0.5 * (lower + upper)
        else:
            j = first[r, e] if by_position else pick + 1
            lo, rem = np.divmod((n[r] - 1) * j, q)
            gamma = np.where(lo == e, rem / q, 0.0)
            diff = upper - lower
            cuts = np.where(gamma >= 0.5, upper - diff * (1 - gamma), lower + diff * gamma)
        cuts = np.where((lower <= cuts) & (cuts < upper), cuts, lower) + 0.0
    found: list[tuple[float, int, float] | None] = [None] * n_nodes
    for b, g, c, threshold in zip(won.tolist(), gain[won].tolist(), col.tolist(), cuts.tolist()):
        found[b] = (g, c, threshold)
    return found


def _run_ends(sv: np.ndarray) -> np.ndarray:
    """Flat indices of the last value of each run of equal values in each row."""
    run_end = np.empty(sv.shape, dtype=bool)
    run_end[:, -1] = True
    np.not_equal(sv[:, :-1], sv[:, 1:], out=run_end[:, :-1])
    return run_end.ravel().nonzero()[0]


@dataclass(frozen=True)
class TreeSpec:
    """One tree of a forest (see :func:`grow_forest`).

    ``rows`` are the tree's rows of the training set, in increasing order
    with repeats allowed; None is every row once. ``features``, strictly
    increasing columns of the training set, limits the tree's search to
    those columns (a random patch); None searches every column. Either way
    the tree records columns of the training set. ``node_features``
    activates random-forest style feature sampling: each node considers its
    own subset of that many of the searched features, drawn by
    ``rng.feature_subsets`` from a key for the node. The root's key is
    ``seed``, an int in [0, 2**64); a child's is ``mix64(key, side)``, side
    0 for left and 1 for right. So the tree does not depend on the order in
    which nodes are grown.
    """

    rows: np.ndarray | None = None
    seed: int | None = None
    node_features: int | None = None
    features: np.ndarray | None = None


class _Growth:
    """A tree as it grows: its spec, its rows, its searched columns of the
    training set, its per-node feature count if it samples them (else None),
    and its nodes, each a row of Tree's fields, in the order opened, with
    each node's left child (-1 at a leaf)."""

    def __init__(self, spec: TreeSpec, n: int, k: int):
        searched = np.arange(k) if spec.features is None else np.asarray(spec.features)
        n_cols = searched.size
        if spec.features is not None and not (
            searched.ndim == 1 and n_cols and searched.dtype.kind in "iu" and 0 <= searched[0]
            and searched[-1] < k and (searched[1:] > searched[:-1]).all()
        ):
            raise ValidationError(f"features must be strictly increasing columns in [0, {k})")
        node_features, seed = spec.node_features, spec.seed
        if node_features is not None:
            if seed is None or not 0 <= seed < 2**64:
                raise ConfigError(f"node_features needs a seed in [0, 2**64), got {seed!r}")
            if not 1 <= node_features <= n_cols:
                raise ConfigError(f"node_features must be in [1, {n_cols}], got {node_features}")
        rows = np.arange(n) if spec.rows is None else np.asarray(spec.rows)
        if not (rows.ndim == 1 and rows.size and rows.dtype.kind in "iu" and 0 <= rows[0]
                and rows[-1] < n and (rows[1:] >= rows[:-1]).all()):
            raise ValidationError(f"rows must be a nonempty increasing list of rows in [0, {n})")
        self.spec, self.rows, self.searched = spec, rows, searched
        sampled = node_features is not None and node_features < n_cols
        self.node_features = node_features if sampled else None
        self.nodes: list[list] = []
        self.left_of: list[int] = []

    def model(self, config: CsdtConfig, k: int) -> CsdtModel:
        """The grown tree, its nodes renumbered in preorder."""
        nodes, left_of = self.nodes, self.left_of
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
        return CsdtModel(Tree(*zip(*preorder)), config, k)


def grow(train: CostedDataset, config: CsdtConfig | None = None) -> CsdtModel:
    """Grow (and by default prune) a cost-sensitive tree on every row and
    column of ``train``: the one tree of a :func:`grow_forest`."""
    return grow_forest(train, config, [TreeSpec()])[0]


def grow_forest(
    train: CostedDataset, config: CsdtConfig | None, specs: Sequence[TreeSpec]
) -> list[CsdtModel]:
    """Grow (and by default prune) one tree per spec, each on its rows of ``train``.

    Each tree is the one its spec gives alone on ``train.subset(spec.rows)``.
    The trees grow together, at most WAVE_TREES at a time, level by level.
    Each step takes the open nodes of every growing tree and groups them
    into buckets by their tree's per-node feature count and by row count: in
    quantile mode, every node with no more rows than ``n_quantiles`` in one
    bucket, which ``_best_split`` scores per position; every other node by
    the ``floor(log2 n)`` of its row count. Each bucket is cut into blocks of
    at most BLOCK_CELLS cells (and at least one node), and each block is
    scored with one ``_best_split`` call. A node's rows are indices into one
    table of ``train``'s columns and their ``column_ranks``, in increasing
    order with repeats kept, so every sort, gathered cost and sum is the one
    its tree would make alone. After growth each tree is put in preorder and
    pruned through :func:`prune` on its rows, one tree at a time.
    """
    config = config or CsdtConfig()
    config.validate()
    ranks = column_ranks(train.X)
    trees = [_Growth(spec, train.n, train.k) for spec in specs]
    q = config.n_quantiles if config.candidate_thresholds == "quantiles" else None
    # nodes that _best_split scores by position share one bucket
    small = q or 0
    # One row per column, and a pad column past the last example: value
    # -inf, the largest key and zero costs, so pads sort after every example
    # and add nothing.
    pad, width = train.n, train.n + 1
    table = np.empty((train.k, width))
    table[:, :pad] = train.X.T
    table[:, pad] = -np.inf
    key_table = np.empty((train.k, width), dtype=ranks.dtype)
    key_table[:, :pad] = ranks.T
    key_table[:, pad] = np.iinfo(ranks.dtype).max if ranks.dtype.kind in "ui" else np.inf
    # each example's cost of predicting 0 and 1, and its label, so that one
    # gather and one sum give a node's statistics; row-wise sums are the
    # pairwise sums of each row alone, and the label sum is exact
    stats = np.zeros((3, width))
    stats[:2, :pad] = _prediction_costs(train, config.impurity)
    stats[2, :pad] = train.y
    sides = np.arange(2, dtype=np.uint64)
    frontier: list[tuple] = []  # (tree, node, rows, depth, key) of open nodes

    def open_node(tree: _Growth, idx: np.ndarray, depth: int, key) -> int:
        s0, s1, n_pos = stats.take(idx, axis=1).sum(axis=1).tolist()
        n_pos = int(n_pos)
        tree.nodes.append([-1, 0.0, -1, 0 if s0 <= s1 else 1, s0, s1, idx.size, n_pos])
        tree.left_of.append(-1)
        if depth < config.max_depth and idx.size >= config.min_samples_split and (
            0 < n_pos < idx.size
        ):
            frontier.append((tree, len(tree.nodes) - 1, idx, depth, key))
        return len(tree.nodes) - 1

    def search(block: list[tuple], n_cols: int, node_features: int | None) -> None:
        """Score a block's nodes with one kernel call, then split them."""
        sizes = np.array([node[2].size for node in block])
        n_max = int(sizes.max())
        rows = np.full((len(block), n_max), pad)
        rows[np.arange(n_max) < sizes[:, None]] = np.concatenate([node[2] for node in block])
        if node_features is None and n_cols == train.k:
            # every column in order: (features, nodes, n_max), swapped to nodes of features
            table_rows = None
            children = [[None, None]] * len(block)
            values, keys = (t.take(rows, axis=1).swapaxes(0, 1) for t in (table, key_table))
        else:
            table_rows = np.array([node[0].searched for node in block])
            if node_features is None:
                children = [[None, None]] * len(block)
            else:
                node_keys = np.array([node[4] for node in block], dtype=np.uint64)
                subsets = feature_subsets(node_keys, n_cols, node_features)
                table_rows = np.take_along_axis(table_rows, subsets, axis=1)
                children = mix64_array(node_keys[:, None], sides).tolist()
            # each node's features at its rows: (nodes, features, n_max)
            cells = (table_rows * width)[:, :, None] + rows[:, None, :]
            values, keys = table.take(cells), key_table.take(cells)
        per_node = n_cols if node_features is None else node_features
        values, keys = values.reshape(-1, n_max), keys.reshape(-1, n_max)
        cost0, cost1 = stats[:2].take(rows, axis=1)
        found = _best_split(
            values,
            keys,
            cost0,
            cost1,
            sizes.repeat(per_node),
            q,
            np.array([min(tree.nodes[i][4:6]) for tree, i, *_ in block]),
        )
        for b, ((tree, i, idx, depth, _), best) in enumerate(zip(block, found)):
            if best is None or best[0] <= config.min_gain:
                continue
            _, col, cut = best
            node = tree.nodes[i]
            node[:2] = col if table_rows is None else int(table_rows[b, col]), cut
            goes_left = values[b * per_node + col, :idx.size] <= cut
            left, right = idx[goes_left], idx[~goes_left]
            key_left, key_right = children[b]
            tree.left_of[i] = open_node(tree, left, depth + 1, key_left)
            node[2] = open_node(tree, right, depth + 1, key_right)

    models = []
    while trees:
        wave, trees = trees[:WAVE_TREES], trees[WAVE_TREES:]
        for tree in wave:
            open_node(tree, tree.rows, 0, tree.spec.seed)
        while frontier:
            buckets: dict[tuple, list] = {}
            for node in frontier:
                tree, size = node[0], node[2].size
                key = (0 if size <= small else size.bit_length(), tree.searched.size,
                       tree.node_features)
                buckets.setdefault(key, []).append(node)
            frontier = []
            for (_, n_cols, node_features), bucket in buckets.items():
                per_node = n_cols if node_features is None else node_features
                block, n_max = [], 0
                for node in bucket:
                    wider = max(n_max, node[2].size)
                    if block and (len(block) + 1) * per_node * wider > BLOCK_CELLS:
                        search(block, n_cols, node_features)
                        block, wider = [], node[2].size
                    block.append(node)
                    n_max = wider
                search(block, n_cols, node_features)
        for tree in wave:
            model = tree.model(config, train.k)
            if config.pruning:
                rows = tree.spec.rows
                model.stats_of = train if rows is None else train.subset(rows)
                model = prune(model, model.stats_of)
                model.stats_of = None
            models.append(model)
    return models


def as_features(X: np.ndarray, k: int) -> np.ndarray:
    """``X`` as a C-ordered float64 (n, k) matrix of finite values, the check
    of every model's input: a NaN fails every <= test and would silently
    route right, whether or not a tree reads its column."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != k:
        raise ValidationError(f"X has shape {X.shape}, expected (n, {k})")
    if not np.isfinite(X).all():
        raise ValidationError("features contain non-finite values")
    return X


def route(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Preorder index of the leaf that each row of ``X`` reaches.

    ``X`` is C-ordered float64. The rows descend one level per step, and
    only rows still at an internal node take the next step.
    """
    n_rows, width = X.shape
    at = np.zeros(n_rows, dtype=np.intp)
    if tree.feature[0] < 0:
        return at
    internal = tree.feature >= 0
    flat = X.ravel()
    rows, nodes = np.arange(n_rows), np.zeros(n_rows, dtype=np.intp)
    while rows.size:
        go_left = flat.take(rows * width + tree.feature.take(nodes)) <= tree.threshold.take(nodes)
        nodes = np.where(go_left, nodes + 1, tree.right.take(nodes))
        at[rows] = nodes
        moving = internal.take(nodes)
        rows, nodes = rows[moving], nodes[moving]
    return at


def predict_many(model: CsdtModel, X: np.ndarray) -> np.ndarray:
    X = as_features(X, model.k)
    return model.tree.predicted_class[route(model.tree, X)]


def predict_proba_many(model: CsdtModel, X: np.ndarray) -> np.ndarray:
    """Positive-class probability per row (leaf frequency, Laplace smoothed)."""
    X = as_features(X, model.k)
    return leaf_proba(model.tree, route(model.tree, X))


def leaf_proba(tree: Tree, leaves: np.ndarray) -> np.ndarray:
    """Positive-class probability at each of ``leaves`` (leaf frequency, Laplace smoothed)."""
    return (tree.n_pos[leaves] + 1.0) / (tree.n[leaves] + 2.0)


def _node_stats(
    tree: Tree, dataset: CostedDataset, impurity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node all-0 cost, all-1 cost, count and positive count of ``dataset``'s rows.

    :func:`route` finds each row's leaf. A node's rows are those whose leaf
    lies in its preorder range; it sums them in increasing row order, as
    growth does.
    """
    cost0, cost1 = _prediction_costs(dataset, impurity)
    leaves = route(tree, dataset.X)
    by_leaf = leaves.argsort(kind="stable")
    lo, hi = leaves[by_leaf].searchsorted([np.arange(tree.size), _layout(tree)[2]])
    s0, s1 = np.zeros(tree.size), np.zeros(tree.size)
    n_pos = np.zeros(tree.size, dtype=np.int64)
    for i, (start, stop) in enumerate(zip(lo.tolist(), hi.tolist())):
        idx = np.sort(by_leaf[start:stop])
        s0[i], s1[i] = cost0.take(idx).sum(), cost1.take(idx).sum()
        n_pos[i] = dataset.y.take(idx).sum()
    return s0, s1, (hi - lo).astype(np.int64), n_pos


def prune(model: CsdtModel, prune_set: CostedDataset) -> CsdtModel:
    """Collapse subtrees whose constant replacement does not cost more.

    Repeatedly replaces the internal node with the largest nonnegative
    cost decrease by its cheapest constant leaf (costs taken on the
    pruning set; ties go to the first node in post-order). Never increases
    the pruning-set cost. The pruning set's statistics come from the model
    when the pruning set is its ``stats_of``, else from one routing pass.
    They decide which nodes collapse and each collapsed leaf's class, and
    nothing else: every node keeps the statistics it had, which describe
    the rows the tree grew on. So a grown tree pruned on any set still has
    each internal node's n and n_pos equal to its children's sums, and its
    leaf probabilities are frequencies among the growth rows.
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
    """The arrays of a version-1 file's nested ``rule``/``leaf`` tree, as the
    lists :func:`tree_from_dict` reads, built without recursion. Version 1
    stored statistics at the leaves only, so an internal node gets its
    children's sums and the class of the cheaper sum."""
    rows: list[list] = []  # one row of Tree's fields per node, in preorder; 3 at a rule
    pending = [(root, -1)]  # (node, the row whose right child it is, or -1)
    while pending:
        node, parent = pending.pop()
        if parent >= 0:
            rows[parent][2] = len(rows)
        if isinstance(node, dict) and "leaf" in node:
            leaf = node["leaf"]
            rows.append([-1, 0.0, -1, leaf["class"], leaf["cost_f0"], leaf["cost_f1"], leaf["n"],
                         leaf["n_pos"]])
        elif isinstance(node, dict) and {"rule", "left", "right"} <= node.keys():
            rows.append([node["rule"]["feature"], node["rule"]["threshold"], -1])
            pending += [(node["right"], len(rows) - 1), (node["left"], -1)]
        else:
            raise ValidationError("a tree node is neither a leaf nor a rule with both children")
    for i in reversed(range(len(rows))):  # children come after their parent
        if len(rows[i]) == 3:
            left, right = rows[i + 1], rows[rows[i][2]]
            s0, s1 = left[4] + right[4], left[5] + right[5]
            rows[i] += [0 if s0 <= s1 else 1, s0, s1, left[6] + right[6], left[7] + right[7]]
    return {field.name: list(column) for field, column in zip(fields(Tree), zip(*rows))}


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


def read_k(data: dict) -> int:
    """A model file's feature count ``k``: an integer >= 1."""
    k = as_integers(data["k"], "k")
    if k.ndim or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {data['k']!r}")
    return int(k)


def model_from_dict(data: dict) -> CsdtModel:
    version = check_model_header(data, "csdt")
    try:
        k = read_k(data)
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
