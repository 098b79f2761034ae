"""Shared fixtures and oracles for the test suite."""

from dataclasses import asdict, astuple, dataclass, fields
from typing import Union

import numpy as np
import pytest

from costforest import CostedDataset, ValidationError, total_cost
from costforest.combiners import StackingWeights, as_vote_matrix
from costforest import csdt, ensemble, evaluation
from costforest.csdt import CsdtConfig, CsdtModel, Leaf, predict_many
from costforest.rng import feature_subsets, mix64


def strict_random_dataset(rng, n, k, binaryish=False):
    """Random dataset with strictly reasonable costs."""
    if binaryish:
        X = rng.integers(0, 2, size=(n, k)).astype(float)
    else:
        X = rng.normal(size=(n, k))
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    c_tp = rng.uniform(0, 2, n)
    c_tn = rng.uniform(0, 2, n)
    c_fn = c_tp + rng.uniform(0.5, 20, n)
    c_fp = c_tn + rng.uniform(0.5, 20, n)
    return CostedDataset(X, y, np.column_stack([c_tp, c_fp, c_fn, c_tn]))


def costed(y, costs, X=None, strict=True):
    """Dataset from labels and cost rows (c_tp, c_fp, c_fn, c_tn): one row
    shared by every example, or one per example. ``X`` defaults to a single
    zero feature."""
    y = np.asarray(y)
    X = np.zeros((y.size, 1)) if X is None else X
    return CostedDataset(X, y, np.broadcast_to(costs, (y.size, 4)), strict=strict)


def two_example_fraud():
    """One positive and one negative, features 0 and 1, both costed (3, 3, 100, 0)."""
    return costed([1, 0], (3, 3, 100, 0), X=[[0.0], [1.0]])


def four_example_set():
    """Labels (0,0,1,1), shared costs (tp=0, fp=5, fn=10, tn=0), feature 1..4."""
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    costs = np.tile([0.0, 5.0, 10.0, 0.0], (4, 1))
    return CostedDataset(X, y, costs)


def deep_chain(depth):
    """JSON text of a version-1 chain of ``depth`` rules on feature 0, built without recursion."""
    leaf = '{"leaf": {"class": 0, "cost_f0": 0.0, "cost_f1": 0.0, "n": 1, "n_pos": 0}}'
    rule = '{"rule": {"feature": 0, "threshold": 0.5}, "right": ' + leaf + ', "left": '
    return rule * depth + leaf + "}" * depth


def chain_tree(depth):
    """Version-2 arrays of a chain of ``depth`` rules ``x[0] <= 10``, each with a
    right leaf: node i < depth splits and its right child is node 2 * depth - i.
    A row with x[0] <= 10 passes every rule to node ``depth``, the only leaf
    that predicts 1."""
    size = 2 * depth + 1
    return {
        "feature": [0] * depth + [-1] * (depth + 1),
        "threshold": [10.0] * depth + [0.0] * (depth + 1),
        "right": [2 * depth - i for i in range(depth)] + [-1] * (depth + 1),
        "predicted_class": [0] * depth + [1] + [0] * depth,
        "cost_f0": [0.0] * size,
        "cost_f1": [0.0] * size,
        "n": [1] * size,
        "n_pos": [0] * size,
    }


def _set(name, i, value):
    return lambda arrays: arrays[name].__setitem__(i, value)


# Corruptions of ``chain_tree(3)`` on one feature, each with the message it
# must raise: nodes 0-2 split, node 3 is the deepest leaf, and node i < 3 has
# its right leaf at 6 - i.
MALFORMED_V2 = {
    "right-before-left-child": (_set("right", 2, 1), "not a preorder tree"),
    "right-to-itself": (_set("right", 2, 2), "not a preorder tree"),
    "right-to-ancestor": (_set("right", 2, 0), "not a preorder tree"),
    "right-is-left-child": (_set("right", 2, 3), "not a preorder tree"),
    "right-past-end": (_set("right", 2, 7), "not a preorder tree"),
    "overlapping-subtrees": (_set("right", 0, 5), "not a preorder tree"),
    "unreached-nodes": (_set("feature", 0, -1), "unreached"),
    "unequal-lengths": (lambda arrays: arrays["n"].pop(), "equal length"),
    "empty": (lambda arrays: [column.clear() for column in arrays.values()], "nonempty"),
    "feature-past-width": (_set("feature", 1, 1), "feature 1 is outside"),
    "feature-below-leaf": (_set("feature", 1, -2), "feature -2 is outside"),
    "class-2": (_set("predicted_class", 3, 2), "not 0 or 1"),
    "threshold-nan": (_set("threshold", 1, float("nan")), "not finite"),
    "threshold-inf": (_set("threshold", 1, float("inf")), "not finite"),
}


# Fractional values of ``chain_tree(3)``'s integer fields, which a reader
# must reject rather than truncate, and the node each is written at.
FRACTIONAL_V2 = [("predicted_class", 0.5), ("feature", 0.7), ("right", 6.9), ("n", 1.5),
                 ("n_pos", 0.5)]
FRACTIONAL_NODE = {"predicted_class": 3, "feature": 0, "right": 0, "n": 0, "n_pos": 3}

# The same for a version-1 root rule with two leaves, each with the message
# it must raise. A leaf's fractional count also makes the root's sum
# fractional, and the root comes first.
FRACTIONAL_V1 = [
    (lambda root: root["rule"].update(feature=0.7), "^feature holds 0.7, which is not"),
    (lambda root: root["left"]["leaf"].update({"class": 0.5}),
     "^predicted_class holds 0.5, which is not"),
    (lambda root: root["left"]["leaf"].update(n=1.5), "^n holds 3.5, which is not"),
    (lambda root: root["right"]["leaf"].update(n_pos=0.25), "^n_pos holds 0.25, which is not"),
]


def gaussian_cost_dataset(rng, n, k=10, shift=1.2, amount_sigma=1.0, admin=3.0):
    """Two overlapping Gaussian classes with fraud-style lognormal costs."""
    y = (rng.random(n) < 0.3).astype(int)
    X = rng.normal(size=(n, k)) + shift * y[:, None]
    amounts = rng.lognormal(mean=3.0, sigma=amount_sigma, size=n)
    amounts = np.maximum(amounts, admin + 0.5)  # keep strict reasonableness
    costs = np.column_stack(
        [np.full(n, admin), np.full(n, admin), amounts, np.zeros(n)]
    )
    return CostedDataset(X, y, costs)


def plain_forest(train: CostedDataset, T: int, seed: int, tree: CsdtConfig):
    """The benchmark's ``rf`` learner (bootstrap, per-node features, majority
    vote of gini trees), trained from the config the harness builds for it."""
    algo = evaluation.AlgorithmSpec("ci", "rf", "rf", config={"T": T, "tree": asdict(tree)})
    return ensemble.train(train, evaluation._learner_config(algo, seed))


@pytest.fixture
def four_examples():
    return four_example_set()


# --- nested trees and the version-1 file format -----------------------------


@dataclass(frozen=True)
class SplitRule:
    """Send x to the left child iff x[feature_index] <= threshold."""

    feature_index: int
    threshold: float


@dataclass(frozen=True)
class Internal:
    rule: SplitRule
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


def nested(model: CsdtModel) -> TreeNode:
    """The model's tree as nested ``Leaf``/``Internal`` nodes."""
    tree = model.tree

    def node(i: int) -> TreeNode:
        if tree.feature[i] < 0:
            return Leaf(int(tree.predicted_class[i]), float(tree.cost_f0[i]),
                        float(tree.cost_f1[i]), int(tree.n[i]), int(tree.n_pos[i]))
        rule = SplitRule(int(tree.feature[i]), float(tree.threshold[i]))
        return Internal(rule, node(i + 1), node(int(tree.right[i])))

    return node(0)


def flatten(root: TreeNode) -> csdt.Tree:
    """A nested tree as preorder ``Tree`` arrays. An internal node holds its
    children's summed statistics and the class of the cheaper sum, as a
    version-1 model file loads it."""
    rows: list[list] = []

    def visit(node: TreeNode) -> list:
        if isinstance(node, Leaf):
            rows.append([-1, 0.0, -1, *astuple(node)])
            return rows[-1]
        row = [node.rule.feature_index, node.rule.threshold, -1]
        rows.append(row)
        left = visit(node.left)
        row[2] = len(rows)
        right = visit(node.right)
        s0, s1 = left[4] + right[4], left[5] + right[5]
        row += [0 if s0 <= s1 else 1, s0, s1, left[6] + right[6], left[7] + right[7]]
        return row

    visit(root)
    return csdt.Tree(*zip(*rows))


def tree_lists(model: CsdtModel, internal_stats: bool = True) -> dict:
    """The model's eight ``Tree`` arrays as lists. Without ``internal_stats``
    an internal node's class and statistics read None, for comparing with
    trees built from nested nodes, which hold none."""
    lists = {field.name: getattr(model.tree, field.name).tolist()
             for field in fields(csdt.Tree)}
    if not internal_stats:
        for i in np.flatnonzero(model.tree.feature >= 0).tolist():
            for name in ("predicted_class", "cost_f0", "cost_f1", "n", "n_pos"):
                lists[name][i] = None
    return lists


def node_to_dict(columns: dict, i: int) -> dict:
    """Node i of a tree's columns as a version-1 file wrote it, with its subtree."""
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
        "left": node_to_dict(columns, i + 1),
        "right": node_to_dict(columns, columns["right"][i]),
    }


def v1_dict(model: CsdtModel) -> dict:
    """The csdt model as a version-1 file: a nested ``rule``/``leaf`` root."""
    return {
        "format_version": "1",
        "kind": "csdt",
        "k": model.k,
        "config": asdict(model.config),
        "root": node_to_dict(tree_lists(model), 0),
    }


def v1_ensemble_dict(model) -> dict:
    """The ensemble as a version-1 file: every base tree a whole csdt model."""
    data = ensemble.model_to_dict(model)
    data["format_version"] = "1"
    data["base_models"] = [v1_dict(base_model(model, j)) for j in range(model.T)]
    return data


def base_model(model, j: int) -> CsdtModel:
    """Base tree j of an ensemble as a single-tree model over the ensemble's k features."""
    return CsdtModel(model.trees[j], model.config.tree, model.k)


# --- per-row oracles for the library's vectorized paths ----------------------


def cost_impurity(subset: CostedDataset | None) -> float:
    """Cost of the cheapest constant prediction on the subset (empty -> 0)."""
    if subset is None:
        return 0.0
    cost0, cost1 = subset.costs_if_predicted()
    return float(min(cost0.sum(), cost1.sum()))


def split_gain(subset: CostedDataset, rule: SplitRule) -> float:
    """Impurity decrease of one splitting rule, children weighted by size share."""
    if not 0 <= rule.feature_index < subset.k:
        raise ValidationError(f"feature index {rule.feature_index} out of range")
    left = subset.X[:, rule.feature_index] <= rule.threshold
    n_l = int(left.sum())
    n_r = subset.n - n_l
    if n_l == 0 or n_r == 0:
        raise ValidationError("split leaves one side empty")
    parent = cost_impurity(subset)
    i_l = cost_impurity(subset.subset(np.flatnonzero(left)))
    i_r = cost_impurity(subset.subset(np.flatnonzero(~left)))
    return parent - (n_l / subset.n) * i_l - (n_r / subset.n) * i_r


def training_cost(model: CsdtModel, dataset: CostedDataset) -> float:
    """Money the model loses on a dataset (always the real cost columns)."""
    return total_cost(dataset, predict_many(model, dataset.X))


def stacking_cost(
    dataset: CostedDataset, base_predictions, weights: StackingWeights
) -> float:
    """Expected-cost objective of the sigmoid-linear combiner, summed per row."""
    votes = as_vote_matrix(base_predictions)
    if votes.shape[1] != dataset.n:
        raise ValidationError(
            f"votes cover {votes.shape[1]} examples, dataset has {dataset.n}"
        )
    cost0, cost1 = dataset.costs_if_predicted()
    return float(weights.scores(votes) @ (cost1 - cost0) + cost0.sum())


def _oracle_costs(dataset: CostedDataset, impurity: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cost of predicting 0 and 1: money, or unit costs in gini mode."""
    if impurity == "gini":
        pos = (dataset.y == 1).astype(np.float64)
        return pos, 1.0 - pos
    return dataset.costs_if_predicted()


def _oracle_replace(node: TreeNode, target: TreeNode, replacement: Leaf) -> TreeNode:
    if node is target:
        return replacement
    if isinstance(node, Leaf):
        return node
    return Internal(
        node.rule,
        _oracle_replace(node.left, target, replacement),
        _oracle_replace(node.right, target, replacement),
    )


def prune_oracle(model: CsdtModel, prune_set: CostedDataset) -> CsdtModel:
    """Greedy pruning on the nested tree, re-routing the pruning set after every collapse.

    Each pass walks the tree in post-order and lists every internal node's
    cost decrease (its subtree's pruning-set cost minus its cheapest
    constant's); the first largest nonnegative decrease is collapsed. The
    leaf that replaces it predicts the pruning set's cheaper class there and
    keeps the node's statistics from ``model``.
    """
    cost0, cost1 = _oracle_costs(prune_set, model.config.impurity)
    root = nested(model)
    tree = model.tree

    def stats(node: TreeNode, idx: np.ndarray, acc: list, i: int) -> float:
        """The subtree's pruning-set cost; ``i`` is the node's index in ``tree``."""
        c0, c1 = cost0[idx], cost1[idx]
        if isinstance(node, Leaf):
            return float((c1 if node.predicted_class == 1 else c0).sum())
        left = prune_set.X[idx, node.rule.feature_index] <= node.rule.threshold
        sub = (stats(node.left, idx[left], acc, i + 1)
               + stats(node.right, idx[~left], acc, int(tree.right[i])))
        acc.append((sub - min(float(c0.sum()), float(c1.sum())), node, idx, i))
        return sub

    while True:
        candidates: list = []
        stats(root, np.arange(prune_set.n), candidates, 0)
        if not candidates:
            break
        decrease, target, idx, i = max(candidates, key=lambda item: item[0])
        if decrease < 0:
            break
        cheaper = int(float(cost0[idx].sum()) > float(cost1[idx].sum()))
        replacement = Leaf(cheaper, float(tree.cost_f0[i]), float(tree.cost_f1[i]),
                           int(tree.n[i]), int(tree.n_pos[i]))
        root = _oracle_replace(root, target, replacement)
    return CsdtModel(flatten(root), model.config, model.k)


def route_oracle(model: CsdtModel, X: np.ndarray, value) -> list:
    """``value(leaf)`` of the leaf each row reaches, by a recursive walk."""
    out: list = [None] * X.shape[0]

    def route(node: TreeNode, idx: np.ndarray) -> None:
        if isinstance(node, Leaf):
            for i in idx:
                out[i] = value(node)
            return
        left = X[idx, node.rule.feature_index] <= node.rule.threshold
        route(node.left, idx[left])
        route(node.right, idx[~left])

    route(nested(model), np.arange(X.shape[0]))
    return out


def quantile_count(config: CsdtConfig) -> int | None:
    """The ``q`` that ``csdt._best_split`` takes for ``config``: None for exact midpoints."""
    return config.n_quantiles if config.candidate_thresholds == "quantiles" else None


def grow_oracle(
    train: CostedDataset,
    config: CsdtConfig | None = None,
    seed: int | None = None,
    node_features: int | None = None,
    features: np.ndarray | None = None,
) -> CsdtModel:
    """``csdt.grow`` by depth-first recursion, one kernel call per node.

    Each node's block holds exactly its rows, unpadded; the tree is built in
    preorder and pruned as ``grow`` prunes it. A node searches ``features``
    (every column by default); a sampling node draws its subset of them from
    its key: ``seed`` at the root, ``mix64(key, side)`` below.
    """
    config = config or CsdtConfig()
    cost0, cost1 = _oracle_costs(train, config.impurity)
    q = quantile_count(config)
    table, key_table = train.X.T, csdt.column_ranks(train.X).T
    nodes: list[list] = []  # one row of Tree's fields per node, in preorder

    def build(idx: np.ndarray, depth: int, key: int | None) -> None:
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
        columns = np.arange(train.k) if features is None else features
        if node_features is not None and node_features < columns.size:
            columns = columns[feature_subsets(np.array([key], dtype=np.uint64), columns.size,
                                              node_features)[0]]
        block = table[np.ix_(columns, idx)]
        [found] = csdt._best_split(
            block, key_table[np.ix_(columns, idx)], c0[None], c1[None],
            np.full(columns.size, idx.size), q, np.array([min(s0, s1)]),
        )
        if found is None or found[0] <= config.min_gain:
            return
        _, col, cut = found
        node[0], node[1] = int(columns[col]), cut
        left_mask = block[col] <= cut
        build(idx[left_mask], depth + 1, None if key is None else mix64(key, 0))
        node[2] = len(nodes)
        build(idx[~left_mask], depth + 1, None if key is None else mix64(key, 1))

    build(np.arange(train.n), 0, seed)
    model = CsdtModel(csdt.Tree(*zip(*nodes)), config, train.k)
    if config.pruning:
        model.stats_of = train
        model = csdt.prune(model, train)
        model.stats_of = None
    return model
