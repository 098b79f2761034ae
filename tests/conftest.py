"""Shared fixtures and oracles for the test suite."""

import numpy as np
import pytest

from costforest import CostedDataset, ValidationError, total_cost
from costforest.combiners import StackingWeights, as_vote_matrix
from costforest.csdt import CsdtModel, Internal, Leaf, SplitRule, TreeNode, predict_many


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


def four_example_set():
    """Labels (0,0,1,1), shared costs (tp=0, fp=5, fn=10, tn=0), feature 1..4."""
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    costs = np.tile([0.0, 5.0, 10.0, 0.0], (4, 1))
    return CostedDataset(X, y, costs)


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


@pytest.fixture
def four_examples():
    return four_example_set()


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


def _oracle_leaf(y: np.ndarray, cost0: np.ndarray, cost1: np.ndarray) -> Leaf:
    s0, s1 = float(cost0.sum()), float(cost1.sum())
    return Leaf(0 if s0 <= s1 else 1, s0, s1, int(y.size), int(y.sum()))


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
    constant's); the first largest nonnegative decrease is collapsed.
    """
    cost0, cost1 = _oracle_costs(prune_set, model.config.impurity)
    root = model.root

    def stats(node: TreeNode, idx: np.ndarray, acc: list) -> float:
        c0, c1 = cost0[idx], cost1[idx]
        if isinstance(node, Leaf):
            return float((c1 if node.predicted_class == 1 else c0).sum())
        left = prune_set.X[idx, node.rule.feature_index] <= node.rule.threshold
        sub = stats(node.left, idx[left], acc) + stats(node.right, idx[~left], acc)
        acc.append((sub - min(float(c0.sum()), float(c1.sum())), node, idx))
        return sub

    while True:
        candidates: list = []
        stats(root, np.arange(prune_set.n), candidates)
        if not candidates:
            break
        decrease, target, idx = max(candidates, key=lambda item: item[0])
        if decrease < 0:
            break
        replacement = _oracle_leaf(prune_set.y[idx], cost0[idx], cost1[idx])
        root = _oracle_replace(root, target, replacement)
    return CsdtModel(root, model.config, model.k)


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

    route(model.root, np.arange(X.shape[0]))
    return out
