import json
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from conftest import (
    FRACTIONAL_NODE,
    FRACTIONAL_V1,
    FRACTIONAL_V2,
    MALFORMED_V2,
    Internal,
    SplitRule,
    chain_tree,
    cost_impurity,
    costed,
    deep_chain,
    flatten,
    four_example_set,
    grow_oracle,
    nested,
    oracle_costs,
    prune_oracle,
    quantile_bins_oracle,
    quantile_count,
    route_oracle,
    split_gain,
    strict_random_dataset,
    training_cost,
    tree_lists,
    v1_dict,
)
from costforest import ConfigError, CostedDataset, ValidationError, total_cost
from costforest import csdt, ensemble
from costforest.combiners import GaConfig
from costforest.csdt import (
    CsdtConfig,
    CsdtModel,
    Leaf,
    grow,
    load,
    model_from_dict,
    model_to_dict,
    predict_many,
    prune,
    save,
)
from costforest.ensemble import EcsdtConfig
from costforest.inducers import KINDS, InducerConfig, draw_samples
from costforest.rng import feature_subsets, mix64

EXACT = CsdtConfig(candidate_thresholds="exact_midpoints")


# --- independent oracle: exhaustive search over depth-limited trees ---------

def _midpoint_candidates(X):
    """Per-node candidate rules: midpoints of consecutive distinct sorted values."""
    rules = []
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            rules.append((f, 0.5 * (lo + hi)))
    return rules


def _impurity_arrays(cost0, cost1):
    return min(cost0.sum(), cost1.sum())


def exhaustive_best_cost(ds, max_depth=2):
    """Minimum training cost over every tree of depth <= max_depth whose
    nodes split at midpoints of their own subset's values."""
    cost0, cost1 = ds.costs_if_predicted()

    def best(idx, depth):
        c = _impurity_arrays(cost0[idx], cost1[idx])
        if depth == 0:
            return c
        for f, t in _midpoint_candidates(ds.X[idx]):
            left = ds.X[idx, f] <= t
            if left.all() or not left.any():
                continue
            c = min(c, best(idx[left], depth - 1) + best(idx[~left], depth - 1))
        return c

    return best(np.arange(ds.n), max_depth)


class TestCostImpurity:
    def test_hand_computed(self, four_examples):
        assert cost_impurity(four_examples) == 10.0

    def test_pure_negative_free(self):
        ds = CostedDataset(
            np.zeros((3, 1)), np.zeros(3, dtype=int),
            np.tile([0.0, 5, 10, 0], (3, 1)),
        )
        assert cost_impurity(ds) == 0.0

    def test_single_positive_free(self):
        ds = CostedDataset(
            np.zeros((1, 1)), np.array([1]), np.array([[0.0, 5, 10, 0]])
        )
        assert cost_impurity(ds) == 0.0

    def test_empty_is_zero(self):
        assert cost_impurity(None) == 0.0

    def test_matches_cheapest_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ds = strict_random_dataset(rng, 12, 2)
            by_constant = min(
                total_cost(ds, np.zeros(ds.n, dtype=int)),
                total_cost(ds, np.ones(ds.n, dtype=int)),
            )
            assert cost_impurity(ds) == pytest.approx(by_constant, rel=1e-12)


class TestSplitGain:
    def test_perfect_split(self, four_examples):
        assert split_gain(four_examples, SplitRule(0, 2.5)) == pytest.approx(10.0)

    def test_partial_split(self, four_examples):
        assert split_gain(four_examples, SplitRule(0, 1.5)) == pytest.approx(6.25)

    def test_empty_side_rejected(self, four_examples):
        with pytest.raises(ValidationError):
            split_gain(four_examples, SplitRule(0, 0.5))

    def test_gain_nonnegative_property(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            ds = strict_random_dataset(rng, int(rng.integers(2, 40)), 2)
            f = int(rng.integers(0, 2))
            vals = np.unique(ds.X[:, f])
            if vals.size < 2:
                continue
            t = float(rng.uniform(vals[0], vals[-1]))
            left = ds.X[:, f] <= t
            if left.all() or not left.any():
                continue
            assert split_gain(ds, SplitRule(f, t)) >= -1e-9


class TestGrow:
    def test_four_examples_depth_one(self, four_examples):
        model = grow(four_examples, EXACT)
        assert isinstance(nested(model), Internal)
        assert nested(model).rule == SplitRule(0, 2.5)
        assert isinstance(nested(model).left, Leaf)
        assert isinstance(nested(model).right, Leaf)
        assert training_cost(model, four_examples) == 0.0

    def test_single_example(self):
        ds = CostedDataset(np.zeros((1, 1)), np.array([1]), np.array([[0.0, 5, 10, 0]]))
        model = grow(ds, EXACT)
        assert isinstance(nested(model), Leaf)
        assert nested(model).predicted_class == 1

    def test_constant_feature(self):
        ds = CostedDataset(
            np.zeros((4, 1)), np.array([0, 1, 0, 1]),
            np.tile([0.0, 5, 10, 0], (4, 1)),
        )
        model = grow(ds, EXACT)
        assert isinstance(nested(model), Leaf)

    def test_depth_limit(self):
        rng = np.random.default_rng(1)
        ds = strict_random_dataset(rng, 200, 3)
        model = grow(ds, CsdtConfig(max_depth=3, pruning=False))
        assert model.depth() <= 3

    def test_leaf_tie_goes_to_zero(self):
        ds = CostedDataset(
            np.zeros((2, 1)), np.array([1, 0]),
            np.array([[2.0, 5, 6, 0], [2.0, 4, 6, 0]]),  # cost_f0 = 6 = cost_f1
        )
        model = grow(ds, EXACT)
        assert isinstance(nested(model), Leaf)
        assert nested(model).predicted_class == 0

    def test_zero_gain_not_taken(self):
        # duplicated rows: any split has zero gain, tree must stay a leaf
        ds = CostedDataset(
            np.array([[1.0], [1.0], [2.0], [2.0]]),
            np.array([1, 0, 1, 0]),
            np.tile([0.0, 5, 5, 0], (4, 1)),
        )
        model = grow(ds, EXACT)
        assert isinstance(nested(model), Leaf)

    def test_adjacent_double_midpoint_keeps_split(self):
        # 0.5 * (a + b) == b for these adjacent doubles, so the midpoint
        # would send every row left
        a, b = 1 + 2.0**-52, 1 + 2.0**-51
        assert 0.5 * (a + b) == b
        ds = CostedDataset(
            np.array([[a], [a], [b], [b]]), np.array([0, 0, 1, 1]),
            np.tile([0.0, 1, 1, 0], (4, 1)),
        )
        model = grow(ds, CsdtConfig(candidate_thresholds="exact_midpoints", pruning=False))
        assert nested(model).rule == SplitRule(0, a)
        assert model.depth() == 1
        assert training_cost(model, ds) == 0.0


class TestPredict:
    def test_routes(self, four_examples):
        model = grow(four_examples, EXACT)
        assert model.predict_many(np.array([[1.0]]))[0] == 0
        assert model.predict_many(np.array([[2.5]]))[0] == 0  # boundary goes left
        assert model.predict_many(np.array([[4.0]]))[0] == 1

    def test_many_matches_single(self, four_examples):
        model = grow(four_examples, EXACT)
        X = np.array([[0.3], [2.5], [2.6], [9.0]])
        assert predict_many(model, X).tolist() == [model.predict_many(x[None])[0] for x in X]

    def test_dimension_mismatch(self, four_examples):
        model = grow(four_examples, EXACT)
        with pytest.raises(ValidationError):
            model.predict_many(np.array([1.0, 2.0])[None])
        with pytest.raises(ValidationError):
            model.predict_many(np.array([1.0]))  # a bare vector is not a (1, k) matrix
        with pytest.raises(ValidationError):
            predict_many(model, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, four_examples, bad):
        # a NaN fails every <= test: routed, it would silently land right
        model = grow(four_examples, EXACT)
        with pytest.raises(ValidationError, match="non-finite"):
            predict_many(model, np.array([[1.0], [bad]]))
        with pytest.raises(ValidationError, match="non-finite"):
            model.predict_many(np.array([bad])[None])
        with pytest.raises(ValidationError, match="non-finite"):
            model.predict_proba(np.array([[bad]]))


class TestPrune:
    def test_same_class_leaves_collapse(self):
        leaf = Leaf(1, 5.0, 1.0, 2, 2)
        tree = CsdtModel(
            flatten(Internal(SplitRule(0, 0.5), leaf, Leaf(1, 4.0, 1.0, 2, 2))),
            config=CsdtConfig(),
            k=1,
        )
        ds = CostedDataset(
            np.array([[0.0], [1.0]]), np.array([1, 1]),
            np.tile([1.0, 5, 9, 0], (2, 1)),
        )
        pruned = prune(tree, ds)
        assert isinstance(nested(pruned), Leaf)
        assert nested(pruned).predicted_class == 1

    def test_separable_training_prune_keeps_cost(self, four_examples):
        model = grow(four_examples, CsdtConfig(candidate_thresholds="exact_midpoints", pruning=False))
        pruned = prune(model, four_examples)
        assert training_cost(pruned, four_examples) == 0.0
        assert predict_many(pruned, four_examples.X).tolist() == [0, 0, 1, 1]

    def test_never_increases_prune_set_cost(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ds = strict_random_dataset(rng, int(rng.integers(20, 120)), 3)
            model = grow(ds, CsdtConfig(max_depth=6, pruning=False))
            before = training_cost(model, ds)
            after = training_cost(prune(model, ds), ds)
            assert after <= before + 1e-9

    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    def test_cheapest_and_smallest_of_every_pruning(self, impurity):
        """Against every pruning of small trees, on sets whose integer costs
        make every sum exact: prune's pruning-set cost is the least, and its
        node count the least among the prunings of that cost."""
        rng = np.random.default_rng([77, len(impurity)])
        for _ in range(100):
            train, held_out = (_integer_cost_set(rng, int(rng.integers(5, 60)), 2)
                               for _ in range(2))
            config = CsdtConfig(max_depth=4, impurity=impurity, pruning=False,
                                n_quantiles=int(rng.integers(2, 10)))
            grown = grow(train, config)
            recorded = CsdtModel(grown.tree, config, grown.k)
            recorded.stats_of = train
            built = CsdtModel(flatten(_random_nested(rng, 2, 4)), config, 2)
            for model, prune_set in ((grown, held_out), (recorded, train), (built, held_out)):
                cost0, cost1 = oracle_costs(prune_set, impurity)
                pruned = prune(model, prune_set)
                leaves = csdt.route(pruned.tree, prune_set.X)
                cost = np.where(pruned.tree.predicted_class[leaves] == 1, cost1, cost0).sum()
                least = min(_every_pruning(model.tree, prune_set.X, cost0, cost1))
                assert (cost, pruned.n_nodes()) == least

    def test_heldout_benefit_monte_carlo(self):
        # Overgrown trees on noisy data: pruning on a validation set should
        # not hurt test cost in at least 90% of runs.
        wins = 0
        runs = 50
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            n = 500
            X = rng.normal(size=(n, 2))
            y = (X[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(int)
            flip = rng.random(n) < 0.10
            y = np.where(flip, 1 - y, y)
            costs = np.column_stack(
                [np.ones(n), np.full(n, 6.0), rng.uniform(8, 40, n), np.zeros(n)]
            )
            ds = CostedDataset(X, y, costs)
            train = ds.subset(np.arange(0, 300))
            val = ds.subset(np.arange(300, 400))
            test = ds.subset(np.arange(400, 500))
            model = grow(train, CsdtConfig(max_depth=12, pruning=False))
            pruned = prune(model, val)
            if training_cost(pruned, test) <= training_cost(model, test) + 1e-9:
                wins += 1
        assert wins >= 0.9 * runs


class TestGiniMode:
    def test_matches_unit_cost_tree(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ds = strict_random_dataset(rng, 60, 2)
            unit = CostedDataset(
                ds.X, ds.y,
                np.tile([0.0, 1.0, 1.0, 0.0], (ds.n, 1)),
            )
            gini_cfg = CsdtConfig(candidate_thresholds="exact_midpoints", impurity="gini", max_depth=4)
            cost_cfg = CsdtConfig(candidate_thresholds="exact_midpoints", impurity="cost", max_depth=4)
            a = grow(ds, gini_cfg)
            b = grow(unit, cost_cfg)
            assert tree_lists(a) == tree_lists(b)

    def test_pure_split_agreement(self, four_examples):
        gini = grow(four_examples, CsdtConfig(candidate_thresholds="exact_midpoints", impurity="gini"))
        cost = grow(four_examples, EXACT)
        assert predict_many(gini, four_examples.X).tolist() == \
            predict_many(cost, four_examples.X).tolist()


class TestOracle:
    CONFIG = CsdtConfig(candidate_thresholds="exact_midpoints", max_depth=2, pruning=True)

    def test_never_beats_exhaustive_and_usually_matches(self):
        rng = np.random.default_rng(2024)
        matches = 0
        trials = 200
        for _ in range(trials):
            ds = strict_random_dataset(
                rng, int(rng.integers(4, 17)), int(rng.integers(1, 3)), binaryish=True
            )
            greedy = training_cost(grow(ds, self.CONFIG), ds)
            optimum = exhaustive_best_cost(ds, max_depth=2)
            assert greedy >= optimum - 1e-9  # cannot beat exhaustive search
            if greedy <= optimum + 1e-9:
                matches += 1
        assert matches >= 0.95 * trials

    def test_matches_on_separable(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 17))
            X = np.sort(rng.normal(size=(n, 1)), axis=0)
            cut = int(rng.integers(1, n))
            y = (np.arange(n) >= cut).astype(int)
            c_tp = rng.uniform(0, 1, n)
            c_tn = rng.uniform(0, 1, n)
            costs = np.column_stack(
                [c_tp, c_tn + rng.uniform(1, 10, n), c_tp + rng.uniform(1, 10, n), c_tn]
            )
            ds = CostedDataset(X, y, costs)
            greedy = training_cost(grow(ds, self.CONFIG), ds)
            assert greedy == pytest.approx(exhaustive_best_cost(ds, 2), abs=1e-9)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = strict_random_dataset(rng, 80, 3)
        model = grow(ds, CsdtConfig(max_depth=5))
        path = tmp_path / "tree.json"
        save(model, path)
        loaded = load(path)
        assert model_to_dict(loaded) == model_to_dict(model)
        assert np.array_equal(predict_many(loaded, ds.X), predict_many(model, ds.X))

    def test_thresholds_exact(self, tmp_path):
        ds = CostedDataset(
            np.array([[0.1], [0.2], [0.30000000000000004], [1e-17]]),
            np.array([0, 0, 1, 1]),
            np.tile([0.0, 5, 10, 0], (4, 1)),
        )
        model = grow(ds, EXACT)
        save(model, tmp_path / "t.json")
        again = load(tmp_path / "t.json")

        def thresholds(node):
            if isinstance(node, Leaf):
                return []
            return (
                [node.rule.threshold]
                + thresholds(node.left)
                + thresholds(node.right)
            )

        assert thresholds(nested(again)) == thresholds(nested(model))

    def test_version_check(self, tmp_path):
        with pytest.raises(ValidationError, match="format version"):
            model_from_dict({"format_version": "999", "kind": "csdt"})

    @pytest.mark.parametrize("version, text, match", [
        ("2", lambda text: text[:len(text) // 2], "JSONDecodeError"),
        ("1", lambda text: text[:len(text) // 2], "JSONDecodeError"),
        ("1", lambda text: text.replace('"root": ', '"root": ' + deep_chain(1200) + ', "unused": ',
                                        1), "RecursionError"),
    ], ids=["truncated", "truncated-v1", "too-deep-v1"])
    def test_unreadable_file_rejected(self, four_examples, tmp_path, version, text, match):
        path = tmp_path / "tree.json"
        model = grow(four_examples, EXACT)
        data = model_to_dict(model) if version == "2" else v1_dict(model)
        path.write_text(text(json.dumps(data, indent=1, sort_keys=True)))
        with pytest.raises(ValidationError, match=match):
            load(path)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda d: d["root"]["rule"].update(feature=99), "outside"),
        (lambda d: d["root"]["rule"].update(feature=-2), "outside"),
        (lambda d: d["root"]["rule"].update(feature=-1), "unreached"),
        (lambda d: d["root"]["rule"].update(threshold=float("nan")), "not finite"),
        (lambda d: d["root"]["rule"].update(threshold=float("inf")), "not finite"),
        (lambda d: d["root"].pop("left"), "neither a leaf"),
        (lambda d: d["root"].update(right=[1, 2]), "neither a leaf"),
        (lambda d: d["root"]["rule"].pop("threshold"), "KeyError"),
        (lambda d: d["root"]["left"]["leaf"].pop("n_pos"), "KeyError"),
        (lambda d: d["root"]["left"]["leaf"].update(n=float("inf")), "OverflowError"),
        (lambda d: d["root"]["left"]["leaf"].update({"class": 2}), "not 0 or 1"),
        (lambda d: d.pop("k"), "KeyError"),
        (lambda d: d["config"].update(depth=3), "unknown keys"),
        (lambda d: d["root"]["rule"].update(feature="x"), "ValueError"),
        (lambda d: d["root"]["rule"].update(threshold="0.5"), "threshold must hold numbers"),
        (lambda d: d["root"]["left"]["leaf"].update(cost_f0=True), "cost_f0 must hold numbers"),
    ])
    def test_malformed_version_1_model_rejected(self, four_examples, corrupt, match):
        data = json.loads(json.dumps(v1_dict(grow(four_examples, EXACT))))
        assert "rule" in data["root"]
        model_from_dict(data)
        corrupt(data)
        with pytest.raises(ValidationError, match=match):
            model_from_dict(data)

    @pytest.mark.parametrize("name", sorted(MALFORMED_V2))
    def test_malformed_tree_arrays_rejected(self, name, tmp_path):
        corrupt, match = MALFORMED_V2[name]
        data = {"format_version": "2", "kind": "csdt", "k": 1, "config": asdict(CsdtConfig()),
                "tree": chain_tree(3)}
        model_from_dict(data)
        corrupt(data["tree"])
        with pytest.raises(ValidationError, match=match):
            csdt.tree_from_dict(data["tree"], 1)
        (tmp_path / "tree.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=match):
            load(tmp_path / "tree.json")

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.pop("tree"),
        lambda d: d["tree"].pop("n_pos"),
        lambda d: d.update(tree=[1, 2]),
        lambda d: d["tree"].update(n=["x"] * 7),
        lambda d: d["tree"].update(feature=[2**70] * 7),
    ], ids=["no-tree", "no-field", "list", "text", "overflow"])
    def test_unconvertible_tree_arrays_rejected(self, corrupt):
        data = {"format_version": "2", "kind": "csdt", "k": 1, "config": asdict(CsdtConfig()),
                "tree": chain_tree(3)}
        corrupt(data)
        with pytest.raises(ValidationError, match="malformed csdt model"):
            model_from_dict(data)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda d: d.update(k=3.9), "k holds 3.9, which is not an integer"),
        (lambda d: d.update(k=True), "k must hold numbers only"),
        (lambda d: d.update(k="1"), "k must hold numbers only"),
        (lambda d: d.update(k=0), "k must be an integer >= 1, got 0"),
        (lambda d: d.update(k=[1]), "k must be an integer >= 1, got \\[1\\]"),
        (lambda d: d["tree"]["threshold"].__setitem__(0, "0.5"), "threshold must hold numbers"),
        (lambda d: d["tree"]["cost_f0"].__setitem__(0, True), "cost_f0 must hold numbers"),
        (lambda d: d["tree"]["cost_f1"].__setitem__(3, None), "cost_f1 must hold numbers"),
        (lambda d: d["tree"]["n"].__setitem__(0, True), "n must hold numbers"),
    ], ids=["k-fractional", "k-true", "k-text", "k-zero", "k-list", "threshold-text",
            "cost-true", "cost-null", "count-true"])
    def test_non_number_rejected(self, corrupt, match):
        # a model file holds numbers as JSON numbers: none is cast from text,
        # a boolean or null, or truncated
        data = {"format_version": "2", "kind": "csdt", "k": 1, "config": asdict(CsdtConfig()),
                "tree": chain_tree(3)}
        model_from_dict(data)
        corrupt(data)
        with pytest.raises(ValidationError, match=match):
            model_from_dict(data)

    @pytest.mark.parametrize("name, value", FRACTIONAL_V2)
    def test_fractional_integer_field_rejected(self, tmp_path, name, value):
        data = {"format_version": "2", "kind": "csdt", "k": 1, "config": asdict(CsdtConfig()),
                "tree": chain_tree(3)}
        model_from_dict(data)
        data["tree"][name][FRACTIONAL_NODE[name]] = value
        (tmp_path / "tree.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=f"{name} holds {value}, which is not an integer"):
            load(tmp_path / "tree.json")

    @pytest.mark.parametrize("corrupt, message", FRACTIONAL_V1)
    def test_fractional_integer_field_rejected_v1(self, four_examples, tmp_path, corrupt, message):
        data = json.loads(json.dumps(v1_dict(grow(four_examples, EXACT))))
        corrupt(data["root"])
        (tmp_path / "tree.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=message):
            load(tmp_path / "tree.json")

    def test_5000_deep_chain_loads_and_predicts(self, tmp_path):
        data = {"format_version": "2", "kind": "csdt", "k": 1, "config": asdict(CsdtConfig()),
                "tree": chain_tree(5000)}
        (tmp_path / "tree.json").write_text(json.dumps(data))
        model = load(tmp_path / "tree.json")
        assert model.depth() == 5000
        assert predict_many(model, np.array([[1.0], [10.0], [11.0]])).tolist() == [1, 1, 0]

    def test_gini_tree_round_trip_keeps_all_eight_arrays(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(12), 120, 3)
        model = grow(ds, CsdtConfig(impurity="gini"))
        assert model.n_nodes() > 3
        save(model, tmp_path / "tree.json")
        loaded = load(tmp_path / "tree.json")
        for field in fields(csdt.Tree):
            assert getattr(loaded.tree, field.name).tobytes() == \
                getattr(model.tree, field.name).tobytes(), field.name
        assert loaded.config == model.config and loaded.k == model.k

    def test_version_1_file_loads_to_the_same_tree(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(13), 150, 3)
        model = grow(ds, CsdtConfig(max_depth=6, pruning=False))
        assert model.depth() > 2
        (tmp_path / "v1.json").write_text(json.dumps(v1_dict(model), indent=1, sort_keys=True))
        loaded = load(tmp_path / "v1.json")
        assert tree_lists(loaded, internal_stats=False) == tree_lists(model, internal_stats=False)
        assert loaded.tree.n.tolist() == model.tree.n.tolist()
        assert loaded.tree.n_pos.tolist() == model.tree.n_pos.tolist()
        internal = model.tree.feature >= 0
        for name in ("cost_f0", "cost_f1"):
            assert np.allclose(getattr(loaded.tree, name), getattr(model.tree, name),
                               rtol=1e-12, atol=0)
        assert not np.isnan(loaded.tree.cost_f0[internal]).any()
        assert np.array_equal(predict_many(loaded, ds.X), predict_many(model, ds.X))
        assert np.array_equal(loaded.predict_proba(ds.X), model.predict_proba(ds.X))

    def test_leaf_builds_a_one_node_model(self):
        model = CsdtModel(Leaf(1, 5.0, 2.0, 4, 3), CsdtConfig(), 2)
        assert model.n_nodes() == 1 and model.depth() == 0
        assert predict_many(model, np.zeros((3, 2))).tolist() == [1, 1, 1]
        assert tree_lists(model)["n_pos"] == [3]


# --- split search kernel against the per-feature loop it replaced ----------

def _interpolate(lower, upper, gamma):
    """numpy's "linear" quantile interpolation between two floats, with its arithmetic."""
    diff = upper - lower
    return upper - diff * (1 - gamma) if gamma >= 0.5 else lower + diff * gamma


def _quantile_cuts(sorted_vals, q):
    """(run end, its value, the next value, cut) of each candidate of one sorted
    feature: quantile j lies at the exact index (n - 1) j / q, and a run end is
    a candidate if some quantile's integer part lies in its run. The cut, not yet
    guarded, is that of the run's first quantile: interpolated at the fraction
    of its index if the integer part is the run end, else the run's value."""
    ends = np.flatnonzero(sorted_vals[:-1] != sorted_vals[1:]).tolist()
    values = sorted_vals.tolist()
    found = []
    for j in range(1, q):
        lo, rem = divmod((sorted_vals.size - 1) * j, q)
        end = next((e for e in ends if e >= lo), None)
        if end is None or found and found[-1][0] == end:
            continue  # the run ends at the last position, or an earlier quantile took it
        lower, upper = values[end], values[end + 1]
        found.append((end, lower, upper, _interpolate(lower, upper, rem / q) if lo == end else lower))
    return found


def _reference_positions(sorted_vals, q):
    """Cut positions and thresholds of one sorted feature, as the loop found them.

    A threshold not in [lower, upper) is the lower value, and +0.0 is added."""
    if q is None:
        ends = np.flatnonzero(sorted_vals[:-1] != sorted_vals[1:]).tolist()
        v = sorted_vals.tolist()
        cuts = [(e, v[e], v[e + 1], 0.5 * (v[e] + v[e + 1])) for e in ends]
    else:
        cuts = _quantile_cuts(sorted_vals, q)
    positions = np.array([e for e, *_ in cuts], dtype=np.intp)
    return positions, [(cut if lower <= cut < upper else lower) + 0.0
                       for _, lower, upper, cut in cuts]


def _guard_fires(sorted_vals, q):
    """Whether some candidate's interpolated cut is not in [lower, upper)."""
    return any(not lower <= cut < upper for _, lower, upper, cut in _quantile_cuts(sorted_vals, q))


def _bin_boundaries(column, q):
    """(lower, upper) of each global-bin boundary of one column, by listing
    every quantile: quantile j lies at index (n - 1) j // q of the sorted
    column, and a boundary follows the run of equal values that holds it,
    unless that run is the last."""
    values = np.sort(column).tolist()
    n = len(values)
    ends = []
    for j in range(1, q):
        end = (n - 1) * j // q
        while end + 1 < n and values[end + 1] == values[end]:
            end += 1
        if end < n - 1 and end not in ends:
            ends.append(end)
    return [(values[e], values[e + 1]) for e in ends]


def _bin_thresholds(column, q):
    """Each global-bin boundary's threshold: the midpoint of its two values,
    or the lower value if the midpoint is not in [lower, upper), plus 0.0."""
    return [(midpoint if lower <= midpoint < upper else lower) + 0.0
            for lower, upper in _bin_boundaries(column, q)
            for midpoint in [0.5 * (lower + upper)]]


def _midpoint_guard_fires(column, q):
    """Whether some boundary's midpoint is not in [lower, upper)."""
    return any(not lower <= 0.5 * (lower + upper) < upper
               for lower, upper in _bin_boundaries(column, q))


def reference_histogram_split(X, rows, cost0, cost1, features, q):
    """Max-gain (gain, feature, threshold) of the node of ``X``'s ``rows``
    (repeats allowed), whose costs ``cost0`` and ``cost1`` are, trying every
    global-bin boundary of ``X``'s columns that leaves neither side empty,
    with direct sums."""
    n = rows.size
    parent = min(cost0.sum(), cost1.sum())
    best = None
    for f in features:
        values = X[rows, f]
        for threshold in _bin_thresholds(X[:, f], q):
            left = values <= threshold
            n_left = int(left.sum())
            if 0 < n_left < n:
                i_left = min(cost0[left].sum(), cost1[left].sum())
                i_right = min(cost0[~left].sum(), cost1[~left].sum())
                gain = parent - (n_left / n) * i_left - ((n - n_left) / n) * i_right
                if best is None or gain > best[0]:
                    best = (float(gain), int(f), threshold)
    return best


def reference_best_split(X, cost0, cost1, features, q):
    """Max-gain (gain, feature, threshold) of a node that is its own training
    set: one sort and scan per feature, or, in quantile mode for a node of
    more than ``q`` rows, the global-bin boundaries of its columns."""
    n = X.shape[0]
    if q is not None and n > q:
        return reference_histogram_split(X, np.arange(n), cost0, cost1, features, q)
    parent = min(cost0.sum(), cost1.sum())
    best = None
    for f in features:
        vals = X[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        pos, thresholds = _reference_positions(sv, q)
        if pos.size == 0:
            continue
        cum0 = np.cumsum(cost0[order])
        cum1 = np.cumsum(cost1[order])
        left0, left1 = cum0[pos], cum1[pos]
        i_left = np.minimum(left0, left1)
        i_right = np.minimum(cum0[-1] - left0, cum1[-1] - left1)
        n_left = pos + 1
        gains = parent - (n_left / n) * i_left - ((n - n_left) / n) * i_right
        idx = int(np.argmax(gains))
        if best is None or gains[idx] > best[0]:
            best = (float(gains[idx]), int(f), float(thresholds[idx]))
    return best


def _unpadded_nodes(columns, cost0, cost1, n):
    """Each node of a padded kernel block: its (F, n) columns and its costs."""
    n_cols = columns.shape[0] // cost0.shape[0]
    for b in range(cost0.shape[0]):
        size = n[b * n_cols]
        yield columns[b * n_cols:(b + 1) * n_cols, :size], cost0[b, :size], cost1[b, :size]


def _random_column(rng, n, y, kinds=6):
    kind = rng.integers(0, kinds)
    if kind == 0:  # integers, many ties
        return rng.integers(0, rng.integers(1, 6), n).astype(float)
    if kind == 1:
        return np.full(n, rng.normal())
    if kind == 2:
        return rng.normal(size=n)
    if kind == 3:
        return np.round(rng.normal(size=n), 1)
    if kind == 4:  # differences overflow to inf
        return rng.choice([-1.7e308, 0.0, 1.7e308], n)
    if kind == 5:  # two adjacent doubles that follow the label; their midpoint may round up
        a = rng.normal()
        b = np.nextafter(a, np.inf)
        return np.where((y == 1) ^ (rng.random(n) < 0.1), b, a)
    # values 2 apart where the spacing of doubles is 2: quantile cuts round to either value
    return 1e16 + 2 * rng.integers(0, 3, n).astype(float)


def _random_node(rng):
    """A node dataset, its candidate features and its quantile count (None: exact)."""
    n = int(rng.choice([2, 3, 5, 17, 60, 300]))
    k = int(rng.integers(1, 8))
    y = rng.integers(0, 2, n)
    X = np.column_stack([_random_column(rng, n, y) for _ in range(k)])
    costs = rng.exponential(size=(n, 4)) * (rng.random((n, 4)) < 0.7)
    ds = CostedDataset(X, y, costs, strict=False)
    if rng.random() < 0.5:
        features = np.arange(k)
    else:
        features = np.sort(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
    mode = "exact_midpoints" if rng.random() < 0.5 else "quantiles"
    config = CsdtConfig(candidate_thresholds=mode, n_quantiles=int(rng.integers(2, 121)))
    return ds, features, quantile_count(config)


def _kernel(X, cost0, cost1, features, q):
    """The kernel that growth runs at a root of X's rows, on the features'
    block, answering as the reference does: in quantile mode, a node of
    more than ``q`` rows is scored from histograms of X's global bins."""
    parent = np.array([min(float(cost0.sum()), float(cost1.sum()))])
    if q is not None and X.shape[0] > q:
        bins, cuts = csdt.quantile_bins(X, q)
        [found] = csdt._histogram_split(
            bins[features], np.array([X.shape[0]]), cost0, cost1, cuts.shape[1] + 1, parent
        )
        if found is None:
            return None
        gain, col, boundary = found
        return gain, int(features[col]), float(cuts[features[col], boundary])
    [found] = csdt._best_split(
        X[:, features].T, csdt.column_ranks(X)[:, features].T, cost0[None], cost1[None],
        np.full(features.size, X.shape[0]), q, parent,
    )
    if found is None:
        return None
    gain, col, threshold = found
    return gain, int(features[col]), threshold


def assert_same_split(got, expected, histogram, scale):
    """A sorted search equals the reference exactly; a histogram search has
    its column and threshold, and its gain to 1e-9 relative: its sums are
    added per bin, then across bins. A gain near zero is a difference of
    sums, so its rounding scales with ``scale``, the node's costs."""
    if not histogram:
        assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0
    elif expected is None:
        assert got is None
    else:
        assert repr(got[1:]) == repr(expected[1:])
        assert got[0] == pytest.approx(expected[0], rel=1e-9, abs=1e-12 * scale)


def sample_kwargs(sample, j):
    """``TreeSpec``'s arguments but its rows for tree j of an ensemble's
    sample: its patch's features, or its per-node feature count and key."""
    kwargs = {"features": sample.feature_indices}
    if sample.node_features is not None:
        kwargs.update(seed=j, node_features=sample.node_features)
    return kwargs


def grow_one(train, config=None, **spec):
    """The tree that a ``TreeSpec`` of every row and ``spec``'s features,
    seed and node_features grows on ``train``."""
    return csdt.grow_forest(train, config, [csdt.TreeSpec(**spec)])[0]


class TestSplitKernel:
    @pytest.mark.parametrize("values, n_quantiles", [
        ([-3.0, -2.0, -1.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 1.0, 2.0, 3.0], 12),
        ([-1e-323] * 4 + [5e-324] * 4, 2),
    ], ids=["by-position", "by-histogram"])
    def test_zero_quantile_cut_is_positive_zero(self, values, n_quantiles):
        # By position, the winning run is the signed zeros, the first
        # quantile in it is not at its end, and its last value is -0.0. From
        # histograms, the midpoint of -1e-323 and 5e-324 rounds to -0.0.
        # Either way the kernel writes +0.0, and both zeros send the same
        # rows left.
        X = np.array(values)[:, None]
        y = (X[:, 0] <= 0).astype(int)
        ds = CostedDataset(X, y, np.tile([0.0, 1.0, 5.0, 0.0], (y.size, 1)))
        model = grow(ds, CsdtConfig(n_quantiles=n_quantiles, max_depth=1))
        assert nested(model).rule == SplitRule(0, 0.0)
        assert not np.signbit(nested(model).rule.threshold)
        assert json.dumps(model_to_dict(model)["tree"]["threshold"]).startswith("[0.0, ")

        negative = CsdtModel(replace(model.tree, threshold=[-0.0, 0.0, 0.0]), model.config, 1)
        probes = np.vstack([X, [[-0.0], [0.0], [5e-324], [-5e-324]]])
        assert np.array_equal(predict_many(model, probes), predict_many(negative, probes))

    @pytest.mark.parametrize("values, q, threshold", [
        (np.arange(19.0), 6, 15.5),
        (np.arange(8.0), 14, 5.0),
        ([1e16 + 2, 1e16 + 2, 1e16 + 4, 1e16 + 4], 2, 1e16 + 2),
        ([1e16 + 2, 1e16 + 4], 2, 1e16 + 2),
        ([-1.7e308, -1.7e308, -1.6e308, -1.6e308], 2, -1.7e308),
        ([-1.7e308, 1.7e308], 3, -1.7e308),
        ([-1.7e308, -1.6e308], None, -1.7e308),
    ], ids=["below-integer-by-histogram", "below-integer-by-position",
            "rounds-up-by-histogram", "rounds-up-by-position",
            "overflow-by-histogram", "overflow-by-position", "midpoint-overflow"])
    def test_rounding_cases_cut_at_the_exact_index(self, values, q, threshold):
        # Rows above the threshold are positives, so the one perfect cut is
        # the run of the threshold's value. It is a candidate: for arange,
        # (n - 1) j / q is the integer 15 (j = 5 of 6, a bin boundary of the
        # 19-row node) or 5 (j = 10 of 14), where numpy's float index
        # fl((n - 1) fl(j / q)) lies just below it; in the other columns the
        # quantile's integer part is the lower value's run end, where the
        # midpoint or the interpolation rounds up to the upper value, or the
        # sum or difference overflows, and the threshold is the lower value.
        X = np.array(values)[:, None]
        pos = (X[:, 0] > np.floor(threshold)).astype(float)
        parent = min(pos.sum(), (1 - pos).sum())
        assert _kernel(X, pos, 1 - pos, np.array([0]), q) == (parent, 0, threshold)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_feature_loop(self, seed):
        rng = np.random.default_rng([seed, 2015])
        found = histograms = 0
        for _ in range(600):
            ds, features, q = _random_node(rng)
            cost0, cost1 = ds.costs_if_predicted()
            if rng.random() < 0.3:  # unit costs: many tied gains
                cost0, cost1 = (ds.y == 1).astype(float), (ds.y == 0).astype(float)
            expected = reference_best_split(ds.X, cost0, cost1, features, q)
            histogram = q is not None and ds.n > q
            assert_same_split(_kernel(ds.X, cost0, cost1, features, q), expected, histogram,
                              cost0.sum() + cost1.sum())
            found += expected is not None
            histograms += histogram
        assert found > 300 and histograms > 50

    @pytest.mark.parametrize("seed", range(2))
    def test_gain_matches_split_gain(self, seed):
        rng = np.random.default_rng([seed, 1505])
        for _ in range(300):
            ds, features, q = _random_node(rng)
            cost0, cost1 = ds.costs_if_predicted()
            found = _kernel(ds.X, cost0, cost1, features, q)
            if found is None:
                continue
            gain, f, threshold = found
            scale = cost0.sum() + cost1.sum()
            assert gain == pytest.approx(
                split_gain(ds, SplitRule(f, threshold)), rel=1e-9, abs=1e-12 * scale
            )

    @pytest.mark.parametrize(
        "config",
        [
            EcsdtConfig(inducer=InducerConfig(kind="random_patches", T=5, seed=1)),
            EcsdtConfig(
                inducer=InducerConfig(kind="bagging", T=6, seed=2),
                tree=CsdtConfig(max_depth=3),
                combiner="stacking",
                ga=GaConfig(population=8, generations=5),
            ),
            EcsdtConfig(
                inducer=InducerConfig(kind="random_forest", T=5, seed=3),
                tree=CsdtConfig(candidate_thresholds="exact_midpoints"),
                combiner="mv",
            ),
            EcsdtConfig(
                inducer=InducerConfig(kind="random_patches", T=5, seed=4),
                tree=CsdtConfig(impurity="gini"),
            ),
        ],
        ids=["patches-wv", "bagging-stacking", "rf-exact", "gini-patches"],
    )
    def test_models_identical_to_per_feature_loop(self, config, monkeypatch):
        rng = np.random.default_rng(29)
        ds = strict_random_dataset(rng, 500, 6)
        X = ds.X.copy()
        X[:, :3] = np.round(X[:, :3] * 2)  # tied values
        ds = CostedDataset(X, ds.y, ds.costs)

        def dump():
            return json.dumps(ensemble.model_to_dict(ensemble.train(ds, config)), sort_keys=True)

        fast = dump()
        monkeypatch.setattr(
            csdt, "_best_split",
            lambda columns, keys, c0, c1, n, q, parent: [
                reference_best_split(columns.T, c0, c1, range(columns.shape[0]), q)
                for columns, c0, c1 in _unpadded_nodes(columns, c0, c1, n)
            ],
        )
        assert dump() == fast


def _padded_bucket(nodes):
    """One kernel block of the nodes' (X, cost0, cost1), as ``grow`` pads them.

    Keys come from one rank table of all nodes' rows stacked, so each node's
    keys sort its rows as their values do; pads get the value -inf and the
    key dtype's largest key, and zero costs.
    """
    sizes = np.array([X.shape[0] for X, _, _ in nodes])
    n_cols, width = nodes[0][0].shape[1], int(sizes.max())
    ranks = csdt.column_ranks(np.vstack([X for X, _, _ in nodes]))
    columns = np.full((len(nodes), n_cols, width), -np.inf)
    keys = np.full((len(nodes), n_cols, width), np.iinfo(ranks.dtype).max, dtype=ranks.dtype)
    cost0, cost1 = np.zeros((len(nodes), width)), np.zeros((len(nodes), width))
    start = 0
    for b, (X, c0, c1) in enumerate(nodes):
        n = X.shape[0]
        columns[b, :, :n], keys[b, :, :n] = X.T, ranks[start:start + n].T
        cost0[b, :n], cost1[b, :n] = c0, c1
        start += n
    parent = np.array([min(float(c0.sum()), float(c1.sum())) for _, c0, c1 in nodes])
    return columns.reshape(-1, width), keys.reshape(-1, width), cost0, cost1, sizes, parent


def _bucket_of_small_nodes(rng, sizes, n_cols):
    """Random nodes of the given sizes, each column of any ``_random_column`` kind."""
    nodes = []
    for n in rng.permutation(sizes):
        y = rng.integers(0, 2, n)
        X = np.column_stack([_random_column(rng, n, y, kinds=7) for _ in range(n_cols)])
        if rng.random() < 0.3:  # unit costs: many tied gains
            c0, c1 = (y == 1).astype(float), (y == 0).astype(float)
        else:
            c0, c1 = rng.exponential(size=(2, n)) * (rng.random((2, n)) < 0.7)
        nodes.append((X, c0, c1))
    return nodes


class TestRaggedKernel:
    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    @pytest.mark.parametrize("seed", range(3))
    def test_each_node_matches_the_reference_alone(self, seed, mode):
        # the widest node has 300 rows, so in quantile mode every node is sorted
        rng = np.random.default_rng([seed, 1010])
        q = quantile_count(CsdtConfig(candidate_thresholds=mode, n_quantiles=300))
        found = 0
        for _ in range(40):
            n_cols = int(rng.integers(1, 6))
            sizes = [2, 300] + rng.choice([2, 3, 5, 17, 60, 300], int(rng.integers(0, 6))).tolist()
            nodes = []
            for n in rng.permutation(sizes):
                y = rng.integers(0, 2, n)
                X = np.column_stack([_random_column(rng, n, y) for _ in range(n_cols)])
                if rng.random() < 0.2:
                    X[:] = X[0]  # every column constant: no cut
                if rng.random() < 0.3:  # unit costs: many tied gains
                    c0, c1 = (y == 1).astype(float), (y == 0).astype(float)
                else:
                    c0, c1 = rng.exponential(size=(2, n)) * (rng.random((2, n)) < 0.7)
                nodes.append((X, c0, c1))
            columns, keys, cost0, cost1, node_sizes, parent = _padded_bucket(nodes)
            results = csdt._best_split(
                columns, keys, cost0, cost1, node_sizes.repeat(n_cols), q, parent
            )
            assert len(results) == len(nodes)
            for (X, c0, c1), got in zip(nodes, results):
                expected = reference_best_split(X, c0, c1, range(n_cols), q)
                assert repr(got) == repr(expected)
                found += expected is not None
        assert found > 100

    @pytest.mark.parametrize("n_quantiles", [2, 10, 62, 63, 64, 100])
    def test_merged_small_nodes_match_the_reference_alone(self, n_quantiles):
        # the widest node has min(n_quantiles, 63) rows: every node is small
        rng = np.random.default_rng([n_quantiles, 1012])
        q = n_quantiles
        widest = min(q, 63)
        found = guarded = 0
        for _ in range(40):
            n_cols = int(rng.integers(1, 6))
            sizes = [2, widest] + rng.integers(2, widest + 1, int(rng.integers(0, 8))).tolist()
            nodes = _bucket_of_small_nodes(rng, sizes, n_cols)
            columns, keys, cost0, cost1, node_sizes, parent = _padded_bucket(nodes)
            assert columns.shape[1] == widest
            results = csdt._best_split(
                columns, keys, cost0, cost1, node_sizes.repeat(n_cols), q, parent
            )
            for (X, c0, c1), got in zip(nodes, results, strict=True):
                expected = reference_best_split(X, c0, c1, range(n_cols), q)
                assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0
                found += expected is not None
                guarded += any(_guard_fires(np.sort(x), q) for x in X.T)
        assert found > 100
        assert guarded > 1  # some cut rounds or overflows out of [lower, upper)


def _binned_column(rng, n, y):
    """A ``_random_column``, or one of signed zeros and the smallest
    subnormals, whose midpoints round to -0.0 or to the upper value."""
    if rng.random() < 0.2:
        return rng.choice([-1e-323, -5e-324, -0.0, 0.0, 5e-324, 1.0], n)
    return _random_column(rng, n, y, kinds=7)


class TestHistogramKernel:
    @pytest.mark.parametrize("q", [2, 3, 16, 100, 10**12])
    def test_bins_match_every_listed_quantile(self, q):
        # value <= threshold holds for a row exactly when its bin is at or
        # below the boundary, and the boundaries are those listing every
        # quantile finds (listed up to 1000: from n quantiles on, every run
        # end but the last is a boundary)
        rng = np.random.default_rng([q % 997, 1030])
        for _ in range(30):
            n = int(rng.integers(1, 400))
            X = np.column_stack([_binned_column(rng, n, rng.integers(0, 2, n))
                                 for _ in range(int(rng.integers(1, 5)))])
            bins, cuts = csdt.quantile_bins(X, q)
            listed = [_bin_thresholds(x, min(q, 1000)) for x in X.T]
            n_bins = max(2, 1 + max(len(thresholds) for thresholds in listed))
            assert cuts.shape == (X.shape[1], n_bins - 1)
            assert bins.shape == X.T.shape and bins.dtype == np.min_scalar_type(n_bins - 1)
            for f, (x, expected) in enumerate(zip(X.T, listed)):
                assert repr(cuts[f, :len(expected)].tolist()) == repr(expected)
                for b, threshold in enumerate(expected):
                    assert np.array_equal(x <= threshold, bins[f] <= b)

    @pytest.mark.parametrize("seed", range(3))
    def test_each_large_node_of_a_block_matches_the_reference(self, seed):
        # Blocks of nodes of more than q rows, drawn with repeats from one
        # training set, each with its own candidate features, as forest
        # growth scores them: each node's (gain, column, threshold) is the
        # brute-force reference's over the training set's global bins.
        rng = np.random.default_rng([seed, 1020])
        found = guarded = 0
        for _ in range(25):
            n, k = int(rng.integers(20, 300)), int(rng.integers(1, 6))
            y = rng.integers(0, 2, n)
            X = np.column_stack([_binned_column(rng, n, y) for _ in range(k)])
            if rng.random() < 0.3:  # unit costs: many tied gains
                cost0, cost1 = (y == 1).astype(float), (y == 0).astype(float)
            else:
                cost0, cost1 = rng.exponential(size=(2, n)) * (rng.random((2, n)) < 0.7)
            q = int(rng.integers(2, 20))
            bins, cuts = csdt.quantile_bins(X, q)
            per_node = int(rng.integers(1, k + 1))
            nodes = []
            for _ in range(int(rng.integers(1, 6))):
                rows = np.sort(rng.integers(0, n, int(rng.integers(q + 1, 2 * n))))
                features = rng.choice(k, per_node, replace=False)
                nodes.append((rows, features))
            results = csdt._histogram_split(
                np.concatenate([bins[np.ix_(f, rows)] for rows, f in nodes], axis=1),
                np.array([rows.size for rows, _ in nodes]),
                np.concatenate([cost0[rows] for rows, _ in nodes]),
                np.concatenate([cost1[rows] for rows, _ in nodes]),
                cuts.shape[1] + 1,
                np.array([min(cost0[rows].sum(), cost1[rows].sum()) for rows, _ in nodes]),
            )
            assert len(results) == len(nodes)
            for (rows, features), got in zip(nodes, results):
                if got is not None:
                    gain, col, boundary = got
                    got = gain, int(features[col]), float(cuts[features[col], boundary])
                c0, c1 = cost0[rows], cost1[rows]
                expected = reference_histogram_split(X, rows, c0, c1, features, q)
                assert_same_split(got, expected, True, c0.sum() + c1.sum())
                found += expected is not None
            guarded += any(_midpoint_guard_fires(x, q) for x in X.T)
        assert found > 30
        assert guarded > 1  # some midpoint rounds or overflows out of [lower, upper)

    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_large_node_of_a_forest_matches_the_reference(self, kind, impurity):
        # Each node of more than q rows splits on the reference's column and
        # threshold for its rows and candidate features, and its children's
        # statistics give the reference's gain; one that stays a leaf though
        # it could split has no split of positive gain.
        rng = np.random.default_rng([93, len(kind), len(impurity)])
        ds = _signed_zero_dataset(rng, 300)  # a constant column, ties, signed zeros
        q = 12
        config = CsdtConfig(n_quantiles=q, max_depth=4, impurity=impurity, pruning=False)
        samples = draw_samples(ds.n, ds.k, InducerConfig(kind=kind, T=4, seed=12))
        specs = [csdt.TreeSpec(s.example_indices, **sample_kwargs(s, j))
                 for j, s in enumerate(samples)]
        cost0, cost1 = csdt._prediction_costs(ds, impurity)
        split = 0
        for spec, model in zip(specs, csdt.grow_forest(ds, config, specs)):
            tree = model.tree
            searched = np.arange(ds.k) if spec.features is None else spec.features
            stack = [(0, spec.rows, spec.seed, 0)]
            while stack:
                i, rows, key, depth = stack.pop()
                features = searched
                if spec.node_features is not None and spec.node_features < searched.size:
                    subset = feature_subsets(np.array([key], dtype=np.uint64), searched.size,
                                             spec.node_features)
                    features = searched[subset[0]]
                c0, c1 = cost0[rows], cost1[rows]
                scale = c0.sum() + c1.sum()
                expected = reference_histogram_split(ds.X, rows, c0, c1, features, q)
                f = int(tree.feature[i])
                if f < 0:
                    open_node = depth < config.max_depth and 0 < tree.n_pos[i] < rows.size
                    if rows.size > q and open_node:
                        assert expected is None or expected[0] <= 1e-12 * scale
                    continue
                if rows.size > q:
                    assert (f, repr(float(tree.threshold[i]))) == (expected[1], repr(expected[2]))
                    left, right = i + 1, int(tree.right[i])
                    gain = min(tree.cost_f0[i], tree.cost_f1[i]) - sum(
                        tree.n[c] / rows.size * min(tree.cost_f0[c], tree.cost_f1[c])
                        for c in (left, right)
                    )
                    assert gain == pytest.approx(expected[0], rel=1e-9, abs=1e-12 * scale)
                    split += 1
                goes_left = ds.X[rows, f] <= tree.threshold[i]
                keys = (None, None) if key is None else (mix64(key, 0), mix64(key, 1))
                stack += [(int(tree.right[i]), rows[~goes_left], keys[1], depth + 1),
                          (i + 1, rows[goes_left], keys[0], depth + 1)]
        assert split > 8

    @pytest.mark.parametrize("q, threshold", [
        (100, 0.01), (2**61, 2.0**-60), (10**19, 1 / 10**19),
    ])
    def test_huge_n_quantiles_interpolate_exactly(self, q, threshold):
        # Nine negatives at -8, ..., -1, 0 and one positive at 1: the cut
        # after 0 (position e = 8) wins, its run starts at 8, and s - 1 = 9.
        # The first quantile there is j = ceil(8 q / 9), and (lo, rem) =
        # divmod(9 j, q) is (8, 1) for 100 and 10**19, (8, 2) for 2**61, so
        # the threshold is rem / q. 8 q overflows int64 for the last two.
        ds = costed([0] * 9 + [1], (0.0, 1.0, 1.0, 0.0), X=np.arange(-8.0, 2.0)[:, None])
        tree = grow(ds, CsdtConfig(n_quantiles=q)).tree
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == threshold

    def test_huge_n_quantiles_allocates_no_quantiles(self):
        # n_quantiles = 10**12 bins every distinct value and scores every
        # node by position, the root's 2N rows too; its peak stays within
        # twice that of 100 quantiles
        ds = strict_random_dataset(np.random.default_rng(94), 400, 3)
        samples = draw_samples(ds.n, ds.k, InducerConfig(T=3, n_examples=2 * ds.n, seed=13))
        specs = [csdt.TreeSpec(s.example_indices) for s in samples]
        peaks = {}
        for q in (100, 10**12):
            config = CsdtConfig(n_quantiles=q, max_depth=4)
            tracemalloc.start()
            try:
                forest = csdt.grow_forest(ds, config, specs)
                peaks[q] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [model.tree.n[0] for model in forest] == [2 * ds.n] * 3
            assert all(model.n_nodes() > 1 for model in forest)
        assert peaks[10**12] <= 2 * peaks[100]


def _tied_dataset(rng, n):
    """Columns with ties, both signed zeros and overflowing differences."""
    X = np.column_stack([
        rng.integers(0, 4, n).astype(float),
        rng.choice([-0.0, 0.0, 0.5], n),
        rng.choice([-1.7e308, 0.0, 1.7e308], n),
        np.round(rng.normal(size=n), 1),
        rng.normal(size=n),
    ])
    ds = strict_random_dataset(rng, n, X.shape[1])
    return CostedDataset(X, ds.y, ds.costs)


class TestColumnRanks:
    def test_rank_sort_equals_stable_value_sort(self):
        rng = np.random.default_rng(65)
        X = _tied_dataset(rng, 300).X
        ranks = csdt.column_ranks(X)
        assert ranks.dtype == np.uint16
        for rows in (
            np.arange(300),
            np.sort(rng.integers(0, 300, 300)),  # duplicate rows
            np.sort(rng.choice(300, 120, replace=False)),
        ):
            assert np.array_equal(
                np.argsort(ranks[rows], axis=0, kind="stable"),
                np.argsort(X[rows], axis=0, kind="stable"),
            )

    @pytest.mark.parametrize("n, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                          (65536, np.uint16), (65537, np.uint32)])
    def test_narrowest_dtype(self, n, dtype):
        assert csdt.column_ranks(np.zeros((n, 1))).dtype == dtype

    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    def test_32_bit_keys_match_float_keys(self, mode, monkeypatch):
        rng = np.random.default_rng(67)
        n = 70_000
        X = np.column_stack([rng.integers(0, 50, n).astype(float), rng.normal(size=n)])
        ds = CostedDataset(X, (X[:, 1] + 0.5 * rng.normal(size=n) > 1).astype(int),
                           np.tile([0.0, 1.0, 4.0, 0.0], (n, 1)))
        config = CsdtConfig(candidate_thresholds=mode, max_depth=2)
        ranks = csdt.column_ranks(X)
        assert ranks.dtype == np.uint32
        ranked = model_to_dict(grow(ds, config))
        monkeypatch.setattr(csdt, "column_ranks", lambda X: X)  # sort on the values
        bins = csdt.quantile_bins  # which still places values by their ranks
        monkeypatch.setattr(csdt, "quantile_bins", lambda X, q, _: bins(X, q, ranks))
        assert model_to_dict(grow(ds, config)) == ranked

    @staticmethod
    def _tie_heavy_tables(rng):
        """Tables of up to 300 rows whose columns are continuous, of few
        levels, constant, or of signed zeros and subnormals."""
        kinds = (
            lambda n: rng.normal(size=n),
            lambda n: rng.integers(0, 4, n).astype(float),
            lambda n: np.full(n, rng.choice([-0.0, 0.0, 2.5])),
            lambda n: rng.choice([-1e-323, -5e-324, -0.0, 0.0, 5e-324, 1.0], n),
            lambda n: rng.choice([-1.7e308, -0.0, 0.0, 1.7e308], n),
        )
        for n in (1, 2, 3, 17, 256, 257, 300):
            for _ in range(8):
                k = int(rng.integers(1, 6))
                yield np.column_stack([kinds[rng.integers(len(kinds))](n) for _ in range(k)])

    def test_ranks_place_rows_as_a_stable_sort(self):
        rng = np.random.default_rng(1180)
        for X in self._tie_heavy_tables(rng):
            ranks = csdt.column_ranks(X)
            assert ranks.dtype == np.min_scalar_type(X.shape[0] - 1)
            assert np.array_equal(np.argsort(ranks, axis=0),
                                  np.argsort(X, axis=0, kind="stable"))

    @pytest.mark.parametrize("q", [2, 7, 100, 10**12])
    def test_bins_equal_the_sorting_oracle(self, q):
        rng = np.random.default_rng([q % 997, 1181])
        for X in self._tie_heavy_tables(rng):
            expected_bins, expected_cuts = quantile_bins_oracle(X, q)
            for bins, cuts in (csdt.quantile_bins(X, q),
                               csdt.quantile_bins(X, q, csdt.column_ranks(X))):
                assert bins.dtype == expected_bins.dtype
                assert np.array_equal(bins, expected_bins)
                assert repr(cuts.tolist()) == repr(expected_cuts.tolist())  # signed zeros too


# --- a feature patch: the search limited to some columns -------------------


class TestFeaturePatch:
    @pytest.mark.parametrize("pruning", [False, True])
    @pytest.mark.parametrize("config", [
        CsdtConfig(max_depth=6),
        CsdtConfig(max_depth=6, candidate_thresholds="exact_midpoints"),
        CsdtConfig(max_depth=6, impurity="gini"),
    ], ids=["quantiles", "exact_midpoints", "gini"])
    def test_equals_the_tree_grown_on_those_columns(self, config, pruning):
        config = replace(config, pruning=pruning)
        rng = np.random.default_rng([82, pruning, len(config.impurity)])
        split = 0
        for _ in range(30):
            ds = _tied_dataset(rng, int(rng.integers(2, 200)))
            f = np.flatnonzero(rng.random(ds.k) < 0.5)
            if f.size == 0:
                f = np.array([int(rng.integers(ds.k))])
            tree = grow_one(ds, config, features=f).tree
            narrow = grow(CostedDataset(ds.X[:, f], ds.y, ds.costs), config).tree
            assert tree.feature.tolist() == [-1 if c < 0 else int(f[c]) for c in narrow.feature]
            for field in fields(csdt.Tree)[1:]:
                assert getattr(tree, field.name).tobytes() == \
                    getattr(narrow, field.name).tobytes(), field.name
            split += tree.size > 1
        assert split > 10

    def test_every_column_is_the_default(self):
        ds = _tied_dataset(np.random.default_rng(83), 150)
        assert model_to_dict(grow_one(ds, features=np.arange(ds.k))) == model_to_dict(grow(ds))

    def test_node_features_draw_from_the_patch(self):
        ds = _tied_dataset(np.random.default_rng(84), 300)
        f = np.array([1, 3, 4])
        model = grow_one(ds, CsdtConfig(pruning=False), seed=5, node_features=2, features=f)
        assert model.n_nodes() > 3
        assert set(model.tree.feature.tolist()) <= {-1, 1, 3, 4}
        assert model_to_dict(model) == model_to_dict(
            grow_oracle(ds, CsdtConfig(pruning=False), seed=5, node_features=2, features=f)
        )
        with pytest.raises(ConfigError, match=r"node_features must be in \[1, 3\]"):
            grow_one(ds, seed=5, node_features=4, features=f)

    @pytest.mark.parametrize("features", [
        [], [2, 1], [1, 1], [-1, 2], [0, 5], [[0, 1]], [0.0, 1.0],
    ], ids=["empty", "decreasing", "repeated", "negative", "past-width", "2-d", "float"])
    def test_bad_features_rejected(self, features):
        ds = _tied_dataset(np.random.default_rng(85), 40)
        with pytest.raises(ValidationError, match="strictly increasing columns in \\[0, 5\\)"):
            grow_one(ds, features=np.array(features))


# --- pruning against every pruning ----------------------------------------


def _integer_cost_set(rng, n, k):
    """A dataset with small integer costs, so that every cost sum is exact."""
    X = np.round(rng.normal(size=(n, k)), 1)
    c_tp, c_tn = rng.integers(0, 3, size=(2, n))
    c_fn, c_fp = c_tp + rng.integers(1, 20, n), c_tn + rng.integers(1, 20, n)
    return CostedDataset(X, rng.integers(0, 2, n), np.column_stack([c_tp, c_fp, c_fn, c_tn]))


def _every_pruning(tree, X, cost0, cost1, i=0, rows=None):
    """(pruning-set cost, node count) of every pruning of node i's subtree:
    a leaf keeps its class, and an internal node either collapses into its
    cheaper class on ``rows`` or keeps its split over any pruning of each
    child."""
    rows = np.arange(X.shape[0]) if rows is None else rows
    c0, c1 = cost0[rows].sum(), cost1[rows].sum()
    if tree.feature[i] < 0:
        return [(c1 if tree.predicted_class[i] == 1 else c0, 1)]
    left = X[rows, tree.feature[i]] <= tree.threshold[i]
    return [(min(c0, c1), 1)] + [
        (a + b, 1 + m + n)
        for a, m in _every_pruning(tree, X, cost0, cost1, i + 1, rows[left])
        for b, n in _every_pruning(tree, X, cost0, cost1, tree.right[i], rows[~left])
    ]


# --- flat node arrays against the nested-tree oracles ----------------------


def _random_nested(rng, k, depth):
    """A random nested tree; leaves may predict the costlier class."""
    if depth == 0 or rng.random() < 0.3:
        n = int(rng.integers(0, 20))
        return Leaf(int(rng.integers(0, 2)), float(rng.exponential()), float(rng.exponential()),
                    n, int(rng.integers(0, n + 1)))
    rule = SplitRule(int(rng.integers(0, k)), float(np.round(rng.normal(), 1)))
    return Internal(rule, _random_nested(rng, k, depth - 1), _random_nested(rng, k, depth - 1))


def _random_grown(rng, impurity):
    """An unpruned grown tree, its training set and a held-out set of the same width."""
    k = int(rng.integers(1, 4))
    binaryish = rng.random() < 0.3  # ties: many zero-decrease collapses
    train = strict_random_dataset(rng, int(rng.integers(5, 150)), k, binaryish=binaryish)
    held_out = strict_random_dataset(rng, int(rng.integers(1, 80)), k, binaryish=binaryish)
    mode = "exact_midpoints" if rng.random() < 0.5 else "quantiles"
    config = CsdtConfig(candidate_thresholds=mode, n_quantiles=int(rng.integers(2, 20)),
                        max_depth=int(rng.integers(1, 8)), impurity=impurity, pruning=False)
    return grow(train, config), train, held_out


def _threshold_rows(rng, model, n):
    """Rows whose values often equal one of the tree's thresholds exactly."""
    cuts = model.tree.threshold[model.tree.feature >= 0]
    X = np.round(rng.normal(size=(n, model.k)), 1)
    if cuts.size:
        tie = rng.random((n, model.k)) < 0.5
        X[tie] = rng.choice(cuts, size=int(tie.sum()))
    return X


def _bits(model):
    """The model's tree arrays as text, without internal nodes' statistics,
    which nested oracles do not record."""
    return json.dumps(tree_lists(model, internal_stats=False))


class TestFlatTreesMatchOracles:
    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    def test_prune_on_training_rows(self, impurity):
        rng = np.random.default_rng([71, len(impurity)])
        collapsed = 0
        for _ in range(150):
            model, train, _ = _random_grown(rng, impurity)
            expected = _bits(prune_oracle(model, train))
            # statistics recorded at growth, then from one routing pass
            assert _bits(grow(train, replace(model.config, pruning=True))) == expected
            assert _bits(prune(model, train)) == expected
            recorded = CsdtModel(model.tree, model.config, model.k)
            recorded.stats_of = train
            assert _bits(prune(recorded, train)) == expected
            collapsed += prune(model, train).n_nodes() < model.n_nodes()
        assert collapsed > 30

    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    def test_prune_on_held_out_rows(self, impurity):
        rng = np.random.default_rng([72, len(impurity)])
        for _ in range(150):
            model, _, held_out = _random_grown(rng, impurity)
            assert _bits(prune(model, held_out)) == _bits(prune_oracle(model, held_out))
            built = CsdtModel(flatten(_random_nested(rng, held_out.k, 5)), model.config,
                              held_out.k)
            assert _bits(prune(built, held_out)) == _bits(prune_oracle(built, held_out))

    def test_prune_leaves_its_input_unchanged(self):
        rng = np.random.default_rng(73)
        model, train, held_out = _random_grown(rng, "cost")
        before = _bits(model)
        prune(model, held_out)
        assert _bits(model) == before

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 300])
    def test_predictions_on_tied_rows(self, n_rows):
        rng = np.random.default_rng([74, n_rows])
        for _ in range(40):
            model, _, _ = _random_grown(rng, "cost")
            if rng.random() < 0.5:
                model = CsdtModel(flatten(_random_nested(rng, model.k, 6)), model.config,
                                  model.k)
            X = _threshold_rows(rng, model, n_rows)
            expected = route_oracle(model, X, lambda leaf: leaf.predicted_class)
            assert predict_many(model, X).tolist() == expected
            # Laplace-smoothed positive-class frequency of the leaf
            expected = route_oracle(model, X, lambda leaf: (leaf.n_pos + 1.0) / (leaf.n + 2.0))
            assert model.predict_proba(X).tolist() == expected

    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_growth_statistics_equal_a_routing_pass(self, kind, mode, impurity):
        rng = np.random.default_rng(75)
        ds = _tied_dataset(rng, 300)
        config = CsdtConfig(candidate_thresholds=mode, max_depth=6, impurity=impurity,
                            pruning=False)
        samples = draw_samples(ds.n, ds.k, InducerConfig(kind=kind, T=3, seed=7))
        for j, sample in enumerate(samples):
            sub = ds.subset(sample.example_indices)
            tree = grow_one(sub, config, **sample_kwargs(sample, j)).tree
            assert tree.size > 1
            # a node's rows are those whose leaf lies in its preorder range
            leaves = csdt.route(tree, sub.X)
            ends = csdt._layout(tree)[1]
            reached = [(i <= leaves) & (leaves < end) for i, end in enumerate(ends)]
            n = np.array([rows.sum() for rows in reached])
            n_pos = np.array([sub.y[rows].sum() for rows in reached])
            routed = (*csdt._node_stats(tree, sub, impurity), n, n_pos)
            recorded = (tree.cost_f0, tree.cost_f1, tree.n, tree.n_pos)
            assert [a.tobytes() for a in recorded] == [b.tobytes() for b in routed]

    @pytest.mark.parametrize("pruning", [False, True])
    def test_grown_models_hold_no_dataset(self, pruning, monkeypatch):
        ds = strict_random_dataset(np.random.default_rng(76), 60, 2)
        assert grow(ds, CsdtConfig(pruning=pruning)).stats_of is None
        monkeypatch.setattr(csdt, "prune", lambda model, prune_set: model)
        assert grow(ds, CsdtConfig(pruning=pruning)).stats_of is None

    def test_version_1_tree_keeps_leaf_classes_and_sums_internal_statistics(self):
        # the right leaf predicts its costlier class; reading must keep it
        root = Internal(SplitRule(0, 0.5), Leaf(0, 1.0, 4.0, 3, 1), Leaf(0, 9.0, 2.0, 5, 4))
        model = CsdtModel(flatten(root), CsdtConfig(), 1)
        assert nested(model) == root
        assert model.n_nodes() == 3 and model.depth() == 1
        assert predict_many(model, np.array([[0.0], [0.5], [1.0]])).tolist() == [0, 0, 0]
        loaded = model_from_dict(v1_dict(model))
        assert tree_lists(loaded) == tree_lists(model)
        assert tree_lists(loaded)["cost_f0"][0] == 10.0 and loaded.tree.n[0] == 8
        assert loaded.tree.predicted_class[0] == 1  # 6.0 is the cheaper sum
        assert nested(model_from_dict(model_to_dict(model))) == root


# --- level-wise growth against the depth-first oracle ----------------------


def _signed_zero_dataset(rng, n):
    """Duplicate rows, a constant column, signed zeros and a pure region."""
    X = np.column_stack([
        np.full(n, 3.0),
        rng.choice([-0.0, 0.0, 1.0], n),
        rng.integers(0, 5, n).astype(float),
        np.round(rng.normal(size=n), 1),
    ])
    y = ((X[:, 2] >= 3) | (rng.random(n) < 0.2)).astype(int)
    y[X[:, 2] == 0] = 0  # a pure region
    ds = strict_random_dataset(rng, n, X.shape[1])
    rows = np.sort(rng.integers(0, n, n))  # duplicate rows
    return CostedDataset(X[rows], y[rows], ds.costs[rows])


class TestLevelWiseGrowth:
    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_depth_first_oracle(self, kind, mode, impurity):
        rng = np.random.default_rng(77)
        ds = _tied_dataset(rng, 400)
        samples = draw_samples(ds.n, ds.k, InducerConfig(kind=kind, T=3, seed=8))
        for j, sample in enumerate(samples):
            config = CsdtConfig(candidate_thresholds=mode, impurity=impurity, pruning=j == 0)
            sub = ds.subset(sample.example_indices)

            def fit(grower):
                return model_to_dict(grower(sub, config, **sample_kwargs(sample, j)))

            assert fit(grow_one) == fit(grow_oracle)

    @pytest.mark.parametrize("config", [
        CsdtConfig(min_samples_split=40),
        CsdtConfig(min_gain=5.0, candidate_thresholds="exact_midpoints"),
        CsdtConfig(min_gain=0.5, impurity="gini"),
        CsdtConfig(max_depth=1),
        CsdtConfig(max_depth=1, candidate_thresholds="exact_midpoints", pruning=False),
    ], ids=["min-samples-split", "min-gain-exact", "min-gain-gini", "depth-1", "depth-1-exact"])
    def test_stopping_rules_match_oracle(self, config):
        ds = _signed_zero_dataset(np.random.default_rng(78), 500)
        assert model_to_dict(grow(ds, config)) == model_to_dict(grow_oracle(ds, config))

    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    def test_duplicate_pure_constant_and_signed_zero_nodes(self, mode):
        ds = _signed_zero_dataset(np.random.default_rng(79), 300)
        config = CsdtConfig(candidate_thresholds=mode, pruning=False)
        model = grow(ds, config)
        assert model_to_dict(model) == model_to_dict(grow_oracle(ds, config))
        assert 0 not in model.tree.feature  # the constant column never splits
        assert ((model.tree.n_pos == 0) & (model.tree.feature < 0)).any()  # pure leaves

    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    def test_pad_key_equals_a_real_key(self, mode):
        # 65536 rows: uint16 ranks, and the largest value's rank is the pad key
        rng = np.random.default_rng(80)
        n = 65536
        X = np.column_stack([rng.integers(0, 50, n).astype(float), rng.normal(size=n)])
        y = (X[:, 1] + 0.5 * rng.normal(size=n) > 1).astype(int)
        ds = CostedDataset(X, y, np.tile([0.0, 1.0, 4.0, 0.0], (n, 1)))
        assert csdt.column_ranks(X).max() == np.iinfo(np.uint16).max
        config = CsdtConfig(candidate_thresholds=mode, max_depth=3, pruning=False)
        model = grow(ds, config)
        assert model.n_nodes() > 7
        assert model_to_dict(model) == model_to_dict(grow_oracle(ds, config))

    @pytest.mark.parametrize("n_quantiles", [2, 10, 100])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_oracle_at_n_quantiles(self, kind, n_quantiles, monkeypatch):
        kernels = set()
        for name in ("_best_split", "_histogram_split"):
            kernel = getattr(csdt, name)
            monkeypatch.setattr(csdt, name, lambda *args, name=name, kernel=kernel: (
                kernels.add(name) or kernel(*args)))
        rng = np.random.default_rng([n_quantiles, 81])
        ds = _tied_dataset(rng, 400)
        X = np.column_stack([ds.X, 1e16 + 2 * rng.integers(0, 3, ds.n)])
        ds = CostedDataset(X, ds.y, ds.costs)
        config = CsdtConfig(n_quantiles=n_quantiles, pruning=False)
        samples = draw_samples(ds.n, ds.k, InducerConfig(kind=kind, T=3, seed=9))
        for j, sample in enumerate(samples):
            sub = ds.subset(sample.example_indices)
            kwargs = sample_kwargs(sample, j)
            model = grow_one(sub, config, **kwargs)
            assert model_to_dict(model) == model_to_dict(grow_oracle(sub, config, **kwargs))
        # some node was scored from histograms; at 10 and 100 quantiles some by position
        assert "_histogram_split" in kernels and (n_quantiles == 2 or "_best_split" in kernels)


# --- a forest's trees grown together ----------------------------------------


def _tree_bytes(model):
    return [getattr(model.tree, field.name).tobytes() for field in fields(csdt.Tree)]


class TestForestGrowth:
    @pytest.mark.parametrize("limit", ["default", "one node per block", "one tree per wave"])
    @pytest.mark.parametrize("pruning", [False, True])
    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_tree_equals_the_tree_grown_on_its_rows(
        self, kind, mode, pruning, limit, monkeypatch
    ):
        if limit == "one node per block":
            monkeypatch.setattr(csdt, "BLOCK_CELLS", 1)
            monkeypatch.setattr(csdt, "HISTOGRAM_CELLS", 1)
        elif limit == "one tree per wave":
            monkeypatch.setattr(csdt, "WAVE_TREES", 1)
        calls = []  # each kernel call's node count: its last argument holds a value per node
        for name in ("_best_split", "_histogram_split"):
            kernel = getattr(csdt, name)
            monkeypatch.setattr(csdt, name, lambda *args, kernel=kernel: (
                calls.append(args[-1].size) or kernel(*args)))
        rng = np.random.default_rng([86, len(kind), len(mode), pruning])
        ds = _tied_dataset(rng, 300)
        config = CsdtConfig(candidate_thresholds=mode, n_quantiles=20, max_depth=6,
                            pruning=pruning)
        samples = draw_samples(ds.n, ds.k, InducerConfig(kind=kind, T=13, seed=10))
        specs = [csdt.TreeSpec(s.example_indices, **sample_kwargs(s, j))
                 for j, s in enumerate(samples)]
        forest = csdt.grow_forest(ds, config, specs)
        forest_calls, calls[:] = calls[:], []
        # each tree alone on the same training set; in exact mode also on its rows' subset
        alone = [csdt.grow_forest(ds, config, [spec])[0] for spec in specs]
        alone_calls = calls[:]
        for j, (spec, model) in enumerate(zip(specs, forest)):
            assert model.stats_of is None and model.k == ds.k
            assert _tree_bytes(model) == _tree_bytes(alone[j]), j
            if mode == "exact_midpoints":
                on_subset = grow_one(ds.subset(spec.rows), config, **sample_kwargs(samples[j], j))
                assert _tree_bytes(model) == _tree_bytes(on_subset), j
        assert sum(model.n_nodes() > 1 for model in forest) > len(forest) // 2
        # each call's node count, growing together and growing alone
        if limit == "one node per block":
            assert set(forest_calls) == {1}
        elif limit == "default":
            assert len(forest_calls) < len(alone_calls) and sum(forest_calls) == sum(alone_calls)

    def test_trees_of_different_kinds_in_one_forest(self):
        rng = np.random.default_rng(87)
        ds = _tied_dataset(rng, 250)
        config = CsdtConfig(max_depth=5, n_quantiles=16)
        rows = [np.sort(rng.integers(0, ds.n, ds.n)) for _ in range(5)]
        specs = [
            csdt.TreeSpec(),
            csdt.TreeSpec(rows[0], features=np.array([0, 2, 4])),
            csdt.TreeSpec(rows[1], seed=3, node_features=2),
            csdt.TreeSpec(rows[2], seed=2**64 - 1, node_features=2, features=np.array([1, 3, 4])),
            csdt.TreeSpec(rows[3], seed=4, node_features=ds.k),  # samples nothing
            csdt.TreeSpec(rows[4], features=np.arange(ds.k)),
        ]
        for spec, model in zip(specs, csdt.grow_forest(ds, config, specs)):
            alone = grow_oracle(ds, config, seed=spec.seed, node_features=spec.node_features,
                                features=spec.features, rows=spec.rows)
            assert _tree_bytes(model) == _tree_bytes(alone)

    @pytest.mark.parametrize("rows", [
        [], [2, 1], [-1, 2], [0, 30], [[0, 1]], [0.0, 1.0],
    ], ids=["empty", "decreasing", "negative", "past-end", "2-d", "float"])
    def test_bad_rows_rejected(self, rows):
        ds = _tied_dataset(np.random.default_rng(89), 30)
        with pytest.raises(ValidationError, match=r"increasing list of rows in \[0, 30\)"):
            csdt.grow_forest(ds, CsdtConfig(), [csdt.TreeSpec(np.array(rows))])

    def test_bad_spec_rejected_before_growth(self):
        ds = _tied_dataset(np.random.default_rng(90), 30)
        with pytest.raises(ConfigError, match="node_features needs a seed"):
            csdt.grow_forest(ds, CsdtConfig(), [csdt.TreeSpec(), csdt.TreeSpec(node_features=2)])


class TestPruneOnAnotherSet:
    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    def test_counts_still_add_up_to_the_growth_rows(self, impurity):
        rng = np.random.default_rng([91, len(impurity)])
        collapsed = 0
        for _ in range(20):
            train = strict_random_dataset(rng, 200, 3)
            held_out = strict_random_dataset(rng, 50, 3)
            model = grow(train, CsdtConfig(max_depth=6, impurity=impurity, pruning=False))
            tree = prune(model, held_out).tree
            leaf = tree.feature < 0
            assert tree.n[0] == train.n and tree.n_pos[0] == train.y.sum()
            assert tree.n[leaf].sum() == tree.n[0] and tree.n_pos[leaf].sum() == tree.n_pos[0]
            for i in np.flatnonzero(~leaf).tolist():
                for counts in (tree.n, tree.n_pos):
                    assert counts[i] == counts[i + 1] + counts[tree.right[i]]
            collapsed += tree.size < model.n_nodes()
        assert collapsed > 10
