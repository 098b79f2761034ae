import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    base_model,
    four_example_set,
    gaussian_cost_dataset,
    strict_random_dataset,
    tree_lists,
    v1_ensemble_dict,
)
from costforest import ConfigError, ValidationError, savings
from costforest.combiners import GaConfig, weights_from_scores
from costforest import csdt
from costforest.csdt import CsdtConfig
from costforest.ensemble import (
    EcsdtConfig,
    load,
    model_to_dict,
    predict,
    save,
    train,
)
from costforest.inducers import KINDS, InducerConfig, draw_samples

FAST_TREE = CsdtConfig(max_depth=4, candidate_thresholds="exact_midpoints")

# A random-patches model file written by an earlier version, which stored
# each tree's features as positions in its "feature_subsets" entry.
PATCH_FILE = Path(__file__).parent / "data" / "patches_local_features.json"


def patch_file_fit():
    """The training set and config that PATCH_FILE's model was trained with."""
    ds = strict_random_dataset(np.random.default_rng(18), 80, 6)
    config = EcsdtConfig(inducer=InducerConfig(kind="random_patches", T=3, seed=19),
                         tree=CsdtConfig(max_depth=4), combiner="wv")
    return ds, config


def small_config(combiner="mv", kind="bagging", T=3, seed=0, **inducer_kw):
    return EcsdtConfig(
        inducer=InducerConfig(kind=kind, T=T, seed=seed, **inducer_kw),
        tree=FAST_TREE,
        combiner=combiner,
        ga=GaConfig(seed=seed, generations=40, population=24),
    )


class TestTrain:
    def test_separable_perfect_savings(self, four_examples):
        model = train(four_examples, small_config("mv", T=3, seed=5))
        preds = predict(model, four_examples)
        assert savings(four_examples, preds) == 1.0

    def test_t_too_small_rejected(self, four_examples):
        with pytest.raises(ConfigError, match="T >= 3"):
            train(four_examples, small_config(T=2))

    def test_sample_without_oob_rows_rejected(self, four_examples):
        with pytest.raises(ValidationError, match="twice"):
            train(four_examples, small_config(T=3, n_examples=400))

    @pytest.mark.parametrize("n_examples", [4, 1.0])
    def test_pasting_every_row_rejected(self, four_examples, n_examples):
        # without replacement, N of N rows leaves no out-of-bag row
        with pytest.raises(ConfigError, match="must be < N=4"):
            train(four_examples, small_config(kind="pasting", T=3, n_examples=n_examples))

    def test_deterministic_serialization(self):
        ds = strict_random_dataset(np.random.default_rng(0), 60, 3)
        cfg = small_config("wv", T=5, seed=42)
        a = model_to_dict(train(ds, cfg))
        b = model_to_dict(train(ds, cfg))
        assert a == b

    def test_oob_savings_always_recorded(self):
        ds = strict_random_dataset(np.random.default_rng(1), 50, 2)
        model = train(ds, small_config("mv", T=4, seed=3))
        assert model.oob_savings.shape == (4,)
        assert np.isfinite(model.oob_savings).all()

    def test_exactly_one_combiner_populated(self):
        ds = strict_random_dataset(np.random.default_rng(2), 50, 2)
        mv = train(ds, small_config("mv", T=3, seed=1))
        assert mv.weights is None and mv.stacking is None
        wv = train(ds, small_config("wv", T=3, seed=1))
        assert wv.weights is not None and wv.stacking is None
        st = train(ds, small_config("stacking", T=3, seed=1))
        assert st.weights is None and st.stacking is not None

    def test_all_four_inducers_run(self):
        ds = strict_random_dataset(np.random.default_rng(3), 80, 5)
        for kind in ("bagging", "pasting", "random_forest", "random_patches"):
            model = train(ds, small_config("wv", kind=kind, T=3, seed=2))
            assert predict(model, ds).shape == (80,)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_tree_is_pruned_through_csdt_prune(self, kind, monkeypatch):
        # perfbench's traced runs check each call of csdt.prune by this name
        pruned = []
        prune = csdt.prune
        monkeypatch.setattr(
            csdt, "prune", lambda model, prune_set: pruned.append(prune_set.n) or prune(
                model, prune_set),
        )
        ds = strict_random_dataset(np.random.default_rng(5), 90, 5)
        config = small_config("wv", kind=kind, T=12, seed=3)
        train(ds, config)
        samples = draw_samples(ds.n, ds.k, config.inducer)
        assert pruned == [sample.example_indices.size for sample in samples]
        pruned.clear()
        train(ds, dataclasses.replace(config, tree=dataclasses.replace(FAST_TREE, pruning=False)))
        assert pruned == []

    def test_stacking_design_matrix_in_sample(self):
        ds = strict_random_dataset(np.random.default_rng(4), 60, 3)
        model = train(ds, small_config("stacking", T=3, seed=6))
        assert model.stacking.betas.shape == (3,)


class TestAccuracyWeightedVote:
    def test_weights_from_oob_accuracy(self):
        ds = strict_random_dataset(np.random.default_rng(12), 80, 6)
        cfg = small_config("wv-acc", kind="random_patches", T=5, seed=21)
        model = train(ds, cfg)
        accuracies = []
        for j, sample in enumerate(draw_samples(ds.n, ds.k, cfg.inducer)):
            # tree j splits only on its patch's columns of the full feature space
            split_on = set(model.trees[j].feature.tolist()) - {-1}
            assert split_on and split_on <= set(sample.feature_indices.tolist())
            oob = ds.subset(sample.oob_indices)
            preds = base_model(model, j).predict_many(oob.X)
            accuracies.append(1.0 - np.mean(preds != oob.y))
        assert len(set(accuracies)) > 1
        assert np.array_equal(model.weights.alphas, weights_from_scores(accuracies).alphas)

    def test_redrawn_sample_scored_on_its_own_oob_rows(self, four_examples):
        # seed 4 draws all four rows for tree 1, whose re-draw leaves some out
        model = train(four_examples, small_config("wv-acc", T=3, seed=4, n_examples=4))
        assert np.isfinite(model.weights.alphas).all()


class TestPredict:
    def test_identical_trees_any_combiner(self, four_examples):
        # constant-feature bootstrap draws produce identical stumps
        for combiner in ("mv", "wv"):
            model = train(four_examples, small_config(combiner, T=3, seed=8, n_examples=4))
            single = base_model(model, 0)
            ensemble_pred = predict(model, four_examples)
            if all(
                model_to_dict(model)["base_models"][j] == model_to_dict(model)["base_models"][0]
                for j in range(model.T)
            ):
                assert np.array_equal(ensemble_pred, single.predict_many(four_examples.X))

    def test_dominant_weight_equals_that_model(self):
        ds = strict_random_dataset(np.random.default_rng(5), 60, 3)
        model = train(ds, small_config("wv", T=3, seed=9))
        from costforest.combiners import WeightVector

        model.weights = WeightVector(np.array([1.0, 0.0, 0.0]))
        dominant = base_model(model, 0)
        assert np.array_equal(predict(model, ds), dominant.predict_many(ds.X))

    def test_mv_equals_uniform_wv(self):
        ds = strict_random_dataset(np.random.default_rng(6), 70, 3)
        mv_model = train(ds, small_config("mv", T=5, seed=10))
        wv_model = train(ds, small_config("wv", T=5, seed=10))
        from costforest.combiners import WeightVector

        wv_model.weights = WeightVector(np.full(5, 0.2))
        assert np.array_equal(predict(mv_model, ds), predict(wv_model, ds))

    def test_nan_outside_every_patch_rejected(self):
        # a NaN is rejected in any column, including one that no tree reads
        ds = strict_random_dataset(np.random.default_rng(20), 80, 8)
        cfg = small_config("wv", kind="random_patches", T=3, seed=22, n_features=2)
        model = train(ds, cfg)
        read = set().union(*(s.feature_indices.tolist()
                             for s in draw_samples(ds.n, ds.k, cfg.inducer)))
        unread = sorted(set(range(ds.k)) - read)
        X = ds.X.copy()
        X[3, unread[0]] = np.nan
        for method in (model.predict_many, model.predict_proba, model.base_votes,
                       model.votes_and_proba):
            with pytest.raises(ValidationError, match="non-finite"):
                method(X)
        assert all(set(tree.feature.tolist()) <= read | {-1} for tree in model.trees)

    @pytest.mark.parametrize("kind", ["random_forest", "random_patches"])
    def test_votes_and_proba_route_each_tree_once(self, monkeypatch, kind):
        ds = strict_random_dataset(np.random.default_rng(23), 80, 4)
        model = train(ds, small_config("mv", kind=kind, T=5, seed=24))
        X = np.random.default_rng(25).normal(size=(37, 4))
        votes, proba = model.votes_and_proba(X)
        assert votes.tobytes() == model.base_votes(X).tobytes()
        assert proba.tobytes() == model.predict_proba(X).tobytes()
        original, routed = csdt.route, []
        monkeypatch.setattr(csdt, "route", lambda tree, X: routed.append(tree) or original(tree, X))
        model.votes_and_proba(X)
        assert list(map(id, routed)) == list(map(id, model.trees))

    def test_dimension_mismatch(self):
        ds = strict_random_dataset(np.random.default_rng(7), 40, 3)
        model = train(ds, small_config("mv", T=3, seed=1))
        with pytest.raises(Exception):
            model.predict_many(np.zeros((5, 2)))


class TestPatchesRemapping:
    def test_column_permutation_invariance(self):
        ds = strict_random_dataset(np.random.default_rng(8), 90, 6)
        model = train(ds, small_config("wv", kind="random_patches", T=5, seed=4))
        perm = np.random.default_rng(1).permutation(6)
        inverse = np.argsort(perm)
        remapped = dataclasses.replace(model, trees=[
            dataclasses.replace(tree, feature=np.append(inverse, -1)[tree.feature])
            for tree in model.trees
        ])
        X_permuted = ds.X[:, perm]
        # column j of X_permuted is original column perm[j]; a tree wanting
        # original feature f must now read column inverse[f]
        assert np.array_equal(
            remapped.predict_many(X_permuted), model.predict_many(ds.X)
        )


class TestEnsembleBenefit:
    def test_training_savings_nonnegative_on_separable(self, four_examples):
        model = train(four_examples, small_config("wv", T=5, seed=11))
        assert savings(four_examples, predict(model, four_examples)) >= 0.0

    def test_ensemble_vs_average_base_on_heldout(self):
        # Savings(H) - mean_j Savings(M_j) on held-out data: mean over seeds
        # must not be negative beyond 2 standard errors.
        rng = np.random.default_rng(99)
        diffs = []
        for seed in range(200):
            ds = gaussian_cost_dataset(rng, 260, k=3, shift=1.6)
            tr = ds.subset(np.arange(0, 160))
            te = ds.subset(np.arange(160, 260))
            cfg = EcsdtConfig(
                inducer=InducerConfig(kind="bagging", T=25, seed=seed),
                tree=CsdtConfig(max_depth=4),
                combiner="mv",
            )
            model = train(tr, cfg)
            ens = savings(te, predict(model, te))
            base = []
            for j in range(model.T):
                base.append(savings(te, base_model(model, j).predict_many(te.X)))
            diffs.append(ens - np.mean(base))
        mean = np.mean(diffs)
        se = np.std(diffs, ddof=1) / np.sqrt(len(diffs))
        assert mean >= -2 * se


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(10), 60, 4)
        for combiner in ("mv", "wv", "stacking"):
            model = train(ds, small_config(combiner, kind="random_patches", T=3, seed=13))
            path = tmp_path / f"{combiner}.json"
            save(model, path)
            loaded = load(path)
            assert np.array_equal(predict(loaded, ds), predict(model, ds))
            assert model_to_dict(loaded) == model_to_dict(model)

    @pytest.mark.parametrize("impurity", csdt.IMPURITY_MODES)
    @pytest.mark.parametrize("mode", csdt.THRESHOLD_MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_keeps_all_eight_arrays(self, tmp_path, kind, mode, impurity):
        ds = strict_random_dataset(np.random.default_rng(14), 80, 4)
        config = dataclasses.replace(
            small_config("wv", kind=kind, T=3, seed=15),
            tree=CsdtConfig(max_depth=4, candidate_thresholds=mode, impurity=impurity),
        )
        model = train(ds, config)
        save(model, tmp_path / "m.json")
        stored = json.loads((tmp_path / "m.json").read_text())["base_models"]
        assert [set(tree) for tree in stored] == [set(tree_lists(base_model(model, 0)))] * 3
        loaded = load(tmp_path / "m.json")
        assert sum(tree.size for tree in loaded.trees) > 3
        assert (loaded.config, loaded.k) == (model.config, model.k)
        for a, b in zip(loaded.trees, model.trees, strict=True):
            for field in dataclasses.fields(csdt.Tree):
                assert getattr(a, field.name).tobytes() == \
                    getattr(b, field.name).tobytes(), field.name
        assert np.array_equal(predict(loaded, ds), predict(model, ds))

    @pytest.mark.parametrize("combiner", ["wv", "stacking"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_version_1_file_loads_to_the_same_model(self, tmp_path, kind, combiner):
        ds = strict_random_dataset(np.random.default_rng(16), 80, 4)
        model = train(ds, small_config(combiner, kind=kind, T=3, seed=17))
        (tmp_path / "v1.json").write_text(json.dumps(v1_ensemble_dict(model), indent=1))
        loaded = load(tmp_path / "v1.json")
        assert (loaded.config, loaded.k, loaded.T) == (model.config, model.k, model.T)
        for j in range(model.T):
            a, b = base_model(loaded, j), base_model(model, j)
            assert tree_lists(a, internal_stats=False) == tree_lists(b, internal_stats=False)
            assert a.tree.n.tolist() == b.tree.n.tolist()
            assert a.tree.n_pos.tolist() == b.tree.n_pos.tolist()
        assert model_to_dict(loaded)["stacking"] == model_to_dict(model)["stacking"]
        assert model_to_dict(loaded)["weights"] == model_to_dict(model)["weights"]
        assert np.array_equal(predict(loaded, ds), predict(model, ds))

    def test_config_block_pinned(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(12), 40, 5)
        cfg = EcsdtConfig(
            inducer=InducerConfig(
                kind="random_patches", T=3, n_examples=0.5, n_features=3, seed=4
            ),
            tree=FAST_TREE,
            combiner="wv",
            ga=GaConfig(beta_bounds=(-2.0, 3.0)),
        )
        expected = json.dumps({
            "inducer": {
                "kind": "random_patches", "T": 3, "n_examples": 0.5, "n_features": 3,
                "seed": 4,
            },
            "tree": {
                "max_depth": 4, "min_samples_split": 2, "min_gain": 0.0,
                "candidate_thresholds": "exact_midpoints", "n_quantiles": 100,
                "pruning": True, "impurity": "cost",
            },
            "combiner": "wv",
            "ga": {
                "population": 64, "generations": 200, "crossover_rate": 0.8,
                "mutation_rate": 0.1, "mutation_sigma": 0.5, "beta_bounds": [-2.0, 3.0],
                "elitism": 2, "tournament": 3, "seed": 0,
            },
        }, sort_keys=True)
        model = train(ds, cfg)
        assert json.dumps(model_to_dict(model)["config"], sort_keys=True) == expected
        save(model, tmp_path / "m.json")
        on_disk = json.loads((tmp_path / "m.json").read_text())["config"]
        assert json.dumps(on_disk, sort_keys=True) == expected
        assert load(tmp_path / "m.json").config == cfg

    @pytest.mark.parametrize("corrupt, match", [
        (lambda d: d["base_models"][1]["feature"].__setitem__(0, -2), "outside"),
        (lambda d: d["base_models"][1]["feature"].__setitem__(0, 4), "outside"),
        (lambda d: d["feature_subsets"].pop(), "3 base models but 2 feature subsets"),
        (lambda d: d["base_models"].pop(), "2 base models but 3 feature subsets"),
        (lambda d: d["oob_savings"].pop(), "oob_savings"),
        (lambda d: d["weights"].append(0.0), "weights"),
        (lambda d: d.update(weights=None), "combiner"),
        (lambda d: d.update(combiner="stacking"), "combiner"),
        (lambda d: d.update(combiner="mv", weights=None), "combiner 'mv' but config.combiner 'wv'"),
        (lambda d: d["config"].update(combiner="wv-acc"),
         "combiner 'wv' but config.combiner 'wv-acc'"),
        (lambda d: d["config"]["inducer"].update(T=50), "3 base models but config.inducer.T 50"),
        (lambda d: d["base_models"][0]["feature"].__setitem__(0, 99), "outside"),
        (lambda d: d["base_models"][0]["right"].__setitem__(0, 0), "not a preorder tree"),
        (lambda d: d.pop("k"), "KeyError"),
        (lambda d: d["config"].pop("inducer"), "missing keys"),
        (lambda d: d["base_models"].__setitem__(0, []), "TypeError"),
        (lambda d: d["base_models"][0].pop("n"), "KeyError"),
        (lambda d: d.update(k=3.9), "k holds 3.9, which is not an integer"),
        (lambda d: d.update(k=True), "k must hold numbers only"),
        (lambda d: d.update(k="4"), "k must hold numbers only"),
        (lambda d: d.update(k=0), "k must be an integer >= 1"),
        (lambda d: d.update(oob_savings=[str(v) for v in d["oob_savings"]]),
         "oob_savings must hold numbers"),
        (lambda d: d.update(weights=[str(v) for v in d["weights"]]), "weights must hold numbers"),
        (lambda d: d["base_models"][0]["threshold"].__setitem__(0, "0.5"),
         "threshold must hold numbers"),
        (lambda d: d["base_models"][2]["cost_f0"].__setitem__(0, True),
         "cost_f0 must hold numbers"),
        (lambda d: d.update(weights=[d["weights"]]), "'weights': \\(1, 3\\)"),
        (lambda d: d.update(oob_savings=[d["oob_savings"]]), "'oob_savings': \\(1, 3\\)"),
    ])
    def test_malformed_model_rejected(self, tmp_path, corrupt, match):
        ds = strict_random_dataset(np.random.default_rng(10), 60, 4)
        model = train(ds, small_config("wv", kind="random_patches", T=3, seed=13))
        data = json.loads(json.dumps(model_to_dict(model)))
        assert data["feature_subsets"] == [None] * 3
        corrupt(data)
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=match):
            load(tmp_path / "m.json")

    @pytest.mark.parametrize("corrupt, match", [
        (lambda d: d["feature_subsets"][0].append(d["k"] + 3), "subset 0"),
        (lambda d: d["feature_subsets"][1].__setitem__(0, -1), "subset 1"),
        (lambda d: d["feature_subsets"][2].__setitem__(0, 0.5),
         "feature subset 2 holds 0.5, which is not an integer"),
        (lambda d: d["base_models"][2]["feature"].__setitem__(0, len(d["feature_subsets"][2])),
         "outside"),
        (lambda d: d["base_models"][1]["feature"].__setitem__(0, -2), "outside"),
        (lambda d: d["feature_subsets"].pop(), "3 base models but 2 feature subsets"),
        (lambda d: d["base_models"].pop(), "2 base models but 3 feature subsets"),
    ])
    def test_malformed_patch_file_rejected(self, tmp_path, corrupt, match):
        data = json.loads(PATCH_FILE.read_text())
        corrupt(data)
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=match):
            load(tmp_path / "m.json")

    def test_patch_file_loads_to_the_trees_training_grows(self):
        ds, config = patch_file_fit()
        stored = json.loads(PATCH_FILE.read_text())
        assert [len(subset) for subset in stored["feature_subsets"]] == [2, 3, 2]
        loaded, model = load(PATCH_FILE), train(ds, config)
        assert loaded.config == config
        # the stored features count within each subset; the loaded ones are columns
        assert [tree["feature"] for tree in stored["base_models"]] != \
            [tree.feature.tolist() for tree in loaded.trees]
        # thresholds are the file's own: its trees cut at numpy's float quantile
        # index, which the exact integer index has since replaced
        for a, b, tree in zip(loaded.trees, model.trees, stored["base_models"], strict=True):
            assert a.threshold.tobytes() == np.array(tree["threshold"]).tobytes()
            for field in dataclasses.fields(csdt.Tree):
                if field.name != "threshold":
                    assert getattr(a, field.name).tobytes() == \
                        getattr(b, field.name).tobytes(), field.name
        assert loaded.oob_savings.tobytes() == model.oob_savings.tobytes()
        assert loaded.weights.alphas.tobytes() == model.weights.alphas.tobytes()
        assert np.array_equal(predict(loaded, ds), predict(model, ds))

    def test_patch_file_saves_with_null_subsets(self, tmp_path):
        ds, config = patch_file_fit()
        save(load(PATCH_FILE), tmp_path / "m.json")
        fresh = model_to_dict(train(ds, config))
        stored = json.loads(PATCH_FILE.read_text())["base_models"]
        for tree, stored_tree in zip(fresh["base_models"], stored, strict=True):
            tree["threshold"] = stored_tree["threshold"]  # the file's own, as above
        assert (tmp_path / "m.json").read_bytes() == json.dumps(
            fresh, indent=1, sort_keys=True
        ).encode()
        assert json.loads((tmp_path / "m.json").read_text())["feature_subsets"] == [None] * 3

    def test_non_object_file_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text("[1, 2]")
        with pytest.raises(ValidationError, match="JSON object"):
            load(tmp_path / "m.json")

    def test_stacking_betas_length_checked(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(10), 60, 4)
        data = model_to_dict(train(ds, small_config("stacking", T=3, seed=13)))
        data["stacking"]["betas"].append(1.0)
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="betas"):
            load(tmp_path / "m.json")

    @pytest.mark.parametrize("corrupt, match", [
        (lambda s: s.update(betas=[str(v) for v in s["betas"]]), "betas must hold numbers"),
        (lambda s: s.update(intercept=str(s["intercept"])), "intercept must hold numbers"),
        (lambda s: s.update(threshold=True), "threshold must hold numbers"),
        (lambda s: s.update(threshold=[0.5]), "threshold must be a number"),
    ], ids=["betas-text", "intercept-text", "threshold-true", "threshold-list"])
    def test_stacking_parameters_must_be_numbers(self, tmp_path, corrupt, match):
        ds = strict_random_dataset(np.random.default_rng(10), 60, 4)
        data = model_to_dict(train(ds, small_config("stacking", T=3, seed=13)))
        corrupt(data["stacking"])
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=match):
            load(tmp_path / "m.json")

    def test_same_seed_byte_identical_files(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(11), 50, 3)
        cfg = small_config("wv", T=3, seed=77)
        save(train(ds, cfg), tmp_path / "a.json")
        save(train(ds, cfg), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
