import dataclasses
import json

import numpy as np
import pytest

from conftest import four_example_set, gaussian_cost_dataset, strict_random_dataset
from costforest import ConfigError, ValidationError, savings
from costforest.combiners import GaConfig, weights_from_scores
from costforest.csdt import CsdtConfig
from costforest.ensemble import (
    EcsdtConfig,
    EnsembleModel,
    load,
    model_to_dict,
    predict,
    save,
    train,
)
from costforest.inducers import InducerConfig, draw_samples

FAST_TREE = CsdtConfig(max_depth=4, candidate_thresholds="exact_midpoints")


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
            assert np.array_equal(model.feature_subsets[j], sample.feature_indices)
            oob = ds.subset(sample.oob_indices)
            preds = model.base_models[j].predict_many(oob.X[:, sample.feature_indices])
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
            single = model.base_models[0]
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
        dominant = model.base_models[0]
        view = ds.X if model.feature_subsets[0] is None else ds.X[:, model.feature_subsets[0]]
        assert np.array_equal(predict(model, ds), dominant.predict_many(view))

    def test_mv_equals_uniform_wv(self):
        ds = strict_random_dataset(np.random.default_rng(6), 70, 3)
        mv_model = train(ds, small_config("mv", T=5, seed=10))
        wv_model = train(ds, small_config("wv", T=5, seed=10))
        from costforest.combiners import WeightVector

        wv_model.weights = WeightVector(np.full(5, 0.2))
        assert np.array_equal(predict(mv_model, ds), predict(wv_model, ds))

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
        remapped = dataclasses.replace(model) if False else EnsembleModel(
            base_models=model.base_models,
            feature_subsets=[
                None if s is None else inverse[s] for s in model.feature_subsets
            ],
            oob_savings=model.oob_savings,
            combiner=model.combiner,
            config=model.config,
            k=model.k,
            weights=model.weights,
            stacking=model.stacking,
        )
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
            for m, sub in zip(model.base_models, model.feature_subsets):
                view = te.X if sub is None else te.X[:, sub]
                base.append(savings(te, m.predict_many(view)))
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
        (lambda d: d["feature_subsets"][0].append(d["k"] + 3), "subset 0"),
        (lambda d: d["feature_subsets"][1].__setitem__(0, -1), "subset 1"),
        (lambda d: d["feature_subsets"][2].append(d["feature_subsets"][2][0]), "base model 2"),
        (lambda d: d["feature_subsets"].__setitem__(0, None), "base model 0"),
        (lambda d: d["feature_subsets"].pop(), "feature_subsets"),
        (lambda d: d["base_models"].pop(), "lengths"),
        (lambda d: d["oob_savings"].pop(), "oob_savings"),
        (lambda d: d["weights"].append(0.0), "weights"),
        (lambda d: d.update(weights=None), "combiner"),
        (lambda d: d.update(combiner="stacking"), "combiner"),
        (lambda d: d["base_models"][0]["root"].update(rule={"feature": 99, "threshold": 0.0},
                                                      left={}, right={}), "outside"),
        (lambda d: d.pop("k"), "KeyError"),
        (lambda d: d["config"].pop("inducer"), "KeyError"),
        (lambda d: d["base_models"].__setitem__(0, []), "JSON object"),
    ])
    def test_malformed_model_rejected(self, tmp_path, corrupt, match):
        ds = strict_random_dataset(np.random.default_rng(10), 60, 4)
        model = train(ds, small_config("wv", kind="random_patches", T=3, seed=13))
        data = json.loads(json.dumps(model_to_dict(model)))
        assert all(s is not None for s in data["feature_subsets"])
        corrupt(data)
        (tmp_path / "m.json").write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=match):
            load(tmp_path / "m.json")

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

    def test_same_seed_byte_identical_files(self, tmp_path):
        ds = strict_random_dataset(np.random.default_rng(11), 50, 3)
        cfg = small_config("wv", T=3, seed=77)
        save(train(ds, cfg), tmp_path / "a.json")
        save(train(ds, cfg), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
