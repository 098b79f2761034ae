import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    FRACTIONAL_NODE,
    FRACTIONAL_V1,
    FRACTIONAL_V2,
    MALFORMED_V2,
    chain_tree,
    deep_chain,
    four_example_set,
    gaussian_cost_dataset,
    v1_dict,
    v1_ensemble_dict,
)
import costforest
from costforest import CostedDataset, cli, csdt, ensemble, sampling
from costforest.cli import main

FOUR_ROWS = (
    "f1,y,c_tp,c_fp,c_fn,c_tn\n"
    "1,0,0,5,10,0\n"
    "2,0,0,5,10,0\n"
    "3,1,0,5,10,0\n"
    "4,1,0,5,10,0\n"
)

TRAIN_CONFIG = {
    "version": "1",
    "inducer": {"kind": "bagging", "T": 3, "seed": 7},
    "tree": {"max_depth": 3, "candidate_thresholds": "exact_midpoints"},
    "combiner": {"kind": "mv"},
}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_dataset_csv(path, ds):
    header = [f"f{i}" for i in range(ds.k)] + ["y", "c_tp", "c_fp", "c_fn", "c_tn"]
    lines = [",".join(header)]
    for i in range(ds.n):
        cells = (
            [repr(float(v)) for v in ds.X[i]]
            + [str(int(ds.y[i]))]
            + [repr(float(v)) for v in ds.costs[i]]
        )
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestTrainPredictEvaluate:
    def test_end_to_end_four_example_fixture(self, tmp_path):
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        cfg = write(tmp_path / "cfg.json", json.dumps(TRAIN_CONFIG))
        model = str(tmp_path / "model.json")
        preds = str(tmp_path / "preds.csv")
        metrics = str(tmp_path / "metrics.json")

        assert main(["train", "--config", cfg, "--train", data, "--model-out", model]) == 0
        assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        lines = (tmp_path / "preds.csv").read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert lines[1:] == ["0", "0", "1", "1"]  # matches the labels

        assert main(["evaluate", "--data", data, "--pred", preds, "--out", metrics]) == 0
        got = json.loads((tmp_path / "metrics.json").read_text())
        assert got["savings"] == 1.0
        assert got["f1"] == 1.0
        assert got["total_cost"] == 0.0

    def test_seed_flag_reproducible_model(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = gaussian_cost_dataset(rng, 120, k=3)
        data = write_dataset_csv(tmp_path / "d.csv", ds)
        cfg = write(tmp_path / "cfg.json", json.dumps(TRAIN_CONFIG))
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        assert main(["train", "--config", cfg, "--train", data, "--model-out", m1, "--seed", "5"]) == 0
        assert main(["train", "--config", cfg, "--train", data, "--model-out", m2, "--seed", "5"]) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_predict_row_count(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = gaussian_cost_dataset(rng, 60, k=2)
        data = write_dataset_csv(tmp_path / "d.csv", ds)
        cfg = write(tmp_path / "cfg.json", json.dumps(TRAIN_CONFIG))
        model = str(tmp_path / "m.json")
        preds = tmp_path / "p.csv"
        main(["train", "--config", cfg, "--train", data, "--model-out", model])
        main(["predict", "--model", model, "--data", data, "--out", str(preds)])
        assert len(preds.read_text().strip().splitlines()) == 61  # header + rows


    def test_predict_reads_a_features_only_file(self, tmp_path):
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        features = write(tmp_path / "x.csv", "f1\n4\n3\n2\n1\n")
        cfg = write(tmp_path / "cfg.json", json.dumps(TRAIN_CONFIG))
        model = str(tmp_path / "model.json")
        preds = tmp_path / "preds.csv"
        assert main(["train", "--config", cfg, "--train", data, "--model-out", model]) == 0
        assert main(["predict", "--model", model, "--data", features, "--out", str(preds)]) == 0
        assert preds.read_text().split() == ["prediction", "1", "1", "0", "0"]


class TestExitCodes:
    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        bad = dict(TRAIN_CONFIG)
        bad["indcuer"] = {"kind": "bagging"}
        cfg = write(tmp_path / "bad.json", json.dumps(bad))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        code = main(["train", "--config", cfg, "--train", data, "--model-out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert "indcuer" in err and "bad.json" in err

    def test_missing_version_exit_1(self, tmp_path):
        cfg = write(tmp_path / "v.json", json.dumps({"inducer": {"kind": "bagging"}}))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        assert main(["train", "--config", cfg, "--train", data, "--model-out", "x"]) == 1

    def test_usage_error_exit_1(self):
        assert main(["train"]) == 1

    def test_validation_error_exit_2(self, tmp_path):
        bad_rows = FOUR_ROWS.replace("4,1,0,5,10,0", "4,1,0,5,0,0")  # c_fn < c_tp fails strict
        data = write(tmp_path / "d.csv", bad_rows)
        cfg = write(tmp_path / "cfg.json", json.dumps(TRAIN_CONFIG))
        assert main(["train", "--config", cfg, "--train", data, "--model-out", "x"]) == 2

    @pytest.mark.parametrize("value", ["0.9", "2", "nan"])
    def test_prediction_not_exactly_binary_exit_2(self, tmp_path, capsys, value):
        # 0.9 was read as 0 and scored as a perfect prediction
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        preds = write(tmp_path / "p.csv", f"prediction\n{value}\n0\n1\n1\n")
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--data", data, "--pred", preds, "--out", str(metrics)]) == 2
        assert "predictions must be exactly 0 or 1" in capsys.readouterr().err
        assert not metrics.exists()

    def test_wrongly_typed_value_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path / "t.json", json.dumps({"version": "1", "inducer": {"T": "5"}}))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        assert main(["train", "--config", cfg, "--train", data, "--model-out", "x"]) == 1
        assert "t.json" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, message", [
        ("combiner", "ga", {"generations": "5"}, "'combiner.ga.generations' must be an integer"),
        ("tree", "n_quantiles", 10.5, "'tree.n_quantiles' must be an integer, got 10.5"),
        ("inducer", "seed", "x", "'inducer.seed' must be an integer, got 'x'"),
        ("tree", "min_samples_split", "a", "'tree.min_samples_split' must be an integer"),
        ("tree", "pruning", "no", "'tree.pruning' must be a boolean, got 'no'"),
        ("tree", "max_depth", 3.0, "'tree.max_depth' must be an integer, got 3.0"),
    ])
    def test_wrongly_typed_train_value_exit_1(self, tmp_path, capsys, section, key, value,
                                              message):
        config = json.loads(json.dumps(TRAIN_CONFIG))
        config.setdefault(section, {})[key] = value
        cfg = write(tmp_path / "t.json", json.dumps(config))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        model = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--train", data, "--model-out", str(model)]) == 1
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("ga, message", [
        ({"tournament": 0}, "tournament must be >= 1, got 0"),
        ({"mutation_sigma": -1}, "mutation_sigma must be >= 0, got -1"),
    ])
    def test_ga_value_out_of_range_exit_1(self, tmp_path, capsys, ga, message):
        config = dict(TRAIN_CONFIG, combiner={"kind": "stacking", "ga": ga})
        cfg = write(tmp_path / "t.json", json.dumps(config))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        model = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--train", data, "--model-out", str(model)]) == 1
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("section, value, message", [
        ("tree", {"max_depth": 3, "min_gain": float("nan")}, "min_gain must be finite, got nan"),
        ("combiner", {"kind": "stacking", "ga": {"mutation_sigma": float("inf")}},
         "mutation_sigma must be finite, got inf"),
    ])
    def test_non_finite_train_value_exit_1(self, tmp_path, capsys, section, value, message):
        # both trained and exited 0: NaN let every split pass, inf made the GA's genes NaN
        cfg = write(tmp_path / "t.json", json.dumps(dict(TRAIN_CONFIG, **{section: value})))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        model = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--train", data, "--model-out", str(model)]) == 1
        assert message in capsys.readouterr().err
        assert not model.exists()

    def test_missing_file_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", json.dumps(TRAIN_CONFIG))
        assert main(["train", "--config", cfg, "--train", str(tmp_path / "no.csv"),
                     "--model-out", "x"]) == 2


class TestPredictInputChecks:
    def _model(self, tmp_path, config=TRAIN_CONFIG):
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        model = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--train", data, "--model-out", str(model)]) == 0
        return data, model

    def test_nan_features_exit_2(self, tmp_path, capsys):
        _, model = self._model(tmp_path)
        data = write(tmp_path / "nan.csv", FOUR_ROWS.replace("4,1,0,5,10,0", "nan,1,0,5,10,0"))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", data, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def _predict(self, tmp_path, data, model):
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", data, "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("version, corrupt, message", [
        ("2", lambda d: d["base_models"][0]["feature"].__setitem__(0, 99), "outside [0, 1)"),
        ("1", lambda d: d["base_models"][0].update(
            root={"rule": {"feature": 99, "threshold": 0.5},
                  "left": d["base_models"][0]["root"], "right": d["base_models"][0]["root"]}),
         "outside [0, 1)"),
        ("1", lambda d: d["base_models"][0].update(
            root={"rule": {"feature": 0, "threshold": 0.5}}), "neither a leaf"),
        ("2", lambda d: d.update(oob_savings=[0.0]), "oob_savings"),
        ("2", lambda d: d["config"]["tree"].update(max_depth="3"),
         "'config.tree.max_depth' must be an integer, got '3'"),
        ("2", lambda d: d["stacking"].update(threshold=float("nan")), "stacking threshold"),
        ("2", lambda d: d["stacking"].update(threshold=float("-inf")), "stacking threshold"),
        ("wv", lambda d: d["weights"].__setitem__(0, float("nan")), "finite"),
        ("2", lambda d: d.update(k=1.5), "k holds 1.5, which is not an integer"),
        ("2", lambda d: d.update(k=True), "k must hold numbers only"),
        ("2", lambda d: d["stacking"].update(betas=[str(b) for b in d["stacking"]["betas"]]),
         "betas must hold numbers only"),
        ("wv", lambda d: d["base_models"][0]["threshold"].__setitem__(0, "0.5"),
         "threshold must hold numbers only"),
        ("wv", lambda d: d["config"].update(combiner="wv-acc"),
         "combiner 'wv' but config.combiner 'wv-acc'"),
        ("wv", lambda d: d["config"]["inducer"].update(T=50),
         "3 base models but config.inducer.T 50"),
    ], ids=["feature-v2", "feature-v1", "rule-without-children-v1", "oob-length",
            "tree-config", "threshold-nan", "threshold-minus-infinity", "weight-nan",
            "k-fractional", "k-true", "betas-text", "tree-threshold-text",
            "combiner-differs-from-config", "config-T-differs-from-base-models"])
    def test_malformed_model_exit_2(self, tmp_path, capsys, version, corrupt, message):
        combiner = {"kind": "wv"} if version == "wv" else {
            "kind": "stacking", "ga": {"generations": 2, "population": 8}}
        data, model = self._model(tmp_path, dict(TRAIN_CONFIG, combiner=combiner))
        payload = json.loads(model.read_text())
        if version == "1":
            payload = v1_ensemble_dict(ensemble.load(model))
        corrupt(payload)
        model.write_text(json.dumps(payload))
        code, out = self._predict(tmp_path, data, model)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(MALFORMED_V2))
    def test_malformed_tree_arrays_exit_2(self, tmp_path, capsys, name):
        corrupt, message = MALFORMED_V2[name]
        data, model = self._model(tmp_path)
        payload = json.loads(model.read_text())
        payload["base_models"][0] = chain_tree(3)
        model.write_text(json.dumps(payload))
        assert self._predict(tmp_path, data, model)[0] == 0
        corrupt(payload["base_models"][0])
        model.write_text(json.dumps(payload))
        assert self._predict(tmp_path, data, model)[0] == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", FRACTIONAL_V2)
    def test_fractional_integer_field_exit_2(self, tmp_path, capsys, name, value):
        data, model = self._model(tmp_path)
        payload = json.loads(model.read_text())
        payload["base_models"][1] = chain_tree(3)
        model.write_text(json.dumps(payload))
        assert self._predict(tmp_path, data, model)[0] == 0
        payload["base_models"][1][name][FRACTIONAL_NODE[name]] = value
        model.write_text(json.dumps(payload))
        assert self._predict(tmp_path, data, model)[0] == 2
        assert f"{name} holds {value}, which is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", FRACTIONAL_V1)
    def test_fractional_integer_field_exit_2_v1(self, tmp_path, capsys, corrupt, message):
        data, model = self._model(tmp_path)
        payload = v1_ensemble_dict(ensemble.load(model))
        exact = csdt.CsdtConfig(candidate_thresholds="exact_midpoints")
        payload["base_models"][1] = v1_dict(csdt.grow(four_example_set(), exact))
        model.write_text(json.dumps(payload))
        assert self._predict(tmp_path, data, model)[0] == 0
        corrupt(payload["base_models"][1]["root"])
        model.write_text(json.dumps(payload))
        assert self._predict(tmp_path, data, model)[0] == 2
        assert message.lstrip("^") in capsys.readouterr().err

    def test_5000_deep_chain_predicts(self, tmp_path):
        data, model = self._model(tmp_path)
        payload = json.loads(model.read_text())
        payload["base_models"] = [chain_tree(5000)] * 3
        model.write_text(json.dumps(payload))
        code, out = self._predict(tmp_path, data, model)
        assert code == 0
        # every row has x <= 10, so it passes all 5000 rules to the leaf predicting 1
        assert out.read_text().split() == ["prediction", "1", "1", "1", "1"]

    @pytest.mark.parametrize("version, edit, message", [
        ("2", lambda text: text[:len(text) // 2], "JSONDecodeError"),
        ("1", lambda text: text.replace('"root": ', '"root": ' + deep_chain(1200) + ', "unused": ',
                                        1), "RecursionError"),
        ("2", None, "FileNotFoundError"),
    ], ids=["truncated", "too-deep-v1", "missing"])
    def test_unreadable_model_exit_2(self, tmp_path, capsys, version, edit, message):
        data, model = self._model(tmp_path)
        if edit is None:
            model.unlink()
        else:
            text = model.read_text()
            if version == "1":
                text = json.dumps(v1_ensemble_dict(ensemble.load(model)), indent=1)
            model.write_text(edit(text))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", data, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_feature_subset_out_of_range_exit_2(self, tmp_path, capsys):
        # files of earlier versions stored a patch tree's features within its
        # subset; the identity subset [0, 1, 2] of every tree is such a file
        rows = "f1,f2,f3,y,c_tp,c_fp,c_fn,c_tn\n" + "".join(
            f"{i},{i % 3},{i % 2},{int(i > 4)},0,5,10,0\n" for i in range(10)
        )
        data = write(tmp_path / "d3.csv", rows)
        config = {**TRAIN_CONFIG, "inducer": {"kind": "random_patches", "T": 3, "seed": 1,
                                              "n_features": 3}}
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        model = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--train", data, "--model-out", str(model)]) == 0
        payload = json.loads(model.read_text())
        assert payload["feature_subsets"] == [None] * 3
        payload["feature_subsets"] = [[0, 1, 2]] * 3
        model.write_text(json.dumps(payload))
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--model", str(model), "--data", data, "--out", out]) == 0
        j = next(j for j, tree in enumerate(payload["base_models"]) if max(tree["feature"]) < 2)
        payload["feature_subsets"][j] = [0, 7]
        model.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(model), "--data", data, "--out", out]) == 2
        assert f"feature subset {j}" in capsys.readouterr().err


class TestBuildCosts:
    def test_fraud_appends_columns(self, tmp_path):
        data = write(tmp_path / "raw.csv", "f1,amount,y\n1,100,1\n2,50,0\n")
        params = write(tmp_path / "p.json", json.dumps({"version": "1", "admin_cost": 3}))
        out = tmp_path / "c.csv"
        code = main(["build-costs", "--domain", "fraud", "--params", params,
                     "--data", data, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f1,amount,y,c_tp,c_fp,c_fn,c_tn"
        assert lines[1].split(",")[3:] == ["3.0", "3.0", "100.0", "0.0"]

    def test_strict_failure_exit_2(self, tmp_path):
        data = write(tmp_path / "raw.csv", "f1,amount,y\n1,2,1\n")  # amount < admin
        params = write(tmp_path / "p.json", json.dumps({"version": "1", "admin_cost": 3}))
        assert main(["build-costs", "--domain", "fraud", "--params", params,
                     "--data", data, "--out", str(tmp_path / "c.csv")]) == 2

    def test_missing_param_exit_1(self, tmp_path, capsys):
        data = write(tmp_path / "raw.csv", "f1,amount,y\n1,100,1\n")
        params = write(tmp_path / "p.json", json.dumps({"version": "1"}))
        assert main(["build-costs", "--domain", "fraud", "--params", params,
                     "--data", data, "--out", str(tmp_path / "c.csv")]) == 1
        assert "admin_cost" in capsys.readouterr().err

    def test_wrong_param_type_exit_1(self, tmp_path):
        data = write(tmp_path / "raw.csv", "f1,amount,y\n1,100,1\n")
        params = write(tmp_path / "p.json", json.dumps({"version": "1", "admin_cost": "3"}))
        assert main(["build-costs", "--domain", "fraud", "--params", params,
                     "--data", data, "--out", str(tmp_path / "c.csv")]) == 1

    @pytest.mark.parametrize("domain, params", [
        ("fraud", {"admin_cost": -1}),
        ("credit", {"loss_given_default": 2, "pi_0": 0.9, "pi_1": 0.1,
                    "mean_profit": 30.0, "mean_credit_line": 1000.0}),
        ("credit", {"loss_given_default": 0.75, "pi_0": 0.9, "pi_1": 0.2,
                    "mean_profit": 30.0, "mean_credit_line": 1000.0}),
    ])
    def test_param_out_of_range_exit_1(self, tmp_path, capsys, domain, params):
        data = write(tmp_path / "raw.csv", "f1,amount,credit_line,profit,y\n1,100,500,10,1\n")
        params = write(tmp_path / "p.json", json.dumps({"version": "1", **params}))
        out = tmp_path / "c.csv"
        assert main(["build-costs", "--domain", domain, "--params", params,
                     "--data", data, "--out", str(out)]) == 1
        assert "p.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("domain, params", [
        ("fraud", {"admin_cost": float("inf")}),
        ("credit", {"loss_given_default": 0.75, "pi_0": float("nan"), "pi_1": 0.1,
                    "mean_profit": 30.0, "mean_credit_line": 1000.0}),
    ])
    def test_non_finite_param_exit_1(self, tmp_path, capsys, domain, params):
        # these wrote inf or NaN cost columns and exited 0, also with --relaxed
        data = write(tmp_path / "raw.csv", "f1,amount,credit_line,profit,y\n1,100,500,10,1\n")
        params = write(tmp_path / "p.json", json.dumps({"version": "1", **params}))
        out = tmp_path / "c.csv"
        assert main(["build-costs", "--domain", domain, "--params", params, "--relaxed",
                     "--data", data, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_column_exit_2(self, tmp_path, capsys, cell):
        data = write(tmp_path / "raw.csv", f"f1,amount,y\n1,100,1\n2,{cell},0\n")
        params = write(tmp_path / "p.json", json.dumps({"version": "1", "admin_cost": 3}))
        out = tmp_path / "c.csv"
        assert main(["build-costs", "--domain", "fraud", "--params", params,
                     "--data", data, "--out", str(out)]) == 2
        assert "fraud: amount not finite at rows [1]" in capsys.readouterr().err
        assert not out.exists()


class TestResample:
    def test_undersample_balances(self, tmp_path):
        rows = ["f1,y,c_tp,c_fp,c_fn,c_tn"]
        for i in range(20):
            rows.append(f"{i},0,0,5,10,0")
        for i in range(4):
            rows.append(f"{100 + i},1,0,5,10,0")
        data = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
        out = tmp_path / "u.csv"
        assert main(["resample", "--data", data, "--method", "u", "--seed", "3",
                     "--out", str(out)]) == 0
        got = out.read_text().strip().splitlines()[1:]
        labels = [line.split(",")[1] for line in got]
        assert labels.count("0.0") == labels.count("1.0") == 4

    @pytest.mark.parametrize("code", ["u", "r", "o"])
    def test_rows_match_library_resample(self, tmp_path, code):
        ds = gaussian_cost_dataset(np.random.default_rng(31), 60, k=2)
        data = write_dataset_csv(tmp_path / "d.csv", ds)
        out = tmp_path / "out.csv"
        assert main(["resample", "--data", data, "--method", code, "--seed", "5",
                     "--out", str(out)]) == 0
        written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        spec = sampling.SamplingSpec(sampling.SAMPLING_CODES[code], 5)
        expected = sampling.resample(ds, spec)
        assert np.array_equal(written[:, :2], expected.X)
        assert np.array_equal(written[:, 2], expected.y)
        assert np.array_equal(written[:, 3:], expected.costs)

    def test_oversample_deterministic(self, tmp_path):
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["resample", "--data", data, "--method", "o", "--out", str(out1)])
        main(["resample", "--data", data, "--method", "o", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestBenchmark:
    def _spec(self, tmp_path, seed=9):
        rng = np.random.default_rng(4)
        files = []
        for i in range(2):
            ds = gaussian_cost_dataset(rng, 160, k=3)
            files.append(write_dataset_csv(tmp_path / f"ds{i}.csv", ds))
        spec = {
            "version": "1",
            "repetitions": 2,
            "seed": seed,
            "datasets": [
                {"name": f"d{i}", "csv": files[i], "split": {"seed": i}} for i in range(2)
            ],
            "algorithms": [
                {"family": "ci", "name": "DT-t", "learner": "dt",
                 "config": {"tree": {"max_depth": 3}}},
                {"family": "cst", "name": "CSDT-t", "learner": "csdt",
                 "config": {"tree": {"max_depth": 3}}},
                {"family": "ecsdt", "name": "CSB-mv-t", "learner": "ecsdt",
                 "config": {"T": 3, "inducer": "bagging", "combiner": "mv",
                            "tree": {"max_depth": 3}}},
            ],
        }
        return write(tmp_path / "spec.json", json.dumps(spec))

    def test_report_shape_and_reproducibility(self, tmp_path):
        spec = self._spec(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["benchmark", "--spec", spec, "--out", str(out1)]) == 0
        assert main(["benchmark", "--spec", spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert len(report["cells"]) == 6
        assert set(report["friedman_rank"]) == {"DT-t", "CSDT-t", "CSB-mv-t"}

    def test_algorithm_missing_key_exit_1(self, tmp_path):
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        del spec["algorithms"][0]["family"]
        write(tmp_path / "spec.json", json.dumps(spec))
        assert main(["benchmark", "--spec", spec_path, "--out", str(tmp_path / "r.json")]) == 1

    @pytest.mark.parametrize("key", ["csv", "name"])
    def test_dataset_missing_key_exit_1(self, tmp_path, capsys, key):
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        del spec["datasets"][0][key]
        write(tmp_path / "spec.json", json.dumps(spec))
        assert main(["benchmark", "--spec", spec_path, "--out", str(tmp_path / "r.json")]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_dataset_defaults_from_dataclasses(self, tmp_path):
        """Spelling out the CsvSchema and SplitSpec defaults changes nothing."""
        spec_path = self._spec(tmp_path)
        implicit = tmp_path / "implicit.json"
        assert main(["benchmark", "--spec", spec_path, "--out", str(implicit)]) == 0
        spec = json.loads((tmp_path / "spec.json").read_text())
        for entry in spec["datasets"]:
            entry.update(label_col="y", cost_cols=["c_tp", "c_fp", "c_fn", "c_tn"],
                         drop_cols=[], strict=True)
            entry["split"].update(train_frac=0.5, valid_frac=0.25, test_frac=0.25)
        write(tmp_path / "spec.json", json.dumps(spec))
        explicit = tmp_path / "explicit.json"
        assert main(["benchmark", "--spec", spec_path, "--out", str(explicit)]) == 0
        assert explicit.read_bytes() == implicit.read_bytes()

    def test_unknown_split_key_exit_1(self, tmp_path):
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        spec["datasets"][0]["split"]["train_fraction"] = 0.6
        write(tmp_path / "spec.json", json.dumps(spec))
        assert main(["benchmark", "--spec", spec_path, "--out", str(tmp_path / "r.json")]) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda spec: spec.update(repetitions="2"), "'repetitions' must be an integer, got '2'"),
        (lambda spec: spec["datasets"][0]["split"].update(train_frac="x"),
         "'datasets[0].split.train_frac' must be a number, got 'x'"),
        (lambda spec: spec.update(datasets=[5]), "'datasets' must be a list of objects"),
        (lambda spec: spec.update(datasets={"a": 1}), "'datasets' must be a list of objects"),
        (lambda spec: spec.update(algorithms=["dt"]), "'algorithms' must be a list"),
        (lambda spec: spec["algorithms"][2]["config"].update(t=3), "['t']"),
        (lambda spec: spec["algorithms"][0].update(config=[]), "must be an object"),
        (lambda spec: spec.update(seed="x"), "'seed' must be an integer, got 'x'"),
        (lambda spec: spec["datasets"][1]["split"].update(seed=1.5), "got 1.5"),
        (lambda spec: spec["algorithms"][0]["config"]["tree"].update(depht=3), "['depht']"),
        (lambda spec: spec["algorithms"][1]["config"].update(tree=3),
         "config of 'CSDT-t': 'tree' must be an object, got 3"),
        (lambda spec: spec["algorithms"][2]["config"].update(ga={"populaton": 8}),
         "['populaton']"),
        (lambda spec: spec["algorithms"][0]["config"]["tree"].update(max_depth="3"),
         "config of 'DT-t': 'tree.max_depth' must be an integer, got '3'"),
        (lambda spec: spec["algorithms"][2]["config"].update(ga={"population": "8"}),
         "config of 'CSB-mv-t': 'ga.population' must be an integer, got '8'"),
        (lambda spec: spec["algorithms"].append(
            {"family": "ci", "name": "LR-t", "learner": "lr", "config": {"lr": {"n_iter": "5"}}}),
         "config of 'LR-t': 'lr.n_iter' must be an integer, got '5'"),
        (lambda spec: spec["algorithms"].append(
            {"family": "ci", "name": "LR-t", "learner": "lr", "config": {"lr": {"l2": np.inf}}}),
         "config of 'LR-t': l2 must be finite and >= 0, got inf"),
        (lambda spec: spec["datasets"][0]["split"].update(train_frac=-0.5),
         "split fractions must be positive"),
        (lambda spec: spec["algorithms"][2]["config"].update(T="10"),
         "config of 'CSB-mv-t': 'T' must be an integer, got '10'"),
        (lambda spec: spec["algorithms"][2]["config"].update(combiner="bogus"),
         "config of 'CSB-mv-t': combiner must be one of"),
        (lambda spec: spec["algorithms"][2]["config"].update(inducer="bogus"),
         "config of 'CSB-mv-t': inducer kind must be one of"),
        (lambda spec: spec["algorithms"][2]["config"]["tree"].update(n_quantiles=10.5),
         "config of 'CSB-mv-t': 'tree.n_quantiles' must be an integer, got 10.5"),
        (lambda spec: spec["algorithms"][2]["config"].update(n_examples="half"),
         "config of 'CSB-mv-t': 'n_examples' must be an integer or a number or null, got 'half'"),
        (lambda spec: spec["algorithms"][2]["config"].update(ga={"generations": "5"}),
         "config of 'CSB-mv-t': 'ga.generations' must be an integer, got '5'"),
        (lambda spec: spec["algorithms"][2]["config"].update(n_examples=1.5),
         "config of 'CSB-mv-t': fractional n_examples must be in (0, 1], got 1.5"),
        (lambda spec: spec["algorithms"][2]["config"].update(n_features=1.5),
         "config of 'CSB-mv-t': fractional n_features must be in (0, 1], got 1.5"),
        (lambda spec: spec["algorithms"][2]["config"].update(n_examples=0),
         "config of 'CSB-mv-t': n_examples must be >= 1, got 0"),
        (lambda spec: spec["algorithms"][2]["config"].update(n_features=-5),
         "config of 'CSB-mv-t': n_features must be >= 1, got -5"),
        (lambda spec: spec["algorithms"][1].update(family="bmr"),
         "family 'bmr' needs a learner in ('dt', 'lr', 'rf'), got 'csdt'"),
        (lambda spec: spec["algorithms"][2].update(family="bmr"),
         "family 'bmr' needs a learner in ('dt', 'lr', 'rf'), got 'ecsdt'"),
    ])
    def test_malformed_spec_exit_1(self, tmp_path, capsys, monkeypatch, edit, message):
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        edit(spec)
        write(tmp_path / "spec.json", json.dumps(spec))
        experiments = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kw: experiments.append(args))
        assert main(["benchmark", "--spec", spec_path, "--out", str(tmp_path / "r.json")]) == 1
        assert message in capsys.readouterr().err
        assert experiments == []  # rejected before any cell runs

    @pytest.mark.parametrize("key", ["train_frac", "valid_frac", "test_frac"])
    def test_nan_split_fraction_exit_1(self, tmp_path, capsys, key):
        # JSON's NaN used to pass the split checks and crash with exit 3
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        spec["datasets"][0]["split"][key] = float("nan")
        write(tmp_path / "spec.json", json.dumps(spec))
        assert main(["benchmark", "--spec", spec_path, "--out", str(tmp_path / "r.json")]) == 1
        assert "split fractions must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.json"
        spec = self._spec(tmp_path)
        code = main(["benchmark", "--spec", spec, "--out", str(out), "--jobs", jobs])
        assert code == 1
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_learning_rate_fails_its_cells(self, tmp_path):
        # the spec passes validation, so the run exits 0 and reports why the
        # logistic cells failed
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        spec["algorithms"].append({"family": "ci", "name": "LR-t", "learner": "lr",
                                   "config": {"lr": {"learning_rate": float("inf")}}})
        text = json.dumps(spec)
        assert "Infinity" in text
        write(tmp_path / "spec.json", text)
        out = tmp_path / "r.json"
        assert main(["benchmark", "--spec", spec_path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for d in ("d0", "d1"):
            cell = report["cells"][f"LR-t::{d}"]
            assert cell["failed"] and "logistic training diverged" in cell["error"]
            assert not report["cells"][f"DT-t::{d}"]["failed"]
        assert report["friedman_rank"] is None

    def test_overflowing_feature_fails_the_logistic_cells(self, tmp_path):
        # a benchmark cell's ValidationError is reported in its cell, and the
        # trees, which only compare values, still fit the scaled column
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        spec["algorithms"].append({"family": "ci", "name": "LR-t", "learner": "lr"})
        write(tmp_path / "spec.json", json.dumps(spec))
        ds = gaussian_cost_dataset(np.random.default_rng(4), 160, k=3)
        huge = CostedDataset(ds.X * [1.0, 1e200, 1.0], ds.y, ds.costs)
        write_dataset_csv(tmp_path / "ds0.csv", huge)
        out = tmp_path / "r.json"
        assert main(["benchmark", "--spec", spec_path, "--out", str(out)]) == 0
        cells = json.loads(out.read_text())["cells"]
        error = cells["LR-t::d0"]["error"]
        assert cells["LR-t::d0"]["failed"] and error.startswith("ValidationError")
        assert "feature column 1 ('f1') has a standard deviation that overflows" in error
        assert not cells["LR-t::d1"]["failed"] and not cells["DT-t::d0"]["failed"]

    def test_csv_output(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["benchmark", "--spec", spec, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 algorithms
        assert lines[0].startswith("algorithm,")


class TestVerifyTheory:
    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_mc_samples_below_one_exit_1(self, tmp_path, capsys, samples):
        out = tmp_path / "t.json"
        code = main(["verify-theory", "--T", "5", "--rho", "0.7", "--trials", "50", "--n", "60",
                     "--mc-samples", samples, "--out", str(out)])
        assert code == 1
        assert f"n_samples must be >= 1, got {samples}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["1.5", "-0.1", "nan", "0"])
    def test_rho_out_of_range_exit_1(self, tmp_path, capsys, rho):
        out = tmp_path / "t.json"
        code = main(["verify-theory", "--T", "5", "--rho", rho, "--trials", "5", "--n", "10",
                     "--mc-samples", "10", "--out", str(out)])
        assert code == 1
        assert f"rho must be in (0, 1], got {float(rho)}" in capsys.readouterr().err
        assert not out.exists()

    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main([
            "verify-theory", "--T", "5", "--rho", "0.7", "--trials", "50",
            "--n", "60", "--mc-samples", "2000", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["majority_correct_prob"]["closed_form"] == pytest.approx(
            0.7 ** 5 + 5 * 0.7 ** 4 * 0.3 + 10 * 0.7 ** 3 * 0.09, abs=1e-12
        )
        assert report["ensemble_savings_check"]["mean_diff"] > 0
        assert "savings-gap" in capsys.readouterr().out


def test_import_loads_no_scipy():
    # the library runs on numpy and the standard library alone
    code = (
        "import sys, costforest, costforest.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(costforest.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
