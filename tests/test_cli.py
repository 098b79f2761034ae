import json

import numpy as np
import pytest

from conftest import gaussian_cost_dataset
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

    def test_wrongly_typed_value_exit_1(self, tmp_path, capsys):
        cfg = write(tmp_path / "t.json", json.dumps({"version": "1", "inducer": {"T": "5"}}))
        data = write(tmp_path / "d.csv", FOUR_ROWS)
        assert main(["train", "--config", cfg, "--train", data, "--model-out", "x"]) == 1
        assert "t.json" in capsys.readouterr().err

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

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d["base_models"][0].update(
            root={"rule": {"feature": 99, "threshold": 0.5},
                  "left": d["base_models"][0]["root"], "right": d["base_models"][0]["root"]}),
         "outside [0, 1)"),
        (lambda d: d["base_models"][0].update(
            root={"rule": {"feature": 0, "threshold": 0.5}}), "neither a leaf"),
        (lambda d: d.update(oob_savings=[0.0]), "oob_savings"),
    ])
    def test_malformed_model_exit_2(self, tmp_path, capsys, corrupt, message):
        data, model = self._model(tmp_path)
        payload = json.loads(model.read_text())
        corrupt(payload)
        model.write_text(json.dumps(payload))
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--model", str(model), "--data", data, "--out", out]) == 2
        assert message in capsys.readouterr().err

    def test_feature_subset_out_of_range_exit_2(self, tmp_path, capsys):
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
        j = next(j for j, s in enumerate(payload["feature_subsets"]) if len(s) == 2)
        payload["feature_subsets"][j] = [0, 7]
        model.write_text(json.dumps(payload))
        out = str(tmp_path / "p.csv")
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
        (lambda spec: spec.update(repetitions="2"), "'<' not supported"),
        (lambda spec: spec["datasets"][0]["split"].update(train_frac="x"), "not supported"),
        (lambda spec: spec.update(datasets=[5]), "'datasets' must be a list of objects"),
        (lambda spec: spec.update(datasets={"a": 1}), "'datasets' must be a list of objects"),
        (lambda spec: spec.update(algorithms=["dt"]), "'algorithms' must be a list"),
        (lambda spec: spec["algorithms"][2]["config"].update(t=3), "['t']"),
        (lambda spec: spec["algorithms"][0].update(config=[]), "must be an object"),
    ])
    def test_malformed_spec_exit_1(self, tmp_path, capsys, edit, message):
        spec_path = self._spec(tmp_path)
        spec = json.loads((tmp_path / "spec.json").read_text())
        edit(spec)
        write(tmp_path / "spec.json", json.dumps(spec))
        assert main(["benchmark", "--spec", spec_path, "--out", str(tmp_path / "r.json")]) == 1
        assert message in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["benchmark", "--spec", spec, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 algorithms
        assert lines[0].startswith("algorithm,")


class TestVerifyTheory:
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
