import math
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from conftest import gaussian_cost_dataset
from costforest import (
    ConfigError, ValidationError, baselines, csdt, ensemble, evaluation, sampling, savings,
)
from costforest.baselines import LrConfig, bmr_predict_dataset, train_logistic
from costforest.csdt import CsdtConfig, grow, leaf_proba, predict_proba_many, route
from costforest.data import SplitSpec, split
from costforest.ensemble import EcsdtConfig
from costforest.evaluation import (
    AlgorithmSpec,
    ExperimentSpec,
    _fit_groups,
    _fit_predict,
    _learner_config,
    f1_score,
    friedman_rank,
    per_best,
    run_experiment,
)
from costforest.inducers import InducerConfig
from costforest.rng import STREAM_CELLS, mix64
from costforest.sampling import SAMPLING_CODES


class TestF1:
    def test_perfect(self):
        y = np.array([1, 0, 1])
        assert f1_score(y, y) == 1.0

    def test_all_negative_predictions(self):
        assert f1_score(np.array([1, 0, 1]), np.zeros(3, dtype=int)) == 0.0

    def test_hand_counts(self):
        # TP=2, FP=1, FN=1 -> precision = recall = 2/3
        y = np.array([1, 1, 1, 0, 0])
        p = np.array([1, 1, 0, 1, 0])
        assert f1_score(y, p) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            f1_score(np.array([1, 0]), np.array([1]))


class TestFriedman:
    def test_strict_order(self):
        table = np.array([[0.9, 0.8], [0.1, 0.2]])
        assert friedman_rank(table).tolist() == [1.0, 2.0]

    def test_tie_averaged(self):
        table = np.array([[0.5, 0.9], [0.5, 0.1]])
        assert friedman_rank(table).tolist() == [1.25, 1.75]

    def test_three_algorithms_two_datasets(self):
        # orders (A,B,C) and (B,A,C)
        table = np.array([[0.9, 0.7], [0.8, 0.8], [0.1, 0.1]])
        assert friedman_rank(table).tolist() == [1.5, 1.5, 3.0]

    def test_column_sum_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_algos = int(rng.integers(2, 10))
            n_ds = int(rng.integers(1, 8))
            table = rng.normal(size=(n_algos, n_ds))
            # inject ties sometimes
            if rng.random() < 0.5 and n_algos >= 2:
                table[1, 0] = table[0, 0]
            ranks = friedman_rank(table)
            assert ranks.sum() * n_ds == pytest.approx(
                n_ds * n_algos * (n_algos + 1) / 2
            )

    def test_missing_cell_rejected(self):
        with pytest.raises(ValidationError):
            friedman_rank(np.array([[0.5, np.nan], [0.2, 0.1]]))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
        # a small pool makes ties common; -0.0 and 0.0 must tie too
        elements=st.one_of(
            st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.0, 5e-324]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ))
    def test_matches_scipy_rankdata_bitwise(self, table):
        oracle = np.column_stack(
            [rankdata(-table[:, d], method="average") for d in range(table.shape[1])]
        ).mean(axis=1)
        assert friedman_rank(table).tobytes() == oracle.tobytes()


class TestPerBest:
    def test_best_everywhere_is_100(self):
        table = np.array([[0.5, 0.8], [0.25, 0.4]])
        got = per_best(table)
        assert got[0] == 100.0
        assert got[1] == 50.0

    def test_hand_mix(self):
        table = np.array([[0.5, 0.8], [0.25, 0.8]])
        assert per_best(table).tolist() == [pytest.approx(100.0), pytest.approx(75.0)]

    def test_non_positive_best_excluded_with_warning(self):
        warnings = []
        table = np.array([[0.5, -0.2], [0.25, -0.1]])
        got = per_best(table, warn=warnings)
        assert len(warnings) == 1
        assert got.tolist() == [100.0, 50.0]

    def test_all_non_positive_rejected(self):
        with pytest.raises(ValidationError):
            per_best(np.array([[-0.5], [-1.0]]))


def tiny_bundles(seed=0):
    rng = np.random.default_rng(seed)
    bundles = []
    for i in range(2):
        ds = gaussian_cost_dataset(rng, 240, k=3, shift=1.5)
        bundles.append((f"synth{i}", split(ds, SplitSpec(seed=seed + i))))
    return bundles


def tiny_algorithms():
    fast_tree = {"tree": {"max_depth": 3}}
    return [
        AlgorithmSpec("ci", "DT-t", "dt", "t", fast_tree),
        AlgorithmSpec("cst", "CSDT-t", "csdt", "t", fast_tree),
        AlgorithmSpec(
            "ecsdt", "CSRP-wv-t", "ecsdt", "t",
            {"T": 5, "inducer": "random_patches", "combiner": "wv", **fast_tree},
        ),
    ]


class TestRunExperiment:
    def test_shape_and_determinism(self):
        spec = ExperimentSpec(tiny_algorithms(), tiny_bundles(), repetitions=2, seed=5)
        report = run_experiment(spec)
        assert len(report.cells) == 6
        again = run_experiment(spec)
        assert report.to_json() == again.to_json()
        assert report.to_csv() == again.to_csv()

    def test_single_repetition_zero_std(self):
        spec = ExperimentSpec(tiny_algorithms()[:1], tiny_bundles()[:1], repetitions=1, seed=2)
        report = run_experiment(spec)
        cell = next(iter(report.cells.values()))
        assert cell.savings_std == 0.0
        assert cell.f1_std == 0.0

    def test_deterministic_algorithm_fixed_sample_zero_std(self):
        # sampling "t" plus a deterministic tree: every repetition identical
        spec = ExperimentSpec(
            [AlgorithmSpec("cst", "CSDT-t", "csdt", "t", {"tree": {"max_depth": 3}})],
            tiny_bundles()[:1],
            repetitions=3,
            seed=7,
        )
        cell = next(iter(run_experiment(spec).cells.values()))
        assert cell.savings_std == 0.0

    def test_failed_cell_recorded_report_emitted(self):
        bad = AlgorithmSpec("ci", "LR-broken", "lr", "t", {"lr": {"learning_rate": math.inf}})
        spec = ExperimentSpec(
            [bad, *tiny_algorithms()[:1]], tiny_bundles()[:1], repetitions=1, seed=3
        )
        report = run_experiment(spec)
        failed = [c for c in report.cells.values() if c.failed]
        assert len(failed) == 1
        assert report.friedman is None
        assert any("failed" in w for w in report.warnings)

    def test_sampling_codes_run(self):
        bundles = tiny_bundles()[:1]
        for code in ("t", "u", "r", "o"):
            spec = ExperimentSpec(
                [AlgorithmSpec("cps", f"DT-{code}", "dt", code, {"tree": {"max_depth": 3}})],
                bundles, repetitions=1, seed=4,
            )
            report = run_experiment(spec)
            assert not next(iter(report.cells.values())).failed

    def test_jobs_do_not_change_results(self):
        algorithms = tiny_algorithms()[:2] + ci_bmr_pairs()
        spec = ExperimentSpec(algorithms, tiny_bundles()[:1], repetitions=2, seed=9)
        sequential = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert not any(cell.failed for cell in sequential.cells.values())
        assert sequential.to_json() == parallel.to_json()

    @pytest.mark.parametrize("datasets, jobs, pools", [
        (1, 3, []), (2, 8, [1]), (2, 1, []), (2, 2, [1]),
    ])
    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch, datasets, jobs, pools):
        # one fit group per dataset here, so one task per dataset; the
        # caller computes too, so a pool has one worker fewer than the jobs
        started, submitted = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def submit(self, fn, *args):
                submitted.extend(args)
                return super().submit(fn, *args)

        monkeypatch.setattr("costforest.evaluation.ProcessPoolExecutor", RecordingPool)
        spec = ExperimentSpec(tiny_algorithms()[:1], tiny_bundles()[:datasets],
                              repetitions=1, seed=9)
        report = run_experiment(spec, jobs=jobs)
        assert started == pools
        assert submitted == (list(range(datasets)) if pools else [])  # indices, not tasks
        assert report.to_json() == run_experiment(spec, jobs=1).to_json()

    def test_pool_size_capped_for_a_large_jobs(self, monkeypatch):
        started = []

        class PendingPool:
            """A pool that never starts a task, so the caller runs them all."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Future()

        monkeypatch.setattr("costforest.evaluation.ProcessPoolExecutor", PendingPool)
        spec = ExperimentSpec(tiny_algorithms(), tiny_bundles(), repetitions=1, seed=9)
        report = run_experiment(spec, jobs=10**6)
        assert started == [5]  # six tasks, one of them the caller's
        assert report.to_json() == run_experiment(spec, jobs=1).to_json()

    def test_every_task_runs_once_and_the_caller_computes(self, monkeypatch, tmp_path):
        # a forked worker inherits the patched _run_cell: each run appends
        # its process id and task to one log
        log = tmp_path / "runs.log"
        run_cell = evaluation._run_cell

        def logged(task):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {task[0]} {task[2]}\n")
            return run_cell(task)

        monkeypatch.setattr(evaluation, "_run_cell", logged)
        spec = ExperimentSpec(tiny_algorithms(), tiny_bundles(), repetitions=1, seed=9)
        report = run_experiment(spec, jobs=2)
        runs = [line.split(" ", 1) for line in log.read_text().splitlines()]
        tasks = sorted(task for _, task in runs)
        assert len(tasks) == 6 and len(set(tasks)) == 6
        assert str(os.getpid()) in {pid for pid, _ in runs}
        log.unlink()
        assert report.to_json() == run_experiment(spec, jobs=1).to_json()

    def test_no_process_left_after_a_pool(self):
        spec = ExperimentSpec(tiny_algorithms()[:2], tiny_bundles(), repetitions=1, seed=9)
        run_experiment(spec, jobs=2)
        assert multiprocessing.active_children() == []

    def test_no_process_left_after_the_caller_is_interrupted(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        caller, run_cell = os.getpid(), evaluation._run_cell

        def interrupted_in_caller(task):
            if os.getpid() == caller:
                raise Interrupt
            return run_cell(task)

        monkeypatch.setattr(evaluation, "_run_cell", interrupted_in_caller)
        spec = ExperimentSpec(tiny_algorithms(), tiny_bundles(), repetitions=1, seed=9)
        with pytest.raises(Interrupt):
            run_experiment(spec, jobs=2)
        assert multiprocessing.active_children() == []

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            AlgorithmSpec("nope", "x", "dt").validate()
        with pytest.raises(ConfigError):
            ExperimentSpec([], [], repetitions=1).validate()
        with pytest.raises(ConfigError):
            ExperimentSpec(tiny_algorithms(), tiny_bundles(), repetitions=0).validate()

    @pytest.mark.parametrize("learner, key", [
        ("dt", "T"), ("lr", "tree"), ("rf", "lr"), ("csdt", "combiner"), ("ecsdt", "t"),
    ])
    def test_config_key_the_learner_never_reads_rejected(self, learner, key):
        with pytest.raises(ConfigError, match=repr(key)):
            AlgorithmSpec("ci", "x", learner, config={key: 3}).validate()

    @pytest.mark.parametrize("learner, key, nested", [
        ("dt", "tree", {"depht": 3}),
        ("lr", "lr", {"n_iters": 5}),
        ("ecsdt", "ga", {"populaton": 8}),
        ("ecsdt", "tree", 3),
        ("dt", "tree", {"max_depth": "3"}),
        ("lr", "lr", {"n_iter": "5"}),
        ("ecsdt", "ga", {"population": "8"}),
    ])
    def test_nested_config_typo_rejected(self, learner, key, nested):
        # the key itself ('tree') or a dotted key inside it ('tree.max_depth')
        with pytest.raises(ConfigError, match=f"'{key}[.']"):
            AlgorithmSpec("ci", "x", learner, config={key: nested}).validate()

    @pytest.mark.parametrize("key, value", [("n_examples", 0), ("n_examples", -5),
                                            ("n_features", 0)])
    def test_count_below_one_rejected(self, key, value):
        # rejected up front: at run time every cell of the algorithm would fail
        with pytest.raises(ConfigError, match=f"config of 'x': {key} must be >= 1, got {value}"):
            AlgorithmSpec("ci", "x", "ecsdt", config={key: value}).validate()

    def test_nested_config_fields_accepted(self):
        config = {"tree": {"max_depth": 3}, "ga": {"population": 8, "generations": 2}}
        AlgorithmSpec("ecsdt", "x", "ecsdt", config=config).validate()
        AlgorithmSpec("ci", "x", "lr", config={"lr": {"n_iter": 5, "l2": 0.0}}).validate()


def forest_proba(forest, X):
    """Mean leaf frequency of a forest's trees, each routed on its own."""
    probs = np.zeros(X.shape[0])
    for tree in forest.trees:
        probs += leaf_proba(tree, route(tree, X))
    return probs / len(forest.trees)


class TestBmrCells:
    @pytest.mark.parametrize("learner", ["csdt", "ecsdt"])
    def test_learner_without_probabilities_rejected(self, learner):
        with pytest.raises(ConfigError, match=f"'bmr' needs a learner .* got '{learner}'"):
            AlgorithmSpec("bmr", "x", learner).validate()

    @pytest.mark.parametrize("learner, code", [
        ("dt", "t"), ("dt", "u"), ("lr", "t"), ("lr", "o"), ("rf", "t"), ("rf", "r"),
    ])
    def test_predictions_equal_each_learners_probability_composition(self, learner, code):
        # each learner's probabilities composed by hand (gini tree leaf
        # frequency, logistic sigmoid, forest mean leaf frequency), then BMR
        bundle = tiny_bundles(3)[0][1]
        test, seed = bundle.test, 12345
        train = bundle.train
        if SAMPLING_CODES[code] is not None:
            train = sampling.resample(train, sampling.SamplingSpec(SAMPLING_CODES[code], seed))
        tree = CsdtConfig(max_depth=4, impurity="gini")
        if learner == "dt":
            p = predict_proba_many(grow(train, tree), test.X)
        elif learner == "lr":
            p = train_logistic(train, LrConfig(n_iter=50)).predict_proba(test.X)
        else:
            inducer = InducerConfig(kind="random_forest", T=5, seed=seed)
            p = forest_proba(ensemble.train(train, EcsdtConfig(inducer, tree, "mv")), test.X)
        expected = bmr_predict_dataset(p, test)
        config = {"lr": {"n_iter": 50}} if learner == "lr" else {"tree": {"max_depth": 4}}
        if learner == "rf":
            config["T"] = 5
        algo = AlgorithmSpec("bmr", "x", learner, code, config)
        [got] = _fit_predict([algo], bundle.train, test, seed)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def ci_bmr_pairs():
    """ci and bmr over one forest config, and over one logistic config."""
    forest = {"T": 5, "tree": {"max_depth": 3}}
    lr = {"lr": {"n_iter": 50}}
    return [
        AlgorithmSpec("ci", "RF-t", "rf", "t", forest),
        AlgorithmSpec("ci", "LR-t", "lr", "t", lr),
        AlgorithmSpec("bmr", "BMR-RF-t", "rf", "t", forest),
        AlgorithmSpec("bmr", "BMR-LR-t", "lr", "t", lr),
    ]


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFitGroups:
    def test_decision_layers_of_one_learner_share_each_fit(self, monkeypatch):
        forests = count_calls(monkeypatch, ensemble, "train")
        logistics = count_calls(monkeypatch, baselines, "train_logistic")
        spec = ExperimentSpec(ci_bmr_pairs(), tiny_bundles(), repetitions=2, seed=6)
        report = run_experiment(spec, jobs=1)
        assert not any(cell.failed for cell in report.cells.values())
        # 2 datasets x 2 repetitions, once per group
        assert len(forests) == 4 and len(logistics) == 4

    def test_groups_key_on_learner_config_and_sampling(self):
        forest = {"T": 5}
        algorithms = [
            AlgorithmSpec("ci", "a", "rf", "t", forest),
            AlgorithmSpec("ci", "b", "rf", "u", forest),  # other sampling
            AlgorithmSpec("bmr", "c", "rf", "t", {"T": 6}),  # other config
            AlgorithmSpec("bmr", "d", "rf", "t", forest),
            AlgorithmSpec("ecsdt", "e", "ecsdt", "t", {"n_examples": 1}),
            AlgorithmSpec("ecsdt", "f", "ecsdt", "t", {"n_examples": 1.0}),  # a fraction
            AlgorithmSpec("cps", "g", "rf", "u", forest),
        ]
        assert _fit_groups(algorithms) == [[0, 3], [1, 6], [2], [4], [5]]

    def test_bmr_cell_reads_the_forest_of_the_ci_cell(self):
        algorithms = ci_bmr_pairs()
        (name, bundle), seed = tiny_bundles(4)[0], 21
        spec = ExperimentSpec(algorithms, [(name, bundle)], repetitions=1, seed=seed)
        report = run_experiment(spec)
        # the group's seed is keyed by its first algorithm, RF-t at index 0
        config = _learner_config(algorithms[0], mix64(seed, STREAM_CELLS, 0, 0, 0))
        forest = ensemble.train(bundle.train, config)
        test = bundle.test
        for algo, preds in [
            ("RF-t", forest.predict_many(test.X)),
            ("BMR-RF-t", bmr_predict_dataset(forest_proba(forest, test.X), test)),
        ]:
            cell = report.cells[(algo, name)]
            assert cell.savings_mean == savings(test, preds)
            assert cell.f1_mean == f1_score(test.y, preds)

    def test_forest_group_routes_the_test_set_once(self, monkeypatch):
        # the ci and bmr members read their votes and probabilities from one
        # pass of the T trees over the test rows
        routed = count_calls(monkeypatch, csdt, "route")
        (_, bundle), T = tiny_bundles(4)[0], 5
        train, test = bundle.train, bundle.test
        assert train.n != test.n
        algorithms = [AlgorithmSpec("ci", "RF-t", "rf", "t", {"T": T}),
                      AlgorithmSpec("bmr", "BMR-RF-t", "rf", "t", {"T": T})]
        ci, bmr = _fit_predict(algorithms, train, test, seed=21)
        assert sum(X.shape[0] == test.n for _, X in routed) == T
        forest = ensemble.train(train, _learner_config(algorithms[0], 21))
        assert ci.tobytes() == forest.predict_many(test.X).tobytes()
        assert bmr.tobytes() == bmr_predict_dataset(forest.predict_proba(test.X), test).tobytes()

    def test_appending_algorithms_keeps_earlier_cells(self):
        # guard: a cell's result depends only on the algorithms before it in its group
        algorithms = ci_bmr_pairs()
        extra = [
            AlgorithmSpec("ci", "RF-t-again", "rf", "t", {"T": 5, "tree": {"max_depth": 3}}),
            AlgorithmSpec("cps", "LR-u", "lr", "u", {"lr": {"n_iter": 50}}),
            *tiny_algorithms(),
        ]
        bundles = tiny_bundles()
        short = run_experiment(ExperimentSpec(algorithms, bundles, repetitions=2, seed=8))
        long = run_experiment(ExperimentSpec(algorithms + extra, bundles, repetitions=2, seed=8))
        for key, cell in short.cells.items():
            assert vars(long.cells[key]) == vars(cell)

    def test_failed_fit_fails_every_cell_of_its_group(self, monkeypatch):
        logistics = count_calls(monkeypatch, baselines, "train_logistic")
        diverging = {"lr": {"learning_rate": math.inf}}
        algorithms = [
            AlgorithmSpec("ci", "LR-broken", "lr", "t", diverging),
            *tiny_algorithms()[:1],
            AlgorithmSpec("bmr", "BMR-LR-broken", "lr", "t", diverging),
        ]
        spec = ExperimentSpec(algorithms, tiny_bundles()[:1], repetitions=2, seed=3)
        spec.validate()  # an infinite step scale fails at run time, not here
        report = run_experiment(spec)
        assert len(logistics) == 1  # the group's one fit, which raised
        broken = [report.cells[(a, "synth0")] for a in ("LR-broken", "BMR-LR-broken")]
        for cell in broken:
            assert cell.failed and "diverged" in cell.error
        assert broken[0].error == broken[1].error
        assert not report.cells[("DT-t", "synth0")].failed
        assert report.friedman is None
