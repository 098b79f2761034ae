"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    SplitRule,
    plain_forest,
    split_gain,
    stacking_cost,
    strict_random_dataset,
    training_cost,
)
from costforest import (
    CostedDataset,
    costless_class_cost,
    normalized_cost,
    savings,
    total_cost,
)
from costforest.combiners import (
    GaConfig,
    StackingWeights,
    WeightVector,
    fit_stacking,
    majority_vote,
    weighted_vote,
)
from costforest.csdt import CsdtConfig, grow, prune
from costforest.data import SplitSpec, split
from costforest.ensemble import EcsdtConfig, predict, train
from costforest.evaluation import (
    AlgorithmSpec,
    ExperimentSpec,
    friedman_rank,
    per_best,
    run_experiment,
)
from costforest.inducers import InducerConfig, draw_samples
from costforest.sampling import rejection_sample
from costforest.theory import (
    TheoryParams,
    ensemble_correct_prob,
    mc_majority_correct,
    simulate_theorem1,
)
from test_csdt import exhaustive_best_cost


@contextmanager
def criterion(number, title, time_limit):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed <= time_limit else f"FAIL (runtime {elapsed:.1f}s > {time_limit}s)"
    print(f"ACCEPTANCE {number:02d} {title}: {status} [{elapsed:.1f}s]")
    assert elapsed <= time_limit


def two_example_fraud():
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 0])
    costs = np.tile([3.0, 3.0, 100.0, 0.0], (2, 1))
    return CostedDataset(X, y, costs)


def test_01_cost_model_exactness():
    with criterion(1, "cost-model exactness", 1.0):
        ds = two_example_fraud()
        assert savings(ds, np.array([1, 0])) == pytest.approx(0.5, abs=1e-12)
        assert normalized_cost(ds, np.array([1, 0])) == pytest.approx(3 / 103, abs=1e-12)
        cost_l, cls = costless_class_cost(ds)
        assert abs(cost_l - 6.0) <= 1e-12
        assert cls == 1


def test_02_tree_oracle_equivalence():
    with criterion(2, "tree oracle equivalence", 60.0):
        config = CsdtConfig(candidate_thresholds="exact_midpoints", max_depth=2, pruning=True)
        rng = np.random.default_rng(777)
        trials, matches = 200, 0
        for _ in range(trials):
            ds = strict_random_dataset(
                rng, int(rng.integers(4, 17)), int(rng.integers(1, 3)), binaryish=True
            )
            greedy = training_cost(grow(ds, config), ds)
            optimum = exhaustive_best_cost(ds, max_depth=2)
            assert greedy >= optimum - 1e-9  # exact lower bound, never beaten
            if greedy <= optimum + 1e-9:
                matches += 1
        assert matches >= 0.95 * trials


def test_03_gain_nonnegativity():
    with criterion(3, "split-gain nonnegativity", 10.0):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 10_000:
            ds = strict_random_dataset(rng, int(rng.integers(2, 40)), 2)
            for _ in range(40):
                f = int(rng.integers(0, ds.k))
                vals = ds.X[:, f]
                t = float(rng.uniform(vals.min(), vals.max()))
                left = vals <= t
                if left.all() or not left.any():
                    continue
                assert split_gain(ds, SplitRule(f, t)) >= -1e-9
                checked += 1
                if checked == 10_000:
                    break


def test_04_pruning_monotonicity():
    with criterion(4, "pruning monotonicity", 30.0):
        rng = np.random.default_rng(44)
        for _ in range(500):
            ds = strict_random_dataset(rng, int(rng.integers(20, 90)), 2)
            model = grow(ds, CsdtConfig(max_depth=6, pruning=False))
            before = training_cost(model, ds)
            after = training_cost(prune(model, ds), ds)
            assert after <= before + 1e-9


def test_05_binomial_correctness():
    with criterion(5, "majority-correctness closed form", 20.0):
        assert ensemble_correct_prob(3, 0.6) == pytest.approx(0.648, abs=1e-12)
        closed = ensemble_correct_prob(11, 0.7)
        est = mc_majority_correct(11, 0.7, 100_000, seed=50)
        se = math.sqrt(closed * (1 - closed) / 100_000)
        assert abs(est - closed) <= 3 * se
        for rho in [round(0.5 + 0.05 * i, 2) for i in range(10)]:
            for T in range(3, 102, 2):
                assert ensemble_correct_prob(T, rho) >= rho


def test_06_theorem1_monte_carlo():
    with criterion(6, "ensemble-savings inequality", 120.0):
        report = simulate_theorem1(
            TheoryParams(T=11, rho=0.7, n_examples=500, n_trials=1000, seed=60)
        )
        assert report.mean_diff > 0
        assert report.mean_diff > 3 * report.se_diff
        exact = simulate_theorem1(
            TheoryParams(T=11, rho=1.0, n_examples=500, n_trials=100, seed=61)
        )
        assert exact.mean_diff == 0.0


def test_07_combiner_identities():
    with criterion(7, "combiner identities", 60.0):
        rng = np.random.default_rng(70)
        for _ in range(10_000):
            T = int(rng.integers(1, 14))
            n = int(rng.integers(1, 24))
            votes = rng.integers(0, 2, size=(T, n))
            uniform = WeightVector(np.full(T, 1.0 / T))
            assert np.array_equal(weighted_vote(votes, uniform), majority_vote(votes))
        # argmax invariance: rescaling raw weights before normalization
        for _ in range(200):
            T = int(rng.integers(2, 10))
            raw = rng.uniform(0.01, 1.0, T)
            votes = rng.integers(0, 2, size=(T, 30))
            base = weighted_vote(votes, WeightVector(raw / raw.sum()))
            for scale in (2.0, 0.5, 4096.0, 3.0):
                scaled = raw * scale
                assert np.array_equal(
                    base, weighted_vote(votes, WeightVector(scaled / scaled.sum()))
                )


def test_08_stacking_objective():
    with criterion(8, "stacking objective", 60.0):
        rng = np.random.default_rng(80)
        for _ in range(1000):
            ds = strict_random_dataset(rng, int(rng.integers(1, 25)), 2)
            T = int(rng.integers(1, 6))
            votes = rng.integers(0, 2, size=(T, ds.n))
            at_zero = stacking_cost(ds, votes, StackingWeights(np.zeros(T), 0.0))
            c_tp, c_fp, c_fn, c_tn = ds.costs.T
            pos = ds.y == 1
            half_sum = float(
                0.5 * (c_tp[pos] + c_fn[pos]).sum()
                + 0.5 * (c_fp[~pos] + c_tn[~pos]).sum()
            )
            assert at_zero == pytest.approx(half_sum, abs=1e-9)
        ds = two_example_fraud()
        votes = np.array([[1, 0]])
        fitted = fit_stacking(ds, votes, GaConfig(seed=8))
        assert stacking_cost(ds, votes, fitted) <= 3.0 * 1.05  # 5% above the infimum
        assert (np.diff(fitted.trace) <= 0).all()


def _synthetic_cost_skewed(seed, n=4000, k=10, admin=3.0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.25).astype(int)
    X = rng.normal(size=(n, k))
    X[y == 1] += 1.2
    amounts = admin + rng.lognormal(mean=3.0, sigma=1.0, size=n)
    costs = np.column_stack(
        [np.full(n, admin), np.full(n, admin), amounts, np.zeros(n)]
    )
    return CostedDataset(X, y, costs)


def test_09_end_to_end_synthetic_benefit():
    with criterion(9, "end-to-end synthetic benefit", 300.0):
        tree_cfg = CsdtConfig(max_depth=5)
        results = {"ecsdt": [], "forest": [], "csdt": []}
        for seed in range(20):
            bundle = split(_synthetic_cost_skewed(seed), SplitSpec(seed=seed))
            ecsdt_cfg = EcsdtConfig(
                inducer=InducerConfig(kind="random_patches", T=50, seed=seed),
                tree=tree_cfg,
                combiner="wv",
            )
            model = train(bundle.train, ecsdt_cfg)
            results["ecsdt"].append(savings(bundle.test, predict(model, bundle.test)))
            forest = plain_forest(bundle.train, T=50, seed=seed, tree=tree_cfg)
            results["forest"].append(
                savings(bundle.test, forest.predict_many(bundle.test.X))
            )
            tree = grow(bundle.train, tree_cfg)  # pruning on by default
            results["csdt"].append(savings(bundle.test, tree.predict_many(bundle.test.X)))
        stats = {
            name: (np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals)))
            for name, vals in results.items()
        }
        for other in ("forest", "csdt"):
            gap = stats["ecsdt"][0] - stats[other][0]
            combined_se = math.hypot(stats["ecsdt"][1], stats[other][1])
            assert gap > combined_se, (
                f"ecsdt {stats['ecsdt']} vs {other} {stats[other]}"
            )


def test_10_sampling_statistics():
    with criterion(10, "sampling statistics", 30.0):
        rng = np.random.default_rng(100)
        n = 20
        fn = rng.uniform(1, 50, n)
        costs = np.column_stack([np.zeros(n), np.ones(n), fn, np.zeros(n)])
        ds = CostedDataset(np.arange(n, dtype=float).reshape(-1, 1),
                           np.ones(n, dtype=int), costs, strict=False)
        expect = fn / fn.max()
        counts = np.zeros(n)
        n_seeds = 10_000
        for seed in range(n_seeds):
            kept = rejection_sample(ds, seed=seed)
            counts[kept.X[:, 0].astype(int)] += 1
        freq = counts / n_seeds
        se = np.sqrt(expect * (1 - expect) / n_seeds)
        assert (np.abs(freq - expect) <= 3 * se + 1e-12).all()

        samples = draw_samples(1000, 2, InducerConfig(kind="bagging", T=200, seed=10))
        distinct = np.mean([np.unique(s.example_indices).size / 1000 for s in samples])
        assert abs(distinct - (1 - np.exp(-1))) <= 0.02


def test_11_evaluation_harness():
    with criterion(11, "evaluation harness", 120.0):
        rng = np.random.default_rng(110)
        for _ in range(100):
            n_algos = int(rng.integers(2, 9))
            n_ds = int(rng.integers(1, 7))
            table = rng.uniform(0.05, 0.95, size=(n_algos, n_ds))
            if rng.random() < 0.5:
                table[1, 0] = table[0, 0]  # force a tie
            ranks = friedman_rank(table)
            assert ranks.sum() == pytest.approx(n_algos * (n_algos + 1) / 2)
            # plant an algorithm that is best everywhere: its perBest is exactly 100
            table[0] = table.max(axis=0) + 0.01
            pb = per_best(table)
            assert pb[0] == 100.0

        datasets = []
        for i in range(2):
            ds = _synthetic_cost_skewed(200 + i, n=240, k=3)
            datasets.append((f"synth{i}", split(ds, SplitSpec(seed=i))))
        spec = ExperimentSpec(
            algorithms=[
                AlgorithmSpec("ci", "DT-t", "dt", "t", {"tree": {"max_depth": 3}}),
                AlgorithmSpec("cst", "CSDT-t", "csdt", "t", {"tree": {"max_depth": 3}}),
                AlgorithmSpec(
                    "ecsdt", "CSRP-wv-t", "ecsdt", "t",
                    {"T": 5, "inducer": "random_patches", "combiner": "wv",
                     "tree": {"max_depth": 3}},
                ),
            ],
            datasets=datasets,
            repetitions=2,
            seed=11,
        )
        first = run_experiment(spec).to_json()
        second = run_experiment(spec).to_json()
        assert first == second  # byte-reproducible under a fixed seed


KAGGLE_DIR = os.environ.get("COSTFOREST_SMOKE_DIR", "")


@pytest.mark.skipif(
    not (KAGGLE_DIR and os.path.isdir(KAGGLE_DIR)),
    reason="optional smoke test: set COSTFOREST_SMOKE_DIR to a directory with "
    "credit.csv and marketing.csv (public Kaggle exports with user-supplied "
    "cost parameters)",
)
def test_12_optional_public_data_smoke():
    with criterion(12, "public-data smoke", 1800.0):
        from costforest.data import CsvSchema, load_csv

        results = {}
        for name in ("credit", "marketing"):
            path = os.path.join(KAGGLE_DIR, f"{name}.csv")
            ds = load_csv(path, CsvSchema(strict=False))
            bundle = split(ds, SplitSpec(seed=12))
            tree = grow(bundle.train, CsdtConfig(max_depth=6))
            csdt_sav = savings(bundle.test, tree.predict_many(bundle.test.X))
            cfg = EcsdtConfig(
                inducer=InducerConfig(kind="random_patches", T=20, seed=12),
                tree=CsdtConfig(max_depth=6),
                combiner="wv",
            )
            model = train(bundle.train, cfg)
            ecsdt_sav = savings(bundle.test, predict(model, bundle.test))
            results[name] = (ecsdt_sav, csdt_sav)
        assert any(e >= c for e, c in results.values())
