"""The benchmark's four workloads: seeded inputs, the timed call, output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come from the workload seed
alone, through the domain cost builders in ``costforest.cost_builders``; the
library sees only the generated arrays and CSV files.

- fit-patches: one ``ensemble.train`` per operation, random patches + savings
  weighted voting, default tree config. Loads csdt growth and pruning.
- fit-stacking: one ``ensemble.train`` per operation, bagged depth-3 trees +
  GA-fitted stacking on relaxed churn costs. Loads the combiners.
- score: one ``ensemble.predict`` per operation on a log-uniform batch of a
  held-out pool, with a model trained, saved and loaded during set-up. Skips
  training entirely.
- grid: one ``evaluation.run_experiment`` per operation over CSV-loaded
  datasets. The only workload that reaches data, sampling, baselines,
  evaluation, the exact-midpoint split search and the process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from costforest import cost_builders, data, ensemble, evaluation
from costforest.combiners import GaConfig
from costforest.cost_model import CostedDataset, savings
from costforest.csdt import CsdtConfig
from costforest.ensemble import EcsdtConfig
from costforest.evaluation import AlgorithmSpec, ExperimentSpec
from costforest.inducers import InducerConfig

# Independent numpy streams per input, so one input's size never shifts another's draws.
FRAUD_STREAM, CHURN_STREAM, BATCH_STREAM = 1, 2, 3


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def fraud_dataset(seed: int, n: int, admin_cost: float = 10.0) -> CostedDataset:
    """Card transactions with fraud costs (c_fp = admin cost, c_fn = amount).

    Four latent risk factors are each observed through three noisy feature
    copies, so any random half of the features still carries most of the
    signal, as random patches assumes. Amounts are lognormal above the admin
    cost, which keeps every row reasonable (c_fn > c_tp).
    """
    rng = np.random.default_rng([seed, FRAUD_STREAM])
    z = rng.normal(size=(n, 4))
    amount = admin_cost + rng.lognormal(4.0, 0.4, n)
    risk = (
        4.0 * (z[:, 0] > 0.8) + 3.0 * (z[:, 1] > 1.0) + 2.0 * z[:, 2]
        + 1.5 * (z[:, 3] < -0.5) + (np.log(amount - admin_cost) - 4.0) - 6.5
    )
    y = (rng.random(n) < _sigmoid(3.0 * risk)).astype(np.int64)
    views = np.repeat(z, 3, axis=1) + 0.15 * rng.normal(size=(n, 12))
    X = np.column_stack([views, rng.normal(size=(n, 2)), np.log(amount)])
    costs = cost_builders.build_fraud_costs(
        amount, cost_builders.FraudCostParams(admin_cost=admin_cost)
    )
    return CostedDataset(X, y, costs)


def churn_dataset(seed: int, n: int) -> CostedDataset:
    """Telecom customers with relaxed churn costs; all four cost columns vary.

    Features mix low-cardinality columns (plan, services, contract, support
    calls) with continuous ones. A low offer-acceptance probability makes
    c_tp exceed c_fn on about a tenth of the rows, so the dataset is only
    valid in relaxed mode.
    """
    rng = np.random.default_rng([seed, CHURN_STREAM])
    plan = rng.integers(0, 4, n)
    services = rng.integers(0, 6, n)
    contract = rng.integers(0, 3, n)
    calls = rng.poisson(1.5, n)
    tenure = rng.gamma(2.0, 12.0, n)
    charges = np.maximum(rng.normal(60.0, 20.0, n), 10.0)
    usage = rng.normal(size=n)
    risk = (
        1.2 * (contract == 0) - 0.8 * (contract == 2) - 0.04 * tenure
        + 0.02 * (charges - 60.0) + 0.6 * (calls >= 3) - 0.3 * services
        + 0.5 * (plan == 3) + 0.5 * usage
    )
    y = (rng.random(n) < _sigmoid(3.0 * risk - 1.0)).astype(np.int64)
    gamma = rng.beta(1.0, 2.0, n)
    offer = 0.5 * charges + rng.uniform(10.0, 40.0, n)
    clv = charges * rng.uniform(3.0, 15.0, n)
    costs = cost_builders.build_churn_costs(
        gamma, offer, clv, cost_builders.ChurnCostParams(admin_cost=20.0), strict=False
    )
    X = np.column_stack([plan, services, contract, calls, tenure, charges, usage,
                         rng.normal(size=n)])
    return CostedDataset(X, y, costs, strict=False)


def _split(dataset: CostedDataset, n_train: int, n_test: int, seed: int) -> data.DatasetBundle:
    """Split off exactly-sized train and test parts; the small rest is validation."""
    n = dataset.n
    spec = data.SplitSpec(
        train_frac=n_train / n, valid_frac=(n - n_train - n_test) / n,
        test_frac=n_test / n, seed=seed,
    )
    return data.split(dataset, spec)


class Workload:
    """One benchmark workload. Subclasses fill in the hooks below.

    ``setup`` builds the inputs (timed as set-up), ``verify_setup`` makes the
    reference outputs the checks compare against, ``prepare`` picks operation
    i's argument, ``call`` is the one timed library call, ``check`` returns the
    failed checks of its output.
    """

    name = ""
    # Set-ups timed before the first operation, and after each operation.
    # Spreading them over the run lets their median see the same drift in
    # machine speed as the operations' median does.
    setup_repeats = 1
    setups_per_op = 10
    min_ops = 3

    def __init__(self, tiny: bool = False, traced: bool = False):
        self.tiny = tiny
        self.traced = traced

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def verify_setup(self, state) -> list[str]:
        return []

    def prepare(self, state, i: int):
        return None

    def call(self, state, arg):
        raise NotImplementedError

    def rows(self, state, arg) -> int:
        """Example rows the operation is given."""
        raise NotImplementedError

    def units(self, out) -> int:
        """Operations that one call stands for."""
        return 1

    def check(self, state, i: int, arg, out) -> list[str]:
        return []

    def test_savings(self, state) -> float:
        raise NotImplementedError


@dataclass
class FitState:
    train: CostedDataset
    test: CostedDataset
    config: EcsdtConfig
    reference: np.ndarray | None = None
    savings: float = float("nan")


class _Fit(Workload):
    """One ``ensemble.train`` per operation; the same fit repeated."""

    def call(self, state: FitState, arg):
        return ensemble.train(state.train, state.config)

    def rows(self, state: FitState, arg) -> int:
        return state.train.n

    def check(self, state: FitState, i, arg, out) -> list[str]:
        preds = ensemble.predict(out, state.test)
        if state.reference is None:
            state.reference = preds
            state.savings = savings(state.test, preds)
            if not state.savings > 0:
                return [f"test savings {state.savings!r} not positive"]
            return []
        if not np.array_equal(preds, state.reference):
            return ["predictions differ from the first fit with the same seed"]
        return []

    def test_savings(self, state: FitState) -> float:
        return state.savings


class FitPatches(_Fit):
    name = "fit-patches"

    def setup(self, seed, workdir) -> FitState:
        n_train, n_test, T = (600, 600, 4) if self.tiny else (4000, 12000, 20)
        bundle = _split(fraud_dataset(seed, n_train + n_test + 200), n_train, n_test, seed)
        config = EcsdtConfig(
            inducer=InducerConfig(kind="random_patches", T=T), combiner="wv"
        )
        return FitState(bundle.train, bundle.test, config)


class FitStacking(_Fit):
    name = "fit-stacking"

    def setup(self, seed, workdir) -> FitState:
        n_train, n_test, T = (300, 300, 5) if self.tiny else (3000, 12000, 100)
        bundle = _split(churn_dataset(seed, n_train + n_test + 200), n_train, n_test, seed)
        config = EcsdtConfig(
            inducer=InducerConfig(kind="bagging", T=T),
            tree=CsdtConfig(max_depth=3),
            combiner="stacking",
            ga=GaConfig(population=8, generations=10) if self.tiny else GaConfig(),
        )
        return FitState(bundle.train, bundle.test, config)

    def check(self, state, i, arg, out) -> list[str]:
        failures = super().check(state, i, arg, out)
        if (np.diff(out.stacking.trace) > 0).any():
            failures.append("stacking GA trace increases")
        return failures


@dataclass
class ScoreState:
    pool: CostedDataset
    trained: ensemble.EnsembleModel
    model: ensemble.EnsembleModel
    seed: int
    reference: np.ndarray | None = None
    savings: float = float("nan")


class Score(Workload):
    """One ``ensemble.predict`` per operation on a slice of the held-out pool."""

    name = "score"
    setup_repeats = 3  # each trains a forest, so none between operations
    setups_per_op = 0

    def __init__(self, tiny: bool = False, traced: bool = False):
        super().__init__(tiny, traced)
        self.max_batch = 64 if tiny else 1024
        # >= 1000 calls leave >= 10 samples beyond p99
        self.min_ops = 20 if tiny else 1000

    def setup(self, seed, workdir) -> ScoreState:
        n_train, n_pool, T = (300, 300, 4) if self.tiny else (4000, 8000, 20)
        bundle = _split(fraud_dataset(seed, n_train + n_pool + 200), n_train, n_pool, seed)
        trained = ensemble.train(
            bundle.train,
            EcsdtConfig(inducer=InducerConfig(kind="random_patches", T=T), combiner="wv"),
        )
        path = workdir / "score-model.json"
        ensemble.save(trained, path)
        return ScoreState(bundle.test, trained, ensemble.load(path), seed)

    def verify_setup(self, state: ScoreState) -> list[str]:
        state.reference = ensemble.predict(state.model, state.pool)
        state.savings = savings(state.pool, state.reference)
        if not np.array_equal(ensemble.predict(state.trained, state.pool), state.reference):
            return ["save/load round trip changed predictions"]
        return []

    def prepare(self, state: ScoreState, i: int):
        rng = np.random.default_rng([state.seed, BATCH_STREAM, i])
        size = min(self.max_batch, int(math.exp(rng.uniform(0.0, math.log(self.max_batch + 1)))))
        start = int(rng.integers(0, state.pool.n - size + 1))
        return start, state.pool.X[start:start + size]

    def call(self, state: ScoreState, arg):
        return ensemble.predict(state.model, arg[1])

    def rows(self, state, arg) -> int:
        return arg[1].shape[0]

    def check(self, state: ScoreState, i, arg, out) -> list[str]:
        start, X = arg
        if not np.array_equal(out, state.reference[start:start + X.shape[0]]):
            return [f"batch {i} differs from the full-pool reference"]
        return []

    def test_savings(self, state: ScoreState) -> float:
        return state.savings


GRID_ALGORITHMS = (
    AlgorithmSpec("ci", "ci-dt", "dt"),
    AlgorithmSpec("ci", "ci-lr", "lr"),
    AlgorithmSpec("ci", "ci-rf", "rf", config={"T": 10}),
    AlgorithmSpec("cps", "cps-lr-u", "lr", "u"),
    AlgorithmSpec("cps", "cps-lr-r", "lr", "r"),
    AlgorithmSpec("cps", "cps-lr-o", "lr", "o"),
    AlgorithmSpec("bmr", "bmr-lr", "lr"),
    AlgorithmSpec("bmr", "bmr-rf", "rf", config={"T": 10}),
    AlgorithmSpec("cst", "cst-csdt", "csdt",
                  config={"tree": {"candidate_thresholds": "exact_midpoints"}}),
    AlgorithmSpec("ecsdt", "ecsdt-rp-wv", "ecsdt",
                  config={"inducer": "random_patches", "T": 10, "combiner": "wv"}),
)


def _same_cells(a: evaluation.EvaluationReport, b: evaluation.EvaluationReport) -> bool:
    """Equal cell scores (a failed cell's NaN equals NaN) and failure flags."""
    keys = sorted(a.cells)
    if keys != sorted(b.cells):
        return False
    scores = [[(c.savings_mean, c.f1_mean, c.failed) for c in (r.cells[k] for k in keys)]
              for r in (a, b)]
    return np.array_equal(np.array(scores[0], float), np.array(scores[1], float), equal_nan=True)


@dataclass
class GridState:
    spec: ExperimentSpec
    first: evaluation.EvaluationReport | None = None


class Grid(Workload):
    """One ``evaluation.run_experiment`` per call; each grid cell is one operation."""

    name = "grid"
    setups_per_op = 2

    def setup(self, seed, workdir) -> GridState:
        sizes = ((400, 10.0), (300, 5.0)) if self.tiny else ((3200, 10.0), (2400, 5.0))
        datasets = []
        for d, (n, admin_cost) in enumerate(sizes):
            ds = fraud_dataset(seed * 2 + d + 1000, n, admin_cost)
            path = workdir / f"grid-{d}.csv"
            columns = [f"x{j}" for j in range(ds.k)] + ["y", *data.DEFAULT_COST_COLS]
            np.savetxt(path, np.column_stack([ds.X, ds.y, ds.costs]), fmt="%.17g",
                       delimiter=",", header=",".join(columns), comments="")
            bundle = data.split(data.load_csv(path), data.SplitSpec(seed=seed))
            datasets.append((f"fraud-{d}", bundle))
        algorithms = list(GRID_ALGORITHMS)
        if self.tiny:
            algorithms = [
                AlgorithmSpec(a.family, a.name, a.learner, a.sampling,
                              {**a.config, "T": 3} if "T" in a.config else a.config)
                for a in algorithms
            ]
        spec = ExperimentSpec(algorithms, datasets, repetitions=1 if self.tiny else 2, seed=seed)
        return GridState(spec)

    @property
    def jobs(self) -> int:
        # spans recorded in pool workers never reach the tracer
        return 1 if self.traced else 2

    def call(self, state: GridState, arg):
        return evaluation.run_experiment(state.spec, jobs=self.jobs)

    def rows(self, state: GridState, arg) -> int:
        return sum(b.train.n + b.valid.n + b.test.n for _, b in state.spec.datasets)

    def units(self, out) -> int:
        return len(out.cells)

    def check(self, state: GridState, i, arg, out) -> list[str]:
        failures = [
            f"cell {a}::{d} failed: {c.error}"
            for (a, d), c in out.cells.items() if c.failed
        ]
        n_algos = len(out.algorithms)
        if out.friedman is None:
            failures.append("Friedman ranks missing")
        elif abs(sum(out.friedman.values()) - n_algos * (n_algos + 1) / 2) > 1e-9:
            failures.append(f"Friedman ranks sum to {sum(out.friedman.values())!r}")
        if state.first is None:
            state.first = out
        elif not _same_cells(out, state.first):
            failures.append("cells differ from the first run with the same seed")
        return failures

    def test_savings(self, state: GridState) -> float:
        return float(np.mean([c.savings_mean for c in state.first.cells.values()]))


WORKLOADS = {w.name: w for w in (FitPatches, FitStacking, Score, Grid)}
