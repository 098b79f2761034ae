"""Benchmark harness: savings/F1 statistics, Friedman ranks, perBest.

An experiment grid is algorithms x datasets x repetitions. Each repetition
re-draws the algorithm's training resample and learner seed while the
train/valid/test split stays fixed, then scores savings and F1 on the test
set. Mean savings feed the Friedman ranking (rank 1 = highest savings,
ties averaged) and the perBest statistic (mean percentage of the per-dataset
best savings).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import rankdata

from . import baselines, csdt, ensemble, sampling
from .combiners import GaConfig
from .config import from_json
from .cost_model import CostedDataset, savings
from .csdt import CsdtConfig
from .data import DatasetBundle
from .ensemble import EcsdtConfig
from .errors import ConfigError, ValidationError
from .inducers import InducerConfig
from .rng import STREAM_CELLS, mix64
from .sampling import SAMPLING_CODES

FAMILIES = ("ci", "cps", "bmr", "cst", "ecsdt")
# learner -> the AlgorithmSpec.config keys that _fit_predict reads for it
LEARNER_CONFIG_KEYS = {
    "dt": {"tree"},
    "lr": {"lr"},
    "rf": {"T", "tree"},
    "csdt": {"tree"},
    "ecsdt": {"inducer", "T", "n_examples", "n_features", "tree", "combiner", "ga"},
}
LEARNERS = tuple(LEARNER_CONFIG_KEYS)


@dataclass(frozen=True)
class AlgorithmConfig:
    """An :class:`AlgorithmSpec` config; each learner reads its LEARNER_CONFIG_KEYS."""

    tree: CsdtConfig = field(default_factory=CsdtConfig)
    lr: baselines.LrConfig = field(default_factory=baselines.LrConfig)
    T: int = 100
    inducer: str = "random_patches"
    n_examples: int | float | None = None
    n_features: int | float | None = None
    combiner: str = "wv"
    ga: GaConfig = field(default_factory=GaConfig)


def f1_score(labels: np.ndarray, predictions: np.ndarray) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    y = np.asarray(labels)
    p = np.asarray(predictions)
    if y.shape != p.shape:
        raise ValidationError(f"labels {y.shape} and predictions {p.shape} differ")
    tp = int(((p == 1) & (y == 1)).sum())
    fp = int(((p == 1) & (y == 0)).sum())
    fn = int(((p == 0) & (y == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def friedman_rank(score_table: np.ndarray) -> np.ndarray:
    """Mean per-dataset rank of each algorithm's savings (rank 1 = best).

    score_table is (algorithms, datasets); ties share the average rank.
    """
    table = np.asarray(score_table, dtype=np.float64)
    if table.ndim != 2 or table.size == 0:
        raise ValidationError(f"score table must be 2-D and nonempty, got {table.shape}")
    if not np.isfinite(table).all():
        raise ValidationError("score table has missing or non-finite cells")
    ranks = np.column_stack(
        [rankdata(-table[:, d], method="average") for d in range(table.shape[1])]
    )
    return ranks.mean(axis=1)


def per_best(score_table: np.ndarray, warn: list | None = None) -> np.ndarray:
    """Mean percentage of the per-dataset best savings attained by each algorithm.

    Datasets whose best savings is not positive are excluded (recorded in
    ``warn``); with no usable dataset the statistic is undefined.
    """
    table = np.asarray(score_table, dtype=np.float64)
    if table.ndim != 2 or table.size == 0:
        raise ValidationError(f"score table must be 2-D and nonempty, got {table.shape}")
    best = table.max(axis=0)
    usable = best > 0
    for d in np.flatnonzero(~usable):
        message = f"perBest undefined for dataset column {d}: best savings {best[d]} <= 0"
        if warn is not None:
            warn.append(message)
    if not usable.any():
        raise ValidationError("perBest undefined: no dataset has positive best savings")
    # divide before scaling: the per-dataset best gives exactly 1.0, hence 100.0
    return (100.0 * (table[:, usable] / best[usable])).mean(axis=1)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One benchmark entrant: family label, learner, resampling code, knobs."""

    family: str
    name: str
    learner: str
    sampling: str = "t"
    config: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.learner not in LEARNERS:
            raise ConfigError(f"learner must be one of {LEARNERS}, got {self.learner!r}")
        try:
            config = _learner_config(self, seed=0)
            unread = sorted(self.config.keys() - LEARNER_CONFIG_KEYS[self.learner])
            if unread:
                raise ConfigError(f"keys {unread} are not read by learner {self.learner!r}")
            config.validate()
        except ConfigError as exc:
            raise ConfigError(f"config of {self.name!r}: {exc}") from None
        if self.sampling not in SAMPLING_CODES:
            raise ConfigError(
                f"sampling must be one of {tuple(SAMPLING_CODES)}, got {self.sampling!r}"
            )


@dataclass
class ExperimentSpec:
    algorithms: list[AlgorithmSpec]
    datasets: list[tuple[str, DatasetBundle]]
    repetitions: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not self.algorithms or not self.datasets:
            raise ConfigError("experiment needs at least one algorithm and one dataset")
        for algo in self.algorithms:
            algo.validate()


@dataclass
class CellResult:
    savings_mean: float = float("nan")
    savings_std: float = 0.0
    f1_mean: float = float("nan")
    f1_std: float = 0.0
    repetitions: int = 0
    failed: bool = False
    error: str = ""


@dataclass
class EvaluationReport:
    algorithms: list[str]
    datasets: list[str]
    cells: dict[tuple[str, str], CellResult]
    friedman: dict[str, float] | None
    per_best: dict[str, float] | None
    warnings: list[str]

    def to_json(self) -> str:
        payload = {
            "algorithms": self.algorithms,
            "datasets": self.datasets,
            "cells": {
                f"{a}::{d}": vars(self.cells[(a, d)])
                for a in self.algorithms for d in self.datasets
            },
            "friedman_rank": self.friedman,
            "per_best": self.per_best,
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    def to_csv(self) -> str:
        header = ["algorithm"]
        for d in self.datasets:
            header += [f"{d}_savings_mean", f"{d}_savings_std", f"{d}_f1_mean", f"{d}_f1_std"]
        header += ["f_rank", "per_best"]
        lines = [",".join(header)]
        for a in self.algorithms:
            row = [a]
            for d in self.datasets:
                cell = self.cells[(a, d)]
                row += [
                    repr(cell.savings_mean), repr(cell.savings_std),
                    repr(cell.f1_mean), repr(cell.f1_std),
                ]
            row.append("" if self.friedman is None else repr(self.friedman[a]))
            row.append("" if self.per_best is None else repr(self.per_best[a]))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _learner_config(algo: AlgorithmSpec, seed: int):
    """The config that ``algo``'s learner trains with, read from ``algo.config``."""
    cfg = from_json(AlgorithmConfig, algo.config)
    if algo.learner == "lr":
        return cfg.lr
    tree = replace(cfg.tree, impurity="gini" if algo.learner in ("dt", "rf") else "cost")
    if algo.learner in ("dt", "csdt"):
        return tree
    if algo.learner == "rf":
        return baselines.forest_config(cfg.T, seed, tree)
    inducer = InducerConfig(cfg.inducer, cfg.T, cfg.n_examples, cfg.n_features, seed)
    return EcsdtConfig(inducer, tree, cfg.combiner, replace(cfg.ga, seed=seed))


def _fit_predict(
    algo: AlgorithmSpec, train: CostedDataset, test: CostedDataset, seed: int
) -> np.ndarray:
    """Train one entrant on (possibly resampled) data, predict the test set."""
    method = SAMPLING_CODES[algo.sampling]
    if method is not None:
        train = sampling.resample(train, sampling.SamplingSpec(method, seed))

    config = _learner_config(algo, seed)
    if algo.learner == "csdt":
        return csdt.grow(train, config).predict_many(test.X)
    if algo.learner == "ecsdt":
        return ensemble.train(train, config).predict_many(test.X)
    if algo.learner == "lr":
        model = proba = baselines.train_logistic(train, config)
    elif algo.learner == "dt":
        model = baselines.gini_tree(train, config)
        proba = baselines.TreeProbaModel(model)
    else:
        model = proba = baselines.plain_forest(train, config.inducer.T, seed, config.tree)
    if algo.family == "bmr":
        return baselines.BmrWrapper(proba).predict_on(test)
    return model.predict_many(test.X)


def _std(values: np.ndarray) -> float:
    return 0.0 if values.size <= 1 else float(values.std(ddof=1))


def _run_cell(args) -> tuple[int, int, CellResult]:
    a_idx, d_idx, algo, bundle, repetitions, seed = args
    sav = np.empty(repetitions)
    f1 = np.empty(repetitions)
    try:
        for rep in range(repetitions):
            rep_seed = mix64(seed, STREAM_CELLS, a_idx, d_idx, rep)
            preds = _fit_predict(algo, bundle.train, bundle.test, rep_seed)
            sav[rep] = savings(bundle.test, preds)
            f1[rep] = f1_score(bundle.test.y, preds)
    except Exception as exc:  # cell marked failed, report still emitted
        return a_idx, d_idx, CellResult(failed=True, error=f"{type(exc).__name__}: {exc}")
    return a_idx, d_idx, CellResult(
        savings_mean=float(sav.mean()),
        savings_std=_std(sav),
        f1_mean=float(f1.mean()),
        f1_std=_std(f1),
        repetitions=repetitions,
    )


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> EvaluationReport:
    """Execute the full grid; deterministic for a fixed spec seed and any jobs."""
    spec.validate()
    tasks = [
        (a_idx, d_idx, algo, bundle, spec.repetitions, spec.seed)
        for a_idx, algo in enumerate(spec.algorithms)
        for d_idx, (_, bundle) in enumerate(spec.datasets)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(task) for task in tasks]

    algo_names = [a.name for a in spec.algorithms]
    ds_names = [name for name, _ in spec.datasets]
    cells = {(algo_names[a], ds_names[d]): cell for a, d, cell in outcomes}
    warnings: list[str] = []
    friedman = per_best_map = None
    if not any(cell.failed for cell in cells.values()):
        table = np.array([[cells[(a, d)].savings_mean for d in ds_names] for a in algo_names])
        ranks = friedman_rank(table)
        friedman = {a: float(r) for a, r in zip(algo_names, ranks)}
        try:
            pb = per_best(table, warn=warnings)
            per_best_map = {a: float(v) for a, v in zip(algo_names, pb)}
        except ValidationError as exc:
            warnings.append(str(exc))
    else:
        failed = [f"{a}::{d}" for (a, d), c in cells.items() if c.failed]
        warnings.append(f"rank statistics skipped: failed cells {sorted(failed)}")
    return EvaluationReport(
        algorithms=algo_names,
        datasets=ds_names,
        cells=cells,
        friedman=friedman,
        per_best=per_best_map,
        warnings=warnings,
    )
