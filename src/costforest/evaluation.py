"""Benchmark harness: savings/F1 statistics, Friedman ranks, perBest.

An experiment grid is algorithms x datasets x repetitions. Algorithms with
the same learner, learner config and sampling form a fit group: they differ
only in their decision layer, such as ci against bmr. Each repetition draws
the group's training resample and learner seed once, fits once, and scores
each member's predictions with savings and F1 on the test set, while the
train/valid/test split stays fixed. Mean savings feed the Friedman ranking
(rank 1 = highest savings, ties averaged) and the perBest statistic (mean
percentage of the per-dataset best savings).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, csdt, ensemble, sampling
from .combiners import GaConfig
from .config import check_integers, from_json
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
BMR_LEARNERS = ("dt", "lr", "rf")  # the probability models the BMR layer reads


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
    ranks = np.empty_like(table)
    for d, column in enumerate(-table.T):
        # equal values share the mean of their ranks: the group's last rank
        # minus (count - 1) / 2, an exact half; np.unique ties -0.0 with 0.0
        _, group, counts = np.unique(column, return_inverse=True, return_counts=True)
        ranks[:, d] = (np.cumsum(counts) - (counts - 1) / 2)[group]
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
        if self.family == "bmr" and self.learner not in BMR_LEARNERS:
            raise ConfigError(
                f"family 'bmr' needs a learner in {BMR_LEARNERS}, got {self.learner!r}"
            )
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
        check_integers(self, "repetitions", "seed")
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
    """The config that ``algo``'s learner trains with, read from ``algo.config``;
    the cost-insensitive ``dt`` and ``rf`` grow gini (error-count) trees."""
    cfg = from_json(AlgorithmConfig, algo.config)
    if algo.learner == "lr":
        return cfg.lr
    tree = replace(cfg.tree, impurity="gini" if algo.learner in ("dt", "rf") else "cost")
    if algo.learner in ("dt", "csdt"):
        return tree
    if algo.learner == "rf":
        return EcsdtConfig(InducerConfig("random_forest", cfg.T, seed=seed), tree, "mv")
    inducer = InducerConfig(cfg.inducer, cfg.T, cfg.n_examples, cfg.n_features, seed)
    return EcsdtConfig(inducer, tree, cfg.combiner, replace(cfg.ga, seed=seed))


def _fit_predict(
    algos: list[AlgorithmSpec], train: CostedDataset, test: CostedDataset, seed: int
) -> list[np.ndarray]:
    """Train the learner of a fit group once on (possibly resampled) data, then
    predict the test set with each member's decision layer, in member order."""
    method = SAMPLING_CODES[algos[0].sampling]
    if method is not None:
        train = sampling.resample(train, sampling.SamplingSpec(method, seed))

    learner = algos[0].learner
    config = _learner_config(algos[0], seed)
    if learner == "lr":
        model = baselines.train_logistic(train, config)
    elif learner in ("dt", "csdt"):
        model = csdt.grow(train, config)
    else:
        model = ensemble.train(train, config)
        votes, proba = model.votes_and_proba(test.X)
        return [
            baselines.bmr_predict_dataset(proba, test) if algo.family == "bmr"
            else model.combine(votes)
            for algo in algos
        ]
    return [
        baselines.BmrWrapper(model).predict_on(test) if algo.family == "bmr"
        else model.predict_many(test.X)
        for algo in algos
    ]


def _std(values: np.ndarray) -> float:
    return 0.0 if values.size <= 1 else float(values.std(ddof=1))


def _fit_groups(algorithms: list[AlgorithmSpec]) -> list[list[int]]:
    """Algorithm indices grouped by (learner, learner config, sampling), each
    group in algorithm order and the groups in order of their first member."""
    groups: dict[tuple, list[int]] = {}
    for a_idx, algo in enumerate(algorithms):
        # the repr, because equal configs may differ in meaning: an
        # n_examples of 1 is one row, of 1.0 all of them
        key = (algo.learner, repr(_learner_config(algo, seed=0)), algo.sampling)
        groups.setdefault(key, []).append(a_idx)
    return list(groups.values())


def _run_cell(args) -> list[tuple[int, int, CellResult]]:
    """Every repetition of one fit group on one dataset: one result per member.

    A repetition's seed is keyed by the group's first algorithm, so a group
    of one keeps the seed, resample and result it has on its own.
    """
    a_indices, algos, d_idx, bundle, repetitions, seed = args
    sav = np.empty((len(algos), repetitions))
    f1 = np.empty((len(algos), repetitions))
    try:
        for rep in range(repetitions):
            rep_seed = mix64(seed, STREAM_CELLS, a_indices[0], d_idx, rep)
            for m, preds in enumerate(_fit_predict(algos, bundle.train, bundle.test, rep_seed)):
                sav[m, rep] = savings(bundle.test, preds)
                f1[m, rep] = f1_score(bundle.test.y, preds)
    except Exception as exc:  # the group's cells marked failed, report still emitted
        error = f"{type(exc).__name__}: {exc}"
        return [(a_idx, d_idx, CellResult(failed=True, error=error)) for a_idx in a_indices]
    return [
        (a_idx, d_idx, CellResult(
            savings_mean=float(sav[m].mean()),
            savings_std=_std(sav[m]),
            f1_mean=float(f1[m].mean()),
            f1_std=_std(f1[m]),
            repetitions=repetitions,
        ))
        for m, a_idx in enumerate(a_indices)
    ]


_TASKS: list = []  # a pool worker's copy of run_experiment's task list


def _adopt_tasks(tasks: list) -> None:
    """Pool initializer: keep the task list that submitted indices refer to."""
    global _TASKS
    _TASKS = tasks


def _run_task(index: int) -> list[tuple[int, int, CellResult]]:
    return _run_cell(_TASKS[index])


def _run_tasks(tasks: list, jobs: int) -> list[list[tuple[int, int, CellResult]]]:
    """Every task's outcome, in task order, computed by ``jobs`` processes.

    The caller is one of them: it starts ``min(jobs, len(tasks)) - 1`` pool
    workers, which get the task list once through the pool initializer
    (inherited under fork), so a submitted task is just its index. The
    workers take tasks from the front; the caller runs tasks from the back
    for as long as it can cancel their futures, which holds only while a
    task is still pending, then collects the rest.
    """
    workers = min(jobs, len(tasks)) - 1
    if workers == 0:
        return [_run_cell(task) for task in tasks]
    with ProcessPoolExecutor(workers, initializer=_adopt_tasks, initargs=(tasks,)) as pool:
        try:
            futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
            inline = {}
            for i in reversed(range(len(tasks))):
                if not futures[i].cancel():
                    break
                inline[i] = _run_cell(tasks[i])
            return [inline[i] if i in inline else f.result() for i, f in enumerate(futures)]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> EvaluationReport:
    """Execute the full grid; deterministic for a fixed spec seed and any jobs.

    One task is every repetition of one fit group on one dataset. ``jobs``
    processes compute the tasks, the caller included: ``jobs=1`` runs them
    all in the caller, and no more pool workers start than there are tasks
    besides the caller's. A cell's seed depends only on its indices, so the
    report is the same at any ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    spec.validate()
    tasks = [
        (group, [spec.algorithms[a_idx] for a_idx in group],
         d_idx, bundle, spec.repetitions, spec.seed)
        for group in _fit_groups(spec.algorithms)
        for d_idx, (_, bundle) in enumerate(spec.datasets)
    ]
    outcomes = _run_tasks(tasks, jobs)

    algo_names = [a.name for a in spec.algorithms]
    ds_names = [name for name, _ in spec.datasets]
    by_index = {(a, d): cell for group in outcomes for a, d, cell in group}
    cells = {
        (algo_names[a], ds_names[d]): by_index[(a, d)]
        for a in range(len(algo_names)) for d in range(len(ds_names))
    }
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
