"""Span tracing for the traced benchmark run.

Wrappers are installed around the public functions each costforest module
exposes, at the attribute its caller looks up, so every call into a layer
records a span (name, start, end, parent span, operation id) and the counts
named in the benchmark's per-layer metrics. The library itself is untouched:
:func:`installed` patches the attributes for the duration of a ``with`` block
and puts the originals back afterwards.

Hooks that count rows or check an output run with the tracer's clock paused,
so their cost lands in no span and in no traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from costforest import (
    baselines,
    combiners,
    cost_model,
    csdt,
    data,
    ensemble,
    evaluation,
    sampling,
)

# Span-name prefixes: the layers reported in the self-time table.
LAYERS = (
    "data", "cost_model", "inducers", "csdt", "ensemble",
    "combiners", "sampling", "baselines", "evaluation",
)
SETUP_OP = -1  # operation id of spans recorded while setting up


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


class Tracer:
    """In-memory span and counter store with a pausable clock."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, bool], float] = defaultdict(float)
        self.failures: list[tuple[int, str]] = []
        self.op = SETUP_OP
        self.recording = True

    def now(self) -> float:
        """Clock reading that excludes every paused interval."""
        return self._clock() - self._paused

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.now(), float("nan"), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.now()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(name, self.op != SETUP_OP)] += value

    def fail(self, message: str) -> None:
        self.failures.append((self.op, message))

    @contextmanager
    def paused(self):
        """Stop the clock and span recording for benchmark-side work."""
        started = self._clock()
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording
            self._paused += self._clock() - started

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                }) + "\n")


# --- self-time arithmetic --------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _outermost_of_name(spans: list[Span], i: int) -> bool:
    """True unless an ancestor span has the same name (no double counting)."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == spans[i].name:
            return False
        p = spans[p].parent
    return True


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0  # inclusive, outermost span of each name only
    self_s: float = 0.0


def totals_by_name(spans: list[Span], in_ops: bool) -> dict[str, SpanTotals]:
    """Per span name: calls, inclusive and self seconds, for one phase."""
    selfs = self_times(spans)
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for i, s in enumerate(spans):
        if (s.op != SETUP_OP) != in_ops:
            continue
        t = out[s.name]
        t.calls += 1
        t.self_s += selfs[i]
        if _outermost_of_name(spans, i):
            t.total_s += s.end - s.start
    return out


def layer_self_times(totals: dict[str, SpanTotals]) -> dict[str, float]:
    """Self seconds per layer (span-name prefix before the first dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, t in totals.items():
        out[name.split(".", 1)[0]] += t.self_s
    return out


# --- wrappers --------------------------------------------------------------


def _traced(tracer: Tracer, fn, name: str, after=None, wrap_args=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        if wrap_args is not None:
            args = wrap_args(tracer, args)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            with tracer.paused():
                after(tracer, args, result)
        return result
    return wrapper


def _after_load_csv(tracer, args, result):
    tracer.count("data.rows_parsed", result.n)


def _after_subset(tracer, args, result):
    tracer.count("cost_model.subset_rows", result.n)


def _after_draw_samples(tracer, args, result):
    tracer.count("inducers.rows_drawn", sum(s.example_indices.size for s in result))


def _after_predict(tracer, args, result):
    tracer.count("csdt.rows_routed", result.shape[0])


def _pruning_set_cost(model, prune_set) -> float:
    """Cost of a tree on its pruning set, in the view the pruner optimizes."""
    preds = csdt.predict_many(model, prune_set.X)
    if model.config.impurity == "gini":
        return float((preds != prune_set.y).sum())
    cost0, cost1 = prune_set.costs_if_predicted()
    return float(np.where(preds == 1, cost1, cost0).sum())


def _after_prune(tracer, args, result):
    grown, prune_set = args[0], args[1]
    tracer.count("csdt.nodes_grown", grown.n_nodes())
    tracer.count("csdt.nodes_kept", result.n_nodes())
    before = _pruning_set_cost(grown, prune_set)
    after = _pruning_set_cost(result, prune_set)
    if after > before + 1e-9 * max(abs(before), 1.0):
        tracer.fail(f"csdt.prune raised pruning-set cost from {before!r} to {after!r}")


def _after_resample(tracer, args, result):
    tracer.count("sampling.rows_in", args[0].n)
    tracer.count("sampling.rows_out", result.n)


def _after_run_experiment(tracer, args, result):
    tracer.count("evaluation.cells", len(result.cells))
    tracer.count("evaluation.cells_failed", sum(c.failed for c in result.cells.values()))


def _wrap_objective(tracer, args):
    objective = args[0]

    def traced_objective(pop):
        index = tracer.begin("combiners.ga_objective")
        try:
            return objective(pop)
        finally:
            tracer.end(index)
            with tracer.paused():
                tracer.count("combiners.ga_rows_evaluated", np.shape(pop)[0])
    return (traced_objective,) + tuple(args[1:])


# (owner, attribute, span name, after-hook, argument wrapper). The owner is
# the namespace the caller resolves the name in, e.g. baselines imports
# ``grow`` from csdt, so baselines.grow is wrapped as well as csdt.grow.
WRAP_POINTS = (
    (data, "load_csv", "data.load_csv", _after_load_csv, None),
    (cost_model.CostedDataset, "subset", "cost_model.subset", _after_subset, None),
    (ensemble, "savings", "cost_model.savings", None, None),
    (evaluation, "savings", "cost_model.savings", None, None),
    (ensemble, "draw_samples", "inducers.draw_samples", _after_draw_samples, None),
    (csdt, "grow", "csdt.grow", None, None),
    (baselines, "grow", "csdt.grow", None, None),
    (csdt, "prune", "csdt.prune", _after_prune, None),
    (csdt, "predict_many", "csdt.predict_many", _after_predict, None),
    (csdt, "predict_proba_many", "csdt.predict_proba_many", _after_predict, None),
    (baselines, "predict_proba_many", "csdt.predict_proba_many", _after_predict, None),
    (ensemble, "train", "ensemble.train", None, None),
    (ensemble, "predict", "ensemble.predict", None, None),
    (ensemble, "load", "ensemble.load", None, None),
    (ensemble.EnsembleModel, "predict_many", "ensemble.predict_many", None, None),
    (ensemble.EnsembleModel, "base_votes", "ensemble.base_votes", None, None),
    (combiners, "fit_stacking", "combiners.fit_stacking", None, None),
    (combiners, "ga_minimize", "combiners.ga", None, _wrap_objective),
    (combiners, "weighted_vote", "combiners.weighted_vote", None, None),
    (combiners, "majority_vote", "combiners.majority_vote", None, None),
    (sampling, "undersample", "sampling.resample", _after_resample, None),
    (sampling, "rejection_sample", "sampling.resample", _after_resample, None),
    (sampling, "oversample", "sampling.resample", _after_resample, None),
    (baselines, "train_logistic", "baselines.train_logistic", None, None),
    (baselines.LogisticModel, "predict_proba", "baselines.lr_predict_proba", None, None),
    (baselines.BmrWrapper, "predict_on", "baselines.bmr", None, None),
    (evaluation, "run_experiment", "evaluation.run_experiment", _after_run_experiment, None),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every wrap point for the block, restoring the originals after."""
    originals = []
    try:
        for owner, attr, name, after, wrap_args in WRAP_POINTS:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _traced(tracer, fn, name, after, wrap_args))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# --- per-layer metrics -----------------------------------------------------

# metric -> (unit, source, key). Sources: "calls", "total_s" (inclusive) and
# "self_s" of the spans named key, or a "counter" recorded by a hook.
LAYER_SOURCES = {
    "data.load_csv_s": ("s", "total_s", "data.load_csv"),
    "data.rows_parsed": ("count", "counter", "data.rows_parsed"),
    "cost_model.subset_calls": ("count", "calls", "cost_model.subset"),
    "cost_model.subset_rows": ("count", "counter", "cost_model.subset_rows"),
    "cost_model.subset_s": ("s", "total_s", "cost_model.subset"),
    "cost_model.savings_calls": ("count", "calls", "cost_model.savings"),
    "cost_model.savings_s": ("s", "total_s", "cost_model.savings"),
    "inducers.draw_samples_s": ("s", "total_s", "inducers.draw_samples"),
    "inducers.rows_drawn": ("count", "counter", "inducers.rows_drawn"),
    "csdt.grow_calls": ("count", "calls", "csdt.grow"),
    "csdt.grow_self_s": ("s", "self_s", "csdt.grow"),
    "csdt.prune_s": ("s", "total_s", "csdt.prune"),
    "csdt.nodes_grown": ("count", "counter", "csdt.nodes_grown"),
    "csdt.nodes_kept": ("count", "counter", "csdt.nodes_kept"),
    "csdt.predict_many_calls": ("count", "calls", "csdt.predict_many"),
    "csdt.predict_many_s": ("s", "total_s", "csdt.predict_many"),
    "csdt.rows_routed": ("count", "counter", "csdt.rows_routed"),
    "csdt.predict_proba_many_s": ("s", "total_s", "csdt.predict_proba_many"),
    "ensemble.train_self_s": ("s", "self_s", "ensemble.train"),
    "ensemble.base_votes_s": ("s", "total_s", "ensemble.base_votes"),
    "ensemble.load_s": ("s", "total_s", "ensemble.load"),
    "combiners.fit_stacking_s": ("s", "total_s", "combiners.fit_stacking"),
    "combiners.ga_self_s": ("s", "self_s", "combiners.ga"),
    "combiners.ga_objective_s": ("s", "total_s", "combiners.ga_objective"),
    "combiners.ga_rows_evaluated": ("count", "counter", "combiners.ga_rows_evaluated"),
    "combiners.weighted_vote_calls": ("count", "calls", "combiners.weighted_vote"),
    "combiners.weighted_vote_s": ("s", "total_s", "combiners.weighted_vote"),
    "sampling.resample_s": ("s", "total_s", "sampling.resample"),
    "sampling.rows_in": ("count", "counter", "sampling.rows_in"),
    "sampling.rows_out": ("count", "counter", "sampling.rows_out"),
    "baselines.train_logistic_s": ("s", "total_s", "baselines.train_logistic"),
    "baselines.bmr_s": ("s", "total_s", "baselines.bmr"),
    "evaluation.run_experiment_self_s": ("s", "self_s", "evaluation.run_experiment"),
    "evaluation.cells": ("count", "counter", "evaluation.cells"),
    "evaluation.cells_failed": ("count", "counter", "evaluation.cells_failed"),
}

PER_LAYER_UNITS = {
    "trace.ops": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: unit for name, (unit, _, _) in LAYER_SOURCES.items()},
    "csdt.nodes_kept_frac": "fraction",
}


def layer_metrics(
    tracer: Tracer, n_ops: int, traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    """Every per-layer metric from one traced set-up plus ``n_ops`` operations.

    Values are per operation. A metric whose calls the workload makes only
    while setting up (loading CSVs, loading or training the scored model) is
    reported per set-up instead. The layer self times cover operations only,
    so they sum to ``traced_wall``: the summed wall time of the operations on
    the tracer's clock. ``untraced_wall`` is the same operations' wall time
    without the wrappers.
    """
    phases = {in_ops: totals_by_name(tracer.spans, in_ops) for in_ops in (True, False)}

    def value(source, key, in_ops):
        totals = phases[in_ops]
        if source == "counter":
            found = (key, in_ops) in tracer.counters
            return found, tracer.counters.get((key, in_ops), 0.0)
        if key not in totals:
            return False, 0.0
        return True, float(getattr(totals[key], source))

    m = {}
    for name, (_, source, key) in LAYER_SOURCES.items():
        found, v = value(source, key, True)
        m[name] = v / n_ops if found else value(source, key, False)[1]
    m["csdt.nodes_kept_frac"] = (
        m["csdt.nodes_kept"] / m["csdt.nodes_grown"] if m["csdt.nodes_grown"] else 0.0
    )
    layers = layer_self_times(phases[True])
    m.update({f"{layer}.self_s": v / n_ops for layer, v in layers.items()})
    m.update({
        "trace.ops": float(n_ops),
        "trace.wall_s": traced_wall / n_ops,
        "trace.untraced_wall_s": untraced_wall / n_ops,
        "trace.overhead_s": (traced_wall - untraced_wall) / n_ops,
        "trace.unattributed_s": (traced_wall - sum(layers.values())) / n_ops,
    })
    return {name: m[name] for name in PER_LAYER_UNITS}
