"""Tests of the benchmark itself: fault detection, self-time arithmetic, smoke runs.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from costforest.evaluation import AlgorithmSpec  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        Span("evaluation.run_experiment", 0.0, 10.0, -1, 0),
        Span("baselines.train_logistic", 1.0, 3.0, 0, 0),
        Span("csdt.grow", 4.0, 8.0, 0, 0),
        Span("csdt.prune", 6.0, 7.5, 2, 0),
        Span("csdt.grow", 9.0, 9.5, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 2.5, 1.5, 0.5])
    totals = tracing.totals_by_name(spans, in_ops=True)
    assert totals["csdt.grow"].calls == 2
    assert totals["csdt.grow"].total_s == pytest.approx(4.5)
    assert totals["csdt.grow"].self_s == pytest.approx(3.0)
    layers = tracing.layer_self_times(totals)
    assert layers == pytest.approx({
        **{layer: 0.0 for layer in tracing.LAYERS},
        "evaluation": 3.5, "baselines": 2.0, "csdt": 4.5,
    })
    # self times partition the root span
    assert sum(layers.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [
        Span("ensemble.train", 0.0, 10.0, -1, 0),
        Span("csdt.grow", 1.0, 4.0, 0, 0),
        Span("csdt.grow", 3.0, 6.0, 0, 0),
        Span("csdt.grow", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_nested_spans_of_one_name_count_once_in_the_total():
    spans = [
        Span("ensemble.train", 0.0, 8.0, -1, 0),
        Span("ensemble.train", 2.0, 5.0, 0, 0),
    ]
    totals = tracing.totals_by_name(spans, in_ops=True)
    assert totals["ensemble.train"].total_s == pytest.approx(8.0)
    assert totals["ensemble.train"].self_s == pytest.approx(8.0)


def test_layer_metrics_per_operation_and_per_set_up():
    ticks = iter(float(t) for t in range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    load = tracer.begin("data.load_csv")  # set-up: t = 0 .. 1
    tracer.end(load)
    tracer.count("data.rows_parsed", 500)
    for op in range(2):
        tracer.op = op
        root = tracer.begin("ensemble.train")
        grow = tracer.begin("csdt.grow")
        tracer.end(grow)
        tracer.count("csdt.nodes_grown", 10)
        tracer.count("csdt.nodes_kept", 4)
        tracer.end(root)  # each operation spans 3 ticks, 1 of them in grow
    m = tracing.layer_metrics(tracer, n_ops=2, traced_wall=6.0, untraced_wall=5.0)
    assert set(m) == set(tracing.PER_LAYER_UNITS)
    assert m["data.load_csv_s"] == pytest.approx(1.0)
    assert m["data.rows_parsed"] == 500
    assert m["csdt.grow_calls"] == 1
    assert m["csdt.grow_self_s"] == pytest.approx(1.0)
    assert m["ensemble.train_self_s"] == pytest.approx(2.0)
    assert m["csdt.nodes_kept_frac"] == pytest.approx(0.4)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["trace.unattributed_s"] == pytest.approx(0.0)


def test_paused_clock_hides_hook_time():
    ticks = iter([0.0, 1.0, 7.0, 8.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    span = tracer.begin("csdt.prune")  # 0
    with tracer.paused():  # 1 .. 7
        assert not tracer.recording
    tracer.end(span)  # 8 - 6
    assert tracer.spans[0].end - tracer.spans[0].start == pytest.approx(2.0)


def test_wrappers_are_removed_after_the_traced_block():
    from costforest import csdt, ensemble

    grow, train = csdt.grow, ensemble.train
    with tracing.installed(tracing.Tracer()):
        assert csdt.grow is not grow
    assert csdt.grow is grow and ensemble.train is train


class FlipOneBatch(workloads.Score):
    """Flips the first prediction of the fourth scoring call."""

    def prepare(self, state, i):
        self.current = i
        return super().prepare(state, i)

    def call(self, state, arg):
        out = super().call(state, arg)
        if self.current == 3:
            out = out.copy()
            out[0] = 1 - out[0]
        return out


def test_flipped_prediction_is_caught_and_counted():
    workload = FlipOneBatch(tiny=True)
    result = run.run_workload("score", 5, 0.2, False, workload=workload)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] >= workload.min_ops


class BrokenCell(workloads.Grid):
    def setup(self, seed, workdir):
        state = super().setup(seed, workdir)
        # an infinite learning rate makes logistic training diverge
        state.spec.algorithms.append(
            AlgorithmSpec("ci", "ci-lr-broken", "lr", config={"lr": {"learning_rate": math.inf}})
        )
        return state


def test_forced_cell_failure_is_caught_and_counted():
    workload = BrokenCell(tiny=True, traced=True)  # traced: jobs=1, no pool
    result = run.run_workload("grid", 5, 0.1, False, workload=workload)
    cells_per_call = (len(workloads.GRID_ALGORITHMS) + 1) * 2  # two datasets
    calls = result["attempted"] // cells_per_call
    assert calls >= 1 and result["attempted"] == calls * cells_per_call
    assert result["correct"] is False
    # per call: the broken algorithm's cell on each dataset, and no Friedman ranks
    assert result["failed"] == 3 * calls


def test_prune_that_raises_cost_is_caught_in_traced_run(monkeypatch, capsys):
    from costforest import csdt

    def costlier_prune(model, prune_set):
        cost0, cost1 = prune_set.costs_if_predicted()
        s0, s1 = float(cost0.sum()), float(cost1.sum())
        worse = csdt.Leaf(int(s1 > s0), s0, s1, prune_set.n, int(prune_set.y.sum()))
        return csdt.CsdtModel(worse, model.config, model.k)

    monkeypatch.setattr(csdt, "prune", costlier_prune)
    result = run.run_workload("fit-patches", 5, 0.1, True, tiny=True)
    assert result["correct"] is False and result["failed"] >= 1
    assert "csdt.prune raised pruning-set cost" in capsys.readouterr().out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, trace):
    result = run.run_workload(name, 11, 0.2, trace, tiny=True)
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    # score runs on demand but is not listed: its timings swing with the host's speed
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"score"}


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
