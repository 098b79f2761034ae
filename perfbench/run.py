"""Benchmark for costforest: fit, stacking, scoring and experiment-grid workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fit-patches --seed 1 --seconds 20 --trace 0

Workloads: fit-patches, fit-stacking, score, grid (see workloads.py). With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
times the same operations untraced and then traced, and prints the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The library is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# end-to-end metric -> unit, as listed in BENCHMARK.json. The tail latency
# (op_p99_ms) and score's rows/s are printed in the table but not listed: on
# score the tail spread 28-39% across seeds because 1-2% of calls hit host
# stalls, and on the other workloads rows/s is a fixed row count over the
# same latencies op_p50_ms already gates.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "test_savings": "fraction",
    "peak_rss_mb": "MB",
}


def use_checkout_library() -> None:
    """Put the checkout's src/ first on sys.path; exit 2 if it is missing."""
    if not (SRC / "costforest" / "__init__.py").is_file():
        print(f"perfbench: no costforest sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import costforest

    if Path(costforest.__file__).resolve().parent != SRC / "costforest":
        print(f"perfbench: imported costforest from {costforest.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Loop:
    """What a loop of operations measured."""

    latencies: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)  # traced run: with wrappers
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def run_op(workload, state, i: int, loop: Loop, tracer=None) -> None:
    """Run operation ``i`` once and record it; traced when ``tracer`` is given.

    Latency is the wall time of the library call alone (on the tracer's
    clock when traced); choosing the argument and checking the output happen
    outside it, with the tracer paused.
    """
    clock = tracer.now if tracer is not None else time.perf_counter
    latencies = loop.traced if tracer is not None else loop.latencies
    arg = workload.prepare(state, i)
    if tracer is not None:
        tracer.op = i
    t0 = clock()
    try:
        out = workload.call(state, arg)
    except Exception:  # a raising call is a failed operation; keep measuring
        latencies.append(clock() - t0)
        loop.attempted += 1
        loop.failed += 1
        loop.messages.append(f"operation {i} raised:\n{traceback.format_exc()}")
        return
    latencies.append(clock() - t0)
    with tracer.paused() if tracer is not None else nullcontext():
        problems = workload.check(state, i, arg, out)
        units = workload.units(out)
        loop.rows += workload.rows(state, arg)
    loop.attempted += units
    loop.failed += min(units, len(problems))
    loop.messages += [f"operation {i}: {p}" for p in problems]


def closed_loop(workload, state, seconds: float, min_ops: int, after_op=None) -> Loop:
    """Run operations back to back for ``seconds``, and at least ``min_ops``.

    ``after_op``, if given, runs after each operation, outside its latency.
    """
    loop = Loop()
    started = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - started < seconds:
        run_op(workload, state, i, loop)
        if after_op is not None:
            after_op()
        i += 1
    return loop


def paired_loop(workload, state, seconds: float, tracer) -> Loop:
    """Run each operation untraced and traced, alternating which goes first.

    Pairing the same operation cancels drift in machine speed from the
    overhead estimate (traced minus untraced wall time). One untraced
    operation runs first and its time is dropped, so first-call costs fall in
    neither half; its output is still checked.
    """
    import tracing

    loop = Loop()
    run_op(workload, state, 0, loop)
    loop.latencies.clear()
    started = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - started < seconds:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracing.installed(tracer):
                    run_op(workload, state, i, loop, tracer)
            else:
                run_op(workload, state, i, loop)
        i += 1
    for op, message in tracer.failures:
        if op != tracing.SETUP_OP:
            loop.failed = min(loop.attempted, loop.failed + 1)
            loop.messages.append(f"traced operation {op}: {message}")
    return loop


def tail_quantile(n: int) -> float:
    """p99 once >= 1000 samples; else the highest with 10 samples beyond, >= p50."""
    return 0.99 if n >= 1000 else max(0.5, 1.0 - 10.0 / n)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# name of the op latency in the printed table, and what one operation is
OP_NAMES = {
    "fit-patches": ("fit_s", "ensemble.train call"),
    "fit-stacking": ("fit_s", "ensemble.train call"),
    "score": ("score", "ensemble.predict call"),
    "grid": ("grid_s", "evaluation.run_experiment call"),
}


def _report_end_to_end(name: str, metrics: dict, setup_times: list, loop: Loop) -> None:
    n = len(loop.latencies)
    q = tail_quantile(n)
    op_name, op_what = OP_NAMES[name]
    rows = [("setup_s", metrics["setup_s"], "s", len(setup_times), "median set-up")]
    if op_name == "score":
        rows += [
            ("score_rows_per_s", metrics["rows_per_s"], "rows/s", n, "rows / time in calls"),
            ("score_p50_ms", metrics["op_p50_ms"], "ms", n, f"median {op_what}"),
            ("score_p99_ms", metrics["op_p99_ms"], "ms", n, f"p{100 * q:g} {op_what}"),
        ]
    else:
        rows += [
            (op_name, metrics["op_p50_ms"] / 1000.0, "s", n, f"median {op_what}"),
            (f"{op_name[:-2]}_p{100 * q:g}_s", metrics["op_p99_ms"] / 1000.0, "s", n,
             f"p{100 * q:g} {op_what}"),
        ]
    rows += [
        ("test_savings", metrics["test_savings"], "fraction", 1, "held-out savings"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1, "this process + largest worker"),
        ("failed_frac", loop.failed / max(loop.attempted, 1), "fraction", loop.attempted,
         f"{loop.failed} of {loop.attempted} operations failed"),
    ]
    print(f"{'metric':<22}{'value':>14}  {'unit':<9}{'n':>6}  note")
    for metric, value, unit, count, note in rows:
        print(f"{metric:<22}{value:>14.6g}  {unit:<9}{count:>6}  {note}")


def _report_layers(metrics: dict) -> None:
    import tracing

    wall = metrics["trace.wall_s"]
    print(f"traced operations: {metrics['trace.ops']:g}; per operation: traced wall "
          f"{wall:.6g} s, untraced {metrics['trace.untraced_wall_s']:.6g} s, "
          f"overhead {metrics['trace.overhead_s']:.6g} s")
    print(f"{'layer':<12}{'self_s/op':>14}{'share':>9}")
    for layer in tracing.LAYERS:
        v = metrics[f"{layer}.self_s"]
        print(f"{layer:<12}{v:>14.6g}{(v / wall if wall else 0.0):>9.1%}")
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(f"{'sum':<12}{total:>14.6g}{(total / wall if wall else 0.0):>9.1%}"
          f"   (traced wall minus sum: {metrics['trace.unattributed_s']:.3g} s)")
    for name, value in metrics.items():
        if not name.startswith("trace.") and not name.endswith(".self_s"):
            print(f"  {name:<36}{value:>14.6g} {tracing.PER_LAYER_UNITS[name]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, workload=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import tracing
    from workloads import WORKLOADS

    workload = workload or WORKLOADS[name](tiny=tiny, traced=trace)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []

        def timed_setups(repeats: int):
            fresh = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                fresh = workload.setup(seed, workdir)
                setup_times.append(time.perf_counter() - t0)
            return fresh

        state = timed_setups(1 if trace else workload.setup_repeats)
        setup_failures = workload.verify_setup(state)
        if not trace:
            loop = closed_loop(workload, state, seconds, workload.min_ops,
                               lambda: timed_setups(workload.setups_per_op))
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_p50_ms": 1000.0 * float(np.quantile(loop.latencies, 0.5)),
                "op_p99_ms": 1000.0 * float(
                    np.quantile(loop.latencies, tail_quantile(len(loop.latencies)))
                ),
                "rows_per_s": loop.rows / sum(loop.latencies),
                "test_savings": workload.test_savings(state),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_UNITS
        else:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                workload.setup(seed, workdir)  # recorded as set-up spans only
            setup_failures += [m for op, m in tracer.failures if op == tracing.SETUP_OP]
            loop = paired_loop(workload, state, seconds, tracer)
            metrics = tracing.layer_metrics(
                tracer, len(loop.traced), sum(loop.traced), sum(loop.latencies)
            )
            units = tracing.PER_LAYER_UNITS
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if setup_failures:
        # set-up checks guard every later call, so charge them to the first one
        loop.messages = [f"set-up: {m}" for m in setup_failures] + loop.messages
        loop.failed = min(loop.attempted, loop.failed + 1)

    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    if trace:
        _report_layers(metrics)
    else:
        _report_end_to_end(name, metrics, setup_times, loop)
    for message in loop.messages:
        print(f"FAILED {message}")
    return {
        "correct": not loop.messages,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    use_checkout_library()
    # relaxed churn costs log a warning per build; those rows are intended
    logging.getLogger("costforest.cost_builders").setLevel(logging.ERROR)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
