"""Print the held-out savings of the benchmark's fit and grid workloads, per seed.

Usage, from the root of a source checkout:

    python3 scripts/savings_by_seed.py 1 2 3

For each seed, one ``seed workload test_savings`` line for fit-patches,
fit-stacking and grid: the workload's ``test_savings`` after one operation,
set up, called and checked by perfbench's own workload code, so the numbers
are the ones ``perfbench/run.py`` reports. A declared change to what the
learners compute shows here seed by seed; run it on both commits.
"""

import logging
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

NAMES = ("fit-patches", "fit-stacking", "grid")


def savings(name: str, seed: int, work: Path) -> float:
    """The workload's held-out savings after its first operation."""
    workload = WORKLOADS[name]()
    state = workload.setup(seed, work)
    arg = workload.prepare(state, 0)
    failures = workload.check(state, 0, arg, workload.call(state, arg))
    if failures:
        raise RuntimeError(f"{name} seed {seed}: {failures}")
    return workload.test_savings(state)


def main(seeds: list[int]) -> None:
    # relaxed churn costs log a warning per build; those rows are intended
    logging.getLogger("costforest.cost_builders").setLevel(logging.ERROR)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in NAMES:
                print(seed, name, repr(savings(name, seed, Path(tmp))), flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1])
