"""Smoke test of ``scripts/savings_by_seed.py``, which prints the benchmark
workloads' held-out savings seed by seed, so a declared change can report
them before and after. The savings themselves are not pinned."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "savings_by_seed.py"


def test_one_line_per_seed_and_workload(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src and perfbench
    spec = importlib.util.spec_from_file_location("savings_by_seed", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main([3, 4])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [
        [seed, name] for seed in ("3", "4") for name in ("fit-patches", "fit-stacking", "grid")
    ]
    for *_, value in lines:
        assert 0 < float(value) < 1
