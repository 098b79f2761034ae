"""Smoke test of ``scripts/model_digest.py``, the byte-identity check that a
refactor claiming no behaviour change compares against its parent commit,
and that shows which grid cells a declared change moves.
The digests themselves are not pinned: they change with every deliberate
behaviour change."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "model_digest.py"
DIGEST = "[0-9a-f]{64}"


def test_one_seed_prints_three_lines_per_model_then_the_grid(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src and perfbench
    spec = importlib.util.spec_from_file_location("model_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main([7])
    lines = capsys.readouterr().out.splitlines()
    grid_algorithms = sys.modules["workloads"].GRID_ALGORITHMS
    cells = [(a.name, d) for a in grid_algorithms for d in ("fraud-0", "fraud-1")]
    assert len(lines) == 25 + len(cells)
    names = []
    for file_line, arrays_line, predictions_line in zip(
        lines[0:24:3], lines[1:24:3], lines[2:24:3]
    ):
        name = re.fullmatch(f"7 (.+) {DIGEST}", file_line).group(1)
        assert re.fullmatch(f"7 {re.escape(name)} arrays {DIGEST}", arrays_line)
        assert re.fullmatch(f"7 {re.escape(name)} predictions {DIGEST}", predictions_line)
        names.append(name)
    assert len(set(names)) == 8
    assert not any(name.endswith((" arrays", " predictions")) for name in names)
    assert re.fullmatch(f"7 grid {DIGEST}", lines[24])
    for (a, d), line in zip(cells, lines[25:]):
        cell = re.escape(f"{a}::{d}")
        savings_mean, f1_mean = re.fullmatch(f"7 grid {cell} (\\S+) (\\S+)", line).groups()
        assert float(savings_mean) < 1 and 0 <= float(f1_mean) <= 1
