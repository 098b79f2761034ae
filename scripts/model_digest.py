"""Print sha256 digests of the benchmark's models and grid reports.

Usage, from the root of a source checkout:

    python3 scripts/model_digest.py 7 101

Per seed: the fit-patches, fit-stacking and score models of the perfbench
set-ups, and a wv-acc, a pasting and a random_forest fit on the fit-patches
data (the file ``ensemble.save`` writes); two single trees on the
fit-patches data, a CSDT with exact midpoints and a gini (error-count) tree
(the file ``csdt.save`` writes); then the digest of one grid experiment's
JSON report, followed by one ``grid <algorithm>::<dataset>`` line per cell
with the repr of its savings_mean and f1_mean, so a change to one learner
or decision layer shows as the cells whose lines move.
Each model gets three lines: the digest of its file; an ``arrays`` line,
the digest of its trees' eight ``csdt.Tree`` arrays and its combiner
parameters as they are in memory, which does not depend on the file format;
and a ``predictions`` line, the digest of its int64 predictions on its
workload's held-out rows, which does not depend on how trees are stored.
A refactor that claims no behaviour change prints the same lines as its
parent commit; a file-format change prints the same ``arrays`` lines, and a
change of tree representation the same ``predictions`` lines.
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from costforest import csdt, ensemble  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def models(seed: int, work: Path) -> tuple[dict, dict, dict]:
    """The seed's ensembles and single trees, by name, and each one's held-out rows."""
    patches = WORKLOADS["fit-patches"]().setup(seed, work)
    stacking = WORKLOADS["fit-stacking"]().setup(seed, work)
    score = WORKLOADS["score"]().setup(seed, work)
    ensembles = {
        "fit-patches": ensemble.train(patches.train, patches.config),
        "fit-patches wv-acc": ensemble.train(
            patches.train, dataclasses.replace(patches.config, combiner="wv-acc")
        ),
        **{
            f"fit-patches {kind}": ensemble.train(patches.train, dataclasses.replace(
                patches.config,
                inducer=dataclasses.replace(patches.config.inducer, kind=kind),
            ))
            for kind in ("pasting", "random_forest")
        },
        "fit-stacking": ensemble.train(stacking.train, stacking.config),
        "score": score.trained,
    }
    trees = {
        "tree exact_midpoints": csdt.grow(
            patches.train, csdt.CsdtConfig(candidate_thresholds="exact_midpoints")
        ),
        "tree gini": csdt.grow(patches.train, csdt.CsdtConfig(impurity="gini")),
    }
    held_out = {name: patches.test for name in [*ensembles, *trees]}
    held_out.update({"fit-stacking": stacking.test, "score": score.pool})
    return ensembles, trees, held_out


def arrays_digest(trees: list, params: list) -> str:
    """sha256 of each tree's size and eight arrays, then of each parameter array."""
    digest = hashlib.sha256()
    for tree in trees:
        digest.update(np.int64(tree.size).tobytes())
        for field in dataclasses.fields(tree):
            digest.update(getattr(tree, field.name).tobytes())
    for param in params:
        digest.update(np.asarray(param, dtype=np.float64).tobytes())
    return digest.hexdigest()


def predictions_digest(model, rows) -> str:
    """sha256 of the model's int64 predictions on a dataset's rows."""
    preds = np.asarray(model.predict_many(rows.X), dtype=np.int64)
    return hashlib.sha256(preds.tobytes()).hexdigest()


def combiner_params(model) -> list:
    if model.weights is not None:
        return [model.weights.alphas]
    if model.stacking is not None:
        s = model.stacking
        return [s.betas, s.intercept, s.threshold]
    return []


def main(seeds: list[int]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in seeds:
            ensembles, trees, held_out = models(seed, work)
            for name, model in ensembles.items():
                ensemble.save(model, work / "model.json")
                print(seed, name, hashlib.sha256((work / "model.json").read_bytes()).hexdigest())
                print(seed, name, "arrays", arrays_digest(model.trees, combiner_params(model)))
                print(seed, name, "predictions", predictions_digest(model, held_out[name]))
            for name, tree in trees.items():
                csdt.save(tree, work / "tree.json")
                print(seed, name, hashlib.sha256((work / "tree.json").read_bytes()).hexdigest())
                print(seed, name, "arrays", arrays_digest([tree.tree], []))
                print(seed, name, "predictions", predictions_digest(tree, held_out[name]))
            grid = WORKLOADS["grid"]()
            report = grid.call(grid.setup(seed, work), None)
            print(seed, "grid", hashlib.sha256(report.to_json().encode()).hexdigest())
            for a in report.algorithms:
                for d in report.datasets:
                    cell = report.cells[(a, d)]
                    print(seed, "grid", f"{a}::{d}", repr(cell.savings_mean), repr(cell.f1_mean))


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [7])
