"""Print sha256 digests of the benchmark's models and grid reports.

Usage, from the root of a source checkout:

    python3 scripts/model_digest.py 7 101

Per seed: the fit-patches, fit-stacking and score models of the perfbench
set-ups, and a wv-acc, a pasting and a random_forest fit on the fit-patches
data (the file ``ensemble.save`` writes); two single trees on the
fit-patches data, a CSDT with exact midpoints and ``baselines.gini_tree``
(the file ``csdt.save`` writes); then one grid experiment's JSON report.
Each model gets two lines: the digest of its file, and an ``arrays`` line,
the digest of its trees' eight ``csdt.Tree`` arrays and its combiner
parameters as they are in memory, which does not depend on the file format.
A refactor that claims no behaviour change prints the same lines as its
parent commit; a file-format change prints the same ``arrays`` lines.
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from costforest import baselines, csdt, ensemble  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def models(seed: int, work: Path) -> tuple[dict, dict]:
    """The seed's ensembles and single trees, by name."""
    patches = WORKLOADS["fit-patches"]().setup(seed, work)
    stacking = WORKLOADS["fit-stacking"]().setup(seed, work)
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
        "score": WORKLOADS["score"]().setup(seed, work).trained,
    }
    trees = {
        "tree exact_midpoints": csdt.grow(
            patches.train, csdt.CsdtConfig(candidate_thresholds="exact_midpoints")
        ),
        "tree gini": baselines.gini_tree(patches.train),
    }
    return ensembles, trees


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
            ensembles, trees = models(seed, work)
            for name, model in ensembles.items():
                ensemble.save(model, work / "model.json")
                print(seed, name, hashlib.sha256((work / "model.json").read_bytes()).hexdigest())
                digest = arrays_digest([m.tree for m in model.base_models], combiner_params(model))
                print(seed, name, "arrays", digest)
            for name, tree in trees.items():
                csdt.save(tree, work / "tree.json")
                print(seed, name, hashlib.sha256((work / "tree.json").read_bytes()).hexdigest())
                print(seed, name, "arrays", arrays_digest([tree.tree], []))
            grid = WORKLOADS["grid"]()
            report = grid.call(grid.setup(seed, work), None).to_json()
            print(seed, "grid", hashlib.sha256(report.encode()).hexdigest())


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [7])
