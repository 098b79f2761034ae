"""Print sha256 digests of the benchmark's model files and grid reports.

Usage, from the root of a source checkout:

    python3 scripts/model_digest.py 7 101

Per seed: the fit-patches, fit-stacking and score models of the perfbench
set-ups, and a wv-acc, a pasting and a random_forest fit on the fit-patches
data (the file ``ensemble.save`` writes); two single trees on the
fit-patches data, a CSDT with exact midpoints and ``baselines.gini_tree``
(the file ``csdt.save`` writes); then one grid experiment's JSON report. A
refactor that claims no behaviour change prints the same lines as its
parent commit.
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from costforest import baselines, csdt, ensemble  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds: list[int]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in seeds:
            patches = WORKLOADS["fit-patches"]().setup(seed, work)
            stacking = WORKLOADS["fit-stacking"]().setup(seed, work)
            models = {
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
            for name, model in models.items():
                ensemble.save(model, work / "model.json")
                print(seed, name, hashlib.sha256((work / "model.json").read_bytes()).hexdigest())
            trees = {
                "tree exact_midpoints": csdt.grow(
                    patches.train, csdt.CsdtConfig(candidate_thresholds="exact_midpoints")
                ),
                "tree gini": baselines.gini_tree(patches.train),
            }
            for name, tree in trees.items():
                csdt.save(tree, work / "tree.json")
                print(seed, name, hashlib.sha256((work / "tree.json").read_bytes()).hexdigest())
            grid = WORKLOADS["grid"]()
            report = grid.call(grid.setup(seed, work), None).to_json()
            print(seed, "grid", hashlib.sha256(report.encode()).hexdigest())


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [7])
