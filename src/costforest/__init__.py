"""Ensembles of example-dependent cost-sensitive decision trees.

Per-example cost accounting, a cost-sensitive tree learner, randomized
subsample inducers, voting/stacking combiners, baseline methods, Monte-Carlo
checks of the ensemble-savings inequality, and a benchmark harness.
"""

from . import (
    baselines,
    combiners,
    cost_builders,
    cost_model,
    csdt,
    data,
    ensemble,
    evaluation,
    inducers,
    sampling,
    theory,
)
from .cost_model import (
    CostedDataset,
    costless_class_cost,
    normalized_cost,
    savings,
    total_cost,
)
from .errors import ConfigError, CostForestError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "CostedDataset",
    "ConfigError",
    "CostForestError",
    "ValidationError",
    "baselines",
    "combiners",
    "cost_builders",
    "cost_model",
    "costless_class_cost",
    "csdt",
    "data",
    "ensemble",
    "evaluation",
    "inducers",
    "normalized_cost",
    "sampling",
    "savings",
    "theory",
    "total_cost",
    "__version__",
]
