import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from costforest import ConfigError, CostedDataset, cli, csdt, ensemble
from costforest.baselines import LrConfig, train_logistic
from costforest.combiners import GaConfig
from costforest.config import from_json
from costforest.cost_builders import (
    ChurnCostParams,
    CreditCostParams,
    FraudCostParams,
    MarketingCostParams,
)
from costforest.csdt import CsdtConfig
from costforest.data import CsvSchema, DatasetBundle, SplitSpec
from costforest.ensemble import EcsdtConfig
from costforest.evaluation import AlgorithmConfig, AlgorithmSpec, ExperimentSpec, run_experiment
from costforest.inducers import InducerConfig
from costforest.theory import TheoryParams, simulate_theorem1

# one instance of every class that JSON is read into
SERVED = [
    InducerConfig(), CsdtConfig(), GaConfig(), EcsdtConfig(), LrConfig(),
    CsvSchema(), SplitSpec(), AlgorithmConfig(),
    AlgorithmSpec("ecsdt", "x", "ecsdt", "u", {"T": 5, "tree": {"max_depth": 3}}),
    FraudCostParams(admin_cost=3.0), ChurnCostParams(admin_cost=2),
    CreditCostParams(0.75, 0.9, 0.1, 30.0, 1000.0), MarketingCostParams(admin_cost=1.0),
    cli._Combiner(), cli._TrainConfig(),
    cli._BenchmarkSpec(
        datasets=[cli._Dataset(name="d", csv="d.csv", split={"seed": 3}, drop_cols=("x",))],
        algorithms=[AlgorithmSpec("ci", "lr", "lr", config={"lr": {"n_iter": 5}})],
        repetitions=2,
    ),
]


@pytest.mark.parametrize("instance", SERVED, ids=lambda c: type(c).__name__)
def test_json_round_trip(instance):
    cls = type(instance)
    assert from_json(cls, json.loads(json.dumps(asdict(instance)))) == instance
    assert from_json(cls, json.loads(json.dumps(asdict(instance))), complete=True) == instance


class TestRule:
    def test_not_an_object(self):
        with pytest.raises(ConfigError, match=r"'tree' must be an object, got \[1\]"):
            from_json(EcsdtConfig, {"tree": [1]})
        with pytest.raises(ConfigError, match="must be an object"):
            from_json(CsdtConfig, 3)

    def test_unknown_and_missing_keys_named(self):
        with pytest.raises(ConfigError, match=r"unknown keys \['depht'\] in 'tree'"):
            from_json(EcsdtConfig, {"tree": {"depht": 3}})
        with pytest.raises(ConfigError, match=r"missing keys \['admin_cost'\]"):
            from_json(FraudCostParams, {})
        with pytest.raises(ConfigError, match=r"missing keys \['impurity'\] in 'tree'"):
            tree = asdict(CsdtConfig())
            del tree["impurity"]
            from_json(EcsdtConfig, {**asdict(EcsdtConfig()), "tree": tree}, complete=True)

    @pytest.mark.parametrize("key, value, message", [
        ("max_depth", 3.0, "'max_depth' must be an integer, got 3.0"),
        ("max_depth", True, "'max_depth' must be an integer, got True"),
        ("max_depth", "3", "'max_depth' must be an integer, got '3'"),
        ("min_gain", False, "'min_gain' must be a number, got False"),
        ("min_gain", "0", "'min_gain' must be a number, got '0'"),
        ("pruning", 1, "'pruning' must be a boolean, got 1"),
        ("impurity", None, "'impurity' must be a string, got None"),
    ])
    def test_scalar_types(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            from_json(CsdtConfig, {key: value})

    def test_float_keeps_an_int(self):
        config = from_json(CsdtConfig, {"min_gain": 0})
        assert config.min_gain == 0 and type(config.min_gain) is int

    def test_union_and_none(self):
        assert from_json(InducerConfig, {"n_examples": 0.5}).n_examples == 0.5
        assert from_json(InducerConfig, {"n_examples": 7}).n_examples == 7
        assert from_json(InducerConfig, {"n_features": None}).n_features is None
        with pytest.raises(ConfigError, match="an integer or a number or null, got 'half'"):
            from_json(InducerConfig, {"n_examples": "half"})

    def test_tuples_from_lists(self):
        assert from_json(GaConfig, {"beta_bounds": [-1, 2.5]}).beta_bounds == (-1, 2.5)
        schema = from_json(CsvSchema, {"cost_cols": ["a", "b", "c", "d"], "drop_cols": ["x"]})
        assert schema.cost_cols == ("a", "b", "c", "d") and schema.drop_cols == ("x",)
        with pytest.raises(ConfigError, match="'cost_cols' must be a list of 4 strings"):
            from_json(CsvSchema, {"cost_cols": ["a", "b", "c"]})
        with pytest.raises(ConfigError, match="'beta_bounds' must be a list of 2 numbers"):
            from_json(GaConfig, {"beta_bounds": [0, "1"]})
        with pytest.raises(ConfigError, match="'drop_cols' must be a list of strings"):
            from_json(CsvSchema, {"drop_cols": "x"})

    def test_nested_objects_read_by_the_same_rule(self):
        config = from_json(EcsdtConfig, {"tree": {"max_depth": 4}, "ga": {"population": 8}})
        assert config == EcsdtConfig(tree=CsdtConfig(max_depth=4), ga=GaConfig(population=8))
        with pytest.raises(ConfigError, match="'ga.generations' must be an integer, got '5'"):
            from_json(EcsdtConfig, {"ga": {"generations": "5"}})

    def test_validate_runs_and_names_the_key(self):
        with pytest.raises(ConfigError, match="^n_quantiles must be >= 2"):
            from_json(CsdtConfig, {"n_quantiles": 1})
        with pytest.raises(ConfigError, match="^'config': max_depth must be >= 1"):
            from_json(EcsdtConfig, {"tree": {"max_depth": 0}}, "config")
        # ranges are validate()'s, and a nested object is checked by its parent's
        assert from_json(EcsdtConfig, {"ga": {"population": 2}}).ga.population == 2
        with pytest.raises(ConfigError, match="population must be >= 4"):
            from_json(EcsdtConfig, {"combiner": "stacking", "ga": {"population": 2}})

    def test_failure_while_building_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^'p': admin_cost must be positive"):
            from_json(FraudCostParams, {"admin_cost": -1}, "p")
        with pytest.raises(ConfigError, match="pi_0 \\+ pi_1 must equal 1"):
            from_json(CreditCostParams, {"loss_given_default": 0.5, "pi_0": 0.5, "pi_1": 0.6,
                                         "mean_profit": 1.0, "mean_credit_line": 1.0})
        with pytest.raises(ConfigError, match="TypeError"):
            from_json(GaConfig, {"beta_bounds": [0, 10**400]})

    @pytest.mark.parametrize("cls, key, value", [
        (CsdtConfig, "min_gain", math.nan),
        (CsdtConfig, "min_gain", math.inf),
        (CsdtConfig, "min_gain", -math.inf),
        (GaConfig, "mutation_sigma", math.inf),
    ])
    def test_non_finite_number_rejected(self, cls, key, value):
        # NaN made every split pass min_gain; an infinite sigma made the GA's genes NaN
        with pytest.raises(ConfigError, match=f"^'c': {key} must be finite, got {value}"):
            from_json(cls, {key: value}, "c")

    def test_type_checks_only(self):
        """No range check is added: an infinite learning rate fails at training time."""
        assert from_json(LrConfig, {"learning_rate": math.inf}).learning_rate == math.inf


class TestIntegerCounts:
    """Counts built through the Python API are checked as the JSON reader checks them."""

    @pytest.mark.parametrize("cls, field, value", [
        (CsdtConfig, "n_quantiles", 10.5),
        (CsdtConfig, "n_quantiles", np.float64(100.0)),
        (CsdtConfig, "max_depth", True),
        (CsdtConfig, "max_depth", 3.0),
        (CsdtConfig, "min_samples_split", 2.5),
        (InducerConfig, "T", 3.5),
        (InducerConfig, "T", np.True_),
        (InducerConfig, "seed", 1.5),
        (InducerConfig, "seed", False),
        (GaConfig, "population", 8.0),
        (GaConfig, "generations", 2.5),
        (GaConfig, "elitism", True),
        (GaConfig, "tournament", 3.5),
        (GaConfig, "seed", 1.5),
        (LrConfig, "n_iter", 2.5),
        (ExperimentSpec, "repetitions", 2.0),
        (ExperimentSpec, "seed", 1.5),
        (TheoryParams, "T", 11.0),
        (TheoryParams, "n_examples", np.float64(500)),
        (TheoryParams, "n_trials", True),
        (TheoryParams, "seed", 0.5),
    ])
    def test_non_integers_rejected(self, cls, field, value):
        required = {"algorithms": [], "datasets": []} if cls is ExperimentSpec else {}
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got"):
            cls(**required, **{field: value}).validate()

    def test_numpy_integers_accepted(self):
        CsdtConfig(max_depth=np.int64(3), min_samples_split=np.int32(2),
                   n_quantiles=np.uint8(10)).validate()
        InducerConfig(T=np.int64(5), seed=np.uint32(7)).validate()

    def test_growth_and_training_reject_them_before_any_work(self):
        rng = np.random.default_rng(3)
        ds = CostedDataset(rng.normal(size=(40, 2)), rng.integers(0, 2, 40),
                           np.tile([0.0, 1.0, 3.0, 0.0], (40, 1)))
        with pytest.raises(ConfigError, match="n_quantiles must be an integer"):
            csdt.grow(ds, CsdtConfig(n_quantiles=10.5))
        for inducer in (InducerConfig(T=3.5), InducerConfig(T=3, seed=1.5)):
            with pytest.raises(ConfigError, match="must be an integer"):
                ensemble.train(ds, EcsdtConfig(inducer=inducer))
        with pytest.raises(ConfigError, match="generations must be an integer"):
            ensemble.train(ds, EcsdtConfig(combiner="stacking", ga=GaConfig(generations=2.5)))
        with pytest.raises(ConfigError, match="n_iter must be an integer"):
            train_logistic(ds, LrConfig(n_iter=2.5))
        with pytest.raises(ConfigError, match="T must be an integer"):
            simulate_theorem1(TheoryParams(T=11.0))

    def test_an_experiment_with_a_fractional_seed_runs_no_cell(self):
        ds = CostedDataset(np.zeros((4, 1)), [0, 1, 0, 1], np.tile([0.0, 1.0, 3.0, 0.0], (4, 1)))
        spec = ExperimentSpec([AlgorithmSpec("dt", "x", "dt", "u", {})],
                              [("d", DatasetBundle(ds, ds, ds))], seed=1.5)
        with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
            run_experiment(spec)
