"""Command-line interface: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage/config error, 2 data/validation error,
3 internal error. Config files are JSON with a mandatory "version" key;
unknown keys are rejected so typos fail loudly. A single --seed flag drives
every random substream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cost_builders, ensemble, sampling, theory
from .combiners import GaConfig
from .config import from_json
from .cost_model import normalized_cost, savings, total_cost
from .csdt import CsdtConfig
from .data import (
    CsvSchema,
    RawTable,
    SplitSpec,
    dataset_from_table,
    feature_columns,
    read_table,
    split,
    write_table,
)
from .ensemble import EcsdtConfig
from .errors import ConfigError, CostForestError, ValidationError
from .evaluation import AlgorithmSpec, ExperimentSpec, f1_score, run_experiment
from .inducers import InducerConfig

CONFIG_VERSION = "1"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _read_config(path: str, cls):
    """Read a JSON config file with the mandatory version key as a ``cls``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    if data.pop("version", None) != CONFIG_VERSION:
        raise ConfigError(f"{p}: missing or unsupported 'version' key (need \"{CONFIG_VERSION}\")")
    try:
        return from_json(cls, data)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


@dataclass(frozen=True)
class _Combiner:
    kind: str = EcsdtConfig.combiner
    ga: GaConfig = field(default_factory=GaConfig)


@dataclass(frozen=True)
class _TrainConfig:
    """A train config file: an :class:`EcsdtConfig` whose combiner is an object."""

    inducer: InducerConfig = field(default_factory=InducerConfig)
    tree: CsdtConfig = field(default_factory=CsdtConfig)
    combiner: _Combiner = field(default_factory=_Combiner)

    def ecsdt_config(self, seed: int | None = None) -> EcsdtConfig:
        """The ensemble config, with ``seed`` (if given) for the inducer and the GA."""
        inducer, ga = self.inducer, self.combiner.ga
        if seed is not None:
            inducer, ga = replace(inducer, seed=seed), replace(ga, seed=seed)
        return EcsdtConfig(inducer, self.tree, self.combiner.kind, ga)

    def validate(self) -> None:
        self.ecsdt_config().validate()


@dataclass(frozen=True, kw_only=True)
class _Dataset(CsvSchema):
    """A benchmark spec's dataset: its CSV file's schema, name and split."""

    name: str
    csv: str
    split: dict = field(default_factory=dict)  # SplitSpec keys; seed defaults to the spec's

    def split_spec(self, seed: int, key: str = "split") -> SplitSpec:
        return from_json(SplitSpec, {"seed": seed, **self.split}, key)


@dataclass(frozen=True)
class _BenchmarkSpec:
    datasets: list[_Dataset] = field(default_factory=list)
    algorithms: list[AlgorithmSpec] = field(default_factory=list)
    repetitions: int = ExperimentSpec.repetitions
    seed: int = ExperimentSpec.seed

    def validate(self) -> None:
        for i, dataset in enumerate(self.datasets):
            dataset.split_spec(self.seed, f"datasets[{i}].split")
        for algo in self.algorithms:
            algo.validate()


# domain -> (parameter class, cost builder); the builder reads the columns
# that the class's *_col fields name, in field order
_COST_DOMAINS = {
    "fraud": (cost_builders.FraudCostParams, cost_builders.build_fraud_costs),
    "churn": (cost_builders.ChurnCostParams, cost_builders.build_churn_costs),
    "credit": (cost_builders.CreditCostParams, cost_builders.build_credit_costs),
    "marketing": (cost_builders.MarketingCostParams, cost_builders.build_marketing_costs),
}


def _schema_from_args(args) -> CsvSchema:
    cost_cols = tuple(c.strip() for c in args.cost_cols.split(","))
    if len(cost_cols) != 4:
        raise ConfigError("--cost-cols needs exactly four comma-separated names (tp,fp,fn,tn)")
    drop = tuple(c.strip() for c in args.drop_cols.split(",") if c.strip()) if args.drop_cols else ()
    return CsvSchema(
        label_col=args.label_col,
        cost_cols=cost_cols,
        drop_cols=drop,
        strict=not args.relaxed,
    )


def _add_schema_flags(parser) -> None:
    parser.add_argument("--label-col", default="y", help="label column name")
    parser.add_argument(
        "--cost-cols", default="c_tp,c_fp,c_fn,c_tn",
        help="four cost column names in tp,fp,fn,tn order",
    )
    parser.add_argument("--drop-cols", default="", help="comma-separated columns to ignore")
    parser.add_argument(
        "--relaxed", action="store_true",
        help="accept rows violating the reasonableness conditions",
    )


def _cmd_build_costs(args) -> int:
    params_cls, build = _COST_DOMAINS[args.domain]
    p = _read_config(args.params, params_cls)
    table = read_table(args.data)
    columns = [table.column(getattr(p, f.name)) for f in fields(p) if f.name.endswith("_col")]
    costs = build(*columns, p, not args.relaxed)
    cost_names = ["c_tp", "c_fp", "c_fn", "c_tn"]
    clash = [c for c in cost_names if c in table.columns]
    if clash:
        raise ValidationError(f"{args.data}: cost columns already present: {clash}")
    out = RawTable(
        columns=table.columns + cost_names,
        data=np.column_stack([table.data, costs]),
        path=args.out,
    )
    write_table(out, args.out)
    return 0


def _cmd_resample(args) -> int:
    schema = _schema_from_args(args)
    table = read_table(args.data)
    dataset = dataset_from_table(table, schema)
    spec = sampling.SamplingSpec(sampling.SAMPLING_CODES[args.method], args.seed)
    idx = sampling.resample_indices(dataset, spec)
    write_table(RawTable(table.columns, table.data[idx], args.out), args.out)
    return 0


def _cmd_train(args) -> int:
    config = _read_config(args.config, _TrainConfig).ecsdt_config(args.seed)
    train_set = dataset_from_table(read_table(args.train), _schema_from_args(args))
    model = ensemble.train(train_set, config)
    ensemble.save(model, args.model_out)
    return 0


def _feature_matrix(table: RawTable, args, k: int) -> np.ndarray:
    feature_cols = feature_columns(table, _schema_from_args(args))
    if len(feature_cols) != k:
        raise ValidationError(
            f"{table.path}: {len(feature_cols)} feature columns but the model expects {k}"
        )
    return np.column_stack([table.column(c) for c in feature_cols])


def _cmd_predict(args) -> int:
    model = ensemble.load(args.model)
    table = read_table(args.data)
    X = _feature_matrix(table, args, model.k)
    preds = model.predict_many(X)
    with Path(args.out).open("w", encoding="utf-8") as fh:
        fh.write("prediction\n")
        fh.writelines(f"{int(p)}\n" for p in preds)
    return 0


def _cmd_evaluate(args) -> int:
    dataset = dataset_from_table(read_table(args.data), _schema_from_args(args))
    pred_table = read_table(args.pred)
    preds = pred_table.column("prediction")
    metrics = {
        "n": dataset.n,
        "total_cost": total_cost(dataset, preds),
        "normalized_cost": normalized_cost(dataset, preds),
        "savings": savings(dataset, preds),
        "f1": f1_score(dataset.y, preds),
    }
    Path(args.out).write_text(json.dumps(metrics, indent=1, sort_keys=True), encoding="utf-8")
    return 0


def _cmd_benchmark(args) -> int:
    spec = _read_config(args.spec, _BenchmarkSpec)
    seed = args.seed if args.seed is not None else spec.seed
    datasets = [
        (d.name, split(dataset_from_table(read_table(d.csv), d), d.split_spec(seed)))
        for d in spec.datasets
    ]
    experiment = ExperimentSpec(spec.algorithms, datasets, spec.repetitions, seed)
    report = run_experiment(experiment, jobs=args.jobs)
    out = Path(args.out)
    if out.suffix == ".csv":
        out.write_text(report.to_csv(), encoding="utf-8")
    else:
        out.write_text(report.to_json(), encoding="utf-8")
    return 0


def _cmd_verify_theory(args) -> int:
    params = theory.TheoryParams(
        T=args.T, rho=args.rho, n_examples=args.n,
        n_trials=args.trials, seed=args.seed or 0,
    )
    params.validate()
    closed = theory.ensemble_correct_prob(args.T, args.rho)
    mc = theory.mc_majority_correct(args.T, args.rho, args.mc_samples, seed=params.seed)
    lemma = theory.simulate_lemma1(params)
    thm = theory.simulate_theorem1(params)
    report = {
        "params": {
            "T": args.T, "rho": args.rho, "n_examples": args.n,
            "n_trials": args.trials, "seed": params.seed,
        },
        "majority_correct_prob": {
            "closed_form": closed,
            "monte_carlo": mc,
            "mc_samples": args.mc_samples,
        },
        "single_class_cost_check": {
            str(a): vars(r) for a, r in lemma.items()
        },
        "ensemble_savings_check": vars(thm),
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(
        f"majority-correct prob: closed={closed:.6f} mc={mc:.6f}; "
        f"savings-gap mean={thm.mean_diff:.6f} (se {thm.se_diff:.6f}, "
        f"held {100 * thm.frac_held:.1f}%)"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="costforest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-costs", help="append domain cost columns to a CSV")
    p.add_argument("--domain", required=True, choices=list(_COST_DOMAINS))
    p.add_argument("--params", required=True, help="JSON parameter file")
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(func=_cmd_build_costs)

    p = sub.add_parser("resample", help="write a u/r/o training variant of a CSV")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--method", required=True,
        choices=[code for code, method in sampling.SAMPLING_CODES.items() if method],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("train", help="train an ensemble model")
    p.add_argument("--config", required=True, help="JSON training config")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--model-out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seeds")
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    _add_schema_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("benchmark", help="run an algorithms x datasets experiment")
    p.add_argument("--spec", required=True, help="JSON experiment spec")
    p.add_argument("--out", required=True, help="report path (.json or .csv)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="parallel cell workers (results are identical for any value)",
    )
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("verify-theory", help="Monte-Carlo check of the savings inequality")
    p.add_argument("--T", type=int, default=11)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n", type=int, default=500, help="examples per trial")
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CostForestError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
