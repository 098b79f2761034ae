"""CSV ingestion and the train/validation/test partition.

Input files are UTF-8 CSVs with a header row and '.' decimal separators.
The schema names the label column and the four cost columns; every other
numeric column is a feature unless explicitly dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cost_model import CostedDataset
from .errors import ValidationError
from .rng import STREAM_SPLIT, make_rng

DEFAULT_COST_COLS = ("c_tp", "c_fp", "c_fn", "c_tn")


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for :func:`load_csv`.

    cost_cols follow the (tp, fp, fn, tn) order. Columns not named here are
    parsed as numeric features, minus ``drop_cols``.
    """

    label_col: str = "y"
    cost_cols: tuple[str, str, str, str] = DEFAULT_COST_COLS
    drop_cols: tuple[str, ...] = ()
    strict: bool = True


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train/valid/test partition, plus the shuffle seed."""

    train_frac: float = 0.50
    valid_frac: float = 0.25
    test_frac: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValidationError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValidationError(f"split fractions must sum to 1, got {sum(fracs)}")


@dataclass(frozen=True)
class DatasetBundle:
    """The three disjoint partitions extracted from one source dataset."""

    train: CostedDataset
    valid: CostedDataset
    test: CostedDataset


@dataclass
class RawTable:
    """A parsed CSV: column names and float columns, order preserved."""

    columns: list[str]
    data: np.ndarray  # (n_rows, n_cols) float64
    path: str = ""

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValidationError(f"column '{name}' not found in {self.path or 'table'}")
        return self.data[:, self.columns.index(name)]


def read_table(path: str | Path) -> RawTable:
    """Parse a numeric CSV with a header row into a :class:`RawTable`."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise ValidationError(f"{path}: duplicate column names in header")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {lineno}, column '{name}': non-numeric value {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return RawTable(columns=header, data=np.array(rows, dtype=np.float64), path=str(path))


def write_table(table: RawTable, path: str | Path) -> None:
    """Write a :class:`RawTable` back to CSV (floats via repr, round-trip exact)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        for row in table.data:
            writer.writerow([repr(float(v)) for v in row])


def feature_columns(table: RawTable, schema: CsvSchema) -> list[str]:
    """The table's columns that are neither the label, a cost nor dropped, in order."""
    named = {schema.label_col, *schema.cost_cols, *schema.drop_cols}
    return [c for c in table.columns if c not in named]


def dataset_from_table(table: RawTable, schema: CsvSchema) -> CostedDataset:
    """Assemble a validated :class:`CostedDataset` from a parsed table."""
    for col in (schema.label_col, *schema.cost_cols):
        if col not in table.columns:
            raise ValidationError(
                f"{table.path or 'table'}: required column '{col}' missing "
                f"(have {table.columns})"
            )
    feature_cols = feature_columns(table, schema)
    if not feature_cols:
        raise ValidationError(
            f"{table.path or 'table'}: no feature columns left after "
            f"removing label/cost/drop columns"
        )
    y_raw = table.column(schema.label_col)
    if not np.isin(y_raw, (0.0, 1.0)).all():
        bad = np.flatnonzero(~np.isin(y_raw, (0.0, 1.0)))[0]
        raise ValidationError(
            f"{table.path or 'table'}: row {bad + 2}: label must be 0 or 1, "
            f"got {y_raw[bad]}"
        )
    X = np.column_stack([table.column(c) for c in feature_cols])
    costs = np.column_stack([table.column(c) for c in schema.cost_cols])
    try:
        return CostedDataset(
            X, y_raw.astype(np.int64), costs,
            feature_names=feature_cols, strict=schema.strict,
        )
    except ValidationError as exc:
        raise ValidationError(f"{table.path or 'table'}: {exc}") from None


def load_csv(path: str | Path, schema: CsvSchema | None = None) -> CostedDataset:
    """Load an augmented CSV (features + label + four cost columns)."""
    return dataset_from_table(read_table(path), schema or CsvSchema())


def split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    """Floor-rounded split sizes with the remainder assigned to train."""
    n_train = int(n * spec.train_frac)
    n_valid = int(n * spec.valid_frac)
    n_test = int(n * spec.test_frac)
    n_train += n - (n_train + n_valid + n_test)
    return n_train, n_valid, n_test


def split(dataset: CostedDataset, spec: SplitSpec | None = None) -> DatasetBundle:
    """Uniform random partition into train/valid/test by the spec's seed."""
    spec = spec or SplitSpec()
    spec.validate()
    n = dataset.n
    if n < 4:
        raise ValidationError(f"cannot split a dataset of {n} rows, need N >= 4")
    n_train, n_valid, n_test = split_sizes(n, spec)
    if min(n_train, n_valid, n_test) < 1:
        raise ValidationError(
            f"split of N={n} leaves an empty part: sizes "
            f"({n_train}, {n_valid}, {n_test})"
        )
    return DatasetBundle(*(dataset.subset(rows) for rows in split_indices(n, spec)))


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted train/valid/test row indices behind :func:`split`."""
    n_train, n_valid, _ = split_sizes(n, spec)
    perm = make_rng(spec.seed, STREAM_SPLIT).permutation(n)
    return (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train:n_train + n_valid]),
        np.sort(perm[n_train + n_valid:]),
    )
