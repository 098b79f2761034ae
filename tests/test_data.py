import numpy as np
import pytest

from costforest import CostedDataset, ValidationError
from costforest.data import (
    CsvSchema,
    DatasetBundle,
    SplitSpec,
    load_csv,
    read_table,
    split,
    split_indices,
    split_sizes,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = (
    "f1,f2,y,c_tp,c_fp,c_fn,c_tn\n"
    "0.5,1.0,1,3,3,100,0\n"
    "1.5,2.0,0,3,3,100,0\n"
    "2.5,0.5,0,3,3,50,0\n"
)


def random_dataset(n, seed=0, k=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    y = rng.integers(0, 2, size=n)
    costs = np.column_stack(
        [np.ones(n), np.full(n, 5.0), rng.uniform(10, 100, n), np.zeros(n)]
    )
    return CostedDataset(X, y, costs)


class TestLoadCsv:
    def test_schema_echo(self, tmp_path):
        ds = load_csv(write_csv(tmp_path / "d.csv", GOOD_CSV))
        assert ds.k == 2
        assert ds.n == 3
        assert ds.feature_names == ["f1", "f2"]
        assert ds.y.tolist() == [1, 0, 0]

    def test_strict_violation_names_row(self, tmp_path):
        bad = GOOD_CSV + "3.0,3.0,1,3,3,3,0\n"  # c_fn == c_tp
        p = write_csv(tmp_path / "bad.csv", bad)
        with pytest.raises(ValidationError, match="rows \\[3\\]"):
            load_csv(p)
        ds = load_csv(p, CsvSchema(strict=False))
        assert ds.n == 4

    def test_no_feature_columns(self, tmp_path):
        p = write_csv(
            tmp_path / "nf.csv", "y,c_tp,c_fp,c_fn,c_tn\n1,3,3,100,0\n"
        )
        with pytest.raises(ValidationError, match="feature"):
            load_csv(p)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "mc.csv", "f1,y,c_tp,c_fp,c_fn\n1,1,3,3,100\n")
        with pytest.raises(ValidationError, match="c_tn"):
            load_csv(p)

    def test_non_numeric_cell_names_position(self, tmp_path):
        p = write_csv(
            tmp_path / "nn.csv",
            "f1,y,c_tp,c_fp,c_fn,c_tn\noops,1,3,3,100,0\n",
        )
        with pytest.raises(ValidationError, match="row 2.*'f1'"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_csv(tmp_path / "absent.csv")

    def test_row_order_preserved(self, tmp_path):
        ds = load_csv(write_csv(tmp_path / "d.csv", GOOD_CSV))
        assert ds.X[:, 0].tolist() == [0.5, 1.5, 2.5]


class TestSplit:
    def test_default_fractions_n100(self):
        ds = random_dataset(100)
        bundle = split(ds, SplitSpec(seed=3))
        assert (bundle.train.n, bundle.valid.n, bundle.test.n) == (50, 25, 25)

    def test_rounding_remainder_to_train(self):
        assert split_sizes(10, SplitSpec()) == (6, 2, 2)

    def test_same_seed_identical(self):
        idx_a = split_indices(57, SplitSpec(seed=11))
        idx_b = split_indices(57, SplitSpec(seed=11))
        for a, b in zip(idx_a, idx_b):
            assert np.array_equal(a, b)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            split(random_dataset(3), SplitSpec(seed=0))

    def test_bad_fractions(self):
        with pytest.raises(ValidationError):
            split(random_dataset(20), SplitSpec(0.5, 0.3, 0.3, seed=0))

    @pytest.mark.parametrize("which", range(3))
    def test_nan_fraction_rejected(self, which):
        # NaN passed both comparisons and failed in split_sizes' int(n * NaN)
        fracs = [0.5, 0.25, 0.25]
        fracs[which] = float("nan")
        with pytest.raises(ValidationError, match="split fractions must be positive"):
            split(random_dataset(20), SplitSpec(*fracs, seed=0))

    def test_bundle_type(self):
        assert isinstance(split(random_dataset(40), SplitSpec(seed=1)), DatasetBundle)

    def test_disjoint_and_covering_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 400))
            seed = int(rng.integers(0, 2**63))
            tr, va, te = split_indices(n, SplitSpec(seed=seed))
            merged = np.concatenate([tr, va, te])
            assert merged.size == n
            assert np.array_equal(np.sort(merged), np.arange(n))

    def test_class_proportions_converge(self):
        rng = np.random.default_rng(5)
        n = 10_000
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.3).astype(int)
        costs = np.column_stack(
            [np.zeros(n), np.ones(n), np.full(n, 2.0), np.zeros(n)]
        )
        ds = CostedDataset(X, y, costs)
        bundle = split(ds, SplitSpec(seed=123))
        source = y.mean()
        for part in (bundle.train, bundle.valid, bundle.test):
            assert abs(part.y.mean() - source) < 0.02


def test_read_table_column_access(tmp_path):
    table = read_table(write_csv(tmp_path / "t.csv", GOOD_CSV))
    assert table.column("c_fn").tolist() == [100.0, 100.0, 50.0]
    with pytest.raises(ValidationError):
        table.column("nope")
