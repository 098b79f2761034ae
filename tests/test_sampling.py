import numpy as np
import pytest

from costforest import CostedDataset, ValidationError
from costforest.sampling import (
    SamplingSpec,
    misclassification_weights,
    oversample,
    rejection_sample,
    resample,
    resample_indices,
    undersample,
)


def make_dataset(y, fn_costs, fp_costs=None):
    y = np.asarray(y)
    n = y.size
    fn = np.asarray(fn_costs, dtype=float)
    fp = np.full(n, 5.0) if fp_costs is None else np.asarray(fp_costs, dtype=float)
    costs = np.column_stack([np.zeros(n), fp, fn, np.zeros(n)])
    X = np.arange(n, dtype=float).reshape(-1, 1)
    return CostedDataset(X, y, costs, strict=False)


class TestUndersample:
    def test_balances_classes(self):
        rng = np.random.default_rng(0)
        y = np.concatenate([np.ones(50, dtype=int), np.zeros(950, dtype=int)])
        ds = make_dataset(y, rng.uniform(10, 100, 1000))
        out = undersample(ds, seed=4)
        n0, n1 = out.class_counts()
        assert (n0, n1) == (50, 50)

    def test_already_balanced_identity(self):
        ds = make_dataset([1, 0, 1, 0], [10, 10, 10, 10])
        out = undersample(ds, seed=9)
        assert np.array_equal(out.X, ds.X)
        assert np.array_equal(out.y, ds.y)

    def test_deterministic(self):
        y = np.concatenate([np.ones(10, dtype=int), np.zeros(90, dtype=int)])
        ds = make_dataset(y, np.full(100, 20.0))
        a, b = undersample(ds, seed=7), undersample(ds, seed=7)
        assert np.array_equal(a.X, b.X)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            undersample(make_dataset([1, 1, 1], [10, 10, 10]), seed=0)


class TestRejectionSample:
    def test_uniform_weights_identity(self):
        # weights: pos -> c_fn = 10, neg -> c_fp = 10, all equal -> keep everything
        ds = make_dataset([1, 1, 0, 0], [10, 10, 0, 0], fp_costs=[0, 0, 10, 10])
        out = rejection_sample(ds, seed=3)
        assert out.n == 4
        assert np.array_equal(out.X, ds.X)

    def test_inclusion_rates_match_weights(self):
        # weights (100, 1): first always kept, second kept ~1% of draws
        ds = make_dataset([1, 1], [100.0, 1.0])
        kept_second = 0
        n_seeds = 10_000
        for seed in range(n_seeds):
            out = rejection_sample(ds, seed=seed)
            assert 0.0 in out.X[:, 0]  # weight-100 example always present
            kept_second += int(1.0 in out.X[:, 0])
        rate = kept_second / n_seeds
        assert abs(rate - 0.01) < 0.003

    def test_inclusion_frequencies_within_3se(self):
        rng = np.random.default_rng(11)
        n = 20
        fn = rng.uniform(1, 50, n)
        ds = make_dataset(np.ones(n, dtype=int), fn)
        expect = fn / fn.max()
        counts = np.zeros(n)
        n_seeds = 10_000
        for seed in range(n_seeds):
            out = rejection_sample(ds, seed=seed)
            counts[out.X[:, 0].astype(int)] += 1
        freq = counts / n_seeds
        se = np.sqrt(expect * (1 - expect) / n_seeds)
        assert (np.abs(freq - expect) <= 3 * se + 1e-12).all()

    def test_all_zero_weights_rejected(self):
        ds = make_dataset([1, 1], [0.0, 0.0])
        with pytest.raises(ValidationError):
            rejection_sample(ds, seed=0)

    def test_empty_outcome_retries(self):
        # Tiny acceptance probability: most draws empty, retry logic must cope.
        ds = make_dataset([1, 1], [1e9, 1e-6])
        out = rejection_sample(ds, seed=1)
        assert out.n >= 1


class TestOversample:
    def test_ratio_rule(self):
        ds = make_dataset([1, 1, 1], [10.0, 5.0, 5.0])
        out = oversample(ds)
        assert out.n == 4
        assert sorted(out.X[:, 0].tolist()) == [0.0, 0.0, 1.0, 2.0]

    def test_uniform_weights_identity(self):
        ds = make_dataset([1, 1], [7.0, 7.0])
        out = oversample(ds)
        assert np.array_equal(out.X, ds.X)

    def test_round_half_up(self):
        ds = make_dataset([1, 1], [7.0, 2.0])  # 7/2 = 3.5 -> 4 copies
        out = oversample(ds)
        assert out.n == 5
        assert (out.X[:, 0] == 0.0).sum() == 4

    def test_no_example_lost(self):
        rng = np.random.default_rng(2)
        fn = rng.uniform(0.5, 30, 50)
        ds = make_dataset(np.ones(50, dtype=int), fn)
        out = oversample(ds)
        assert set(out.X[:, 0].tolist()) == set(ds.X[:, 0].tolist())

    def test_deterministic_no_seed(self):
        ds = make_dataset([1, 1, 0], [9.0, 3.0, 0.0], fp_costs=[0, 0, 6.0])
        assert np.array_equal(oversample(ds).X, oversample(ds).X)


def test_weights_definition():
    ds = make_dataset([1, 0], [40.0, 99.0], fp_costs=[7.0, 7.0])
    assert misclassification_weights(ds).tolist() == [40.0, 7.0]


def test_resample_dispatch_and_spec():
    ds = make_dataset([1, 1, 0, 0], [10, 10, 0, 0], fp_costs=[0, 0, 10, 10])
    assert resample(ds, SamplingSpec("oversample")).n == ds.n
    for method in ("undersample", "rejection", "oversample"):
        spec = SamplingSpec(method, seed=4)
        rows = resample_indices(ds, spec)
        assert np.array_equal(resample(ds, spec).costs, ds.costs[rows])
    with pytest.raises(ValidationError):
        SamplingSpec("bogus")
