import numpy as np
import pytest

from costforest import ConfigError
from costforest.inducers import (
    BaseSample,
    InducerConfig,
    draw_samples,
)
from costforest.rng import STREAM_SAMPLES, make_rng


class TestConfig:
    def test_t_minimum(self):
        with pytest.raises(ConfigError, match="T >= 3"):
            draw_samples(10, 2, InducerConfig(T=2))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            draw_samples(10, 2, InducerConfig(kind="boosting"))

    @pytest.mark.parametrize("field", ["n_examples", "n_features"])
    @pytest.mark.parametrize("value", [1.5, 0.0, -0.5, float("nan")])
    def test_fraction_out_of_range_rejected_without_n(self, field, value):
        with pytest.raises(ConfigError, match=f"fractional {field} must be in"):
            InducerConfig(kind="random_patches", **{field: value}).validate()

    @pytest.mark.parametrize("field", ["n_examples", "n_features"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_count_below_one_rejected_without_n(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1, got {value}"):
            InducerConfig(kind="random_patches", **{field: value}).validate()

    @pytest.mark.parametrize("field", ["n_examples", "n_features"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected_without_n(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a count or fraction, got a bool"):
            InducerConfig(kind="random_patches", **{field: value}).validate()

    def test_fraction_and_count(self):
        cfg = InducerConfig(kind="pasting", n_examples=0.5)
        assert cfg.resolved_n_examples(100) == 50
        cfg = InducerConfig(kind="pasting", n_examples=30)
        assert cfg.resolved_n_examples(100) == 30

    def test_rf_feature_default_sqrt(self):
        assert InducerConfig(kind="random_forest").resolved_n_features(9) == 3
        assert InducerConfig(kind="random_forest").resolved_n_features(10) == 3

    def test_defaults_by_kind(self):
        assert InducerConfig(kind="bagging").resolved_n_examples(100) == 100
        assert InducerConfig(kind="pasting").resolved_n_examples(100) == 50
        assert InducerConfig(kind="random_patches").resolved_n_features(10) == 5

    def test_bootstrap_may_overdraw(self):
        samples = draw_samples(10, 2, InducerConfig(kind="bagging", T=3, n_examples=25, seed=1))
        assert all(s.example_indices.size == 25 for s in samples)

    def test_feature_count_capped(self):
        with pytest.raises(ConfigError):
            draw_samples(10, 4, InducerConfig(kind="random_patches", T=3, n_features=9))


class TestDrawSamples:
    def test_pasting_distinct_and_oob(self):
        samples = draw_samples(100, 4, InducerConfig(kind="pasting", T=5, n_examples=50, seed=1))
        for s in samples:
            assert np.unique(s.example_indices).size == 50
            assert s.oob_indices.size == 50

    def test_pasting_too_many(self):
        with pytest.raises(ConfigError):
            draw_samples(10, 2, InducerConfig(kind="pasting", T=3, n_examples=20))

    def test_pasting_every_row_rejected(self):
        # N of N rows without replacement can never leave an out-of-bag row
        with pytest.raises(ConfigError, match="must be < N=10"):
            draw_samples(10, 2, InducerConfig(kind="pasting", T=3, n_examples=10))

    def test_sample_covering_every_row_redrawn_once(self):
        # seed 4 draws all four rows for samples 1 and 7: their rows are drawn
        # again on substream (seed, STREAM_SAMPLES, j, 1), their features kept
        cfg = InducerConfig(kind="random_patches", T=10, n_examples=4, n_features=3, seed=4)
        samples = draw_samples(4, 3, cfg)
        for j, s in enumerate(samples):
            first = make_rng(4, STREAM_SAMPLES, j)
            rows = np.sort(first.integers(0, 4, size=4))
            assert np.array_equal(s.feature_indices, np.unique(first.integers(0, 3, size=3)))
            if j in (1, 7):
                assert np.unique(rows).size == 4
                rows = np.sort(make_rng(4, STREAM_SAMPLES, j, 1).integers(0, 4, size=4))
            assert np.array_equal(s.example_indices, rows)
            assert s.oob_indices.size > 0

    def test_bootstrap_distinct_fraction(self):
        samples = draw_samples(1000, 2, InducerConfig(kind="bagging", T=200, seed=3))
        fractions = [np.unique(s.example_indices).size / 1000 for s in samples]
        assert abs(np.mean(fractions) - (1 - np.exp(-1))) < 0.02

    def test_patches_feature_budget(self):
        samples = draw_samples(50, 10, InducerConfig(kind="random_patches", T=20, n_features=3, seed=5))
        for s in samples:
            assert s.feature_indices is not None
            assert s.feature_indices.size <= 3
            assert np.unique(s.feature_indices).size == s.feature_indices.size

    def test_random_forest_flags_node_features(self):
        samples = draw_samples(50, 9, InducerConfig(kind="random_forest", T=3, seed=2))
        for s in samples:
            assert s.node_features == 3
            assert s.feature_indices is None

    def test_oob_complement_exact(self):
        for kind in ("bagging", "pasting", "random_forest", "random_patches"):
            samples = draw_samples(40, 6, InducerConfig(kind=kind, T=8, seed=11))
            for s in samples:
                drawn = np.unique(s.example_indices)
                assert np.intersect1d(drawn, s.oob_indices).size == 0
                assert np.union1d(drawn, s.oob_indices).size == 40

    def test_same_seed_identical(self):
        for kind in ("bagging", "pasting", "random_forest", "random_patches"):
            cfg = InducerConfig(kind=kind, T=6, seed=21)
            a = draw_samples(30, 5, cfg)
            b = draw_samples(30, 5, cfg)
            for sa, sb in zip(a, b):
                assert np.array_equal(sa.example_indices, sb.example_indices)

    def test_substreams_independent_of_T(self):
        small = draw_samples(30, 5, InducerConfig(kind="bagging", T=5, seed=9))
        big = draw_samples(30, 5, InducerConfig(kind="bagging", T=50, seed=9))
        for sa, sb in zip(small, big[:5]):
            assert np.array_equal(sa.example_indices, sb.example_indices)

