import itertools

import numpy as np
import pytest
from scipy import stats

from costforest import ConfigError
from costforest.rng import STREAM_NODES, feature_subsets, mix64, mix64_array


def _keys_of_a_tree(seed, n):
    """The keys of the first n nodes of a complete binary tree, in level order."""
    keys = [mix64(seed, STREAM_NODES, 0)]
    for i in range(n - 1):
        if len(keys) >= n:
            break
        keys += [mix64(keys[i], 0), mix64(keys[i], 1)]
    return np.array(keys[:n], dtype=np.uint64)


class TestMix64Array:
    def test_equals_the_scalar_mix(self):
        rng = np.random.default_rng(2001)
        words = np.concatenate([
            np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size=200, dtype=np.uint64, endpoint=True),
        ])
        edges = np.array(list(itertools.product(words[:4], repeat=2)), dtype=np.uint64)
        cases = np.concatenate([edges, words[rng.integers(0, words.size, (300, 2))]])
        mixed = mix64_array(cases[:, 0], cases[:, 1])
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [mix64(int(a), int(b)) for a, b in cases]
        assert mix64_array(words).tolist() == [mix64(int(w)) for w in words]

    def test_broadcasts_keys_against_features(self):
        keys = np.array([0, 2**64 - 1, 7], dtype=np.uint64)
        table = mix64_array(keys[:, None], np.arange(5, dtype=np.uint64))
        assert table.tolist() == [[mix64(int(key), f) for f in range(5)] for key in keys]

    def test_a_chain_of_left_children_never_repeats_a_key(self):
        keys = [mix64(9, STREAM_NODES, 0)]
        for _ in range(200):
            keys.append(mix64(keys[-1], 0))
        assert len(set(keys)) == 201


class TestFeatureSubsets:
    def test_every_feature_when_m_equals_k(self):
        subsets = feature_subsets(_keys_of_a_tree(1, 50), 4, 4)
        assert (subsets == np.arange(4)).all()

    @pytest.mark.parametrize("m", [0, 5, -1])
    def test_out_of_range_m_rejected(self, m):
        with pytest.raises(ConfigError, match="n_features"):
            feature_subsets(_keys_of_a_tree(1, 3), 4, m)

    def test_rows_are_sorted_distinct_and_keyed(self):
        keys = _keys_of_a_tree(2, 300)
        subsets = feature_subsets(keys, 9, 4)
        assert subsets.shape == (300, 4)
        assert (np.diff(subsets, axis=1) > 0).all()
        for key, row in zip(keys.tolist(), subsets.tolist()):
            assert row == sorted(sorted(range(9), key=lambda f: mix64(key, f))[:4])

    def test_uniform_over_all_subsets_chi_square(self):
        k, m, draws = 8, 3, 20_000
        subsets = feature_subsets(_keys_of_a_tree(123, draws), k, m)
        index = {s: i for i, s in enumerate(itertools.combinations(range(k), m))}
        counts = np.bincount([index[tuple(row)] for row in subsets.tolist()],
                             minlength=len(index))
        assert len(index) == 56
        expected = draws / len(index)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, df=len(index) - 1) > 0.01
