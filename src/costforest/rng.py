"""Deterministic random substream derivation.

A single user-facing seed drives every stochastic component. Each component
derives its own independent substream as ``make_rng(seed, tag, index...)``,
where ``tag`` is one of the stream constants below and the indices identify
the consumer (tree number, trial number, grid cell). The derivation is a
splitmix64-style mix, fixed across versions:

    h = 0
    for word in (seed, tag, index...):
        h = (h + word + 0x9E3779B97F4A7C15) mod 2**64
        h ^= h >> 30;  h = h * 0xBF58476D1CE4E5B9 mod 2**64
        h ^= h >> 27;  h = h * 0x94D049BB133111EB mod 2**64
        h ^= h >> 31

The mixed value seeds a PCG64 generator. Substreams are therefore
independent of thread scheduling and of how many sibling substreams exist.

Random-forest nodes draw their features from a key instead: tree j's is
``mix64(seed, STREAM_NODES, j)``, a child's is ``mix64(parent_key, side)``
(0 left, 1 right), and ``feature_subsets`` ranks features by ``mix64(key,
f)``. A node's subset depends only on its path, not on the growth order.
"""

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GAMMA, _M1, _M2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                           0x94D049BB133111EB))

# Stream tags. Never renumber: serialized seeds must replay identically.
STREAM_SAMPLES = 1      # per-tree subsample draws
STREAM_NODES = 2        # per-tree key of the random-forest node feature draws
STREAM_GA = 3           # genetic-algorithm evolution
STREAM_SPLIT = 4        # train/valid/test partition
STREAM_RESAMPLE = 5     # undersample / rejection sample
STREAM_TRIALS = 6       # Monte-Carlo theory trials
STREAM_CELLS = 7        # benchmark cells (algorithm x dataset x repetition)


def mix64(*words: int) -> int:
    """Mix integer words into one 64-bit value (splitmix64 finalizer chain)."""
    h = 0
    for w in words:
        h = (h + (w & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def mix64_array(*words: np.ndarray) -> np.ndarray:
    """``mix64`` over broadcast uint64 arrays, which wrap silently (numpy
    scalars would warn on overflow, so some word must be an array)."""
    h = np.zeros((), dtype=np.uint64)
    for w in words:
        h = h + w + _GAMMA
        h ^= h >> np.uint64(30)
        h *= _M1
        h ^= h >> np.uint64(27)
        h *= _M2
        h ^= h >> np.uint64(31)
    return h


def feature_subsets(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """(nodes, m) sorted feature subsets, one row per uint64 node key: the
    m of k features with the smallest ``mix64(key, f)``."""
    if not 1 <= m <= k:
        raise ConfigError(f"n_features must be in [1, {k}], got {m}")
    scores = mix64_array(keys[:, None], np.arange(k, dtype=np.uint64))
    return np.sort(scores.argsort(axis=1, kind="stable")[:, :m], axis=1)


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *path)``."""
    return np.random.Generator(np.random.PCG64(mix64(seed, *path)))
