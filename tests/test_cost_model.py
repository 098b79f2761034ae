import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costforest import (
    AugmentedExample,
    CostMatrixRow,
    CostedDataset,
    ValidationError,
    costless_class_cost,
    example_cost,
    normalized_cost,
    savings,
    total_cost,
)


def two_example_fraud():
    """Hand fixture: one positive, one negative, both costed (3, 3, 100, 0)."""
    row = CostMatrixRow(c_tp=3, c_fp=3, c_fn=100, c_tn=0)
    return CostedDataset.from_examples(
        [
            AugmentedExample(np.array([0.0]), 1, row),
            AugmentedExample(np.array([1.0]), 0, row),
        ]
    )


# Strategy: random strictly-reasonable costed datasets.
@st.composite
def costed_datasets(draw, max_n=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    money = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    margin = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
    rows = []
    for label in y:
        c_tp = draw(money)
        c_tn = draw(money)
        c_fn = c_tp + draw(margin)
        c_fp = c_tn + draw(margin)
        rows.append(AugmentedExample(np.array([0.0]), label, CostMatrixRow(c_tp, c_fp, c_fn, c_tn)))
    return CostedDataset.from_examples(rows)


class TestCostMatrixRow:
    def test_strict_rejects_equal_fn_tp(self):
        with pytest.raises(ValidationError):
            CostMatrixRow(3, 3, 3, 0).validate(strict=True)

    def test_relaxed_accepts_unreasonable(self):
        CostMatrixRow(203, 13, 200, 0).validate(strict=False)

    def test_negative_rejected_even_relaxed(self):
        with pytest.raises(ValidationError):
            CostMatrixRow(-1, 3, 100, 0).validate(strict=False)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            CostMatrixRow(np.inf, 3, 100, 0).validate(strict=False)


class TestDatasetInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CostedDataset(np.empty((0, 1)), np.empty(0), np.empty((0, 4)))

    def test_zero_features_rejected(self):
        with pytest.raises(ValidationError):
            CostedDataset(np.empty((2, 0)), np.zeros(2), np.ones((2, 4)))

    def test_strict_mode_flags_row(self):
        X = np.zeros((2, 1))
        y = np.array([1, 0])
        costs = np.array([[3.0, 3, 100, 0], [3.0, 3, 3, 0]])  # row 1: c_fn == c_tp
        with pytest.raises(ValidationError, match="rows \\[1\\]"):
            CostedDataset(X, y, costs, strict=True)
        CostedDataset(X, y, costs, strict=False)

    def test_class_subsets_partition(self):
        ds = two_example_fraud()
        n0, n1 = ds.class_counts()
        assert n0 + n1 == ds.n == 2

    def test_caller_arrays_stay_writable_and_detached(self):
        X = np.zeros((2, 1))
        y = np.array([1, 0])
        costs = np.tile([3.0, 3, 100, 0], (2, 1))
        ds = CostedDataset(X, y, costs)
        X[0, 0] = 99.0  # caller keeps ownership; dataset must not see it
        assert ds.X[0, 0] == 0.0
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0  # dataset arrays are frozen


class TestExampleCost:
    ROW = CostMatrixRow(c_tp=2, c_fp=5, c_fn=10, c_tn=0)

    def test_true_positive(self):
        assert example_cost(AugmentedExample(np.zeros(1), 1, self.ROW), 1) == 2

    def test_false_negative(self):
        assert example_cost(AugmentedExample(np.zeros(1), 1, self.ROW), 0) == 10

    def test_false_positive(self):
        assert example_cost(AugmentedExample(np.zeros(1), 0, self.ROW), 1) == 5

    def test_invalid_prediction(self):
        with pytest.raises(ValidationError):
            example_cost(AugmentedExample(np.zeros(1), 0, self.ROW), 2)


class TestTotalCost:
    def test_free_true_positive(self):
        ds = CostedDataset.from_examples(
            [AugmentedExample(np.zeros(1), 1, CostMatrixRow(0, 3, 100, 0))]
        )
        assert total_cost(ds, np.array([1])) == 0

    def test_hand_sum_all_positive_predictions(self):
        assert total_cost(two_example_fraud(), np.array([1, 1])) == 6

    def test_hand_sum_all_negative_predictions(self):
        assert total_cost(two_example_fraud(), np.array([0, 0])) == 100

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            total_cost(two_example_fraud(), np.array([1]))


class TestNormalizedCost:
    def test_perfect_predictions(self):
        got = normalized_cost(two_example_fraud(), np.array([1, 0]))
        assert got == pytest.approx(3 / 103, abs=1e-12)

    def test_all_misclassified_is_one(self):
        assert normalized_cost(two_example_fraud(), np.array([0, 1])) == pytest.approx(1.0)

    def test_perfect_with_free_correct_is_zero(self):
        ds = CostedDataset.from_examples(
            [
                AugmentedExample(np.zeros(1), 1, CostMatrixRow(0, 5, 10, 0)),
                AugmentedExample(np.zeros(1), 0, CostMatrixRow(0, 5, 10, 0)),
            ]
        )
        assert normalized_cost(ds, np.array([1, 0])) == 0.0

    def test_zero_denominator_rejected(self):
        ds = CostedDataset(
            np.zeros((1, 1)), np.array([1]), np.array([[0.0, 1, 0, 0]]), strict=False
        )
        with pytest.raises(ValidationError):
            normalized_cost(ds, np.array([1]))


class TestCostlessClass:
    def test_two_example_fixture(self):
        assert costless_class_cost(two_example_fraud()) == (6, 1)

    def test_all_negative_free(self):
        ds = CostedDataset.from_examples(
            [AugmentedExample(np.zeros(1), 0, CostMatrixRow(1, 5, 10, 0))] * 3
        )
        assert costless_class_cost(ds) == (0, 0)

    def test_tie_goes_to_class_zero(self):
        # Cost(f_0) = c_fn = 6, Cost(f_1) = c_tp + c_fp = 6.
        ds = CostedDataset.from_examples(
            [
                AugmentedExample(np.zeros(1), 1, CostMatrixRow(2, 5, 6, 0)),
                AugmentedExample(np.zeros(1), 0, CostMatrixRow(2, 4, 6, 0)),
            ]
        )
        assert costless_class_cost(ds) == (6, 0)


class TestSavings:
    def test_perfect_predictions(self):
        assert savings(two_example_fraud(), np.array([1, 0])) == pytest.approx(0.5, abs=1e-12)

    def test_costless_constant_is_zero(self):
        ds = two_example_fraud()
        _, cls = costless_class_cost(ds)
        assert savings(ds, np.full(ds.n, cls)) == 0.0

    def test_all_misclassified(self):
        got = savings(two_example_fraud(), np.array([0, 1]))
        assert got == pytest.approx((6 - 103) / 6, abs=1e-12)

    def test_zero_costless_cost_rejected(self):
        ds = CostedDataset.from_examples(
            [AugmentedExample(np.zeros(1), 0, CostMatrixRow(1, 5, 10, 0))]
        )
        with pytest.raises(ValidationError):
            savings(ds, np.array([0]))

    def test_tiny_positive_cost_stays_below_one(self):
        # the cost vanishes in cost_l - cost; savings must still say it is not 0
        ds = CostedDataset(
            np.zeros((2, 1)), np.array([1, 0]),
            np.array([[1.9e-153, 5.0, 10.0, 0.0], [0.0, 5.0, 10.0, 0.0]]),
        )
        assert total_cost(ds, ds.y) == 1.9e-153
        assert savings(ds, ds.y) == np.nextafter(1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(costed_datasets(), st.randoms(use_true_random=False))
def test_normalized_cost_bounded(ds, rnd):
    preds = np.array([rnd.randint(0, 1) for _ in range(ds.n)])
    assert 0.0 <= normalized_cost(ds, preds) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(costed_datasets())
def test_savings_one_iff_zero_cost(ds):
    try:
        s = savings(ds, ds.y)
    except ValidationError:
        return  # costless class free: savings undefined by contract
    assert (s == 1.0) == (total_cost(ds, ds.y) == 0.0)


@settings(max_examples=100, deadline=None)
@given(costed_datasets(), st.integers(0, 2**32 - 1))
def test_total_cost_permutation_equivariant(ds, seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, size=ds.n)
    perm = rng.permutation(ds.n)
    assert total_cost(ds.subset(perm), preds[perm]) == pytest.approx(
        total_cost(ds, preds), rel=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(costed_datasets(), st.integers(0, 2**32 - 1))
def test_total_cost_partition_additive(ds, seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, size=ds.n)
    whole = total_cost(ds, preds)
    parts = 0.0
    for a in (0, 1):
        idx = np.flatnonzero(ds.y == a)
        if idx.size:
            parts += total_cost(ds.subset(idx), preds[idx])
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-9)
