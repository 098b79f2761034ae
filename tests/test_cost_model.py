import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import costed, two_example_fraud
from costforest import (
    CostedDataset,
    ValidationError,
    costless_class_cost,
    normalized_cost,
    savings,
    total_cost,
)


def row_cost(label, prediction, costs):
    """Scalar oracle: one example's cost for one prediction, from its
    (c_tp, c_fp, c_fn, c_tn) row, as y*(c*C_TP + (1-c)*C_FN) + (1-y)*(c*C_FP + (1-c)*C_TN)."""
    c_tp, c_fp, c_fn, c_tn = costs
    y, c = label, prediction
    return y * (c * c_tp + (1 - c) * c_fn) + (1 - y) * (c * c_fp + (1 - c) * c_tn)


# Strategy: random strictly-reasonable costed datasets.
@st.composite
def costed_datasets(draw, max_n=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    money = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    margin = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
    rows = []
    for _ in y:
        c_tp = draw(money)
        c_tn = draw(money)
        c_fn = c_tp + draw(margin)
        c_fp = c_tn + draw(margin)
        rows.append((c_tp, c_fp, c_fn, c_tn))
    return costed(y, rows)


class TestDatasetInvariants:
    @pytest.mark.parametrize("row, strict, accepted", [
        ((3, 3, 3, 0), True, False),  # c_fn == c_tp breaks reasonableness
        ((203, 13, 200, 0), False, True),  # relaxed mode allows unreasonable rows
        ((-1, 3, 100, 0), False, False),  # negative, even relaxed
        ((np.inf, 3, 100, 0), False, False),  # non-finite, even relaxed
    ])
    def test_cost_row_rules(self, row, strict, accepted):
        if accepted:
            costed([1], row, strict=strict)
        else:
            with pytest.raises(ValidationError):
                costed([1], row, strict=strict)

    @pytest.mark.parametrize("labels", [[0.7, 1.2], [0, 0.5], [1, 2], [0, -1], [0, np.nan]])
    def test_labels_not_exactly_binary_rejected(self, labels):
        # checked as given: a cast to int first would store 0.7 as 0
        with pytest.raises(ValidationError, match="labels must be exactly 0 or 1"):
            costed(labels, (3, 3, 100, 0))

    def test_float_and_bool_labels_stored_as_int(self):
        for labels in ([1.0, 0.0], [True, False]):
            ds = costed(labels, (3, 3, 100, 0))
            assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0]

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

    def test_subset_is_frozen_c_ordered_gather_detached_from_parent(self):
        rng = np.random.default_rng(0)
        costs = np.tile([3.0, 3, 100, 0], (6, 1)) + rng.random((6, 1))
        ds = CostedDataset(rng.normal(size=(6, 3)), [1, 0, 1, 1, 0, 0], costs,
                           feature_names=["a", "b", "c"], strict=False)
        idx = np.array([4, 0, 4, 2])  # duplicates allowed
        sub = ds.subset(idx.tolist())
        for got, parent in ((sub.X, ds.X), (sub.y, ds.y), (sub.costs, ds.costs)):
            assert got.flags.c_contiguous and not got.flags.writeable
            assert got.dtype == parent.dtype and np.array_equal(got, parent[idx])
            assert not np.shares_memory(got, parent)
        assert sub.feature_names == ds.feature_names
        assert sub.feature_names is not ds.feature_names
        assert sub.strict is False


class TestExampleCost:
    """One example's cost is ``total_cost`` of a dataset of that row alone."""

    ROW = (2, 5, 10, 0)  # c_tp, c_fp, c_fn, c_tn

    def one(self, label, prediction):
        return total_cost(costed([label], self.ROW), [prediction])

    def test_true_positive(self):
        assert self.one(1, 1) == row_cost(1, 1, self.ROW) == 2

    def test_false_negative(self):
        assert self.one(1, 0) == row_cost(1, 0, self.ROW) == 10

    def test_false_positive(self):
        assert self.one(0, 1) == row_cost(0, 1, self.ROW) == 5

    def test_invalid_prediction(self):
        with pytest.raises(ValidationError):
            self.one(0, 2)


class TestTotalCost:
    def test_free_true_positive(self):
        assert total_cost(costed([1], (0, 3, 100, 0)), np.array([1])) == 0

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
        ds = costed([1, 0], (0, 5, 10, 0))
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
        assert costless_class_cost(costed([0, 0, 0], (1, 5, 10, 0))) == (0, 0)

    def test_tie_goes_to_class_zero(self):
        # Cost(f_0) = c_fn = 6, Cost(f_1) = c_tp + c_fp = 6.
        ds = costed([1, 0], [(2, 5, 6, 0), (2, 4, 6, 0)])
        assert costless_class_cost(ds) == (6, 0)


class TestPredictionsChecked:
    @pytest.mark.parametrize("metric", [total_cost, normalized_cost, savings])
    @pytest.mark.parametrize("preds", [[0.9, 1, 1], [0, 1, 0.5], [0, 1, 2], [0, np.nan, 1]])
    def test_not_exactly_binary_rejected(self, metric, preds):
        # checked as given: a cast to int first would score 0.9 as 0
        ds = costed([0, 1, 1], (3, 3, 100, 0))
        with pytest.raises(ValidationError, match="predictions must be exactly 0 or 1"):
            metric(ds, preds)

    def test_float_and_bool_predictions_accepted(self):
        ds = costed([0, 1, 1], (3, 3, 100, 0))
        assert savings(ds, [0.0, 1.0, 1.0]) == savings(ds, [False, True, True]) == savings(ds, [0, 1, 1])


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
        with pytest.raises(ValidationError):
            savings(costed([0], (1, 5, 10, 0)), np.array([0]))

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
def test_total_cost_sums_row_costs(ds, seed):
    preds = np.random.default_rng(seed).integers(0, 2, size=ds.n)
    expected = sum(row_cost(y, c, row) for y, c, row in zip(ds.y, preds, ds.costs))
    assert total_cost(ds, preds) == pytest.approx(expected, rel=1e-12)


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
