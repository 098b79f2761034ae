import numpy as np
import pytest

from conftest import gaussian_cost_dataset, strict_random_dataset
from costforest import ConfigError, CostedDataset, CostMatrixRow, ValidationError
from costforest.baselines import (
    BmrWrapper,
    LrConfig,
    TreeProbaModel,
    bmr_predict_dataset,
    gini_tree,
    logistic_loss_grad,
    plain_forest,
    train_logistic,
)
from costforest.csdt import CsdtConfig, grow


def linear_dataset(rng, n, margin=1.0):
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    keep = np.abs(X[:, 0] + X[:, 1]) > margin * 0.1
    X, y = X[keep], y[keep]
    n = y.size
    costs = np.column_stack([np.ones(n), np.full(n, 5.0), np.full(n, 10.0), np.zeros(n)])
    return CostedDataset(X, y, costs)


class TestLogistic:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", float("nan")), ("n_iter", 0), ("l2", -1.0),
    ])
    def test_out_of_range_config_rejected(self, field, value):
        ds = linear_dataset(np.random.default_rng(0), 50)
        with pytest.raises(ConfigError, match=field):
            train_logistic(ds, LrConfig(**{field: value}))

    def test_separable_accuracy(self):
        ds = linear_dataset(np.random.default_rng(0), 600)
        model = train_logistic(ds, LrConfig(n_iter=800))
        acc = (model.predict_many(ds.X) == ds.y).mean()
        assert acc >= 0.99

    def test_huge_l2_shrinks_to_prior(self):
        # gradient descent needs learning_rate * l2 < 2 to stay stable
        ds = linear_dataset(np.random.default_rng(1), 400)
        model = train_logistic(ds, LrConfig(learning_rate=0.01, l2=100.0, n_iter=3000))
        assert np.abs(model.weights).max() < 0.01
        prior = ds.y.mean()
        assert model.predict_proba(ds.X).std() < 0.01
        assert abs(model.predict_proba(ds.X).mean() - prior) < 0.02

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40).astype(float)
        w = rng.normal(size=3)
        b = float(rng.normal())
        l2 = 1e-3
        _, grad_w, grad_b = logistic_loss_grad(X, y, w, b, l2)
        h = 1e-6
        for i in range(3):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            num = (
                logistic_loss_grad(X, y, wp, b, l2)[0]
                - logistic_loss_grad(X, y, wm, b, l2)[0]
            ) / (2 * h)
            assert abs(num - grad_w[i]) <= 1e-5
        num_b = (
            logistic_loss_grad(X, y, w, b + h, l2)[0]
            - logistic_loss_grad(X, y, w, b - h, l2)[0]
        ) / (2 * h)
        assert abs(num_b - grad_b) <= 1e-5

    def test_divergence_detected(self):
        ds = linear_dataset(np.random.default_rng(3), 100)
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="smaller"):
            train_logistic(ds, LrConfig(learning_rate=1e12, n_iter=50, standardize=False))

    def test_deterministic(self):
        ds = linear_dataset(np.random.default_rng(4), 200)
        a = train_logistic(ds)
        b = train_logistic(ds)
        assert np.array_equal(a.weights, b.weights)


def bmr_threshold(costs: CostMatrixRow) -> float:
    """Probability above which predicting positive has the lower expected cost."""
    denom = (costs.c_fp - costs.c_tn) + (costs.c_fn - costs.c_tp)
    if denom == 0:
        return 0.5
    return (costs.c_fp - costs.c_tn) / denom


def bmr_predict(p_hat: float, costs: CostMatrixRow) -> int:
    """Scalar oracle for bmr_predict_dataset: the lower-risk class, ties positive."""
    if not 0.0 <= p_hat <= 1.0:
        raise ValidationError(f"p_hat must be in [0, 1], got {p_hat}")
    risk_pos = p_hat * costs.c_tp + (1 - p_hat) * costs.c_fp
    risk_neg = p_hat * costs.c_fn + (1 - p_hat) * costs.c_tn
    return 1 if risk_pos <= risk_neg else 0


class TestBmr:
    FRAUD = CostMatrixRow(3, 3, 100, 0)

    def test_low_probability_still_positive(self):
        # expected cost of predicting 1 is 3, of predicting 0 is 10
        assert bmr_predict(0.1, self.FRAUD) == 1

    def test_boundaries(self):
        assert bmr_predict(0.0, self.FRAUD) == 0  # c_fp > c_tn
        assert bmr_predict(1.0, self.FRAUD) == 1  # c_tp < c_fn

    def test_monotone_in_probability(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c_tp, c_tn = rng.uniform(0, 3, 2)
            row = CostMatrixRow(c_tp, c_tn + rng.uniform(0.1, 9), c_tp + rng.uniform(0.1, 9), c_tn)
            p1, p2 = np.sort(rng.uniform(0, 1, 2))
            if bmr_predict(p1, row) == 1:
                assert bmr_predict(p2, row) == 1

    def test_threshold_closed_form_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            c_tp, c_tn = rng.uniform(0, 3, 2)
            row = CostMatrixRow(c_tp, c_tn + rng.uniform(0.1, 9), c_tp + rng.uniform(0.1, 9), c_tn)
            p = float(rng.uniform(0, 1))
            assert bmr_predict(p, row) == int(p >= bmr_threshold(row))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        ds = strict_random_dataset(rng, 30, 2)
        p = rng.uniform(0, 1, ds.n)
        vec = bmr_predict_dataset(p, ds)
        scalar = [bmr_predict(pi, ds.example(i).costs) for i, pi in enumerate(p)]
        assert vec.tolist() == scalar

    def test_wrapper_uses_dataset_costs(self):
        rng = np.random.default_rng(8)
        ds = gaussian_cost_dataset(rng, 300, k=3)
        tree = TreeProbaModel(gini_tree(ds, CsdtConfig(max_depth=4)))
        preds = BmrWrapper(tree).predict_on(ds)
        assert preds.shape == (ds.n,)
        assert set(np.unique(preds)) <= {0, 1}


class TestGiniTree:
    def test_reduces_to_unit_cost_tree(self):
        rng = np.random.default_rng(9)
        ds = strict_random_dataset(rng, 50, 2)
        unit = CostedDataset(ds.X, ds.y, np.tile([0.0, 1, 1, 0], (ds.n, 1)))
        a = gini_tree(ds, CsdtConfig(candidate_thresholds="exact_midpoints", max_depth=3))
        b = grow(unit, CsdtConfig(candidate_thresholds="exact_midpoints", max_depth=3))
        assert np.array_equal(a.predict_many(ds.X), b.predict_many(ds.X))

    def test_ignores_money_columns(self):
        rng = np.random.default_rng(10)
        ds = strict_random_dataset(rng, 60, 2)
        scaled = CostedDataset(ds.X, ds.y, ds.costs * 250.0)
        a = gini_tree(ds, CsdtConfig(max_depth=4))
        b = gini_tree(scaled, CsdtConfig(max_depth=4))
        assert np.array_equal(a.predict_many(ds.X), b.predict_many(ds.X))


class TestPlainForest:
    def test_single_tree_forest_equals_bootstrap_tree(self):
        rng = np.random.default_rng(11)
        ds = gaussian_cost_dataset(rng, 200, k=4)
        # T=3 is the minimum; identical-seed determinism is the real contract
        a = plain_forest(ds, T=3, seed=21, tree=CsdtConfig(max_depth=4))
        b = plain_forest(ds, T=3, seed=21, tree=CsdtConfig(max_depth=4))
        assert np.array_equal(a.predict_many(ds.X), b.predict_many(ds.X))

    def test_forest_beats_tree_on_noisy_data(self):
        wins = 0
        runs = 50
        for seed in range(runs):
            rng = np.random.default_rng(1000 + seed)
            ds = gaussian_cost_dataset(rng, 400, k=5, shift=1.0)
            flip = rng.random(ds.n) < 0.15
            y = np.where(flip, 1 - ds.y, ds.y)
            noisy = CostedDataset(ds.X, y, ds.costs)
            tr = noisy.subset(np.arange(0, 250))
            te = noisy.subset(np.arange(250, 400))
            forest = plain_forest(tr, T=25, seed=seed, tree=CsdtConfig(max_depth=6))
            tree = gini_tree(tr, CsdtConfig(max_depth=6))
            acc_f = (forest.predict_many(te.X) == te.y).mean()
            acc_t = (tree.predict_many(te.X) == te.y).mean()
            if acc_f >= acc_t:
                wins += 1
        assert wins >= 0.8 * runs

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(12)
        ds = gaussian_cost_dataset(rng, 150, k=3)
        forest = plain_forest(ds, T=5, seed=2, tree=CsdtConfig(max_depth=3))
        p = forest.predict_proba(ds.X)
        assert ((p > 0) & (p < 1)).all()
