import math

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import base_model, gaussian_cost_dataset, plain_forest, strict_random_dataset
from costforest import ConfigError, CostedDataset, ValidationError, ensemble
from costforest.baselines import (
    GRAD_TOL,
    BmrWrapper,
    LrConfig,
    bmr_predict_dataset,
    train_logistic,
)
from costforest.combiners import _sigmoid
from costforest.csdt import CsdtConfig, grow, predict_proba_many
from costforest.ensemble import EcsdtConfig
from costforest.inducers import InducerConfig


def linear_dataset(rng, n, margin=1.0):
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    keep = np.abs(X[:, 0] + X[:, 1]) > margin * 0.1
    X, y = X[keep], y[keep]
    n = y.size
    costs = np.column_stack([np.ones(n), np.full(n, 5.0), np.full(n, 10.0), np.zeros(n)])
    return CostedDataset(X, y, costs)


def logistic_loss_grad(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray, intercept: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Oracle: mean cross-entropy with L2 on the weights (intercept unpenalized),
    and its gradient."""
    n = X.shape[0]
    p = _sigmoid(X @ weights + intercept)
    loss = float(
        -np.mean(y * np.log(p) + (1 - y) * np.log1p(-p)) + 0.5 * l2 * (weights @ weights)
    )
    residual = p - y
    return loss, X.T @ residual / n + l2 * weights, float(residual.mean())


def scaled_features(train: CostedDataset, standardize: bool) -> np.ndarray:
    """The features as train_logistic fits them."""
    if not standardize:
        return train.X
    std = train.X.std(axis=0)
    return (train.X - train.X.mean(axis=0)) / np.where(std > 0, std, 1.0)


def lbfgs_optimum(train: CostedDataset, l2: float, standardize: bool):
    """Oracle: scipy's L-BFGS-B run to a gradient of 1e-12 from a zero start;
    the optimum's weights, intercept and loss."""
    X, y = scaled_features(train, standardize), train.y.astype(np.float64)

    def objective(theta):
        loss, grad_w, grad_b = logistic_loss_grad(X, y, theta[:-1], theta[-1], l2)
        return loss, np.append(grad_w, grad_b)

    result = minimize(objective, np.zeros(train.k + 1), jac=True, method="L-BFGS-B",
                      options={"ftol": 0.0, "gtol": 1e-12, "maxiter": 10_000, "maxcor": 30})
    return result.x[:-1], result.x[-1], result.fun


def fitted_loss_grad(model, train: CostedDataset, l2: float, standardize: bool):
    X, y = scaled_features(train, standardize), train.y.astype(np.float64)
    return logistic_loss_grad(X, y, model.weights, model.intercept, l2)


class TestLogistic:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", float("nan")), ("n_iter", 0), ("l2", -1.0),
        ("l2", float("inf")), ("l2", float("nan")),
    ])
    def test_out_of_range_config_rejected(self, field, value):
        ds = linear_dataset(np.random.default_rng(0), 50)
        with pytest.raises(ConfigError, match=field):
            train_logistic(ds, LrConfig(**{field: value}))

    def test_separable_accuracy(self):
        ds = linear_dataset(np.random.default_rng(0), 600)
        model = train_logistic(ds)
        acc = (model.predict_many(ds.X) == ds.y).mean()
        assert acc >= 0.99

    def test_huge_l2_shrinks_to_prior(self):
        ds = linear_dataset(np.random.default_rng(1), 400)
        model = train_logistic(ds, LrConfig(l2=100.0))
        assert np.abs(model.weights).max() < 0.01
        prior = ds.y.mean()
        assert model.predict_proba(ds.X).std() < 0.01
        assert abs(model.predict_proba(ds.X).mean() - prior) < 0.02

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("l2", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lbfgs_optimum(self, seed, l2, standardize):
        # the Newton fit reaches the optimum: a loss no more than 1e-12 above
        # L-BFGS-B's, weights within 1e-5 and probabilities within 1e-6 of it
        rng = np.random.default_rng(40 + seed)
        ds = gaussian_cost_dataset(rng, 300, k=4, shift=0.7)
        ds = CostedDataset(ds.X * [1.0, 3.0, 0.2, 10.0] + [0.0, 5.0, -1.0, 2.0], ds.y, ds.costs)
        model = train_logistic(ds, LrConfig(l2=l2, standardize=standardize))
        w, b, optimum = lbfgs_optimum(ds, l2, standardize)
        loss, grad_w, grad_b = fitted_loss_grad(model, ds, l2, standardize)
        assert loss <= optimum + 1e-12
        assert np.abs(model.weights - w).max() <= 1e-5
        assert abs(model.intercept - b) <= 1e-5
        X = scaled_features(ds, standardize)
        assert np.abs(model.predict_proba(ds.X) - _sigmoid(X @ w + b)).max() <= 1e-6
        # the stopping rule, up to the rounding of this oracle's own gradient
        assert max(np.abs(grad_w).max(), abs(grad_b)) <= GRAD_TOL + 1e-12

    def test_loss_never_rises_with_more_steps(self):
        ds = gaussian_cost_dataset(np.random.default_rng(5), 400, k=3, shift=0.5)
        losses = [fitted_loss_grad(train_logistic(ds, LrConfig(n_iter=n)), ds, 1e-4, True)[0]
                  for n in range(1, 12)]
        assert losses[0] < math.log(2)  # the zero start's loss
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert losses[-1] == pytest.approx(lbfgs_optimum(ds, 1e-4, True)[2], abs=1e-12)

    def test_step_scale_only_damps_the_path(self):
        # a huge scale is halved back to a step that lowers the loss; a tiny
        # one takes many steps; both end at the optimum
        ds = gaussian_cost_dataset(np.random.default_rng(6), 300, k=3, shift=0.5)
        optimum = lbfgs_optimum(ds, 1e-4, True)[2]
        for scale, n_iter in ((1e12, 50), (0.3, 200)):
            model = train_logistic(ds, LrConfig(learning_rate=scale, n_iter=n_iter))
            assert fitted_loss_grad(model, ds, 1e-4, True)[0] <= optimum + 1e-12

    def test_infinite_learning_rate_diverges(self):
        ds = linear_dataset(np.random.default_rng(3), 100)
        with pytest.raises(ValidationError, match="diverged.*smaller learning_rate"):
            train_logistic(ds, LrConfig(learning_rate=math.inf))

    def test_overflowing_hessian_diverges(self):
        # unstandardized features near 1e200 square past the float range
        ds = linear_dataset(np.random.default_rng(3), 100)
        huge = CostedDataset(ds.X * 1e200, ds.y, ds.costs)
        with pytest.raises(ValidationError, match="diverged.*Hessian"):
            train_logistic(huge, LrConfig(standardize=False))

    def test_overflowing_standard_deviation_rejected(self):
        # the squares of values near 1e200 overflow, so z-scores cannot be taken
        ds = linear_dataset(np.random.default_rng(3), 100)
        X = ds.X.copy()
        X[:, 1] *= 1e200
        with pytest.raises(ValidationError, match=r"feature column 1 has a standard deviation"):
            train_logistic(CostedDataset(X, ds.y, ds.costs))
        named = CostedDataset(X, ds.y, ds.costs, feature_names=["amount", "balance"])
        with pytest.raises(ValidationError, match=r"column 1 \('balance'\) has a standard"):
            train_logistic(named)

    @pytest.mark.parametrize("n_iter", [1, 10, 50, 1000])
    def test_separable_without_l2_stops_with_finite_weights(self, n_iter):
        # no optimum exists, so the weights grow, but only until a stopping rule
        ds = linear_dataset(np.random.default_rng(0), 600)
        model = train_logistic(ds, LrConfig(l2=0.0, n_iter=n_iter))
        assert np.isfinite(model.weights).all() and np.isfinite(model.intercept)
        if n_iter >= 10:
            assert (model.predict_many(ds.X) == ds.y).all()
        p = model.predict_proba(ds.X)
        assert ((p >= 0) & (p <= 1)).all()

    def test_singular_hessian_without_l2(self):
        # l2 = 0 with a constant column: the Hessian is singular, and the
        # constant column's weight stays where the intercept cannot reach it
        rng = np.random.default_rng(8)
        x = rng.normal(size=200)
        y = (rng.random(200) < _sigmoid(1.5 * x - 0.5)).astype(int)
        costs = np.tile([0.0, 1.0, 1.0, 0.0], (200, 1))
        ds = CostedDataset(np.column_stack([x, np.full(200, 3.0)]), y, costs)
        single = CostedDataset(x[:, None], y, costs)
        for standardize in (True, False):
            model = train_logistic(ds, LrConfig(l2=0.0, standardize=standardize))
            reference = train_logistic(single, LrConfig(l2=0.0, standardize=standardize))
            assert np.isfinite(model.weights).all()
            assert np.abs(model.predict_proba(ds.X)
                          - reference.predict_proba(single.X)).max() <= 1e-8
            _, grad_w, grad_b = fitted_loss_grad(model, ds, 0.0, standardize)
            assert max(np.abs(grad_w).max(), abs(grad_b)) <= 1e-8

    def test_deterministic(self):
        ds = linear_dataset(np.random.default_rng(4), 200)
        a = train_logistic(ds)
        b = train_logistic(ds)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("method", ["predict_proba", "predict_many"])
    def test_bad_features_rejected(self, method):
        ds = linear_dataset(np.random.default_rng(4), 100)
        predict = getattr(train_logistic(ds, LrConfig(n_iter=20)), method)
        X = ds.X.copy()
        X[3, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            predict(X)
        with pytest.raises(ValidationError, match=r"expected \(n, 2\)"):
            predict(ds.X[:, :1])
        with pytest.raises(ValidationError, match=r"expected \(n, 2\)"):
            predict(ds.X[0])


def bmr_threshold(costs) -> float:
    """Probability above which predicting positive has the lower expected cost,
    for one (c_tp, c_fp, c_fn, c_tn) row."""
    c_tp, c_fp, c_fn, c_tn = costs
    denom = (c_fp - c_tn) + (c_fn - c_tp)
    if denom == 0:
        return 0.5
    return (c_fp - c_tn) / denom


def bmr_predict(p_hat: float, costs) -> int:
    """Scalar oracle for bmr_predict_dataset on one (c_tp, c_fp, c_fn, c_tn)
    row: the lower-risk class, ties positive."""
    if not 0.0 <= p_hat <= 1.0:
        raise ValidationError(f"p_hat must be in [0, 1], got {p_hat}")
    c_tp, c_fp, c_fn, c_tn = costs
    risk_pos = p_hat * c_tp + (1 - p_hat) * c_fp
    risk_neg = p_hat * c_fn + (1 - p_hat) * c_tn
    return 1 if risk_pos <= risk_neg else 0


class TestBmr:
    FRAUD = (3, 3, 100, 0)

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
            row = (c_tp, c_tn + rng.uniform(0.1, 9), c_tp + rng.uniform(0.1, 9), c_tn)
            p1, p2 = np.sort(rng.uniform(0, 1, 2))
            if bmr_predict(p1, row) == 1:
                assert bmr_predict(p2, row) == 1

    def test_threshold_closed_form_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            c_tp, c_tn = rng.uniform(0, 3, 2)
            row = (c_tp, c_tn + rng.uniform(0.1, 9), c_tp + rng.uniform(0.1, 9), c_tn)
            p = float(rng.uniform(0, 1))
            assert bmr_predict(p, row) == int(p >= bmr_threshold(row))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        ds = strict_random_dataset(rng, 30, 2)
        p = rng.uniform(0, 1, ds.n)
        vec = bmr_predict_dataset(p, ds)
        scalar = [bmr_predict(pi, row) for pi, row in zip(p, ds.costs)]
        assert vec.tolist() == scalar

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_probability_outside_unit_interval_rejected(self, bad):
        ds = strict_random_dataset(np.random.default_rng(7), 10, 2)
        p = np.full(ds.n, 0.5)
        p[4] = bad
        with pytest.raises(ValidationError, match=r"in \[0, 1\]"):
            bmr_predict_dataset(p, ds)

    def test_wrapper_uses_dataset_costs(self):
        rng = np.random.default_rng(8)
        ds = gaussian_cost_dataset(rng, 300, k=3)
        tree = grow(ds, CsdtConfig(max_depth=4, impurity="gini"))
        preds = BmrWrapper(tree).predict_on(ds)
        assert preds.shape == (ds.n,)
        assert set(np.unique(preds)) <= {0, 1}


class TestGiniTree:
    def test_reduces_to_unit_cost_tree(self):
        rng = np.random.default_rng(9)
        ds = strict_random_dataset(rng, 50, 2)
        unit = CostedDataset(ds.X, ds.y, np.tile([0.0, 1, 1, 0], (ds.n, 1)))
        a = grow(ds, CsdtConfig(candidate_thresholds="exact_midpoints", max_depth=3,
                                impurity="gini"))
        b = grow(unit, CsdtConfig(candidate_thresholds="exact_midpoints", max_depth=3))
        assert np.array_equal(a.predict_many(ds.X), b.predict_many(ds.X))

    def test_ignores_money_columns(self):
        rng = np.random.default_rng(10)
        ds = strict_random_dataset(rng, 60, 2)
        scaled = CostedDataset(ds.X, ds.y, ds.costs * 250.0)
        a = grow(ds, CsdtConfig(max_depth=4, impurity="gini"))
        b = grow(scaled, CsdtConfig(max_depth=4, impurity="gini"))
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
            tree = grow(tr, CsdtConfig(max_depth=6, impurity="gini"))
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

    @pytest.mark.parametrize("kind", ["random_forest", "random_patches"])
    def test_probability_equals_per_tree_sum(self, kind):
        rng = np.random.default_rng(13)
        ds = gaussian_cost_dataset(rng, 200, k=4)
        config = EcsdtConfig(InducerConfig(kind=kind, T=6, seed=3),
                             CsdtConfig(max_depth=4, impurity="gini"), "mv")
        forest = ensemble.train(ds, config)
        X = rng.normal(size=(300, 4))
        expected = np.zeros(300)
        for j in range(forest.T):
            expected += predict_proba_many(base_model(forest, j), X)
        assert forest.predict_proba(X).tobytes() == (expected / 6).tobytes()
        X[5, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            forest.predict_proba(X)
