import numpy as np
import pytest

from conftest import stacking_cost, strict_random_dataset, two_example_fraud
from costforest import ConfigError, CostedDataset, ValidationError, combiners, ensemble
from costforest.combiners import (
    GaConfig,
    StackingWeights,
    WeightVector,
    _sigmoid,
    as_vote_matrix,
    fit_stacking,
    ga_minimize,
    majority_vote,
    stacking_predict,
    weighted_vote,
    weights_from_scores,
)
from costforest.csdt import CsdtConfig
from costforest.ensemble import EcsdtConfig
from costforest.inducers import InducerConfig


def closed_form_zero_beta(ds):
    """Independent oracle for J at beta = 0: the half-sum form."""
    c_tp, c_fp, c_fn, c_tn = ds.costs.T
    pos = ds.y == 1
    return float(
        0.5 * (c_tp[pos] + c_fn[pos]).sum() + 0.5 * (c_fp[~pos] + c_tn[~pos]).sum()
    )


class TestMajorityVote:
    def test_simple(self):
        assert majority_vote(np.array([[1], [1], [0]])).tolist() == [1]

    def test_tie_goes_to_zero(self):
        assert majority_vote(np.array([[1], [0]])).tolist() == [0]

    def test_identical_bases(self):
        votes = np.tile(np.array([1, 0, 1, 1]), (5, 1))
        assert majority_vote(votes).tolist() == [1, 0, 1, 1]

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            majority_vote([np.array([1, 0]), np.array([1])])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValidationError):
            as_vote_matrix(np.array([[2, 0]]))


class TestWeightVector:
    def test_must_normalize(self):
        with pytest.raises(ValidationError):
            WeightVector(np.array([0.5, 0.2]))

    def test_nonnegative(self):
        with pytest.raises(ValidationError):
            WeightVector(np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite(self, bad):
        # NaN fails both the sign and the sum test, so it needs its own
        with pytest.raises(ValidationError, match="finite"):
            WeightVector(np.array([bad, 0.5]))


class TestStackingWeights:
    @pytest.mark.parametrize("threshold", [np.nan, -np.inf, -0.1, 1.5, np.inf])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValidationError, match="threshold"):
            StackingWeights(np.zeros(2), 0.0, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_threshold_in_unit_interval_accepted(self, threshold):
        assert StackingWeights(np.zeros(2), 0.0, threshold).threshold == threshold


class TestSavingsWeights:
    def test_already_normalized(self):
        w = weights_from_scores([0.6, 0.3, 0.1])
        assert w.alphas.tolist() == pytest.approx([0.6, 0.3, 0.1])

    def test_negative_clamped(self):
        w = weights_from_scores([0.5, -0.5, 0.5])
        assert w.alphas.tolist() == pytest.approx([0.5, 0.0, 0.5])

    def test_all_nonpositive_uniform(self):
        w = weights_from_scores([-0.2, 0.0, -1.0])
        assert w.alphas.tolist() == pytest.approx([1 / 3] * 3)


class TestWeightedVote:
    def test_dominant_weight(self):
        w = WeightVector(np.array([0.6, 0.3, 0.1]))
        votes = np.array([[1], [0], [0]])
        assert weighted_vote(votes, w).tolist() == [1]

    def test_tie_goes_to_zero(self):
        w = WeightVector(np.array([0.5, 0.5]))
        assert weighted_vote(np.array([[1], [0]]), w).tolist() == [0]

    def test_scaling_before_normalization_invariant(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(0.01, 1.0, 7)
        votes = rng.integers(0, 2, size=(7, 40))
        base = weighted_vote(votes, WeightVector(raw / raw.sum()))
        for scale in (2.0, 0.5, 1024.0, 3.0):
            scaled = raw * scale
            again = weighted_vote(votes, WeightVector(scaled / scaled.sum()))
            assert np.array_equal(base, again)

    def test_uniform_equals_majority(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            T = int(rng.integers(1, 12))
            n = int(rng.integers(1, 30))
            votes = rng.integers(0, 2, size=(T, n))
            uniform = WeightVector(np.full(T, 1.0 / T))
            assert np.array_equal(weighted_vote(votes, uniform), majority_vote(votes))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValidationError):
            weighted_vote(np.array([[1], [0]]), WeightVector(np.array([1.0])))


class TestAccuracyWeights:
    """weights_from_scores on OOB accuracies (1 - error rate), as wv-acc uses it."""

    def test_error_rates(self):
        w = weights_from_scores([1 - 0.1, 1 - 0.3])
        assert w.alphas.tolist() == pytest.approx([0.5625, 0.4375])

    def test_equal_errors_uniform(self):
        w = weights_from_scores([0.5, 0.5, 0.5])
        assert w.alphas.tolist() == pytest.approx([1 / 3] * 3)

    def test_perfect_uniform(self):
        w = weights_from_scores([1.0, 1.0])
        assert w.alphas.tolist() == pytest.approx([0.5, 0.5])


class TestStackingCost:
    def test_zero_beta_half_sum(self):
        ds = two_example_fraud()
        weights = StackingWeights(betas=np.zeros(1), intercept=0.0)
        votes = np.array([[1, 0]])
        assert stacking_cost(ds, votes, weights) == pytest.approx(53.0, abs=1e-12)

    def test_zero_beta_matches_closed_form_random(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ds = strict_random_dataset(rng, int(rng.integers(1, 30)), 2)
            T = int(rng.integers(1, 6))
            votes = rng.integers(0, 2, size=(T, ds.n))
            weights = StackingWeights(betas=np.zeros(T), intercept=0.0)
            assert stacking_cost(ds, votes, weights) == pytest.approx(
                closed_form_zero_beta(ds), rel=1e-12
            )

    def test_saturated_intercept_all_positive(self):
        n = 5
        ds = CostedDataset(
            np.zeros((n, 1)), np.ones(n, dtype=int),
            np.tile([2.0, 5, 30, 0], (n, 1)),
        )
        votes = np.ones((3, n), dtype=int)
        weights = StackingWeights(betas=np.zeros(3), intercept=60.0)
        assert stacking_cost(ds, votes, weights) == pytest.approx(2.0 * n, rel=1e-9)

    def test_one_perfect_base_hand_value(self):
        ds = two_example_fraud()
        votes = np.array([[1, 0]])
        weights = StackingWeights(betas=np.array([5.0]), intercept=0.0)
        g5 = 1.0 / (1.0 + np.exp(-5.0))
        expected = (g5 * (3 - 100) + 100) + (0.5 * (3 - 0) + 0)
        assert stacking_cost(ds, votes, weights) == pytest.approx(expected, abs=1e-12)

    def test_lower_bound_per_example_min(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            ds = strict_random_dataset(rng, 15, 2)
            T = 4
            votes = rng.integers(0, 2, size=(T, ds.n))
            weights = StackingWeights(
                betas=rng.normal(0, 3, T), intercept=float(rng.normal())
            )
            cost0, cost1 = ds.costs_if_predicted()
            floor = np.minimum(cost0, cost1).sum()
            assert stacking_cost(ds, votes, weights) >= floor - 1e-9


class TestStackingPredict:
    def test_zero_beta_all_positive(self):
        w = StackingWeights(betas=np.zeros(2), intercept=0.0)
        votes = np.array([[1, 0, 1], [0, 0, 1]])
        assert stacking_predict(votes, w).tolist() == [1, 1, 1]

    def test_negative_intercept_all_zero(self):
        w = StackingWeights(betas=np.zeros(2), intercept=-10.0)
        votes = np.array([[1, 1, 1], [1, 1, 1]])
        assert stacking_predict(votes, w).tolist() == [0, 0, 0]

    def test_threshold_equals_sign_rule(self):
        # g monotone: f_s >= 1/2 iff the linear score z >= 0
        rng = np.random.default_rng(12)
        T, n = 5, 60
        votes = rng.integers(0, 2, size=(T, n))
        w = StackingWeights(betas=rng.normal(0, 2, T), intercept=float(rng.normal()))
        z = w.intercept + w.betas @ votes
        assert np.array_equal(stacking_predict(votes, w), (z >= 0).astype(int))


class TestGa:
    @pytest.mark.parametrize("field, value", [
        ("tournament", 0), ("mutation_sigma", -1.0), ("mutation_sigma", float("nan")),
        ("mutation_sigma", float("inf")),
        ("generations", -1), ("crossover_rate", 1.5), ("crossover_rate", -0.1),
        ("mutation_rate", 2.0), ("mutation_rate", -1.0),
    ])
    def test_config_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GaConfig(**{field: value}).validate()

    def test_config_range_edges_accepted(self):
        GaConfig(tournament=1, mutation_sigma=0.0, generations=0, crossover_rate=0.0,
                 mutation_rate=1.0).validate()

    def test_minimizes_sphere(self):
        cfg = GaConfig(seed=5, generations=150)
        result = ga_minimize(lambda pop: (pop ** 2).sum(axis=1), 3, cfg)
        assert result.best_cost < 0.05

    def test_trace_non_increasing(self):
        cfg = GaConfig(seed=1, generations=50)
        result = ga_minimize(lambda pop: (pop ** 2).sum(axis=1), 4, cfg)
        assert (np.diff(result.trace) <= 0).all()

    def test_doubling_generations_never_worse(self):
        obj = lambda pop: ((pop - 1.7) ** 2).sum(axis=1)
        short = ga_minimize(obj, 3, GaConfig(seed=9, generations=40))
        long = ga_minimize(obj, 3, GaConfig(seed=9, generations=80))
        assert long.best_cost <= short.best_cost
        assert np.array_equal(long.trace[:41], short.trace)

    def test_deterministic(self):
        obj = lambda pop: (pop ** 2).sum(axis=1)
        a = ga_minimize(obj, 2, GaConfig(seed=3, generations=30))
        b = ga_minimize(obj, 2, GaConfig(seed=3, generations=30))
        assert np.array_equal(a.best, b.best)


class TestFitStacking:
    def test_beats_zero_vector(self):
        ds = two_example_fraud()
        votes = np.array([[1, 0]])
        fitted = fit_stacking(ds, votes, GaConfig(seed=2, generations=60))
        at_zero = stacking_cost(ds, votes, StackingWeights(np.zeros(1), 0.0))
        assert stacking_cost(ds, votes, fitted) < at_zero

    def test_reaches_near_infimum(self):
        ds = two_example_fraud()
        votes = np.array([[1, 0]])
        fitted = fit_stacking(ds, votes, GaConfig(seed=0))
        infimum = 3.0  # both true positives cost 3, everything else washes out
        assert stacking_cost(ds, votes, fitted) <= infimum * 1.05

    def test_trace_recorded_non_increasing(self):
        ds = two_example_fraud()
        votes = np.array([[1, 0]])
        fitted = fit_stacking(ds, votes, GaConfig(seed=7, generations=30))
        assert fitted.trace is not None
        assert (np.diff(fitted.trace) <= 0).all()

    def test_invalid_ga_config_rejected_before_fitting(self):
        ds = two_example_fraud()
        with pytest.raises(ConfigError, match="population"):
            fit_stacking(ds, np.array([[1, 0]]), GaConfig(population=-1))

    @pytest.mark.parametrize(
        "n, T, seed", [(800, 25, 44), (3000, 8, 45)], ids=["all-distinct", "256-patterns"]
    )
    def test_pattern_objective_matches_per_row_oracle(self, n, T, seed, monkeypatch):
        """Every individual's cost is the per-row cost up to summation order,
        and the fitted weights equal those of a GA run on the per-row formula."""
        rng = np.random.default_rng(seed)
        ds = strict_random_dataset(rng, n, 3)
        agree = rng.random((T, ds.n)) < 0.7
        votes = np.where(agree, ds.y, 1 - ds.y)
        ga = GaConfig(seed=5, generations=40)

        ga_minimize_ = combiners.ga_minimize
        monkeypatch.setattr(
            combiners, "ga_minimize",
            lambda objective, dim, config, seeds=(): ga_minimize_(
                lambda pop: _per_row_costs(ds, votes, pop), dim, config, seeds
            ),
        )
        slow = fit_stacking(ds, votes, ga)
        monkeypatch.undo()

        fast, batch_sizes = _fit_checking_costs(monkeypatch, ds, votes, ga)
        assert set(batch_sizes) == {ga.population, ga.population - ga.elitism}
        assert np.array_equal(fast.betas, slow.betas)
        assert fast.intercept == slow.intercept
        np.testing.assert_allclose(fast.trace, slow.trace, rtol=1e-12, atol=0)


def _per_row_costs(ds, votes, pop):
    """The per-row oracle's cost of every individual (intercept, betas) in pop."""
    return np.array(
        [stacking_cost(ds, votes, StackingWeights(ind[1:], float(ind[0]))) for ind in pop]
    )


def _fit_checking_costs(monkeypatch, ds, votes, ga):
    """fit_stacking with every batch's costs checked against the per-row oracle."""
    batch_sizes = []
    ga_minimize_ = combiners.ga_minimize

    def checked(objective, dim, config, seeds=()):
        def objective_checked(pop):
            costs = objective(pop)
            batch_sizes.append(pop.shape[0])
            np.testing.assert_allclose(costs, _per_row_costs(ds, votes, pop), rtol=1e-12, atol=0)
            return costs

        return ga_minimize_(objective_checked, dim, config, seeds)

    monkeypatch.setattr(combiners, "ga_minimize", checked)
    return fit_stacking(ds, votes, ga), batch_sizes


def _zero_slope_pattern():
    """Rows 0 and 1 share a vote column and their slopes are -5 and +5."""
    costs = np.array([[2.0, 7, 7, 2], [2, 7, 7, 2], [1, 4, 9, 0], [0, 6, 3, 1]])
    ds = CostedDataset(np.zeros((4, 1)), np.array([1, 0, 1, 0]), costs)
    cost0, cost1 = ds.costs_if_predicted()
    assert (cost1 - cost0)[:2].sum() == 0.0
    return ds, np.array([[1, 1, 0, 1], [0, 0, 0, 1]])


def _unanimous(rng):
    ds = strict_random_dataset(rng, 50, 2)
    return ds, np.repeat(rng.integers(0, 2, size=(6, 1)), ds.n, axis=1)


def _one_tree(rng):
    ds = strict_random_dataset(rng, 50, 2)
    return ds, rng.integers(0, 2, size=(1, ds.n))


def _all_distinct(rng):
    ds = strict_random_dataset(rng, 60, 2)
    codes = rng.choice(2 ** 10, size=ds.n, replace=False)
    return ds, (codes >> np.arange(10)[:, None]) & 1


def _ensemble_votes(rng):
    ds = strict_random_dataset(rng, 120, 3)
    config = EcsdtConfig(
        inducer=InducerConfig(kind="bagging", T=7, seed=3),
        tree=CsdtConfig(max_depth=2),
        combiner="stacking",
        ga=GaConfig(population=8, generations=5),
    )
    return ds, ensemble.train(ds, config).base_votes(ds.X)


class TestPatternObjectiveEdgeCases:
    @pytest.mark.parametrize(
        "make, patterns",
        [
            (_unanimous, 1),
            (_one_tree, 2),
            (_all_distinct, 60),
            (lambda rng: _zero_slope_pattern(), 3),
            (_ensemble_votes, None),
        ],
        ids=["unanimous", "one-tree", "all-distinct", "zero-slope-pattern", "ensemble-train"],
    )
    def test_costs_match_per_row_oracle(self, make, patterns, monkeypatch):
        ds, votes = make(np.random.default_rng(17))
        if patterns is not None:
            assert np.unique(votes.T, axis=0).shape[0] == patterns
        ga = GaConfig(population=16, generations=15, seed=2)
        fitted, batch_sizes = _fit_checking_costs(monkeypatch, ds, votes, ga)
        assert len(batch_sizes) == ga.generations + 1
        assert np.isfinite(fitted.betas).all() and np.isfinite(fitted.intercept)
        assert fitted.betas.shape == (votes.shape[0],)


def _masked_sigmoid(z):
    """The boolean-masked logistic function the exp(-|z|) form replaced."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize(
        "z",
        [
            np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, -np.nan]),
            np.random.default_rng(1).normal(scale=20.0, size=1000),
            np.random.default_rng(2).normal(scale=5.0, size=(64, 300)),
        ],
        ids=["special", "random-1d", "random-2d"],
    )
    def test_bit_equal_to_masked_formula(self, z):
        expected = _masked_sigmoid(z).view(np.uint64)
        assert np.array_equal(_sigmoid(z).view(np.uint64), expected)
