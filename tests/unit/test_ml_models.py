"""Unit tests for the from-scratch regressors (tree, boosting, forest, knn, linear)."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import clone
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.linear import LinearRegression, RidgeRegression
from repro.ml.metrics import root_mean_squared_error
from repro.ml.tree import DecisionTreeRegressor, bin_features


@pytest.fixture(scope="module")
def regression_problem():
    """A smooth nonlinear regression problem all models should handle."""
    rng = np.random.default_rng(0)
    features = rng.uniform(-1.0, 1.0, size=(600, 3))
    targets = (
        2.0 * features[:, 0]
        - 1.5 * features[:, 1] ** 2
        + np.sin(3 * features[:, 2])
        + rng.normal(0, 0.05, size=600)
    )
    split = 450
    return (features[:split], targets[:split], features[split:], targets[split:])


class TestBinning:
    def test_codes_shape_and_range(self, rng):
        features = rng.uniform(size=(100, 2))
        binned = bin_features(features, max_bins=16)
        assert binned.codes.shape == (100, 2)
        assert binned.codes.min() >= 0
        assert binned.codes.max() <= 15

    def test_constant_feature_single_bin(self):
        features = np.column_stack([np.full(50, 2.0), np.linspace(0, 1, 50)])
        binned = bin_features(features, max_bins=8)
        assert np.all(binned.codes[:, 0] == binned.codes[0, 0])

    def test_invalid_bins_rejected(self, rng):
        with pytest.raises(ValidationError):
            bin_features(rng.uniform(size=(10, 1)), max_bins=1)


class TestDecisionTree:
    def test_fits_step_function_exactly(self):
        features = np.linspace(0, 1, 200).reshape(-1, 1)
        targets = (features[:, 0] > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        predictions = tree.predict(features)
        assert root_mean_squared_error(targets, predictions) < 0.5

    def test_depth_zero_predicts_mean(self):
        features = np.arange(10, dtype=float).reshape(-1, 1)
        targets = np.arange(10, dtype=float)
        tree = DecisionTreeRegressor(max_depth=0).fit(features, targets)
        np.testing.assert_allclose(tree.predict(features), targets.mean())

    def test_deeper_trees_fit_training_data_better(self, regression_problem):
        features, targets, _, _ = regression_problem
        shallow = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        deep = DecisionTreeRegressor(max_depth=8).fit(features, targets)
        assert root_mean_squared_error(targets, deep.predict(features)) < root_mean_squared_error(
            targets, shallow.predict(features)
        )

    def test_values_on_a_bin_edge_predict_the_leaf_they_trained(self):
        # With 65 rows every quantile position is a whole index, so each bin
        # edge is a data value and the chosen split threshold is a training row.
        features = np.arange(65, dtype=float).reshape(-1, 1)
        targets = (features[:, 0] >= 32).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=1).fit(features, targets)
        np.testing.assert_array_equal(tree.predict(features), targets)

    def test_min_samples_leaf_respected(self):
        features = np.linspace(0, 1, 40).reshape(-1, 1)
        targets = np.sin(6 * features[:, 0])
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=10).fit(features, targets)
        assert tree.num_leaves() <= 4

    def test_reported_depth_bounded_by_max_depth(self, regression_problem):
        features, targets, _, _ = regression_problem
        tree = DecisionTreeRegressor(max_depth=3).fit(features, targets)
        assert tree.depth() <= 3

    def test_constant_targets_yield_single_leaf(self):
        features = np.random.default_rng(1).uniform(size=(50, 2))
        targets = np.full(50, 7.0)
        tree = DecisionTreeRegressor(max_depth=5).fit(features, targets)
        assert tree.num_leaves() == 1
        np.testing.assert_allclose(tree.predict(features), 7.0)

    def test_reg_lambda_shrinks_leaf_values(self):
        features = np.zeros((4, 1)) + [[0.0], [0.0], [1.0], [1.0]]
        targets = np.array([0.0, 0.0, 10.0, 10.0])
        plain = DecisionTreeRegressor(max_depth=1, reg_lambda=0.0).fit(features, targets)
        shrunk = DecisionTreeRegressor(max_depth=1, reg_lambda=2.0).fit(features, targets)
        assert shrunk.predict(np.array([[1.0]]))[0] < plain.predict(np.array([[1.0]]))[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.ones((1, 2)))

    def test_feature_count_mismatch_raises(self, regression_problem):
        features, targets, _, _ = regression_problem
        tree = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        with pytest.raises(ValidationError):
            tree.predict(np.ones((3, 5)))

    def test_invalid_hyper_parameters(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(max_depth=-1).fit(np.ones((5, 1)), np.ones(5))
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_split=1).fit(np.ones((5, 1)), np.ones(5))
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(reg_lambda=-1).fit(np.ones((5, 1)), np.ones(5))


class TestGradientBoosting:
    def test_outperforms_single_tree(self, regression_problem):
        features, targets, test_features, test_targets = regression_problem
        tree = DecisionTreeRegressor(max_depth=3).fit(features, targets)
        boosted = GradientBoostingRegressor(n_estimators=60, max_depth=3, random_state=0).fit(features, targets)
        tree_rmse = root_mean_squared_error(test_targets, tree.predict(test_features))
        boosted_rmse = root_mean_squared_error(test_targets, boosted.predict(test_features))
        assert boosted_rmse < tree_rmse

    def test_training_score_decreases_monotonically_in_early_rounds(self, regression_problem):
        features, targets, _, _ = regression_problem
        model = GradientBoostingRegressor(n_estimators=30, max_depth=3, random_state=0).fit(features, targets)
        scores = model.train_scores_
        assert scores[5] < scores[0]
        assert scores[-1] <= scores[5]

    def test_early_stopping_limits_trees(self):
        # A noiseless step function is fitted perfectly after a few rounds, so the
        # validation score stops improving and early stopping kicks in.
        rng = np.random.default_rng(2)
        features = rng.uniform(size=(400, 1))
        targets = (features[:, 0] > 0.5).astype(float)
        model = GradientBoostingRegressor(
            n_estimators=300, max_depth=2, learning_rate=0.5, early_stopping_rounds=5, random_state=0
        ).fit(features, targets)
        assert model.num_trees_ < 300

    def test_subsample_produces_valid_model(self, regression_problem):
        features, targets, test_features, test_targets = regression_problem
        model = GradientBoostingRegressor(
            n_estimators=40, max_depth=3, subsample=0.6, random_state=0
        ).fit(features, targets)
        assert root_mean_squared_error(test_targets, model.predict(test_features)) < 1.0

    def test_reproducible_with_seed(self, regression_problem):
        features, targets, test_features, _ = regression_problem
        first = GradientBoostingRegressor(n_estimators=15, random_state=3).fit(features, targets)
        second = GradientBoostingRegressor(n_estimators=15, random_state=3).fit(features, targets)
        np.testing.assert_allclose(first.predict(test_features), second.predict(test_features))

    def test_invalid_learning_rate_rejected(self, regression_problem):
        features, targets, _, _ = regression_problem
        with pytest.raises(ValidationError):
            GradientBoostingRegressor(learning_rate=0.0).fit(features, targets)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GradientBoostingRegressor().predict(np.ones((2, 2)))

    def test_get_set_params_round_trip(self):
        model = GradientBoostingRegressor(n_estimators=10, max_depth=2)
        params = model.get_params()
        assert params["n_estimators"] == 10
        model.set_params(max_depth=7)
        assert model.get_params()["max_depth"] == 7

    def test_clone_returns_unfitted_copy(self, regression_problem):
        features, targets, _, _ = regression_problem
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(features, targets)
        copy = clone(model)
        assert copy.get_params()["n_estimators"] == 5
        with pytest.raises(NotFittedError):
            copy.predict(features)


class TestRandomForest:
    def test_learns_nonlinear_signal(self, regression_problem):
        features, targets, test_features, test_targets = regression_problem
        forest = RandomForestRegressor(n_estimators=30, max_depth=8, random_state=0).fit(features, targets)
        baseline = np.full_like(test_targets, targets.mean())
        assert root_mean_squared_error(test_targets, forest.predict(test_features)) < root_mean_squared_error(
            test_targets, baseline
        )

    def test_prediction_is_average_of_trees(self, regression_problem):
        features, targets, test_features, _ = regression_problem
        forest = RandomForestRegressor(n_estimators=5, max_depth=4, random_state=1).fit(features, targets)
        stacked = np.stack([tree.predict(test_features) for tree in forest._trees])
        np.testing.assert_allclose(forest.predict(test_features), stacked.mean(axis=0))

    def test_invalid_n_estimators(self, regression_problem):
        features, targets, _, _ = regression_problem
        with pytest.raises(ValidationError):
            RandomForestRegressor(n_estimators=0).fit(features, targets)


class TestKNN:
    def test_exact_neighbour_recovery(self):
        features = np.arange(10, dtype=float).reshape(-1, 1)
        targets = np.arange(10, dtype=float) * 2
        model = KNeighborsRegressor(n_neighbors=1).fit(features, targets)
        np.testing.assert_allclose(model.predict(features), targets)

    def test_uniform_average_of_neighbours(self):
        features = np.array([[0.0], [1.0], [2.0], [10.0]])
        targets = np.array([0.0, 1.0, 2.0, 100.0])
        model = KNeighborsRegressor(n_neighbors=3).fit(features, targets)
        assert model.predict(np.array([[1.0]]))[0] == pytest.approx(1.0)

    def test_distance_weighting_prefers_closer_points(self):
        features = np.array([[0.0], [1.0]])
        targets = np.array([0.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=2, weights="distance").fit(features, targets)
        assert model.predict(np.array([[0.1]]))[0] < 5.0

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValidationError):
            KNeighborsRegressor(weights="gaussian").fit(np.ones((3, 1)), np.ones(3))

    def test_k_larger_than_dataset_is_capped(self):
        features = np.array([[0.0], [1.0]])
        targets = np.array([2.0, 4.0])
        model = KNeighborsRegressor(n_neighbors=10).fit(features, targets)
        assert model.predict(np.array([[0.5]]))[0] == pytest.approx(3.0)


class TestLinearModels:
    def test_linear_regression_recovers_coefficients(self, rng):
        features = rng.uniform(-1, 1, size=(200, 2))
        targets = 3.0 * features[:, 0] - 2.0 * features[:, 1] + 0.5
        model = LinearRegression().fit(features, targets)
        np.testing.assert_allclose(model.coefficients_, [3.0, -2.0], atol=1e-8)
        assert model.intercept_ == pytest.approx(0.5, abs=1e-8)

    def test_linear_regression_without_intercept(self, rng):
        features = rng.uniform(-1, 1, size=(100, 1))
        targets = 2.0 * features[:, 0]
        model = LinearRegression(fit_intercept=False).fit(features, targets)
        assert model.intercept_ == 0.0
        np.testing.assert_allclose(model.coefficients_, [2.0], atol=1e-8)

    def test_ridge_shrinks_towards_zero(self, rng):
        features = rng.uniform(-1, 1, size=(50, 1))
        targets = 5.0 * features[:, 0]
        plain = RidgeRegression(alpha=0.0).fit(features, targets)
        heavy = RidgeRegression(alpha=100.0).fit(features, targets)
        assert abs(heavy.coefficients_[0]) < abs(plain.coefficients_[0])

    def test_ridge_alpha_zero_matches_ols(self, rng):
        features = rng.uniform(-1, 1, size=(80, 3))
        targets = features @ np.array([1.0, -2.0, 0.5]) + 1.0
        ols = LinearRegression().fit(features, targets)
        ridge = RidgeRegression(alpha=0.0).fit(features, targets)
        np.testing.assert_allclose(ridge.coefficients_, ols.coefficients_, atol=1e-6)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            RidgeRegression(alpha=-1.0).fit(np.ones((3, 1)), np.ones(3))

    def test_score_returns_r2(self, rng):
        features = rng.uniform(-1, 1, size=(100, 2))
        targets = features[:, 0] + features[:, 1]
        model = LinearRegression().fit(features, targets)
        assert model.score(features, targets) == pytest.approx(1.0)
