"""Property-based equivalence: compiled predictions are bit-identical to recursive.

Hypothesis drives random datasets *and* random hyper-parameters through every
compilable family; each example asserts exact ``np.array_equal`` equality
against the recursive walk (``tests/helpers/recursive_predict.py``) — the
compiled kernel owes it bit-identity, not tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from recursive_predict import recursive_predict
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.compiled import CompiledPredictor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def regression_data(draw, min_rows=12, max_rows=60, max_cols=3):
    num_rows = draw(st.integers(min_rows, max_rows))
    num_cols = draw(st.integers(1, max_cols))
    features = draw(hnp.arrays(np.float64, (num_rows, num_cols), elements=finite_floats))
    targets = draw(hnp.arrays(np.float64, (num_rows,), elements=finite_floats))
    return features, targets


def assert_equal_predictions(estimator, features):
    recursive = recursive_predict(estimator, features)
    np.testing.assert_array_equal(estimator.predict(features), recursive)
    np.testing.assert_array_equal(CompiledPredictor(estimator).predict(features), recursive)


@given(regression_data(), st.integers(0, 8), st.integers(1, 4), st.integers(4, 32))
def test_tree_compiled_equals_recursive(data, max_depth, min_samples_leaf, max_bins):
    features, targets = data
    tree = DecisionTreeRegressor(
        max_depth=max_depth, min_samples_leaf=min_samples_leaf, max_bins=max_bins
    ).fit(features, targets)
    assert_equal_predictions(tree, features)


@given(regression_data(min_rows=15), st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_forest_compiled_equals_recursive(data, n_estimators, max_depth, seed):
    features, targets = data
    forest = RandomForestRegressor(
        n_estimators=n_estimators, max_depth=max_depth, random_state=seed
    ).fit(features, targets)
    assert_equal_predictions(forest, features)


@given(
    regression_data(min_rows=15),
    st.integers(1, 15),
    st.integers(1, 4),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=30)
def test_boosting_compiled_equals_recursive(data, n_estimators, max_depth, learning_rate, reg_lambda):
    features, targets = data
    model = GradientBoostingRegressor(
        n_estimators=n_estimators,
        max_depth=max_depth,
        learning_rate=learning_rate,
        reg_lambda=reg_lambda,
        random_state=0,
    ).fit(features, targets)
    assert_equal_predictions(model, features)


@given(regression_data(min_rows=20), st.integers(1, 6), st.lists(st.integers(1, 5), min_size=1, max_size=3))
@settings(max_examples=20)
def test_boosting_equivalence_survives_warm_start_rounds(data, n_estimators, extra_rounds_seq):
    # Every warm-start continuation resumes from the tables of the ensemble it
    # extends and appends trees to it; the tables must be rebuilt each round
    # and stay bit-identical.
    features, targets = data
    model = GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=3, warm_start=True, random_state=0
    ).fit(features, targets)
    assert_equal_predictions(model, features)
    total = n_estimators
    for extra in extra_rounds_seq:
        total += extra
        model.set_params(n_estimators=total).fit(features, targets)
        assert model.num_trees_ == total
        assert_equal_predictions(model, features)


@given(regression_data(), st.integers(1, 100))
@settings(max_examples=20)
def test_query_batch_disjoint_from_training_rows(data, num_queries):
    # Equivalence must hold off the training manifold too, including between
    # (and exactly on) fitted thresholds.
    features, targets = data
    model = GradientBoostingRegressor(n_estimators=5, max_depth=3, random_state=0).fit(
        features, targets
    )
    span = np.linspace(features.min() - 1.0, features.max() + 1.0, num_queries)
    queries = np.repeat(span[:, None], features.shape[1], axis=1)
    assert_equal_predictions(model, queries)
