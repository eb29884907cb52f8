"""Property-based tests for the region-mining objectives and queries."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.core.objective import LogObjective, RatioObjective
from repro.core.query import RegionQuery

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
positive_half = st.floats(min_value=1e-3, max_value=0.5, allow_nan=False, allow_infinity=False)


def volume_statistic(vectors: np.ndarray) -> np.ndarray:
    dim = vectors.shape[1] // 2
    return np.prod(2 * vectors[:, dim:], axis=1) * 1000.0


def score(objective, vector: np.ndarray) -> float:
    """The objective value of a single ``[x, l]`` vector, as a one-row batch."""
    return float(objective.evaluate_batch(vector[None, :])[0])


def margin(objective, vector: np.ndarray) -> float:
    """The constraint slack of a single ``[x, l]`` vector (positive = feasible)."""
    return float(objective.query.margin(objective.statistic(vector[None, :])[0]))


@st.composite
def solution_vector(draw, dim=2):
    center = [draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)) for _ in range(dim)]
    half = [draw(positive_half) for _ in range(dim)]
    return np.array(center + half)


@given(finite, finite)
def test_query_margin_antisymmetry(threshold, value):
    above = RegionQuery(threshold=threshold, direction="above")
    below = RegionQuery(threshold=threshold, direction="below")
    assert above.margin(value) == pytest.approx(-below.margin(value))


@given(finite)
def test_exactly_threshold_is_never_satisfied(threshold):
    above = RegionQuery(threshold=threshold, direction="above")
    below = RegionQuery(threshold=threshold, direction="below")
    assert not above.satisfied_by(threshold)
    assert not below.satisfied_by(threshold)


@given(solution_vector(), st.floats(min_value=0.0, max_value=6.0))
def test_log_objective_finite_iff_feasible(vector, c):
    query = RegionQuery(threshold=100.0, direction="above", size_penalty=c)
    objective = LogObjective(volume_statistic, query)
    value = score(objective, vector)
    if margin(objective, vector) > 0:
        assert np.isfinite(value)
    else:
        assert value == -np.inf


@given(solution_vector())
def test_log_objective_monotone_in_threshold(vector):
    # A lower threshold leaves a larger margin, so the objective can only increase.
    low = LogObjective(volume_statistic, RegionQuery(threshold=10.0, direction="above", size_penalty=2.0))
    high = LogObjective(volume_statistic, RegionQuery(threshold=200.0, direction="above", size_penalty=2.0))
    assert score(low, vector) >= score(high, vector)


@given(
    st.lists(solution_vector(), min_size=1, max_size=8),
    st.data(),
    st.floats(min_value=0.5, max_value=4.0),
    st.sampled_from([LogObjective, RatioObjective]),
)
def test_objective_scores_a_row_alone_as_in_a_batch(vectors, data, c, objective_cls):
    query = RegionQuery(threshold=50.0, direction="above", size_penalty=c)
    objective = objective_cls(volume_statistic, query)
    batch = np.stack(vectors)
    row = data.draw(st.integers(min_value=0, max_value=len(vectors) - 1))
    assert objective.evaluate_batch(batch)[row] == score(objective, batch[row])


@given(solution_vector(), st.floats(min_value=0.5, max_value=4.0))
def test_ratio_objective_sign_tracks_feasibility(vector, c):
    query = RegionQuery(threshold=100.0, direction="above", size_penalty=c)
    objective = RatioObjective(volume_statistic, query)
    value = score(objective, vector)
    assert np.isfinite(value)
    if margin(objective, vector) > 0:
        assert value > 0
    else:
        assert value <= 0


@given(solution_vector())
def test_shrinking_a_feasible_region_increases_log_objective(vector):
    query = RegionQuery(threshold=10.0, direction="above", size_penalty=4.0)
    objective = LogObjective(volume_statistic, query)
    dim = vector.size // 2
    shrunk = vector.copy()
    shrunk[dim:] = shrunk[dim:] * 0.9
    assume(margin(objective, shrunk) > 0)
    assume(margin(objective, vector) > 0)
    # Right at the feasibility boundary the log-margin loss can exceed the
    # size-penalty gain (-c * d * log(0.9) ≈ 0.843 here), so restrict to
    # regions whose margin survives the shrink by at least half: then
    # log(m / m') <= log 2 < 0.843 and the penalty term dominates for c=4.
    assume(margin(objective, shrunk) >= 0.5 * margin(objective, vector))
    assert score(objective, shrunk) >= score(objective, vector)
