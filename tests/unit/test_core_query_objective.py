"""Unit tests for RegionQuery, SolutionSpace and the objective functions."""

import numpy as np
import pytest

from repro.core.objective import LogObjective, RatioObjective, make_objective
from repro.core.query import RegionQuery, SolutionSpace
from repro.data.regions import Region
from repro.exceptions import ValidationError


def linear_statistic(vectors: np.ndarray) -> np.ndarray:
    """A simple synthetic statistic: count proportional to region volume ×1000."""
    dim = vectors.shape[1] // 2
    return np.prod(2 * vectors[:, dim:], axis=1) * 1000.0


def per_vector_statistic(vector: np.ndarray) -> float:
    """The old per-vector contract: one scalar statistic for one ``[x, l]`` vector."""
    dim = vector.size // 2
    return float(np.prod(2 * vector[dim:]) * 1000.0)


def score(objective, vector) -> float:
    """The objective value of a single ``[x, l]`` vector, as a one-row batch."""
    return float(objective.evaluate_batch(np.asarray(vector, dtype=np.float64)[None, :])[0])


class TestRegionQuery:
    def test_margin_above(self):
        query = RegionQuery(threshold=10.0, direction="above")
        assert query.margin(15.0) == pytest.approx(5.0)
        assert query.margin(5.0) == pytest.approx(-5.0)
        np.testing.assert_array_equal(query.margin(np.array([15.0, 5.0])), [5.0, -5.0])

    def test_margin_below(self):
        query = RegionQuery(threshold=10.0, direction="below")
        assert query.margin(5.0) == pytest.approx(5.0)
        assert query.margin(15.0) == pytest.approx(-5.0)
        np.testing.assert_array_equal(query.margin(np.array([5.0, 15.0])), [5.0, -5.0])

    def test_satisfied_by_is_strict(self):
        query = RegionQuery(threshold=10.0, direction="above")
        assert query.satisfied_by(10.5)
        assert not query.satisfied_by(10.0)
        assert not query.satisfied_by(9.0)

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValidationError):
            RegionQuery(threshold=1.0, direction="between")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValidationError):
            RegionQuery(threshold=np.inf)

    def test_negative_size_penalty_rejected(self):
        with pytest.raises(ValidationError):
            RegionQuery(threshold=1.0, size_penalty=-1.0)

    def test_str_mentions_direction(self):
        assert ">" in str(RegionQuery(threshold=1.0, direction="above"))
        assert "<" in str(RegionQuery(threshold=1.0, direction="below"))


class TestSolutionSpace:
    def test_bounds_vectors_shapes(self):
        space = SolutionSpace(Region.from_bounds([0.0, 0.0], [1.0, 2.0]))
        lower, upper = space.bounds_vectors()
        assert lower.shape == (4,)
        assert upper.shape == (4,)
        assert space.solution_dim == 4
        assert space.region_dim == 2

    def test_half_length_bounds_scale_with_extent(self):
        space = SolutionSpace(
            Region.from_bounds([0.0, 0.0], [1.0, 2.0]), min_half_fraction=0.01, max_half_fraction=0.5
        )
        lower, upper = space.bounds_vectors()
        np.testing.assert_allclose(lower[2:], [0.01, 0.02])
        np.testing.assert_allclose(upper[2:], [0.5, 1.0])

    def test_clip_vector(self):
        space = SolutionSpace(Region.from_bounds([0.0], [1.0]))
        clipped = space.clip_vector(np.array([2.0, 0.9]))
        assert clipped[0] == pytest.approx(1.0)
        assert clipped[1] <= 0.5

    def test_contains_vector(self):
        space = SolutionSpace(Region.from_bounds([0.0], [1.0]))
        assert space.contains_vector(np.array([0.5, 0.1]))
        assert not space.contains_vector(np.array([1.5, 0.1]))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValidationError):
            SolutionSpace(Region.from_bounds([0.0], [1.0]), min_half_fraction=0.4, max_half_fraction=0.2)

    def test_from_workload_features_covers_evaluated_regions(self):
        features = np.array(
            [
                [0.2, 0.2, 0.1, 0.1],
                [0.8, 0.9, 0.05, 0.05],
            ]
        )
        space = SolutionSpace.from_workload_features(features)
        assert space.region_dim == 2
        assert np.all(space.data_bounds.lower <= [0.1, 0.1])
        assert np.all(space.data_bounds.upper >= [0.85, 0.95])

    def test_from_workload_features_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            SolutionSpace.from_workload_features(np.ones((3, 3)))

    def test_from_workload_features_rejects_empty_matrix(self):
        # Regression: an empty feature matrix used to crash with a cryptic
        # numpy "zero-size array to reduction operation" error.
        with pytest.raises(ValidationError):
            SolutionSpace.from_workload_features(np.empty((0, 4)))


class TestLogObjective:
    def test_feasible_region_value(self):
        query = RegionQuery(threshold=100.0, direction="above", size_penalty=2.0)
        objective = LogObjective(linear_statistic, query)
        vector = np.array([0.5, 0.5, 0.3, 0.3])  # volume 0.36 -> statistic 360
        expected = np.log(360.0 - 100.0) - 2.0 * (np.log(0.3) + np.log(0.3))
        assert score(objective, vector) == pytest.approx(expected)

    def test_infeasible_region_is_minus_inf(self):
        query = RegionQuery(threshold=100.0, direction="above")
        objective = LogObjective(linear_statistic, query)
        tiny = np.array([0.5, 0.5, 0.01, 0.01])
        assert score(objective, tiny) == -np.inf

    def test_below_direction(self):
        query = RegionQuery(threshold=100.0, direction="below", size_penalty=1.0)
        objective = LogObjective(linear_statistic, query)
        tiny = np.array([0.5, 0.5, 0.01, 0.01])  # statistic 0.4 < 100 -> feasible
        assert np.isfinite(score(objective, tiny))
        big = np.array([0.5, 0.5, 0.4, 0.4])  # statistic 640 > 100 -> infeasible
        assert score(objective, big) == -np.inf

    def test_smaller_regions_score_higher_when_feasible(self):
        query = RegionQuery(threshold=10.0, direction="above", size_penalty=4.0)
        objective = LogObjective(linear_statistic, query)
        small, large = objective.evaluate_batch(
            np.array([[0.5, 0.5, 0.2, 0.2], [0.5, 0.5, 0.4, 0.4]])
        )
        assert small > large

    def test_batch_matches_scalar(self):
        """Each row of a batch scores exactly what it scores alone."""
        query = RegionQuery(threshold=100.0, direction="above", size_penalty=3.0)
        objective = LogObjective(linear_statistic, query)
        vectors = np.array(
            [
                [0.5, 0.5, 0.3, 0.3],
                [0.5, 0.5, 0.01, 0.01],
                [0.2, 0.8, 0.45, 0.25],
            ]
        )
        batch = objective.evaluate_batch(vectors)
        singles = np.array([score(objective, vector) for vector in vectors])
        np.testing.assert_array_equal(batch, singles)

    def test_per_vector_statistic_is_rejected(self):
        query = RegionQuery(threshold=100.0, direction="above")
        objective = LogObjective(per_vector_statistic, query)
        vectors = np.array([[0.5, 0.5, 0.3, 0.3], [0.5, 0.5, 0.2, 0.2]])
        with pytest.raises(ValidationError, match=r"shape \(2,\).*got shape \(\)"):
            objective.evaluate_batch(vectors)

    def test_invalid_vector_shapes_rejected(self):
        query = RegionQuery(threshold=1.0)
        objective = LogObjective(linear_statistic, query)
        with pytest.raises(ValidationError):
            objective.evaluate_batch(np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(ValidationError):
            objective.evaluate_batch(np.ones((2, 3)))


class TestRatioObjective:
    def test_matches_equation_two(self):
        query = RegionQuery(threshold=100.0, direction="above", size_penalty=2.0)
        objective = RatioObjective(linear_statistic, query)
        vector = np.array([0.5, 0.5, 0.3, 0.3])
        expected = (360.0 - 100.0) / (0.3 * 0.3) ** 2.0
        assert score(objective, vector) == pytest.approx(expected)

    def test_defined_but_negative_for_infeasible_regions(self):
        query = RegionQuery(threshold=100.0, direction="above", size_penalty=1.0)
        objective = RatioObjective(linear_statistic, query)
        tiny = np.array([0.5, 0.5, 0.01, 0.01])
        value = score(objective, tiny)
        assert np.isfinite(value)
        assert value < 0

    def test_batch_matches_scalar(self):
        """Each row of a batch scores exactly what it scores alone."""
        query = RegionQuery(threshold=50.0, direction="above", size_penalty=2.0)
        objective = RatioObjective(linear_statistic, query)
        vectors = np.array([[0.5, 0.5, 0.3, 0.3], [0.5, 0.5, 0.05, 0.05]])
        np.testing.assert_array_equal(
            objective.evaluate_batch(vectors), [score(objective, v) for v in vectors]
        )

    def test_batch_negative_half_lengths_warn_free(self):
        # Regression: the batch path exponentiated every row's volume before
        # masking, so negative half lengths under a fractional size penalty
        # raised "invalid value encountered in power" and produced transient
        # NaNs.  The volume term must only be computed on valid rows.
        import warnings

        query = RegionQuery(threshold=50.0, direction="above", size_penalty=2.5)
        objective = RatioObjective(linear_statistic, query)
        vectors = np.array(
            [
                [0.5, 0.5, 0.3, 0.3],
                [0.5, 0.5, -0.1, 0.3],
                [0.5, 0.5, 0.2, -0.2],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = objective.evaluate_batch(vectors)
        assert np.isfinite(values[0])
        assert values[1] == -np.inf
        assert values[2] == -np.inf
        assert not np.any(np.isnan(values))

    def test_batch_all_rows_invalid_returns_minus_inf(self):
        query = RegionQuery(threshold=50.0, direction="above", size_penalty=2.5)
        objective = RatioObjective(linear_statistic, query)
        vectors = np.array([[0.5, 0.5, -0.1, 0.3], [0.5, 0.5, 0.0, 0.3]])
        np.testing.assert_array_equal(objective.evaluate_batch(vectors), [-np.inf, -np.inf])


class TestFactory:
    def test_make_objective_log_and_ratio(self):
        query = RegionQuery(threshold=1.0)
        assert isinstance(make_objective("log", linear_statistic, query), LogObjective)
        assert isinstance(make_objective("ratio", linear_statistic, query), RatioObjective)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            make_objective("cubic", linear_statistic, RegionQuery(threshold=1.0))

    def test_non_callable_statistic_rejected(self):
        with pytest.raises(ValidationError):
            LogObjective("not-callable", RegionQuery(threshold=1.0))
