"""Unit tests for the swarm optimisers (GSO and PSO)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.optim.gso import GlowwormSwarmOptimizer, GSOParameters
from repro.optim.pso import ParticleSwarmOptimizer, PSOParameters
from repro.optim.result import OptimizationResult


def single_peak(positions: np.ndarray) -> np.ndarray:
    """A smooth unimodal objective peaking at (0.5, 0.5)."""
    return -np.sum((positions - 0.5) ** 2, axis=1)


def two_peaks(positions: np.ndarray) -> np.ndarray:
    """A bimodal 1-D objective with peaks at 0.25 and 0.75."""
    x = positions[:, 0]
    return np.exp(-200 * (x - 0.25) ** 2) + np.exp(-200 * (x - 0.75) ** 2)


def gated(positions: np.ndarray) -> np.ndarray:
    """An objective undefined (−inf) outside a narrow feasible band."""
    distance = np.abs(positions[:, 0] - 0.6)
    return np.where(distance > 0.15, -np.inf, 1.0 - distance)


def per_vector_peak(vector: np.ndarray) -> float:
    """The old per-vector contract: one scalar fitness for one position."""
    return -float(np.sum((vector - 0.5) ** 2))


class TestGSOParameters:
    def test_defaults_match_paper(self):
        params = GSOParameters()
        assert params.luciferin_decay == pytest.approx(0.4)
        assert params.luciferin_gain == pytest.approx(0.6)
        assert params.num_particles == 100
        assert params.num_iterations == 100

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            GSOParameters(num_particles=1)
        with pytest.raises(ValidationError):
            GSOParameters(luciferin_decay=1.5)
        with pytest.raises(ValidationError):
            GSOParameters(step_size=0.0)
        with pytest.raises(ValidationError):
            GSOParameters(num_iterations=0)

    def test_radius_validation(self):
        with pytest.raises(ValidationError):
            GSOParameters(initial_radius=0.0)
        with pytest.raises(ValidationError):
            GSOParameters(initial_radius=-0.5)
        with pytest.raises(ValidationError):
            GSOParameters(max_radius=0.0)
        with pytest.raises(ValidationError):
            GSOParameters(max_radius=-1.0)
        with pytest.raises(ValidationError):
            GSOParameters(initial_radius=0.5, max_radius=0.4)
        # Valid combinations still pass.
        GSOParameters(initial_radius=0.5, max_radius=0.5)
        GSOParameters(initial_radius=0.2, max_radius=1.0)
        GSOParameters(initial_radius=0.2)
        GSOParameters(max_radius=1.0)

    def test_recommended_radius_shrinks_with_dimension(self):
        radius_low = GSOParameters.recommended_radius(100, 2)
        radius_high = GSOParameters.recommended_radius(100, 10)
        assert 0 < radius_low < radius_high < 1.5

    def test_for_dimension_scales_swarm(self):
        params = GSOParameters.for_dimension(4)
        assert params.num_particles == 200
        assert params.initial_radius is not None

    def test_for_dimension_accepts_overrides(self):
        params = GSOParameters.for_dimension(4, num_particles=50, num_iterations=10)
        assert params.num_particles == 50
        assert params.num_iterations == 10


class TestGSO:
    def test_converges_to_single_peak(self):
        params = GSOParameters(num_particles=40, num_iterations=60, random_state=0)
        optimizer = GlowwormSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params)
        result = optimizer.run()
        best = result.best()
        assert best is not None
        assert np.linalg.norm(best - 0.5) < 0.15

    def test_finds_both_modes_of_bimodal_objective(self):
        params = GSOParameters(num_particles=60, num_iterations=80, step_size=0.02, random_state=1)
        optimizer = GlowwormSwarmOptimizer(two_peaks, [0.0], [1.0], params)
        result = optimizer.run()
        positions = result.feasible_positions[:, 0]
        near_first = np.abs(positions - 0.25) < 0.1
        near_second = np.abs(positions - 0.75) < 0.1
        assert near_first.sum() >= 3
        assert near_second.sum() >= 3

    def test_positions_respect_bounds(self):
        params = GSOParameters(num_particles=30, num_iterations=30, random_state=2)
        optimizer = GlowwormSwarmOptimizer(single_peak, [0.2, 0.2], [0.8, 0.8], params)
        result = optimizer.run()
        assert np.all(result.positions >= 0.2 - 1e-9)
        assert np.all(result.positions <= 0.8 + 1e-9)

    def test_handles_undefined_objective_regions(self):
        params = GSOParameters(num_particles=40, num_iterations=60, random_state=3)
        optimizer = GlowwormSwarmOptimizer(gated, [0.0], [1.0], params)
        result = optimizer.run()
        assert result.feasible_fraction > 0.2
        best = result.best()
        assert abs(best[0] - 0.6) < 0.2

    def test_per_vector_objective_is_rejected(self):
        params = GSOParameters(num_particles=25, num_iterations=20, random_state=4)
        optimizer = GlowwormSwarmOptimizer(per_vector_peak, [0.0, 0.0], [1.0, 1.0], params)
        with pytest.raises(ValidationError, match=r"shape \(25,\).*got shape \(\)"):
            optimizer.run()

    def test_selection_weight_biases_towards_weighted_mode(self):
        # Weight the neighbourhood around x=0.75 much higher than x=0.25.
        def weight(positions):
            return np.where(positions[:, 0] > 0.5, 100.0, 0.01)

        params = GSOParameters(num_particles=60, num_iterations=80, step_size=0.02, random_state=5)
        result = GlowwormSwarmOptimizer(
            two_peaks, [0.0], [1.0], params, batch_selection_weight=weight
        ).run()
        positions = result.feasible_positions[:, 0]
        assert (np.abs(positions - 0.75) < 0.1).sum() >= (np.abs(positions - 0.25) < 0.1).sum()

    def test_initial_positions_are_used(self):
        params = GSOParameters(num_particles=10, num_iterations=5, random_state=6)
        start = np.full((10, 2), 0.3)
        result = GlowwormSwarmOptimizer(
            single_peak, [0.0, 0.0], [1.0, 1.0], params, initial_positions=start
        ).run()
        np.testing.assert_allclose(result.initial_positions, start)

    def test_wrong_initial_positions_shape_rejected(self):
        params = GSOParameters(num_particles=10, num_iterations=5)
        optimizer = GlowwormSwarmOptimizer(
            single_peak, [0.0, 0.0], [1.0, 1.0], params, initial_positions=np.ones((3, 2))
        )
        with pytest.raises(ValidationError):
            optimizer.run()

    def test_function_evaluation_count(self):
        params = GSOParameters(
            num_particles=20, num_iterations=10, min_iterations=10, convergence_patience=100, random_state=7
        )
        result = GlowwormSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params).run()
        # Initial evaluation plus one per iteration.
        assert result.function_evaluations == 20 * (10 + 1)

    def test_history_lengths_match_iterations(self):
        params = GSOParameters(num_particles=20, num_iterations=15, convergence_patience=1000, random_state=8)
        result = GlowwormSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params).run()
        assert len(result.mean_fitness_history) == result.num_iterations
        assert len(result.feasible_fraction_history) == result.num_iterations

    def test_early_stopping_respects_min_iterations(self):
        params = GSOParameters(
            num_particles=15,
            num_iterations=200,
            min_iterations=20,
            convergence_patience=3,
            random_state=9,
        )
        result = GlowwormSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params).run()
        assert result.num_iterations >= 20
        assert result.num_iterations < 200
        assert result.converged

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValidationError):
            GlowwormSwarmOptimizer(single_peak, [1.0, 1.0], [0.0, 0.0])

    def test_reproducible_with_seed(self):
        params = GSOParameters(num_particles=20, num_iterations=15, random_state=11)
        first = GlowwormSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params).run()
        params2 = GSOParameters(num_particles=20, num_iterations=15, random_state=11)
        second = GlowwormSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params2).run()
        np.testing.assert_allclose(first.positions, second.positions)


class TestPSO:
    def test_converges_to_single_peak(self):
        params = PSOParameters(num_particles=30, num_iterations=60, random_state=0)
        result = ParticleSwarmOptimizer(single_peak, [0.0, 0.0], [1.0, 1.0], params).run()
        assert np.linalg.norm(result.best() - 0.5) < 0.05

    def test_positions_respect_bounds(self):
        params = PSOParameters(num_particles=20, num_iterations=30, random_state=1)
        result = ParticleSwarmOptimizer(single_peak, [0.1, 0.1], [0.9, 0.9], params).run()
        assert np.all(result.positions >= 0.1 - 1e-9)
        assert np.all(result.positions <= 0.9 + 1e-9)

    def test_per_vector_objective_is_rejected(self):
        params = PSOParameters(num_particles=20, num_iterations=30, random_state=1)
        optimizer = ParticleSwarmOptimizer(per_vector_peak, [0.0, 0.0], [1.0, 1.0], params)
        with pytest.raises(ValidationError, match=r"shape \(20,\).*got shape \(\)"):
            optimizer.run()

    def test_collapses_to_one_mode_on_multimodal_objective(self):
        params = PSOParameters(num_particles=40, num_iterations=80, random_state=2)
        result = ParticleSwarmOptimizer(two_peaks, [0.0], [1.0], params).run()
        positions = result.positions[:, 0]
        near_first = (np.abs(positions - 0.25) < 0.1).sum()
        near_second = (np.abs(positions - 0.75) < 0.1).sum()
        # PSO is unimodal: essentially all particles end around a single peak.
        assert min(near_first, near_second) <= 0.2 * max(near_first, near_second)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            PSOParameters(num_particles=1)
        with pytest.raises(ValidationError):
            PSOParameters(inertia=2.0)


class TestOptimizationResult:
    def test_best_none_when_all_infeasible(self):
        result = OptimizationResult(
            positions=np.ones((3, 2)),
            fitness=np.full(3, -np.inf),
            initial_positions=np.ones((3, 2)),
        )
        assert result.best() is None
        assert result.feasible_fraction == 0.0

    def test_feasible_mask_and_fraction(self):
        result = OptimizationResult(
            positions=np.arange(6, dtype=float).reshape(3, 2),
            fitness=np.array([1.0, -np.inf, 2.0]),
            initial_positions=np.zeros((3, 2)),
        )
        np.testing.assert_array_equal(result.feasible_mask, [True, False, True])
        assert result.feasible_fraction == pytest.approx(2 / 3)
        np.testing.assert_allclose(result.best(), [4.0, 5.0])
