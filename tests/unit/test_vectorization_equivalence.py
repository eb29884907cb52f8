"""Equivalence tests for the vectorised hot paths.

The vectorised GSO movement kernel and the engine's ``evaluate_batch`` are
required to produce *identical* results to their per-particle / per-region
counterparts — same RNG draw order, same floating-point decisions, bit for
bit.  These tests pin that contract, including the edge cases: all-infeasible
swarms and isolated particles.
"""

import numpy as np
import pytest
from gso_reference import ReferenceGlowwormSwarmOptimizer

from repro.core.objective import LogObjective
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.regions import Region, random_region
from repro.data.statistics import AverageStatistic, CountStatistic, RatioStatistic
from repro.data.synthetic import make_synthetic_dataset
from repro.optim.gso import GlowwormSwarmOptimizer, GSOParameters
from repro.optim.pso import ParticleSwarmOptimizer, PSOParameters


def sphere(positions: np.ndarray) -> np.ndarray:
    return -np.sum((positions - 0.5) ** 2, axis=1)


def gated(positions: np.ndarray) -> np.ndarray:
    """Feasible only in a narrow band, so most particles start infeasible."""
    distance = np.abs(positions[:, 0] - 0.6)
    return np.where(distance > 0.05, -np.inf, 1.0 - distance)


def infeasible_everywhere(positions: np.ndarray) -> np.ndarray:
    return np.full(positions.shape[0], -np.inf)


def volume_statistic(vectors: np.ndarray) -> np.ndarray:
    """A count proportional to region volume, over ``[x, l]`` rows."""
    dim = vectors.shape[1] // 2
    return np.prod(2 * vectors[:, dim:], axis=1) * 1000.0


#: The optimiser class behind each movement implementation.
OPTIMIZERS = {"reference": ReferenceGlowwormSwarmOptimizer, "vectorized": GlowwormSwarmOptimizer}


def run_gso(movement, objective, dim, seed, **kwargs):
    params = GSOParameters(
        num_particles=40,
        num_iterations=40,
        min_iterations=5,
        convergence_patience=8,
        random_state=seed,
    )
    optimizer = OPTIMIZERS[movement](objective, [0.0] * dim, [1.0] * dim, params, **kwargs)
    return optimizer.run()


def assert_identical_runs(first, second):
    assert np.array_equal(first.positions, second.positions)
    np.testing.assert_array_equal(first.fitness, second.fitness)
    assert np.array_equal(first.initial_positions, second.initial_positions)
    # assert_array_equal treats NaN entries (all-infeasible iterations) as equal.
    np.testing.assert_array_equal(first.mean_fitness_history, second.mean_fitness_history)
    np.testing.assert_array_equal(first.feasible_fraction_history, second.feasible_fraction_history)
    assert first.num_iterations == second.num_iterations
    assert first.converged == second.converged
    assert first.function_evaluations == second.function_evaluations


class TestGSOMovementEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_smooth_objective(self, seed):
        reference = run_gso("reference", sphere, 2, seed)
        vectorized = run_gso("vectorized", sphere, 2, seed)
        assert_identical_runs(reference, vectorized)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mostly_infeasible_objective_with_explorers(self, seed):
        """Isolated infeasible particles take identical random-walk draws."""
        reference = run_gso("reference", gated, 1, seed)
        vectorized = run_gso("vectorized", gated, 1, seed)
        assert_identical_runs(reference, vectorized)

    def test_all_infeasible_swarm(self):
        reference = run_gso("reference", infeasible_everywhere, 2, 0)
        vectorized = run_gso("vectorized", infeasible_everywhere, 2, 0)
        assert_identical_runs(reference, vectorized)
        assert not np.isfinite(vectorized.fitness).any()

    def test_isolated_particles_without_exploration_stay_put(self):
        """With exploration off, isolated particles freeze identically."""
        params = dict(
            num_particles=8,
            num_iterations=10,
            min_iterations=2,
            convergence_patience=3,
            explore_when_isolated=False,
            initial_radius=1e-6,  # nobody sees anybody
            random_state=0,
        )
        runs = []
        for optimizer_cls in (ReferenceGlowwormSwarmOptimizer, GlowwormSwarmOptimizer):
            optimizer = optimizer_cls(
                infeasible_everywhere, [0.0, 0.0], [1.0, 1.0], GSOParameters(**params)
            )
            runs.append(optimizer.run())
        assert_identical_runs(*runs)
        # Isolated particles never moved.
        assert np.array_equal(runs[1].positions, runs[1].initial_positions)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_selection_weights(self, seed):
        def weight(positions):
            return np.where(positions[:, 0] > 0.5, 100.0, 0.01)

        reference = run_gso("reference", sphere, 3, seed, batch_selection_weight=weight)
        vectorized = run_gso("vectorized", sphere, 3, seed, batch_selection_weight=weight)
        assert_identical_runs(reference, vectorized)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_selection_weights_fall_back_to_uniform(self, seed):
        """All-zero weights hit the degenerate uniform-probability branch."""
        def zero(positions):
            return np.zeros(positions.shape[0])

        reference = run_gso("reference", sphere, 2, seed, batch_selection_weight=zero)
        vectorized = run_gso("vectorized", sphere, 2, seed, batch_selection_weight=zero)
        assert_identical_runs(reference, vectorized)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_objective(self, seed):
        """A region objective (Eq. 4 over a 2-D region space) drives both movements."""
        query = RegionQuery(threshold=50.0, direction="above", size_penalty=2.0)
        objective = LogObjective(volume_statistic, query).evaluate_batch
        reference = run_gso("reference", objective, 4, seed)
        vectorized = run_gso("vectorized", objective, 4, seed)
        assert_identical_runs(reference, vectorized)


class TestPSOBatchEquivalence:
    def test_batch_nan_treated_as_infeasible(self):
        params = PSOParameters(num_particles=10, num_iterations=5, random_state=0)
        result = ParticleSwarmOptimizer(
            lambda m: np.full(m.shape[0], np.nan), [0.0, 0.0], [1.0, 1.0], params
        ).run()
        assert not np.isfinite(result.fitness).any()


@pytest.fixture(scope="module")
def batch_synthetic():
    return make_synthetic_dataset(
        statistic="density", dim=2, num_regions=1, num_points=3_000, random_state=3
    )


@pytest.fixture(scope="module")
def batch_regions(batch_synthetic):
    engine = DataEngine(batch_synthetic.dataset, CountStatistic())
    rng = np.random.default_rng(7)
    bounds = engine.region_bounds()
    return [random_region(rng, bounds, 0.01, 0.3) for _ in range(200)]


class TestEngineBatchEquivalence:
    @pytest.mark.parametrize(
        "statistic_factory",
        [
            lambda: CountStatistic(),
            lambda: AverageStatistic(0),
            lambda: RatioStatistic(1, positive_value=0.5),
        ],
        ids=["count", "average", "ratio"],
    )
    def test_evaluate_batch_matches_scalar_loop(self, batch_synthetic, batch_regions, statistic_factory):
        engine = DataEngine(batch_synthetic.dataset, statistic_factory())
        regions = [
            region
            for region in batch_regions
            if region.dim == engine.region_dim
        ] or [
            Region(region.center[: engine.region_dim], region.half_lengths[: engine.region_dim])
            for region in batch_regions
        ]
        vectors = np.stack([region.to_vector() for region in regions])
        looped = np.asarray([engine.evaluate_vector(vector) for vector in vectors])
        batched = engine.evaluate_batch(vectors)
        assert np.array_equal(looped, batched)
        assert np.array_equal(looped, engine.evaluate_many(regions))

    def test_indexed_engine_matches_scan(self, batch_synthetic, batch_regions):
        scan = DataEngine(batch_synthetic.dataset, CountStatistic(), use_index=False)
        indexed = DataEngine(batch_synthetic.dataset, CountStatistic(), use_index=True)
        vectors = np.stack([region.to_vector() for region in batch_regions])
        assert np.array_equal(scan.evaluate_batch(vectors), indexed.evaluate_batch(vectors))

    def test_evaluation_counter_advances_by_batch_size(self, batch_synthetic, batch_regions):
        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        vectors = np.stack([region.to_vector() for region in batch_regions])
        engine.reset_evaluation_counter()
        engine.evaluate_batch(vectors)
        assert engine.num_evaluations == len(batch_regions)

    def test_empty_batch(self, batch_synthetic):
        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        assert engine.evaluate_batch(np.empty((0, 4))).shape == (0,)
        assert engine.evaluate_many([]).shape == (0,)

    def test_nonpositive_half_lengths_are_empty_regions(self, batch_synthetic):
        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        vectors = np.array([[0.5, 0.5, -0.1, 0.2], [0.5, 0.5, 0.0, 0.2]])
        np.testing.assert_array_equal(engine.evaluate_batch(vectors), [0.0, 0.0])

    def test_zero_half_length_on_a_data_point_is_still_empty(self):
        """A degenerate slab must not catch points sitting exactly on it."""
        from repro.data.dataset import Dataset

        dataset = Dataset(np.array([[0.5, 0.3], [0.2, 0.2]]), ["x", "y"])
        engine = DataEngine(dataset, CountStatistic())
        vectors = np.array([[0.5, 0.3, 0.0, 0.0], [0.5, 0.3, 0.1, 0.0]])
        np.testing.assert_array_equal(engine.evaluate_batch(vectors), [0.0, 0.0])

    def test_blocked_batch_matches_unblocked(self, batch_synthetic, batch_regions, monkeypatch):
        """Batches larger than the mask-memory cap are processed in row blocks."""
        # The blocking moved into the backends with the repro.backends
        # refactor, so the cap must be patched where the block loop reads it.
        import repro.backends.numpy_backend as numpy_backend_module

        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        vectors = np.stack([region.to_vector() for region in batch_regions])
        unblocked = engine.evaluate_batch(vectors)
        # Force a tiny block size so this batch spans many blocks.
        monkeypatch.setattr(
            numpy_backend_module, "MAX_MASK_ELEMENTS", 7 * batch_synthetic.dataset.num_rows
        )
        blocked = engine.evaluate_batch(vectors)
        assert np.array_equal(unblocked, blocked)
        assert len(batch_regions) > 7  # the patched cap really forces multiple blocks

    def test_bad_shape_rejected(self, batch_synthetic):
        from repro.exceptions import ValidationError

        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        with pytest.raises(ValidationError):
            engine.evaluate_batch(np.ones((3, 5)))

    def test_region_masks_match_region_mask(self, batch_synthetic, batch_regions):
        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        lowers = np.stack([region.lower for region in batch_regions])
        uppers = np.stack([region.upper for region in batch_regions])
        masks = engine.region_masks(lowers, uppers)
        for row, region in zip(masks[:25], batch_regions[:25]):
            assert np.array_equal(row, engine.region_mask(region))


class TestGridIndexBatch:
    def test_query_many_matches_query_indices(self, batch_synthetic, batch_regions):
        from repro.data.index import GridIndex

        engine = DataEngine(batch_synthetic.dataset, CountStatistic())
        index = GridIndex(batch_synthetic.dataset.values, cells_per_dim=8)
        lowers = np.stack([region.lower for region in batch_regions])
        uppers = np.stack([region.upper for region in batch_regions])
        batched = index.query_many(lowers, uppers)
        counts = index.count_many(lowers, uppers)
        for region, indices, count in zip(batch_regions, batched, counts):
            expected = index.query_indices(region)
            assert np.array_equal(np.sort(indices), np.sort(expected))
            assert count == expected.size
