"""Unit tests for the SuRF finder itself."""

import numpy as np
import pytest

from recursive_predict import recursive_finder
from repro.core.evaluation import average_iou, compliance_rate
from repro.core.finder import SuRF
from repro.core.query import RegionQuery
from repro.exceptions import NotFittedError, ValidationError
from repro.optim.gso import GSOParameters
from repro.surrogate.training import SurrogateTrainer


class TestFitting:
    def test_unfitted_finder_raises(self, density_query):
        finder = SuRF()
        with pytest.raises(NotFittedError):
            finder.find_regions(density_query)
        with pytest.raises(NotFittedError):
            finder.predict_statistic(None)

    def test_fit_sets_state(self, fitted_surf, density_workload):
        assert fitted_surf.surrogate_ is not None
        assert fitted_surf.solution_space_ is not None
        assert fitted_surf.workload_size_ == len(density_workload)
        assert fitted_surf.density_ is not None

    def test_fit_without_data_sample_disables_density_guidance(self, density_workload, fast_trainer):
        finder = SuRF(trainer=fast_trainer, random_state=0)
        finder.fit(density_workload)
        assert finder.density_ is None

    def test_fit_rejects_mismatched_data_sample(self, density_workload, fast_trainer):
        finder = SuRF(trainer=fast_trainer, random_state=0)
        with pytest.raises(ValidationError):
            finder.fit(density_workload, data_sample=np.ones((10, 5)))

    def test_invalid_warm_start_fraction_rejected(self):
        with pytest.raises(ValidationError):
            SuRF(warm_start_fraction=1.5)

    def test_from_engine_builds_working_finder(self, density_engine, density_query, small_density_synthetic):
        finder = SuRF.from_engine(
            density_engine,
            num_evaluations=300,
            gso_parameters=GSOParameters(num_particles=30, num_iterations=20, random_state=0),
            random_state=0,
        )
        result = finder.find_regions(density_query)
        assert result.optimization.num_iterations > 0


class TestFinding:
    def test_find_regions_returns_feasible_compliant_proposals(
        self, fitted_surf, density_query, density_engine
    ):
        result = fitted_surf.find_regions(density_query)
        assert result.num_regions >= 1
        assert result.optimization.feasible_fraction > 0
        assert compliance_rate(result.proposals, density_engine, density_query) >= 0.5

    def test_proposals_overlap_ground_truth(self, fitted_surf, density_query, small_density_synthetic):
        result = fitted_surf.find_regions(density_query)
        regions = result.all_feasible_regions() or result.regions
        assert average_iou(regions, small_density_synthetic.ground_truth_regions) > 0.15

    def test_proposals_within_solution_space(self, fitted_surf, density_query):
        result = fitted_surf.find_regions(density_query)
        space = result.solution_space
        for proposal in result.proposals:
            assert space.contains_vector(proposal.vector)

    def test_max_proposals_respected(self, fitted_surf, density_query):
        result = fitted_surf.find_regions(density_query, max_proposals=1)
        assert result.num_regions <= 1

    def test_explicit_gso_parameters_override_defaults(self, fitted_surf, density_query):
        params = GSOParameters(
            num_particles=20, num_iterations=8, min_iterations=8, convergence_patience=100, random_state=0
        )
        result = fitted_surf.find_regions(density_query, gso_parameters=params)
        assert result.optimization.num_iterations == 8
        assert result.optimization.positions.shape[0] == 20

    def test_result_best_and_regions_accessors(self, fitted_surf, density_query):
        result = fitted_surf.find_regions(density_query)
        if result.proposals:
            assert result.best() is result.proposals[0]
            assert len(result.regions) == result.num_regions

    def test_below_direction_query(self, fitted_surf, density_engine):
        query = RegionQuery(threshold=50.0, direction="below", size_penalty=0.5)
        result = fitted_surf.find_regions(query)
        # Only small, off-cluster regions hold fewer than 50 points, but the swarm
        # should still locate some of them.
        assert result.optimization.feasible_fraction > 0.02
        assert result.best() is not None

    def test_predict_statistic_tracks_truth(self, fitted_surf, density_engine, small_density_synthetic):
        truth = small_density_synthetic.ground_truth[0].region
        predicted = fitted_surf.predict_statistic(truth)
        actual = density_engine.evaluate(truth)
        assert predicted > 0.3 * actual

    def test_elapsed_time_recorded(self, fitted_surf, density_query):
        result = fitted_surf.find_regions(density_query)
        assert result.elapsed_seconds > 0


class TestWarmStartRng:
    def test_warm_start_stream_differs_from_optimizer_stream(self):
        # Regression: warm-start sampling used default_rng(random_state) — the
        # exact stream the GSO optimiser consumes for movement — so the two
        # drew correlated random numbers.  The warm-start stream must be an
        # independent child of the seed, not a replay of the optimiser's.
        finder = SuRF(random_state=0)
        warm_draws = finder._warm_start_rng().random(16)
        optimizer_draws = np.random.default_rng(0).random(16)
        assert not np.any(warm_draws == optimizer_draws)

    def test_warm_start_stream_is_deterministic_per_seed(self):
        finder = SuRF(random_state=7)
        np.testing.assert_array_equal(
            finder._warm_start_rng().random(8), finder._warm_start_rng().random(8)
        )
        other = SuRF(random_state=8)
        assert not np.array_equal(finder._warm_start_rng().random(8), other._warm_start_rng().random(8))

    def test_generator_random_state_still_supported(self, density_workload, density_query, fast_trainer):
        # Regression: random_state may be a live numpy Generator everywhere in
        # the library (repro.utils.rng.ensure_rng); SeedSequence cannot take
        # one, so _warm_start_rng must pass it through instead.
        shared = np.random.default_rng(0)
        finder = SuRF(
            trainer=fast_trainer,
            use_density_guidance=False,
            gso_parameters=GSOParameters(num_particles=20, num_iterations=10, random_state=shared),
            random_state=shared,
        )
        finder.fit(density_workload)
        assert finder._warm_start_rng() is shared
        result = finder.find_regions(density_query)
        assert result.optimization.num_iterations > 0


class TestCompiledSurrogateEquivalence:
    """The compiled tables must not change *what* SuRF finds — only how fast.
    Same finder, same seed, surrogate predicting through the recursive walk
    (``tests/helpers/recursive_predict.py``): bit-identical positions and
    proposals."""

    @staticmethod
    def _fitted(density_workload):
        finder = SuRF(
            trainer=SurrogateTrainer(
                estimator="boosting",
                estimator_options={"n_estimators": 25, "max_depth": 3},
                random_state=0,
            ),
            use_density_guidance=False,
            gso_parameters=GSOParameters(num_particles=30, num_iterations=20, random_state=0),
            random_state=0,
        )
        finder.fit(density_workload)
        return finder

    @staticmethod
    def _assert_identical(result, expected):
        assert result.num_regions == expected.num_regions
        np.testing.assert_array_equal(
            result.optimization.positions, expected.optimization.positions
        )
        for ours, theirs in zip(result.proposals, expected.proposals):
            np.testing.assert_array_equal(ours.vector, theirs.vector)
            assert ours.predicted_value == theirs.predicted_value

    def test_find_proposals_bit_identical_to_recursive_family(self, density_workload, density_query):
        finder = self._fitted(density_workload)
        expected = recursive_finder(finder).find_regions(density_query)
        self._assert_identical(finder.find_regions(density_query), expected)

    def test_reloaded_bundle_reproduces_compiled_proposals(
        self, density_workload, density_query, tmp_path
    ):
        finder = self._fitted(density_workload)
        expected = recursive_finder(finder).find_regions(density_query)
        reloaded = SuRF.load(finder.save(tmp_path / "compiled.surf"))
        # The bundle ships the compiled SoA tables: no lazy recompile on load.
        assert reloaded.surrogate_.estimator.is_compiled
        self._assert_identical(reloaded.find_regions(density_query), expected)
        self._assert_identical(recursive_finder(reloaded).find_regions(density_query), expected)


class TestConfigurationVariants:
    def test_ratio_objective_variant_runs(self, density_workload, density_query, fast_trainer):
        finder = SuRF(
            trainer=fast_trainer,
            objective="ratio",
            use_density_guidance=False,
            gso_parameters=GSOParameters(num_particles=30, num_iterations=15, random_state=0),
            random_state=0,
        )
        finder.fit(density_workload)
        result = finder.find_regions(density_query)
        assert result.optimization.num_iterations > 0

    def test_warm_start_disabled_still_runs(self, density_workload, density_query, fast_trainer):
        finder = SuRF(
            trainer=fast_trainer,
            warm_start_fraction=0.0,
            use_density_guidance=False,
            gso_parameters=GSOParameters(num_particles=30, num_iterations=20, random_state=0),
            random_state=0,
        )
        finder.fit(density_workload)
        result = finder.find_regions(density_query)
        assert result.optimization.num_iterations > 0

    def test_no_data_access_at_query_time(self, fitted_surf, density_query, density_engine):
        before = density_engine.num_evaluations
        fitted_surf.find_regions(density_query)
        assert density_engine.num_evaluations == before
