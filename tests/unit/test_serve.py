"""Unit tests for artifact bundles and single-model serving through ServiceKernel."""

import pickle

import numpy as np
import pytest

from repro.api import ServiceKernel, ServiceStats, normalize_query
from repro.core.finder import SuRF
from repro.core.query import RegionQuery
from repro.exceptions import NotFittedError, ValidationError
from repro.surrogate.persistence import BUNDLE_VERSION, load_bundle, save_bundle


def proposals_identical(first, second) -> bool:
    """Bit-identical proposal lists: same regions, predictions, objectives, support."""
    if len(first) != len(second):
        return False
    return all(
        np.array_equal(lhs.region.to_vector(), rhs.region.to_vector())
        and lhs.predicted_value == rhs.predicted_value
        and lhs.objective_value == rhs.objective_value
        and lhs.support == rhs.support
        for lhs, rhs in zip(first, second)
    )


@pytest.fixture()
def hopeless_query(density_workload):
    """A threshold far beyond every past evaluation — Eq. 5 probability 0."""
    return RegionQuery(threshold=float(density_workload.targets.max()) * 10, direction="above")


class TestArtifactBundles:
    def test_round_trip_returns_bit_identical_proposals(self, fitted_surf, density_query, tmp_path):
        path = fitted_surf.save(tmp_path / "finder.surf")
        loaded = SuRF.load(path)
        before = fitted_surf.find_regions(density_query)
        after = loaded.find_regions(density_query)
        assert proposals_identical(before.proposals, after.proposals)

    def test_round_trip_preserves_configuration_and_state(self, fitted_surf, tmp_path):
        loaded = SuRF.load(fitted_surf.save(tmp_path / "finder.surf"))
        assert loaded.objective_kind == fitted_surf.objective_kind
        assert loaded.random_state == fitted_surf.random_state
        assert loaded.overlap_threshold == fitted_surf.overlap_threshold
        assert loaded.warm_start_fraction == fitted_surf.warm_start_fraction
        assert loaded.workload_size_ == fitted_surf.workload_size_
        assert loaded.density_ is not None
        assert loaded.satisfiability_ is not None
        np.testing.assert_array_equal(loaded.workload_features_, fitted_surf.workload_features_)
        probe = np.array([[0.5, 0.5, 0.1, 0.1]])
        np.testing.assert_array_equal(
            loaded.surrogate_.predict(probe), fitted_surf.surrogate_.predict(probe)
        )

    def test_save_rejects_unfitted_finder(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_bundle(SuRF(), tmp_path / "unfitted.surf")

    def test_save_rejects_non_finder(self, tmp_path):
        with pytest.raises(ValidationError):
            save_bundle("not-a-finder", tmp_path / "bad.surf")

    def test_load_rejects_foreign_pickles(self, tmp_path):
        path = tmp_path / "other.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a bundle"}, handle)
        with pytest.raises(ValidationError):
            load_bundle(path)

    def test_load_reconstructs_calling_subclass(self, fitted_surf, tmp_path):
        class CustomSuRF(SuRF):
            pass

        path = fitted_surf.save(tmp_path / "finder.surf")
        loaded = CustomSuRF.load(path)
        assert type(loaded) is CustomSuRF
        with pytest.raises(ValidationError):
            load_bundle(path, finder_cls=dict)

    def test_load_rejects_future_bundle_version(self, fitted_surf, tmp_path):
        path = fitted_surf.save(tmp_path / "finder.surf")
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = BUNDLE_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ValidationError):
            load_bundle(path)


class TestServiceBasics:
    def test_service_requires_fitted_finder(self):
        with pytest.raises(NotFittedError):
            ServiceKernel(SuRF())

    def test_service_rejects_invalid_configuration(self, fitted_surf):
        with pytest.raises(ValidationError):
            ServiceKernel(fitted_surf, cache_size=-1)
        with pytest.raises(ValidationError):
            ServiceKernel(fitted_surf, min_satisfiability=1.0)
        with pytest.raises(ValidationError):
            ServiceKernel(fitted_surf, max_workers=0)
        with pytest.raises(ValidationError):
            ServiceKernel("not-a-finder")

    def test_from_bundle_builds_working_service(self, fitted_surf, density_query, tmp_path):
        path = fitted_surf.save(tmp_path / "finder.surf")
        service = ServiceKernel.from_bundle(path)
        response = service.handle(density_query)
        assert response.status == "served"
        assert response.proposals

    def test_normalize_query_canonicalises_numpy_scalars(self, density_query):
        twin = RegionQuery(
            threshold=np.float64(density_query.threshold),
            direction=density_query.direction,
            size_penalty=np.float64(density_query.size_penalty),
        )
        assert normalize_query(twin) == normalize_query(density_query)
        with pytest.raises(ValidationError):
            normalize_query("not-a-query")


class TestCaching:
    def test_repeated_query_is_answered_from_cache_without_gso(self, fitted_surf, density_query):
        service = ServiceKernel(fitted_surf)
        first = service.handle(density_query)
        second = service.handle(density_query)
        assert first.status == "served"
        assert second.status == "cached"
        assert second.result is first.result
        stats = service.stats
        assert stats.queries == 2
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.gso_runs == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_numpy_threshold_hits_float_cache_entry(self, fitted_surf, density_query):
        service = ServiceKernel(fitted_surf)
        service.handle(density_query)
        twin = RegionQuery(
            threshold=np.float64(density_query.threshold),
            direction=density_query.direction,
            size_penalty=density_query.size_penalty,
        )
        assert service.handle(twin).status == "cached"

    def test_lru_eviction_recomputes_oldest_query(self, fitted_surf, density_query):
        other = RegionQuery(
            threshold=density_query.threshold * 0.8,
            direction="above",
            size_penalty=density_query.size_penalty,
        )
        service = ServiceKernel(fitted_surf, cache_size=1)
        service.handle(density_query)
        service.handle(other)  # evicts density_query
        assert service.cached_queries == 1
        assert service.handle(density_query).status == "served"
        assert service.stats.gso_runs == 3

    def test_cache_size_zero_disables_caching(self, fitted_surf, density_query):
        service = ServiceKernel(fitted_surf, cache_size=0)
        assert service.handle(density_query).status == "served"
        assert service.handle(density_query).status == "served"
        assert service.stats.gso_runs == 2
        assert service.cached_queries == 0

    def test_clear_cache_and_reset_stats(self, fitted_surf, density_query):
        service = ServiceKernel(fitted_surf)
        service.handle(density_query)
        service.clear_cache()
        assert service.cached_queries == 0
        service.reset_stats()
        assert service.stats == ServiceStats()


class TestSatisfiabilityGate:
    def test_hopeless_threshold_rejected_without_gso(self, fitted_surf, hopeless_query):
        service = ServiceKernel(fitted_surf)
        response = service.handle(hopeless_query)
        assert response.status == "rejected"
        assert response.satisfiability == 0.0
        assert response.result is None
        assert response.proposals == ()
        stats = service.stats
        assert stats.rejected == 1
        assert stats.gso_runs == 0

    def test_gate_threshold_is_configurable(self, fitted_surf, density_query):
        probability = fitted_surf.satisfiability(density_query)
        permissive = ServiceKernel(fitted_surf, min_satisfiability=0.0)
        strict = ServiceKernel(fitted_surf, min_satisfiability=min(0.99, probability + 1e-9))
        assert permissive.handle(density_query).status == "served"
        assert strict.handle(density_query).status == "rejected"
        assert strict.stats.gso_runs == 0


class TestBatchServing:
    def test_batch_equals_sequential_under_fixed_seeds(self, fitted_surf, density_query, hopeless_query):
        variant = RegionQuery(
            threshold=density_query.threshold * 0.9,
            direction="above",
            size_penalty=density_query.size_penalty,
        )
        burst = [density_query, hopeless_query, variant, density_query, variant]

        sequential_service = ServiceKernel(fitted_surf)
        sequential = [sequential_service.handle(query) for query in burst]
        batch_service = ServiceKernel(fitted_surf)
        batched = batch_service.handle_batch(burst)

        assert len(batched) == len(burst)
        for before, after in zip(sequential, batched):
            assert after.satisfiability == before.satisfiability
            if before.status == "rejected":
                assert after.status == "rejected"
                continue
            assert proposals_identical(before.result.proposals, after.result.proposals)

    def test_batch_coalesces_duplicates_into_one_gso_run(self, fitted_surf, density_query):
        service = ServiceKernel(fitted_surf)
        responses = service.handle_batch([density_query] * 4)
        assert [response.status for response in responses] == ["served"] * 4
        assert all(response.result is responses[0].result for response in responses)
        stats = service.stats
        assert stats.queries == 4
        assert stats.cache_misses == 4
        assert stats.coalesced == 3
        assert stats.gso_runs == 1

    def test_batch_uses_cache_from_earlier_requests(self, fitted_surf, density_query, hopeless_query):
        service = ServiceKernel(fitted_surf)
        service.handle(density_query)
        responses = service.handle_batch([density_query, hopeless_query, density_query])
        assert [response.status for response in responses] == ["cached", "rejected", "cached"]
        assert service.stats.gso_runs == 1

    def test_batch_respects_explicit_worker_count(self, fitted_surf, density_query):
        variant = RegionQuery(
            threshold=density_query.threshold * 0.85,
            direction="above",
            size_penalty=density_query.size_penalty,
        )
        service = ServiceKernel(fitted_surf)
        responses = service.handle_batch([density_query, variant], max_workers=1)
        assert [response.status for response in responses] == ["served", "served"]
        assert service.stats.gso_runs == 2

    def test_empty_batch_returns_empty_list(self, fitted_surf):
        assert ServiceKernel(fitted_surf).handle_batch([]) == []

    def test_shared_generator_finder_falls_back_to_one_worker(
        self, density_workload, density_query, fast_trainer
    ):
        # A live numpy Generator is shared mutable state and not thread-safe;
        # the batch path must detect it and run sequentially.
        from repro.optim.gso import GSOParameters

        shared = np.random.default_rng(0)
        finder = SuRF(
            trainer=fast_trainer,
            use_density_guidance=False,
            gso_parameters=GSOParameters(num_particles=20, num_iterations=10, random_state=shared),
            random_state=shared,
        )
        finder.fit(density_workload)
        service = ServiceKernel(finder)
        assert service._uses_shared_generator()
        variant = RegionQuery(threshold=density_query.threshold * 0.9, direction="above")
        responses = service.handle_batch([density_query, variant], max_workers=4)
        assert [response.status for response in responses] == ["served", "served"]
        assert service.stats.gso_runs == 2

    def test_seeded_finder_does_not_trigger_fallback(self, fitted_surf):
        assert not ServiceKernel(fitted_surf)._uses_shared_generator()
