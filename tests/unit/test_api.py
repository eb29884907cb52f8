"""Unit tests for the repro.api front door: envelopes, kernel, middleware,
multi-tenant routing and the declarative plugin registries."""

import json

import numpy as np
import pytest

from repro.api import (
    BACKENDS,
    OPTIMIZERS,
    STATISTICS,
    SURROGATES,
    Cache,
    Coalesce,
    Execute,
    FindRequest,
    FindResponse,
    Harvest,
    ModelRegistry,
    Normalize,
    ProposalPayload,
    Registry,
    SatisfiabilityGate,
    ServiceKernel,
    ServiceStats,
    compose,
    default_chain,
    engine_from_config,
    kernel_from_config,
    resolve_backend,
    resolve_optimizer,
    resolve_statistic,
    resolve_surrogate,
    statistic_from_config,
)
from repro.core.finder import SuRF
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.statistics import AverageStatistic, CountStatistic
from repro.exceptions import NotFittedError, ValidationError
from repro.optim.gso import GlowwormSwarmOptimizer, GSOParameters
from repro.surrogate.training import SurrogateTrainer


def proposals_identical(first, second) -> bool:
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
    return RegionQuery(threshold=float(density_workload.targets.max()) * 10, direction="above")


@pytest.fixture(scope="module")
def aggregate_surf(aggregate_engine):
    """A second fitted finder (different dataset x statistic) for tenancy tests."""
    from repro.ml.boosting import GradientBoostingRegressor
    from repro.surrogate.workload import generate_workload

    finder = SuRF(
        trainer=SurrogateTrainer(
            estimator=GradientBoostingRegressor(n_estimators=30, max_depth=3, random_state=0),
            random_state=0,
        ),
        use_density_guidance=False,
        gso_parameters=GSOParameters(num_particles=25, num_iterations=15, random_state=0),
        random_state=0,
    )
    return finder.fit(generate_workload(aggregate_engine, 300, random_state=3))


# --------------------------------------------------------------------------- envelopes
class TestFindRequest:
    def test_defaults_and_query_round_trip(self, density_query):
        request = FindRequest.from_query(density_query)
        assert request.model == "default"
        assert request.trace_id is None
        assert request.max_proposals is None
        assert request.query() == density_query

    def test_dict_and_json_round_trip(self):
        request = FindRequest(
            threshold=123.456,
            direction="below",
            size_penalty=2.5,
            model="crimes/count",
            max_proposals=3,
            trace_id="req-42",
        )
        assert FindRequest.from_dict(request.to_dict()) == request
        assert FindRequest.from_json(request.to_json()) == request
        payload = json.loads(request.to_json())
        assert payload["model"] == "crimes/count"

    def test_validation(self):
        with pytest.raises(ValidationError):
            FindRequest(threshold=float("nan"))
        with pytest.raises(ValidationError):
            FindRequest(threshold=1.0, direction="sideways")
        with pytest.raises(ValidationError):
            FindRequest(threshold=1.0, model="")
        with pytest.raises(ValidationError):
            FindRequest(threshold=1.0, max_proposals=0)
        with pytest.raises(ValidationError):
            FindRequest(threshold=1.0, trace_id=42)
        with pytest.raises(ValidationError):
            FindRequest.from_query("not-a-query")

    def test_unknown_payload_keys_are_rejected_by_name(self):
        with pytest.raises(ValidationError, match="tresh"):
            FindRequest.from_dict({"threshold": 1.0, "tresh": 2.0})
        with pytest.raises(ValidationError):
            FindRequest.from_dict("not-a-mapping")
        with pytest.raises(ValidationError):
            FindRequest.from_json("{not json")


class TestFindResponse:
    def test_round_trip_excludes_the_result_handle(self, fitted_surf, density_query):
        kernel = ServiceKernel(fitted_surf)
        response = kernel.handle(density_query)
        assert response.status == "served"
        assert response.result is not None
        reconstructed = FindResponse.from_json(response.to_json())
        assert reconstructed == response  # result is excluded from comparison
        assert reconstructed.result is None
        assert len(reconstructed.proposals) == len(response.proposals)

    def test_proposal_payload_round_trip_and_region(self):
        payload = ProposalPayload(
            center=(0.5, 0.25), half_lengths=(0.1, 0.2), predicted_value=7.0, objective_value=1.5
        )
        assert ProposalPayload.from_dict(payload.to_dict()) == payload
        region = payload.region()
        np.testing.assert_array_equal(region.center, [0.5, 0.25])
        np.testing.assert_array_equal(region.half_lengths, [0.1, 0.2])

    def test_status_is_validated(self):
        with pytest.raises(ValidationError):
            FindResponse(model="default", status="lost", satisfiability=0.5)

    def test_rejected_and_regions_views(self):
        response = FindResponse(model="m", status="rejected", satisfiability=0.0)
        assert response.rejected
        assert response.regions == ()


# --------------------------------------------------------------------------- generic registry
class TestRegistry:
    def test_register_resolve_create(self):
        registry = Registry("gadget")
        registry.register("one", dict)
        assert registry.resolve("one") is dict
        assert registry.create("one", a=1) == {"a": 1}
        assert "one" in registry and "two" not in registry
        assert len(registry) == 1
        assert list(registry) == ["one"]

    def test_reregistering_the_same_factory_is_idempotent(self):
        registry = Registry("gadget")
        registry.register("one", dict)
        registry.register("one", dict)  # no-op
        assert len(registry) == 1

    def test_conflicting_registration_requires_replace(self):
        registry = Registry("gadget")
        registry.register("one", dict)
        with pytest.raises(ValidationError, match="already registered"):
            registry.register("one", list)
        registry.register("one", list, replace=True)
        assert registry.resolve("one") is list

    def test_aliases_and_case_insensitivity(self):
        registry = Registry("gadget")
        registry.register("Main", dict, aliases=("other",))
        assert registry.resolve("main") is dict
        assert registry.resolve("OTHER") is dict
        assert registry.names() == ("main", "other")

    def test_decorator_form(self):
        registry = Registry("gadget")

        @registry.register("fn")
        def factory():
            return 7

        assert factory() == 7
        assert registry.create("fn") == 7

    def test_unregister_and_errors(self):
        registry = Registry("gadget")
        registry.register("one", dict)
        registry.unregister("one")
        assert "one" not in registry
        with pytest.raises(ValidationError, match="unknown gadget"):
            registry.unregister("one")
        with pytest.raises(ValidationError, match="unknown gadget 'one'"):
            registry.resolve("one")
        with pytest.raises(ValidationError):
            registry.register("", dict)
        with pytest.raises(ValidationError):
            registry.register("bad", "not-callable")

    def test_resolve_passes_callables_through(self):
        registry = Registry("gadget")
        assert registry.resolve(dict) is dict


# --------------------------------------------------------------------------- built-in registries
class TestBuiltinRegistries:
    def test_statistics_registry(self):
        assert isinstance(resolve_statistic("count")(), CountStatistic)
        assert {"count", "density", "average", "sum", "variance", "median", "ratio"} <= set(
            STATISTICS.names()
        )

    def test_backends_registry(self):
        from repro.backends import NumpyBackend

        assert resolve_backend("numpy") is NumpyBackend
        assert {"numpy", "chunked", "sqlite", "sharded"} <= set(BACKENDS.names())
        with pytest.raises(ValidationError, match="unknown backend"):
            resolve_backend("parquet")

    def test_surrogates_registry(self):
        from repro.ml import GradientBoostingRegressor, RandomForestRegressor

        assert resolve_surrogate("boosting") is GradientBoostingRegressor
        assert resolve_surrogate("forest") is RandomForestRegressor
        assert "knn" in SURROGATES.names()

    def test_optimizers_registry(self):
        assert resolve_optimizer("gso") is GlowwormSwarmOptimizer
        assert "pso" in OPTIMIZERS.names()

    def test_trainer_accepts_estimator_family_names(self, density_workload):
        trainer = SurrogateTrainer(
            estimator="forest",
            estimator_options={"n_estimators": 5, "max_depth": 3},
            random_state=0,
        )
        surrogate = trainer.train(density_workload)
        assert np.isfinite(surrogate.predict(density_workload.features[:4])).all()

    def test_trainer_rejects_options_without_a_name(self):
        with pytest.raises(ValidationError, match="estimator_options"):
            SurrogateTrainer(estimator=None, estimator_options={"n_estimators": 5})


# --------------------------------------------------------------------------- config builders
class TestConfigBuilders:
    def test_statistic_from_config_variants(self):
        assert isinstance(statistic_from_config("count"), CountStatistic)
        spec = statistic_from_config({"name": "average", "target_column": "value"})
        assert isinstance(spec, AverageStatistic)
        live = CountStatistic()
        assert statistic_from_config(live) is live
        with pytest.raises(ValidationError, match="'name'"):
            statistic_from_config({"target_column": "value"})
        with pytest.raises(ValidationError):
            statistic_from_config(42)

    def test_engine_from_config(self, simple_dataset):
        engine = engine_from_config(
            simple_dataset,
            {"statistic": {"name": "average", "target_column": "value"}, "backend": "sqlite"},
        )
        assert isinstance(engine, DataEngine)
        assert engine.backend.name == "sqlite"
        engine.close()

    def test_engine_from_config_rejects_unknown_keys(self, simple_dataset):
        with pytest.raises(ValidationError, match="cache"):
            engine_from_config(simple_dataset, {"statistic": "count", "cache": 5})
        with pytest.raises(ValidationError, match="'statistic'"):
            engine_from_config(simple_dataset, {"backend": "numpy"})
        with pytest.raises(ValidationError):
            engine_from_config(simple_dataset, "not-a-mapping")

    def test_kernel_from_config(self, fitted_surf, tmp_path):
        kernel = kernel_from_config(fitted_surf, {"cache_size": 9})
        assert kernel.cache_size == 9
        path = fitted_surf.save(tmp_path / "finder.surf")
        loaded = kernel_from_config(path, {"min_satisfiability": 0.1})
        assert loaded.min_satisfiability == 0.1
        with pytest.raises(ValidationError, match="cache_sz"):
            kernel_from_config(fitted_surf, {"cache_sz": 9})


# --------------------------------------------------------------------------- kernel serving
class TestServiceKernel:
    def test_requires_fitted_finder_and_valid_config(self, fitted_surf):
        with pytest.raises(NotFittedError):
            ServiceKernel(SuRF())
        with pytest.raises(ValidationError):
            ServiceKernel("not-a-finder")
        with pytest.raises(ValidationError):
            ServiceKernel(fitted_surf, cache_size=-1)
        with pytest.raises(ValidationError):
            ServiceKernel(fitted_surf, name="")

    def test_handle_accepts_queries_and_requests(self, fitted_surf, density_query):
        kernel = ServiceKernel(fitted_surf)
        served = kernel.handle(density_query)
        assert served.status == "served"
        assert served.model == "default"
        assert served.proposals
        cached = kernel.handle(FindRequest.from_query(density_query, trace_id="t-1"))
        assert cached.status == "cached"
        assert cached.trace_id == "t-1"
        assert cached.result is served.result
        with pytest.raises(ValidationError):
            kernel.handle("neither")

    def test_generation_is_reported_on_responses(self, fitted_surf, density_query):
        kernel = ServiceKernel(fitted_surf)
        assert kernel.handle(density_query).generation == 0
        assert kernel.generation == 0

    def test_rejection_and_stats(self, fitted_surf, density_query, hopeless_query):
        kernel = ServiceKernel(fitted_surf)
        rejected = kernel.handle(hopeless_query)
        assert rejected.status == "rejected"
        assert rejected.satisfiability == 0.0
        assert rejected.proposals == ()
        kernel.handle(density_query)
        kernel.handle(density_query)
        stats = kernel.stats
        assert stats.queries == 3
        assert stats.rejected == 1
        assert stats.cache_hits == 1
        assert stats.gso_runs == 1
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_batch_matches_sequential(self, fitted_surf, density_query, hopeless_query):
        variant = RegionQuery(
            threshold=density_query.threshold * 0.9,
            direction="above",
            size_penalty=density_query.size_penalty,
        )
        burst = [density_query, hopeless_query, variant, density_query]
        sequential = [ServiceKernel(fitted_surf).handle(query) for query in burst]
        batched = ServiceKernel(fitted_surf).handle_batch(burst)
        for before, after in zip(sequential, batched):
            assert before.status in ("served", "rejected")
            assert after.proposals == before.proposals

    def test_per_request_max_proposals_does_not_pollute_the_cache(
        self, fitted_surf, density_query
    ):
        kernel = ServiceKernel(fitted_surf)
        full = kernel.handle(FindRequest.from_query(density_query))
        capped = kernel.handle(FindRequest.from_query(density_query, max_proposals=1))
        assert capped.status == "served"  # distinct cache identity, not a hit
        assert len(capped.proposals) == 1
        assert len(full.proposals) >= len(capped.proposals)
        # And both entries are independently cached now.
        assert kernel.handle(FindRequest.from_query(density_query, max_proposals=1)).status == "cached"
        assert kernel.handle(FindRequest.from_query(density_query)).status == "cached"

    def test_batch_coalesces_same_cap_only(self, fitted_surf, density_query):
        kernel = ServiceKernel(fitted_surf)
        responses = kernel.handle_batch(
            [
                FindRequest.from_query(density_query),
                FindRequest.from_query(density_query),
                FindRequest.from_query(density_query, max_proposals=1),
            ]
        )
        assert [response.status for response in responses] == ["served"] * 3
        stats = kernel.stats
        assert stats.gso_runs == 2
        assert stats.coalesced == 1

    def test_from_bundle_rejects_unknown_options_by_name(self, fitted_surf, tmp_path):
        path = fitted_surf.save(tmp_path / "finder.surf")
        kernel = ServiceKernel.from_bundle(path, cache_size=4)
        assert kernel.cache_size == 4
        with pytest.raises(ValidationError, match="cache_sz"):
            ServiceKernel.from_bundle(path, cache_sz=4)

    def test_repr_names_the_chain(self, fitted_surf):
        assert "normalize" in repr(ServiceKernel(fitted_surf))


# --------------------------------------------------------------------------- middleware
class MetricsMiddleware:
    """A deployment-style custom middleware: counts statuses per batch."""

    name = "metrics"

    def __init__(self):
        self.batches = 0
        self.statuses = []

    def __call__(self, ctx, next):
        next(ctx)
        self.batches += 1
        self.statuses.extend(state.status for state in ctx.states)
        return ctx


class TestMiddleware:
    def test_custom_middleware_observes_every_batch(self, fitted_surf, density_query, hopeless_query):
        metrics = MetricsMiddleware()
        kernel = ServiceKernel(fitted_surf, middleware=[metrics, *default_chain()])
        kernel.handle(density_query)
        kernel.handle_batch([density_query, hopeless_query])
        assert metrics.batches == 2
        assert metrics.statuses == ["served", "cached", "rejected"]

    def test_custom_chain_results_are_bit_identical(self, fitted_surf, density_query):
        plain = ServiceKernel(fitted_surf).handle(density_query)
        observed = ServiceKernel(
            fitted_surf, middleware=[MetricsMiddleware(), *default_chain()]
        ).handle(density_query)
        assert proposals_identical(plain.result.proposals, observed.result.proposals)

    def test_compose_rejects_non_callables(self):
        with pytest.raises(ValidationError, match="position 1"):
            compose([Normalize(), "not-a-middleware"])

    def test_default_chain_order(self):
        names = [middleware.name for middleware in default_chain()]
        assert names == [
            "normalize",
            "satisfiability-gate",
            "cache",
            "coalesce",
            "execute",
            "harvest",
        ]
        for middleware in default_chain():
            assert isinstance(
                middleware, (Normalize, SatisfiabilityGate, Cache, Coalesce, Execute, Harvest)
            )


# --------------------------------------------------------------------------- multi-tenant routing
class TestModelRegistry:
    @pytest.fixture()
    def registry(self, fitted_surf, aggregate_surf):
        registry = ModelRegistry()
        registry.register("crimes/count", fitted_surf)
        registry.register("sales/average", aggregate_surf)
        return registry

    def test_register_get_names(self, registry, fitted_surf):
        assert registry.names() == ("crimes/count", "sales/average")
        assert len(registry) == 2
        assert "crimes/count" in registry
        assert registry.get("crimes/count").finder is fitted_surf
        with pytest.raises(ValidationError, match="already registered"):
            registry.register("crimes/count", fitted_surf)
        with pytest.raises(ValidationError, match="registered:"):
            registry.get("nope")
        with pytest.raises(ValidationError):
            registry.register("", fitted_surf)

    def test_register_prebuilt_kernel_adopts_the_name(self, fitted_surf):
        registry = ModelRegistry()
        kernel = ServiceKernel(fitted_surf, cache_size=3)
        assert registry.register("tenant-a", kernel) is kernel
        assert kernel.name == "tenant-a"
        with pytest.raises(ValidationError, match="options"):
            ModelRegistry().register("tenant-b", ServiceKernel(fitted_surf), cache_size=5)

    def test_routing_by_model_name(self, registry, density_query):
        response = registry.find(FindRequest.from_query(density_query, model="crimes/count"))
        assert response.model == "crimes/count"
        assert response.status == "served"
        with pytest.raises(ValidationError, match="unknown model"):
            registry.find(FindRequest(threshold=1.0, model="ghost"))
        with pytest.raises(ValidationError):
            registry.find(density_query)  # plain queries carry no tenant name

    def test_mixed_tenant_batch_preserves_input_order(
        self, registry, density_query, aggregate_surf
    ):
        aggregate_threshold = float(aggregate_surf.satisfiability_.quantile(0.5))
        requests = [
            FindRequest.from_query(density_query, model="crimes/count"),
            FindRequest(threshold=aggregate_threshold, model="sales/average"),
            FindRequest.from_query(density_query, model="crimes/count"),
        ]
        responses = registry.find_batch(requests)
        assert [response.model for response in responses] == [
            "crimes/count",
            "sales/average",
            "crimes/count",
        ]
        # The two crimes requests went through one kernel batch: coalesced.
        stats = registry.stats()
        assert stats["crimes/count"].coalesced == 1
        assert stats["crimes/count"].gso_runs == 1

    def test_batch_with_unknown_tenant_fails_before_serving(self, registry, density_query):
        before = registry.stats()["crimes/count"].queries
        with pytest.raises(ValidationError, match="unknown model"):
            registry.find_batch(
                [
                    FindRequest.from_query(density_query, model="crimes/count"),
                    FindRequest(threshold=1.0, model="ghost"),
                ]
            )
        assert registry.stats()["crimes/count"].queries == before
        with pytest.raises(ValidationError, match="position 0"):
            registry.find_batch([density_query])

    def test_unregister(self, registry):
        kernel = registry.unregister("sales/average")
        assert kernel.name == "sales/average"
        assert registry.names() == ("crimes/count",)
        with pytest.raises(ValidationError):
            registry.unregister("sales/average")

    def test_load_from_bundle_validates_options(self, fitted_surf, tmp_path):
        path = fitted_surf.save(tmp_path / "finder.surf")
        registry = ModelRegistry()
        kernel = registry.load("from-disk", path, cache_size=7)
        assert kernel.cache_size == 7
        assert "from-disk" in registry
        with pytest.raises(ValidationError, match="cache_sz"):
            registry.load("bad-options", path, cache_sz=7)
        assert "bad-options" not in registry

    def test_tenant_option_listing_excludes_name(self, fitted_surf, tmp_path):
        # The registry supplies the kernel name itself (name= cannot even be
        # passed — it collides with the positional parameter), so the valid-
        # options listing in the error must not advertise it.
        registry = ModelRegistry()
        with pytest.raises(ValidationError) as exc_info:
            registry.register("tenant", fitted_surf, cache_sz=1)
        assert "cache_sz" in str(exc_info.value)
        assert "'name'" not in str(exc_info.value)
        path = fitted_surf.save(tmp_path / "finder.surf")
        with pytest.raises(ValidationError) as exc_info:
            registry.load("tenant", path, cache_sz=1)
        assert "'name'" not in str(exc_info.value)
        assert len(registry) == 0

    def test_rejected_registration_never_renames_a_live_kernel(self, fitted_surf):
        registry = ModelRegistry()
        kernel = registry.register("first", ServiceKernel(fitted_surf))
        assert kernel.name == "first"
        other = ServiceKernel(fitted_surf)
        with pytest.raises(ValidationError, match="already registered"):
            registry.register("first", other)
        assert other.name == "default"  # the losing kernel was not renamed
        assert kernel.name == "first"

    def test_per_model_refresh_and_refresh_all(self, fitted_surf, density_engine, tmp_path):
        from repro.online import QueryLog
        from repro.surrogate.workload import generate_workload

        registry = ModelRegistry()
        registry.register("online", fitted_surf, query_log=QueryLog(capacity=1_000))
        registry.register("offline", fitted_surf)
        registry.get("online").observe_many(
            list(generate_workload(density_engine, 60, random_state=21))
        )
        outcome = registry.refresh("online")
        assert outcome.mode == "incremental"
        assert registry.get("online").generation == 1
        assert registry.get("offline").generation == 0
        # refresh_all skips tenants without a log instead of raising.
        outcomes = registry.refresh_all()
        assert set(outcomes) == {"online"}
        assert outcomes["online"].mode == "noop"

    def test_default_middleware_applies_to_registered_finders(self, fitted_surf, density_query):
        metrics = MetricsMiddleware()
        registry = ModelRegistry(middleware=[metrics, *default_chain()])
        registry.register("observed", fitted_surf)
        registry.find(FindRequest.from_query(density_query, model="observed"))
        assert metrics.statuses == ["served"]

    def test_mixed_batch_serves_tenant_groups_in_order(self, registry, density_query):
        # A cold query per tenant plus repeats: the groups are served one
        # after another, and every response lands in its input slot.
        crimes = FindRequest.from_query(density_query, model="crimes/count")
        sales_threshold = float(
            registry.get("sales/average").finder.satisfiability_.quantile(0.5)
        )
        sales = FindRequest(threshold=sales_threshold, model="sales/average")
        responses = registry.find_batch([crimes, sales, crimes, sales])
        assert [r.model for r in responses] == [
            "crimes/count",
            "sales/average",
            "crimes/count",
            "sales/average",
        ]
        assert all(r.status == "served" for r in responses)
        assert responses[0].proposals == responses[2].proposals
        assert responses[1].proposals == responses[3].proposals


# --------------------------------------------------------------------------- serving counters
class TestServiceStats:
    def test_stats_as_dict_keys_are_stable_and_include_hit_rate(self):
        stats = ServiceStats(queries=4, cache_hits=1)
        payload = stats.as_dict()
        assert list(payload) == [
            "queries",
            "cache_hits",
            "cache_misses",
            "coalesced",
            "rejected",
            "gso_runs",
            "harvested",
            "refreshes",
            "throttled",
            "shed",
            "timeouts",
            "errors",
            "hit_rate",
            "since_refresh",
        ]
        assert payload["hit_rate"] == pytest.approx(0.25)
        assert ServiceStats().as_dict()["hit_rate"] == 0.0

    def test_stats_since_refresh_tracks_deltas_from_the_baseline(self):
        from dataclasses import replace

        before = ServiceStats(queries=10, cache_hits=4, cache_misses=6, gso_runs=6)
        stats = ServiceStats(
            queries=14,
            cache_hits=7,
            cache_misses=7,
            gso_runs=7,
            baseline=replace(before),
        )
        window = stats.as_dict()["since_refresh"]
        assert window["queries"] == 4
        assert window["cache_hits"] == 3
        assert window["cache_misses"] == 1
        assert window["gso_runs"] == 1
        assert window["hit_rate"] == pytest.approx(3 / 4)
        # Without a refresh the window is the lifetime view.
        lifetime = ServiceStats(queries=4, cache_hits=1).as_dict()["since_refresh"]
        assert lifetime["queries"] == 4
        assert lifetime["hit_rate"] == pytest.approx(0.25)


# --------------------------------------------------------------------------- serving under load
class TestLoadControlSurface:
    """Envelope/kernel/registry surface added by the serving-under-load PR."""

    def test_deadline_seconds_round_trips_and_validates(self, density_query):
        request = FindRequest(threshold=10.0, deadline_seconds=2.5)
        assert request.deadline_seconds == 2.5
        assert FindRequest.from_dict(request.to_dict()) == request
        assert FindRequest.from_json(request.to_json()).deadline_seconds == 2.5
        via_query = FindRequest.from_query(density_query, deadline_seconds=1.0)
        assert via_query.deadline_seconds == 1.0
        for bad in (0.0, -1.0):
            with pytest.raises(ValidationError):
                FindRequest(threshold=10.0, deadline_seconds=bad)
            with pytest.raises(ValidationError):
                FindRequest.from_query(density_query, deadline_seconds=bad)

    def test_degraded_statuses_are_valid_and_carry_an_error(self):
        from repro.api import RESPONSE_STATUSES

        assert set(RESPONSE_STATUSES) >= {"throttled", "shed", "timeout", "error"}
        response = FindResponse(
            model="m", status="error", satisfiability=0.5, error="RuntimeError: boom"
        )
        assert response.error == "RuntimeError: boom"
        assert FindResponse.from_json(response.to_json()).error == "RuntimeError: boom"
        with pytest.raises(ValidationError):
            FindResponse(model="m", status="served", satisfiability=0.5, error=42)

    def test_executor_option_is_validated(self, fitted_surf):
        # Runs always go through the kernel's thread pool; a config that
        # still asks for another executor fails by name, not with a TypeError.
        with pytest.raises(ValidationError, match="executor"):
            ModelRegistry().register("m", fitted_surf, executor="process")
        with pytest.raises(ValidationError, match="executor"):
            kernel_from_config(fitted_surf, {"executor": "process"})

    def test_stats_fold_is_atomic_under_concurrent_batches(self, fitted_surf):
        from concurrent.futures import ThreadPoolExecutor

        kernel = ServiceKernel(fitted_surf, cache_size=0, min_satisfiability=0.0)

        def hammer(offset: int) -> None:
            # cache_size=0 disables caching, so every request really runs and
            # every counter increment races with the other threads' folds.
            for step in range(4):
                kernel.handle(FindRequest(threshold=1e-3 * (1 + offset) * (1 + step)))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        stats = kernel.stats
        assert stats.queries == 32
        assert stats.gso_runs + stats.rejected == 32

    def test_registry_close_and_pending_log_entries(self, fitted_surf):
        from repro.online import QueryLog

        registry = ModelRegistry()
        registry.register("logged", fitted_surf, query_log=QueryLog(capacity=100))
        registry.register("plain", fitted_surf)
        kernel = registry.get("logged")
        assert kernel.pending_log_entries == 0
        assert registry.get("plain").pending_log_entries == 0
        response = registry.find(FindRequest(threshold=1e-3, model="logged"))
        for proposal in response.result.proposals:
            kernel.observe(proposal.region, proposal.predicted_value)
        assert kernel.pending_log_entries == len(response.result.proposals) > 0
        with registry:
            pass  # close() shuts each kernel's run pool down
        registry.close()  # idempotent
        # A closed kernel stays usable: the next miss builds a fresh pool.
        kernel.clear_cache()
        again = registry.find(FindRequest(threshold=1e-3, model="logged"))
        assert again.status == "served"
        assert kernel.stats.gso_runs == 2
