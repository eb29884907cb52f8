"""Unit and integration tests for the observability layer (repro.obs).

Covers the metrics registry (exact totals under thread concurrency, the
process-pool snapshot/merge round trip), request tracing (span trees for both
the GSO and cached paths, coalescing linkage, the trace-id satellite
regression), the GSO profiling hook (bit-identical results, trajectory
lengths), and the front-door surfacing (``GET /metrics`` Prometheus text,
``GET /trace/{id}``).
"""

import asyncio
import copy
import json
import threading
import time

import pytest

from repro.api import (
    AsgiApp,
    Deadline,
    FindRequest,
    ModelRegistry,
    ProcessExecute,
    ServiceKernel,
    asgi_request,
    production_chain,
)
from repro.core.finder import SuRF
from repro.exceptions import ValidationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    Observability,
    Span,
    Trace,
    Tracer,
    current_span,
    parse_prometheus_text,
    span,
    use_span,
)


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------------- flaky finders
# Module level so instances pickle cleanly into process-pool workers.
class ErrorFinder(SuRF):
    def find_regions(self, query, max_proposals=None, profile_hook=None):
        raise RuntimeError("injected failure")


class StallFinder(SuRF):
    def find_regions(self, query, max_proposals=None, profile_hook=None):
        time.sleep(2.0)
        return super().find_regions(
            query, max_proposals=max_proposals, profile_hook=profile_hook
        )


def reclass(fitted_surf, cls):
    flaky = copy.copy(fitted_surf)
    flaky.__class__ = cls
    return flaky


# =========================================================================== metrics
class TestMetricsRegistry:
    def test_counter_exact_totals_and_labels(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "Requests.", ("model", "verdict"))
        requests.labels("a", "served").inc()
        requests.labels("a", "served").inc(2)
        requests.labels("b", "cached").inc()
        parsed = parse_prometheus_text(registry.render())
        assert parsed["requests_total"]['{model="a",verdict="served"}'] == 3.0
        assert parsed["requests_total"]['{model="b",verdict="cached"}'] == 1.0

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c", ())
        with pytest.raises(ValidationError):
            counter.labels().inc(-1)

    def test_family_redeclaration_is_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x", ("model",))
        assert registry.counter("x_total", "x", ("model",)) is first
        with pytest.raises(ValidationError):
            registry.counter("x_total", "x", ("tenant",))
        with pytest.raises(ValidationError):
            registry.gauge("x_total", "x", ("model",))

    def test_histogram_count_matches_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "latency", ("stage",), buckets=(0.1, 1.0))
        observations = [0.05, 0.5, 5.0, 0.5]
        for value in observations:
            hist.labels("total").observe(value)
        parsed = parse_prometheus_text(registry.render())
        assert parsed["lat_seconds_count"]['{stage="total"}'] == len(observations)
        assert parsed["lat_seconds_sum"]['{stage="total"}'] == pytest.approx(
            sum(observations)
        )
        buckets = parsed["lat_seconds_bucket"]
        assert buckets['{stage="total",le="0.1"}'] == 1.0
        assert buckets['{stage="total",le="1"}'] == 3.0
        assert buckets['{stage="total",le="+Inf"}'] == 4.0

    def test_default_latency_buckets_cover_microseconds_to_minutes(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-6
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 60.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", ("model",))
        hist = registry.histogram("obs_seconds", "obs", (), buckets=(1.0,))
        per_thread, threads = 500, 8

        def worker(tenant):
            for _ in range(per_thread):
                counter.labels(tenant).inc()
                hist.labels().observe(0.5)

        pool = [
            threading.Thread(target=worker, args=(f"t{i % 2}",)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        parsed = parse_prometheus_text(registry.render())
        assert parsed["hits_total"]['{model="t0"}'] == per_thread * threads / 2
        assert parsed["hits_total"]['{model="t1"}'] == per_thread * threads / 2
        assert parsed["obs_seconds_count"][""] == per_thread * threads

    def test_snapshot_merge_round_trip_adds_counts(self):
        parent = MetricsRegistry()
        parent.counter("runs_total", "runs", ("model",)).labels("m").inc(2)
        parent.histogram("h_seconds", "h", (), buckets=(1.0,)).labels().observe(0.5)

        worker = MetricsRegistry()
        worker.counter("runs_total", "runs", ("model",)).labels("m").inc(3)
        worker.counter("new_total", "new family", ()).labels().inc()
        worker.histogram("h_seconds", "h", (), buckets=(1.0,)).labels().observe(2.0)
        parent.merge(worker.snapshot(run_collectors=False))

        parsed = parse_prometheus_text(parent.render())
        assert parsed["runs_total"]['{model="m"}'] == 5.0
        assert parsed["new_total"][""] == 1.0  # family created from the snapshot
        assert parsed["h_seconds_count"][""] == 2.0
        assert parsed["h_seconds_sum"][""] == pytest.approx(2.5)

    def test_render_is_valid_prometheus_text(self):
        registry = MetricsRegistry()
        registry.gauge("g", "a gauge", ("model",)).labels('we"ird\\name').set(1.5)
        text = registry.render()
        assert "# HELP g a gauge" in text
        assert "# TYPE g gauge" in text
        parse_prometheus_text(text)  # raises on malformed exposition

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValidationError):
            parse_prometheus_text("this is not prometheus\n")


# =========================================================================== tracing
class TestTracing:
    def test_span_context_managers_nest(self):
        root = Span("request", start=0.0)
        with use_span(root):
            assert current_span() is root
            with span("child") as child:
                assert child.name == "child"
                with span("grandchild"):
                    pass
        assert [c.name for c in root.children] == ["child"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert root.children[0].duration_seconds >= 0.0

    def test_span_without_parent_is_a_null_span(self):
        with span("orphan") as orphan:
            orphan.set_attribute("ignored", 1)  # must not raise
        assert current_span() is None

    def test_span_records_exceptions(self):
        root = Span("request", start=0.0)
        with use_span(root):
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("bad")
        (child,) = root.children
        assert "RuntimeError" in child.attributes["exception"]

    def test_to_dict_reports_offsets_relative_to_origin(self):
        root = Span("request", start=100.0)
        child = root.child("stage", start=100.5)
        child.finish(end=100.75)
        root.finish(end=101.0)
        payload = root.to_dict(origin=100.0)
        assert payload["offset_seconds"] == pytest.approx(0.0)
        assert payload["duration_seconds"] == pytest.approx(1.0)
        assert payload["children"][0]["offset_seconds"] == pytest.approx(0.5)
        assert payload["children"][0]["duration_seconds"] == pytest.approx(0.25)

    def test_tracer_ring_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        for i in range(3):
            root = Span("request", start=0.0)
            root.finish(end=1.0)
            tracer.record(self._record(f"t-{i}", root))
        assert tracer.get("t-0") is None
        assert tracer.get("t-1") is not None
        assert tracer.get("t-2") is not None
        assert len(tracer) == 2

    def test_tracer_exports_jsonl(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(capacity=4, jsonl_path=path)
        root = Span("request", start=0.0)
        root.finish(end=0.25)
        tracer.record(self._record("t-x", root))
        tracer.close()
        lines = path.read_text().strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["trace_id"] == "t-x"
        assert payload["spans"]["name"] == "request"

    @staticmethod
    def _record(trace_id, root):
        from repro.obs.tracing import TraceRecord

        return TraceRecord(trace_id=trace_id, model="m", status="served", root=root)


# =========================================================================== runtime units
class TestObservabilityUnit:
    def test_coerce(self):
        obs = Observability()
        assert Observability.coerce(True) is not None
        assert Observability.coerce(obs) is obs
        with pytest.raises(ValidationError):
            Observability.coerce("yes")

    def test_trace_ids_are_unique(self):
        obs = Observability()
        ids = {obs.next_trace_id() for _ in range(100)}
        assert len(ids) == 100


# =========================================================================== kernel integration
class TestKernelIntegration:
    def test_observability_is_off_by_default(self, fitted_surf, density_query):
        kernel = ServiceKernel(fitted_surf)
        assert kernel.observability is None
        response = kernel.handle(FindRequest.from_query(density_query))
        assert response.timing is None
        assert response.trace_id is None

    def test_gso_and_cached_requests_produce_complete_span_trees(
        self, fitted_surf, density_query
    ):
        obs = Observability()
        kernel = ServiceKernel(fitted_surf, name="traced", observability=obs)
        served = kernel.handle(FindRequest.from_query(density_query))
        cached = kernel.handle(FindRequest.from_query(density_query))
        assert served.status == "served" and cached.status == "cached"
        assert served.trace_id and cached.trace_id
        assert served.trace_id != cached.trace_id

        def stage_names(record):
            names, node = [], record.root
            while node is not None:
                names.append(node.name)
                children = node.children or []
                stages = [c for c in children if c.name != "gso-run"]
                node = stages[0] if stages else None
            return names

        gso_record = obs.tracer.get(served.trace_id)
        assert stage_names(gso_record) == [
            "request",
            "normalize",
            "satisfiability-gate",
            "cache",
            "coalesce",
            "execute",
            "harvest",
        ]
        execute = gso_record.root
        while execute.name != "execute":
            execute = execute.children[0]
        (gso_span,) = [c for c in execute.children or [] if c.name == "gso-run"]
        assert gso_span.attributes["iterations"] > 0
        assert gso_span.attributes["surrogate_evals"] > 0
        assert len(gso_span.attributes["radius_trajectory"]) == (
            gso_span.attributes["iterations"]
        )
        assert gso_span.duration_seconds >= 0.0

        cached_record = obs.tracer.get(cached.trace_id)
        assert cached_record.status == "cached"
        flat = json.dumps(cached_record.to_dict())
        assert "gso-run" not in flat  # the cached path never reaches the optimiser

    def test_timing_breakdown_is_opt_in(self, fitted_surf, density_query):
        obs = Observability(timing_breakdown=True)
        kernel = ServiceKernel(fitted_surf, name="timed", observability=obs)
        response = kernel.handle(FindRequest.from_query(density_query))
        assert set(response.timing) >= {"normalize", "cache", "execute", "total"}
        assert all(value >= 0.0 for value in response.timing.values())
        assert response.timing["total"] >= response.timing["harvest"]
        payload = response.to_dict()
        assert payload["timing"] == response.timing

    def test_metrics_cover_requests_cache_and_gso(self, fitted_surf, density_query):
        obs = Observability()
        kernel = ServiceKernel(fitted_surf, name="metered", observability=obs)
        kernel.handle(FindRequest.from_query(density_query, model="metered"))
        kernel.handle(FindRequest.from_query(density_query, model="metered"))
        parsed = parse_prometheus_text(obs.metrics.render())
        assert parsed["repro_requests_total"]['{model="metered",verdict="served"}'] == 1.0
        assert parsed["repro_requests_total"]['{model="metered",verdict="cached"}'] == 1.0
        assert parsed["repro_cache_requests_total"]['{model="metered",outcome="hit"}'] == 1.0
        assert parsed["repro_cache_requests_total"]['{model="metered",outcome="miss"}'] == 1.0
        assert parsed["repro_gso_runs_total"]['{model="metered"}'] == 1.0
        assert parsed["repro_gso_surrogate_evals_total"]['{model="metered"}'] > 0
        assert (
            parsed["repro_request_latency_seconds_count"][
                '{model="metered",stage="total"}'
            ]
            == 2.0
        )
        # Collector-backed gauges ride along on every scrape.
        assert parsed["repro_generation"]['{model="metered"}'] == 0.0
        assert parsed["repro_cache_entries"]['{model="metered"}'] == 1.0
        assert parsed["repro_service_stats"]['{model="metered",counter="queries"}'] == 2.0

    def test_coalesced_followers_echo_their_own_trace_ids(
        self, fitted_surf, density_query
    ):
        obs = Observability()
        kernel = ServiceKernel(fitted_surf, name="grouped", observability=obs)
        first, second = kernel.handle_batch(
            [
                FindRequest.from_query(density_query, trace_id="t-leader"),
                FindRequest.from_query(density_query),
            ]
        )
        # The follower shares the leader's run but keeps its own identity.
        assert first.trace_id == "t-leader"
        assert second.trace_id and second.trace_id != "t-leader"
        assert first.result is not None and second.result is not None
        record = obs.tracer.get(second.trace_id)
        events = [event for event in record.events if event[0] == "coalesced-into"]
        assert events and events[0][2]["leader"] == "t-leader"
        leader_record = obs.tracer.get("t-leader")
        leads = [e for e in leader_record.events if e[0] == "coalesce-leader"]
        assert leads and second.trace_id in leads[0][2]["followers"]
        parsed = parse_prometheus_text(obs.metrics.render())
        assert parsed["repro_coalesced_total"]['{model="grouped"}'] == 1.0

    def test_client_supplied_trace_ids_are_preserved(self, fitted_surf, density_query):
        obs = Observability()
        kernel = ServiceKernel(fitted_surf, name="echo", observability=obs)
        response = kernel.handle(
            FindRequest.from_query(density_query, trace_id="client-1")
        )
        assert response.trace_id == "client-1"
        assert obs.tracer.get("client-1") is not None

    def test_refresh_resets_the_since_refresh_window(self, fitted_surf, density_query):
        from repro.online import QueryLog
        from repro.data.engine import DataEngine

        kernel = ServiceKernel(
            fitted_surf, name="windowed", query_log=QueryLog(capacity=100)
        )
        kernel.handle(FindRequest.from_query(density_query))
        kernel.handle(FindRequest.from_query(density_query))
        assert kernel.stats.as_dict()["since_refresh"]["queries"] == 2
        kernel.refresh(force_full=True)
        window = kernel.stats.as_dict()["since_refresh"]
        assert window["queries"] == 0
        assert window["hit_rate"] == 0.0
        assert kernel.stats.queries == 2  # lifetime counters keep accumulating
        kernel.handle(FindRequest.from_query(density_query))
        window = kernel.stats.as_dict()["since_refresh"]
        assert window["queries"] == 1
        assert window["cache_misses"] == 1  # the refresh cleared the cache


# =========================================================================== concurrency
class TestMetricsUnderConcurrency:
    def test_threaded_mixed_tenant_burst_counts_exactly(
        self, fitted_surf, density_query
    ):
        obs = Observability()
        registry = ModelRegistry()
        registry.register("alpha", fitted_surf, observability=obs)
        registry.register("beta", fitted_surf, observability=obs)
        per_thread, threads = 4, 8

        def client(worker_id):
            for i in range(per_thread):
                model = "alpha" if (worker_id + i) % 2 == 0 else "beta"
                response = registry.find(
                    FindRequest.from_query(density_query, model=model)
                )
                assert response.status in ("served", "cached")

        pool = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        parsed = parse_prometheus_text(obs.metrics.render())
        totals = parsed["repro_requests_total"]
        per_model = {"alpha": 0.0, "beta": 0.0}
        for labels, value in totals.items():
            for model in per_model:
                if f'model="{model}"' in labels:
                    per_model[model] += value
        assert per_model["alpha"] == per_thread * threads / 2
        assert per_model["beta"] == per_thread * threads / 2
        latency = parsed["repro_request_latency_seconds_count"]
        assert (
            latency['{model="alpha",stage="total"}']
            + latency['{model="beta",stage="total"}']
            == per_thread * threads
        )

    def test_process_pool_snapshot_merge_loses_no_increments(
        self, fitted_surf, density_query
    ):
        obs = Observability()
        chain = production_chain(execute=ProcessExecute(max_workers=2), observability=obs)
        kernel = ServiceKernel(
            fitted_surf, name="pooled", middleware=chain, max_workers=2
        )
        try:
            thresholds = [density_query.threshold * scale for scale in (1.0, 1.01, 0.99)]
            responses = kernel.handle_batch(
                [FindRequest(threshold=value, model="pooled") for value in thresholds]
            )
            statuses = [response.status for response in responses]
            assert statuses.count("served") == len(thresholds)
        finally:
            kernel.close()
        parsed = parse_prometheus_text(obs.metrics.render())
        # Every pooled run is counted once its result comes home: one run per
        # threshold, with the evaluation counts the result carries.
        assert parsed["repro_gso_runs_total"]['{model="pooled"}'] == len(thresholds)
        assert parsed["repro_gso_surrogate_evals_total"]['{model="pooled"}'] > 0
        record = obs.tracer.get(responses[0].trace_id)
        flat = json.dumps(record.to_dict())
        assert "gso-run" in flat  # pooled runs still land in the span tree

    def test_error_and_timeout_verdict_labels(self, fitted_surf, density_query):
        obs = Observability()
        kernel = ServiceKernel(
            reclass(fitted_surf, ErrorFinder), name="flaky", observability=obs
        )
        failed = kernel.handle(FindRequest.from_query(density_query, model="flaky"))
        assert failed.status == "error"

        stalled = ServiceKernel(
            reclass(fitted_surf, StallFinder),
            name="stalled",
            middleware=production_chain(
                deadline=Deadline(default_budget=0.2), observability=obs
            ),
        )
        response = stalled.handle(FindRequest.from_query(density_query, model="stalled"))
        assert response.status == "timeout"
        parsed = parse_prometheus_text(obs.metrics.render())
        assert parsed["repro_requests_total"]['{model="flaky",verdict="error"}'] == 1.0
        assert parsed["repro_requests_total"]['{model="stalled",verdict="timeout"}'] == 1.0
        assert obs.tracer.get(response.trace_id).status == "timeout"


# =========================================================================== gso profiling
class TestGsoProfiling:
    def test_profile_hook_never_touches_the_rng_stream(self, fitted_surf, density_query):
        from repro.obs.runtime import GSORunProfile

        baseline = fitted_surf.find_regions(density_query)
        profile = GSORunProfile()
        profiled = fitted_surf.find_regions(density_query, profile_hook=profile)
        assert profile.iterations > 0
        assert profile.evaluations > 0
        assert len(profile.radius_trajectory) == profile.iterations
        assert len(profile.feasible_trajectory) == profile.iterations
        # The hook never touches the RNG stream: bit-identical proposals.
        assert [p.predicted_value for p in baseline.proposals] == [
            p.predicted_value for p in profiled.proposals
        ]
        assert [p.objective_value for p in baseline.proposals] == [
            p.objective_value for p in profiled.proposals
        ]
        summary = profile.summary()
        assert summary["iterations"] == profile.iterations
        assert summary["surrogate_evals"] == profile.evaluations


# =========================================================================== front door
class TestFrontDoor:
    @pytest.fixture()
    def app(self, fitted_surf):
        registry = ModelRegistry()
        registry.register(
            "demo", fitted_surf, observability=Observability(trace_capacity=32)
        )
        return AsgiApp(registry)

    def test_metrics_endpoint_serves_prometheus_text(
        self, app, fitted_surf, density_query
    ):
        body = {"threshold": density_query.threshold, "model": "demo"}
        assert run(asgi_request(app, "POST", "/find", json_body=body)).status == 200
        response = run(asgi_request(app, "GET", "/metrics"))
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus_text(response.body.decode("utf-8"))
        assert parsed["repro_requests_total"]['{model="demo",verdict="served"}'] == 1.0
        assert "repro_request_latency_seconds_count" in parsed

    def test_metrics_endpoint_answers_without_observability(self, fitted_surf):
        registry = ModelRegistry()
        registry.register("bare", fitted_surf)
        response = run(asgi_request(AsgiApp(registry), "GET", "/metrics"))
        assert response.status == 200
        parsed = parse_prometheus_text(response.body.decode("utf-8"))
        assert parsed["repro_service_stats"]['{model="bare",counter="queries"}'] == 0.0

    def test_trace_endpoint_round_trip(self, app, density_query):
        body = {
            "threshold": density_query.threshold,
            "model": "demo",
            "trace_id": "t-front-door",
        }
        assert run(asgi_request(app, "POST", "/find", json_body=body)).status == 200
        response = run(asgi_request(app, "GET", "/trace/t-front-door"))
        assert response.status == 200
        payload = response.json()
        assert payload["trace_id"] == "t-front-door"
        assert payload["spans"]["name"] == "request"
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children") or []:
                walk(child)

        walk(payload["spans"])
        assert {"normalize", "cache", "execute", "harvest"} <= names

    def test_unknown_trace_is_404(self, app):
        assert run(asgi_request(app, "GET", "/trace/nope")).status == 404
