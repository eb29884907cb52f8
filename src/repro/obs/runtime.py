"""Wiring between the serving kernel and the metrics/tracing primitives.

:class:`Observability` bundles one :class:`~repro.obs.metrics.MetricsRegistry`
and one :class:`~repro.obs.tracing.Tracer` and pre-declares every metric
family the serving layer emits (see the name/label table in
``docs/architecture.md``).  It is enabled per kernel —
``ServiceKernel(finder, observability=True)`` or
``production_chain(observability=...)`` — and may be **shared** across the
kernels of a :class:`~repro.api.tenancy.ModelRegistry`: tenant labels keep the
series apart while ``/metrics`` scrapes one registry.

The moving parts, in chain order:

* :class:`Trace` — the outermost middleware stage: assigns a trace id to every
  request that arrived without one, installs a :class:`BatchRecorder` in
  ``ctx.extras``, and on the way out converts the recorded span tree into one
  :class:`~repro.obs.tracing.TraceRecord` per request plus the per-request
  counters (requests by verdict, cache hit/miss, total latency).
* :func:`instrument_chain` — wraps every other stage of a kernel's chain in a
  :class:`InstrumentedStage` that times it into the per-stage latency
  histogram and pushes a span; the kernel composes the wrapped chain only when
  observability is configured, so the uninstrumented path is bit-identical to
  an observability-less build.
* :class:`GSORunProfile` — the per-iteration profiling hook the execute stage
  hands to :meth:`SuRF.find_regions <repro.core.finder.SuRF.find_regions>`:
  iterations, surrogate-eval counts and the swarm's mean decision-radius
  trajectory, at the cost of one ``is not None`` check per swarm iteration
  when disabled.
* :func:`register_kernel` — a pull-time collector over one kernel: serving
  counters, generation, cache occupancy, query-log watermark, drift gauges
  and backend scan counters are *read* at scrape time, never written per
  request.

Everything here is duck-typed against the middleware contract — this module
imports nothing from :mod:`repro.api`, so the api layer can lazily import it
without a cycle.
"""

from __future__ import annotations

import itertools
import os
import weakref
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.tracing import Span, Tracer


# --------------------------------------------------------------------------- GSO profiling
class GSORunProfile:
    """Per-iteration profile of one optimiser run (the ``profile_hook``).

    :meth:`on_iteration` is called once per swarm iteration with the running
    evaluation count, the decision radii and the fitness vector; the summary
    carries the radius/feasibility trajectories so a trace can show *how* the
    swarm converged, not just that it did.
    """

    __slots__ = ("iterations", "evaluations", "radius_trajectory", "feasible_trajectory")

    def __init__(self):
        self.iterations = 0
        self.evaluations = 0
        self.radius_trajectory: List[float] = []
        self.feasible_trajectory: List[float] = []

    def on_iteration(self, iteration: int, evaluations: int, radii, fitness) -> None:
        self.iterations = int(iteration)
        self.evaluations = int(evaluations)
        self.radius_trajectory.append(float(np.mean(radii)))
        self.feasible_trajectory.append(float(np.mean(np.isfinite(fitness))))

    def summary(self) -> Dict[str, Any]:
        return {
            "iterations": self.iterations,
            "surrogate_evals": self.evaluations,
            "radius_trajectory": list(self.radius_trajectory),
            "feasible_trajectory": list(self.feasible_trajectory),
        }


# --------------------------------------------------------------------------- the bundle
class Observability:
    """Shared metrics + tracing configuration for one or many kernels.

    Parameters
    ----------
    metrics / tracer:
        Pre-built registry/tracer to record into (defaults are created).
    trace_capacity / trace_jsonl:
        Forwarded to the default :class:`Tracer` (in-memory ring size and the
        optional JSONL export path).
    gso_profile:
        Attach a :class:`GSORunProfile` to every optimiser run (per-iteration
        radius/eval trajectories on the run spans).  Off leaves the optimiser
        loop's hook at ``None`` — its zero-overhead state.
    timing_breakdown:
        Attach the per-stage timing dict to every
        :class:`~repro.api.envelopes.FindResponse` (the opt-in ``timing``
        field; stage durations are inclusive of their nested stages).
    latency_buckets:
        Histogram bucket bounds for the per-stage latency families.
    """

    def __init__(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_capacity: int = 512,
        trace_jsonl=None,
        gso_profile: bool = True,
        timing_breakdown: bool = False,
        latency_buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(capacity=trace_capacity, jsonl_path=trace_jsonl)
        )
        self.gso_profile = bool(gso_profile)
        self.timing_breakdown = bool(timing_breakdown)
        self._seq = itertools.count(1)
        self._id_prefix = f"t-{os.getpid():x}{id(self) & 0xFFFF:04x}"

        m = self.metrics
        self.requests_total = m.counter(
            "repro_requests_total", "Requests answered, by tenant and verdict.",
            ("model", "verdict"),
        )
        self.stage_seconds = m.histogram(
            "repro_request_latency_seconds",
            "Middleware-stage latency (stage='total' is the whole request).",
            ("model", "stage"),
            buckets=latency_buckets,
        )
        self.cache_outcomes = m.counter(
            "repro_cache_requests_total", "Result-cache lookups, by outcome.",
            ("model", "outcome"),
        )
        self.cache_evictions = m.counter(
            "repro_cache_generation_evictions_total",
            "Cached results dropped because a hot swap superseded their generation.",
            ("model",),
        )
        self.coalesced_total = m.counter(
            "repro_coalesced_total", "Requests answered by sharing an in-batch run.",
            ("model",),
        )
        self.generation_retries = m.counter(
            "repro_generation_retries_total",
            "Batches re-classified because a hot swap raced the Eq. 5 probe.",
            ("model",),
        )
        self.shed_total = m.counter(
            "repro_shed_total", "Runs shed by admission control, by reason.",
            ("model", "reason"),
        )
        self.admission_inflight = m.gauge(
            "repro_admission_inflight", "Distinct optimiser runs currently admitted.",
            ("model",),
        )
        self.gso_runs = m.counter("repro_gso_runs_total", "Optimiser runs executed.", ("model",))
        self.gso_evals = m.counter(
            "repro_gso_surrogate_evals_total",
            "Surrogate objective evaluations consumed by optimiser runs.",
            ("model",),
        )
        self.gso_iterations = m.counter(
            "repro_gso_iterations_total", "Swarm iterations executed.", ("model",)
        )

    @classmethod
    def coerce(cls, value) -> "Observability":
        """``True`` → a fresh default bundle; an instance passes through."""
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise ValidationError(
            f"observability must be True or an Observability instance, got {value!r}"
        )

    def next_trace_id(self) -> str:
        """A cheap unique id for requests that arrived without one."""
        return f"{self._id_prefix}-{next(self._seq):x}"

    def run_profiler(self) -> Optional[GSORunProfile]:
        """A fresh per-run profile hook, or ``None`` when profiling is off."""
        return GSORunProfile() if self.gso_profile else None

    def record_gso_run(self, model: str, result) -> None:
        """Count one finished optimiser run.

        ``result`` is a :class:`~repro.core.finder.RegionSearchResult`; its
        ``optimization`` summary carries exact evaluation and iteration
        counts, so run accounting works even when per-iteration profiling is
        off.
        """
        optimization = result.optimization
        self.gso_runs.labels(model).inc()
        self.gso_evals.labels(model).inc(float(optimization.function_evaluations))
        self.gso_iterations.labels(model).inc(float(optimization.num_iterations))


# --------------------------------------------------------------------------- batch recording
#: Verdicts that consulted the cache and missed (shed, timed-out and failed
#: requests were classified as misses before admission dropped them or their
#: run failed — mirrors ``ServiceStats.cache_misses``).
_MISS_STATUSES = frozenset({"served", "shed", "timeout", "error"})


class BatchRecorder:
    """Per-batch span-tree builder installed in ``ctx.extras["obs_trace"]``.

    All mutation happens on the batch's driving thread (stages run nested;
    the execute stage collects worker futures on the same thread), so no
    locking is needed; the shared registries it writes into at
    :meth:`finalize` carry their own locks.
    """

    __slots__ = ("obs", "root", "_stack", "_events")

    def __init__(self, obs: Observability, ctx):
        self.obs = obs
        self.root = Span(
            "request" if len(ctx.states) == 1 else "batch",
            start=ctx.batch_start,
            model=ctx.kernel.name,
            batch_size=len(ctx.states),
        )
        self._stack: List[Span] = [self.root]
        self._events: Dict[int, list] = {}

    # ------------------------------------------------------------------ spans
    def push_stage(self, name: str, start: Optional[float] = None) -> Span:
        node = self._stack[-1].child(name, start=start)
        self._stack.append(node)
        return node

    def pop_stage(self, node: Span, end: Optional[float] = None) -> None:
        node.finish(end)
        if self._stack and self._stack[-1] is node:
            self._stack.pop()

    def run_span(self, indices, seconds: float, result, profile=None) -> None:
        """A completed optimiser run, attached under the current stage span."""
        end = perf_counter()
        node = self._stack[-1].child("gso-run", start=end - seconds)
        node.set_attribute("requests", len(indices))
        node.set_attribute("iterations", int(result.optimization.num_iterations))
        node.set_attribute("surrogate_evals", int(result.optimization.function_evaluations))
        if profile is not None:
            node.set_attribute("radius_trajectory", profile.get("radius_trajectory"))
            node.set_attribute("feasible_trajectory", profile.get("feasible_trajectory"))
        node.finish(end)

    # ------------------------------------------------------------------ events
    def event(self, index: int, name: str, **attributes) -> None:
        """An event scoped to one request of the batch (by position)."""
        self._events.setdefault(index, []).append(
            (name, perf_counter(), attributes or None)
        )

    def batch_event(self, name: str, **attributes) -> None:
        self.root.event(name, **attributes)

    def generation_retry(self, ctx, generation: int) -> None:
        self.batch_event("generation-retry", stale_generation=generation)
        self.obs.generation_retries.labels(ctx.kernel.name).inc()

    def note_coalesced(self, ctx) -> None:
        """Record leader/follower linkage for every coalesced group."""
        states = ctx.states
        for indices in ctx.pending.values():
            if len(indices) < 2:
                continue
            leader = indices[0]
            leader_trace = states[leader].trace_id
            follower_traces = [states[index].trace_id for index in indices[1:]]
            self.event(leader, "coalesce-leader", followers=follower_traces)
            for index, trace in zip(indices[1:], follower_traces):
                del trace
                self.event(index, "coalesced-into", leader=leader_trace)
            self.obs.coalesced_total.labels(ctx.kernel.name).inc(len(indices) - 1)

    # ------------------------------------------------------------------ finalize
    def finalize(self, ctx) -> None:
        """Close the tree, emit per-request counters and register the records."""
        self.root.finish()
        obs = self.obs
        kernel_name = ctx.kernel.name
        total_seconds = self.root.duration_seconds
        timing: Optional[Dict[str, float]] = None
        if obs.timing_breakdown:
            timing = {}
            _collect_stage_timing(self.root, timing)
            timing["total"] = total_seconds
        # Aggregate per (model, verdict) first so a 16-request cached burst
        # costs a handful of lock acquisitions, not a handful per request;
        # cache outcomes derive from the verdicts, outside the loop.
        verdicts: Dict[tuple, int] = {}
        rows = []
        events = self._events
        root = self.root
        for index, state in enumerate(ctx.states):
            model = state.request.model
            status = state.status or "unknown"
            key = (model, status)
            verdicts[key] = verdicts.get(key, 0) + 1
            if timing is not None:
                state.timing = dict(timing)
            rows.append(
                (state.trace_id, model, status, root,
                 events.get(index) if events else None)
            )
        for (model, status), count in verdicts.items():
            obs.requests_total.labels(model, status).inc(count)
            if status == "cached":
                obs.cache_outcomes.labels(model, "hit").inc(count)
            elif status in _MISS_STATUSES:
                obs.cache_outcomes.labels(model, "miss").inc(count)
        obs.stage_seconds.labels(kernel_name, "total").observe_many(
            total_seconds, len(ctx.states)
        )
        obs.tracer.record_rows(rows)


def _collect_stage_timing(node: Span, out: Dict[str, float]) -> None:
    for child in node.children or ():
        out[child.name] = out.get(child.name, 0.0) + child.duration_seconds
        _collect_stage_timing(child, out)


# --------------------------------------------------------------------------- middleware
class Trace:
    """The tracing middleware stage — install outermost.

    ``ServiceKernel(finder, observability=...)`` prepends one automatically;
    :func:`repro.api.admission.production_chain` accepts
    ``observability=True`` to do the same for hand-built chains.
    """

    name = "trace"
    #: Marker the kernel uses to find this stage without importing this module.
    obs_trace_stage = True

    def __init__(self, observability=True):
        self.observability = Observability.coerce(observability)

    def __call__(self, ctx, next):
        obs = self.observability
        extras = ctx.extras
        extras["obs"] = obs
        recorder = BatchRecorder(obs, ctx)
        extras["obs_trace"] = recorder
        for state in ctx.states:
            if state.trace_id is None:
                state.trace_id = obs.next_trace_id()
        try:
            return next(ctx)
        finally:
            recorder.finalize(ctx)

    def close(self) -> None:
        """Flush and close the tracer's JSONL sink (reopened on next record)."""
        self.observability.tracer.close()


class InstrumentedStage:
    """A middleware stage wrapped with span + per-stage latency recording.

    Only installed into the *composed* handler of an observability-enabled
    kernel — ``kernel.middleware`` still exposes the bare stages, and a kernel
    without observability composes them directly, unchanged.
    """

    __slots__ = ("stage", "obs", "name", "_child", "_child_model")

    def __init__(self, stage, obs: Observability):
        self.stage = stage
        self.obs = obs
        self.name = getattr(stage, "name", type(stage).__name__)
        # The histogram child is cached per kernel name: a wrapper lives in
        # exactly one kernel's composed chain, so the lookup hits every batch.
        self._child = None
        self._child_model = None

    def __call__(self, ctx, next):
        extras = ctx._extras
        recorder = extras.get("obs_trace") if extras is not None else None
        if recorder is None:
            return self.stage(ctx, next)
        model = ctx.kernel.name
        child = self._child
        if child is None or self._child_model != model:
            child = self.obs.stage_seconds.labels(model, self.name)
            self._child = child
            self._child_model = model
        start = perf_counter()
        node = recorder.push_stage(self.name, start)
        try:
            return self.stage(ctx, next)
        finally:
            end = perf_counter()
            recorder.pop_stage(node, end)
            child.observe(end - start)


def instrument_chain(chain: Sequence, obs: Observability) -> List:
    """Wrap every non-Trace stage for span/latency recording."""
    return [
        stage
        if getattr(stage, "obs_trace_stage", False)
        else InstrumentedStage(stage, obs)
        for stage in chain
    ]


# --------------------------------------------------------------------------- kernel collector
def register_kernel(obs: Observability, kernel) -> None:
    """Register pull-time gauges over one kernel's state.

    Reads — never writes — the kernel's counters, cache, generation, log
    watermark, drift monitor and exact-engine backend counters when the
    registry is scraped or snapshotted.  Holds only a weak reference, so a
    shared :class:`Observability` never keeps a discarded kernel alive.
    """
    metrics = obs.metrics
    service_stats = metrics.gauge(
        "repro_service_stats", "ServiceKernel lifetime counters, by name.",
        ("model", "counter"),
    )
    generation = metrics.gauge(
        "repro_generation", "Model generation currently served (hot-swap count).",
        ("model",),
    )
    cache_entries = metrics.gauge(
        "repro_cache_entries", "Results currently held in the LRU cache.", ("model",)
    )
    pending_log = metrics.gauge(
        "repro_pending_log_entries",
        "Logged exact evaluations not yet folded in by a refresh.",
        ("model",),
    )
    drift_rmse = metrics.gauge(
        "repro_drift_rolling_rmse", "DriftMonitor rolling residual RMSE.", ("model",)
    )
    drift_baseline = metrics.gauge(
        "repro_drift_baseline_rmse", "DriftMonitor baseline RMSE.", ("model",)
    )
    drift_score = metrics.gauge(
        "repro_drift_score", "DriftMonitor drift score (rolling / baseline).", ("model",)
    )
    backend_scans = metrics.counter(
        "repro_backend_scans_total", "Backend scan/count primitive calls.",
        ("model", "backend"),
    )
    backend_gathers = metrics.counter(
        "repro_backend_gathers_total", "Backend gather primitive calls.",
        ("model", "backend"),
    )
    backend_regions = metrics.counter(
        "repro_backend_regions_scanned_total", "Regions evaluated by backend scans.",
        ("model", "backend"),
    )
    backend_rows = metrics.counter(
        "repro_backend_rows_scanned_total", "Rows covered by backend scans.",
        ("model", "backend"),
    )
    kernel_ref = weakref.ref(kernel)

    def collect(_registry) -> None:
        live = kernel_ref()
        if live is None:
            return
        name = live.name
        for counter_name, value in live.stats.as_dict().items():
            if isinstance(value, (int, float)):
                service_stats.labels(name, counter_name).set(value)
        generation.labels(name).set(live.generation)
        cache_entries.labels(name).set(live.cached_queries)
        pending_log.labels(name).set(live.pending_log_entries)
        monitor = getattr(live._incremental_trainer, "drift_monitor", None)
        if monitor is not None:
            if monitor.rolling_rmse is not None:
                drift_rmse.labels(name).set(monitor.rolling_rmse)
            if monitor.baseline_rmse is not None:
                drift_baseline.labels(name).set(monitor.baseline_rmse)
            drift_score.labels(name).set(monitor.drift_score)
        engine = live._exact_engine
        backend = getattr(engine, "backend", None)
        if backend is not None:
            counters = backend.counters
            backend_scans.labels(name, backend.name).set_total(counters.scan_calls)
            backend_gathers.labels(name, backend.name).set_total(counters.gather_calls)
            backend_regions.labels(name, backend.name).set_total(counters.regions_scanned)
            backend_rows.labels(name, backend.name).set_total(counters.rows_scanned)

    metrics.register_collector(collect)


__all__ = [
    "Observability",
    "Trace",
    "BatchRecorder",
    "InstrumentedStage",
    "GSORunProfile",
    "instrument_chain",
    "register_kernel",
]
