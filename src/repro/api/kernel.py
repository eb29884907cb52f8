"""The service kernel: one model, one middleware chain, one front door.

A :class:`ServiceKernel` hosts **one** fitted
:class:`~repro.core.finder.SuRF` behind the composable middleware chain of
:mod:`repro.api.middleware` and answers typed
:class:`~repro.api.envelopes.FindRequest` envelopes.  It owns the LRU result
cache, the Eq. 5 gate threshold, the serving counters, the query log, and the
online-learning refresh/hot-swap machinery and the one thread pool every
GSO run executes on, while the per-request pipeline itself is pluggable: pass
``middleware=[...]`` to insert rate limiting, metrics or tracing without
touching this file.  Multi-tenant deployments host many kernels behind a
:class:`~repro.api.tenancy.ModelRegistry`.

Its serving semantics (batch coalescing, generation-tagged caching,
shared-generator fallback, harvest counters) are bit-identical to the
original serving monolith, asserted against a frozen copy of it by
``tests/property/test_property_api.py``.
"""

from __future__ import annotations

import copy
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.envelopes import DEFAULT_MODEL, FindRequest, FindResponse, ProposalPayload
from repro.api.middleware import (
    BatchContext,
    Middleware,
    compose,
    default_chain,
)
from repro.core.finder import RegionSearchResult, SuRF
from repro.core.query import RegionQuery, SolutionSpace
from repro.exceptions import NotFittedError, ValidationError

from collections import OrderedDict


@dataclass
class ServiceStats:
    """Counters of everything a kernel did since construction (or ``reset``).

    ``cache_misses`` counts queries that needed a result not in the cache when
    they arrived; of those, ``coalesced`` were answered by sharing an identical
    in-flight run inside the same batch.  ``gso_runs`` counts optimiser runs
    that completed, so it equals ``cache_misses - coalesced`` only while no
    miss is shed, times out or fails.  ``harvested`` counts
    exact evaluations recorded into the query log through this kernel — both
    ground-truthed proposals (``exact_engine``) and externally observed pairs
    (``observe``/``observe_many``); ``refreshes`` counts how many times a
    refresh actually swapped in new models.

    The degraded-path counters mirror the load-control statuses:
    ``throttled`` (per-tenant token bucket), ``shed`` (admission control
    dropped the run under pressure), ``timeouts`` (per-request deadline
    expired before or during the run) and ``errors`` (the optimiser run
    raised).  All four classes of request are counted in ``queries``;
    throttled requests never reach the cache, while shed, timed-out and
    failed requests were classified as misses before admission dropped them
    or their run failed.

    Every mutation of these counters happens under the kernel lock — either
    inline in the classification stage (which already holds it) or as one
    batched fold at the end of the execute stage, where worker threads
    accumulate locally instead of contending on (and racing) the shared
    object.

    ``baseline`` is the counter snapshot taken at the last generation
    hot-swap; :meth:`since_refresh` reports the deltas against it, so a
    dashboard watching ``hit_rate`` right after a swap sees the *new*
    generation's behaviour instead of a lifetime average dominated by the old
    one.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    coalesced: int = 0
    rejected: int = 0
    gso_runs: int = 0
    harvested: int = 0
    refreshes: int = 0
    throttled: int = 0
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    baseline: Optional["ServiceStats"] = None

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the cache (0.0 before any query)."""
        return self.cache_hits / self.queries if self.queries else 0.0

    def since_refresh(self) -> Dict[str, float]:
        """Counter deltas since the last refresh that swapped the model.

        Before the first swap (or after ``reset``) the deltas equal the
        lifetime counters.  ``hit_rate`` here is computed from the deltas.
        """
        base = self.baseline
        deltas: Dict[str, float] = {}
        for field_name in _STAT_COUNTER_FIELDS:
            deltas[field_name] = getattr(self, field_name) - (
                getattr(base, field_name) if base is not None else 0
            )
        deltas["hit_rate"] = (
            deltas["cache_hits"] / deltas["queries"] if deltas["queries"] else 0.0
        )
        return deltas

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for logs, metrics middlewares and benchmark tables.

        The key set is **stable** — the metrics middleware in
        ``examples/api.py`` and deployment dashboards key on it; new counters
        are appended, existing keys (including ``hit_rate``) never disappear.
        ``since_refresh`` is the one non-scalar entry: the post-hot-swap
        counter deltas from :meth:`since_refresh`.
        """
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "gso_runs": self.gso_runs,
            "harvested": self.harvested,
            "refreshes": self.refreshes,
            "throttled": self.throttled,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "hit_rate": self.hit_rate,
            "since_refresh": self.since_refresh(),
        }


#: The integer counter fields of :class:`ServiceStats`, in ``as_dict`` order.
_STAT_COUNTER_FIELDS = (
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
)


#: The constructor options a kernel accepts besides the finder itself; shared
#: with ``ModelRegistry.register`` / ``ModelRegistry.load`` kwarg validation.
KERNEL_OPTIONS = (
    "cache_size",
    "min_satisfiability",
    "max_proposals",
    "max_workers",
    "query_log",
    "incremental_trainer",
    "exact_engine",
    "middleware",
    "name",
    "observability",
)


def check_service_options(kwargs: dict, *, allowed: Sequence[str] = KERNEL_OPTIONS, where: str) -> None:
    """Reject unknown service options by name (instead of a late ``TypeError``).

    ``ServiceKernel.from_bundle(path, cache_sz=9)`` would otherwise fail only
    after the bundle was loaded, with a generic ``TypeError``; this names the
    offending key up front and lists the valid ones.
    """
    unknown = sorted(set(kwargs) - set(allowed))
    if unknown:
        raise ValidationError(
            f"{where} got unknown option(s) {unknown}; valid options: {sorted(allowed)}"
        )


class ServiceKernel:
    """Middleware-driven serving runtime over one fitted finder.

    Parameters
    ----------
    finder:
        A fitted finder; typically ``SuRF.load(bundle_path)``.
    name:
        The tenant/model name this kernel serves under (requests routed by a
        :class:`~repro.api.tenancy.ModelRegistry` carry it; a standalone
        kernel accepts any request name and echoes it back).
    cache_size:
        Maximum number of query results kept in the LRU cache (0 disables
        caching; duplicate queries inside one batch are still coalesced).
    min_satisfiability:
        Queries whose Eq. 5 probability is **at or below** this value are
        rejected without running the optimiser.
    max_proposals:
        Default proposal cap forwarded to every GSO run (a request's own
        ``max_proposals`` overrides it per query).
    max_workers:
        Width of the kernel's run pool, the one persistent thread pool every
        GSO run of this kernel executes on (``None`` = ``os.cpu_count()``).
        The pool is built on the first miss; :meth:`close` releases it.
    query_log / incremental_trainer / exact_engine:
        The online-learning loop wiring: a :class:`~repro.online.QueryLog`
        the kernel harvests into and refreshes from, an optional pre-built
        :class:`~repro.online.IncrementalTrainer` (one is derived from the
        finder on the first :meth:`refresh` otherwise), and an exact engine
        that ground-truths every served proposal into the log (requires
        ``query_log``).
    middleware:
        The middleware chain to run every batch through; defaults to
        :func:`repro.api.middleware.default_chain`.  Order matters: the first
        element is outermost.
    observability:
        ``True`` or a :class:`repro.obs.Observability` bundle enables the
        metrics/tracing layer: a ``Trace`` stage is prepended (unless the
        chain already carries one), every stage is timed into per-stage
        latency histograms, and the kernel's counters/cache/drift/backend
        state are registered as pull-time gauges.  ``None`` (the default)
        keeps the serving path completely uninstrumented.
    """

    def __init__(
        self,
        finder: SuRF,
        *,
        name: str = DEFAULT_MODEL,
        cache_size: int = 128,
        min_satisfiability: float = 0.0,
        max_proposals: Optional[int] = None,
        max_workers: Optional[int] = None,
        query_log=None,
        incremental_trainer=None,
        exact_engine=None,
        middleware: Optional[Sequence[Middleware]] = None,
        observability=None,
    ):
        if not isinstance(finder, SuRF):
            raise ValidationError(f"finder must be a SuRF instance, got {type(finder)!r}")
        if finder.surrogate_ is None or finder.solution_space_ is None:
            raise NotFittedError("ServiceKernel requires a fitted SuRF finder")
        if finder.satisfiability_ is None:
            raise NotFittedError("ServiceKernel requires a finder with a satisfiability model")
        if not isinstance(name, str) or not name:
            raise ValidationError(f"name must be a non-empty string, got {name!r}")
        if cache_size < 0:
            raise ValidationError(f"cache_size must be >= 0, got {cache_size}")
        if not 0.0 <= min_satisfiability < 1.0:
            raise ValidationError(
                f"min_satisfiability must be in [0, 1), got {min_satisfiability}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        if exact_engine is not None and query_log is None:
            raise ValidationError("exact_engine requires a query_log to harvest into")
        self.name = name
        self._finder = finder
        self.cache_size = int(cache_size)
        self.min_satisfiability = float(min_satisfiability)
        self.max_proposals = max_proposals
        self.max_workers = max_workers
        self._query_log = query_log
        self._incremental_trainer = incremental_trainer
        self._exact_engine = exact_engine
        self._middleware: List[Middleware] = (
            list(middleware) if middleware is not None else default_chain()
        )
        self._obs = self._wire_observability(observability)
        if self._obs is not None:
            from repro.obs.runtime import instrument_chain, register_kernel

            # ``self._middleware`` keeps the bare stages (close()/repr/the
            # ``middleware`` property are unchanged); only the composed
            # handler runs the instrumented copies.
            self._handler = compose(instrument_chain(self._middleware, self._obs))
            register_kernel(self._obs, self)
        else:
            self._handler = compose(self._middleware)
        # Keyed by (normalised query, effective max_proposals): requests for
        # the same threshold under different proposal caps never share results.
        self._cache: "OrderedDict[tuple, RegionSearchResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._stats = ServiceStats()
        self._generation = 0
        self._log_cursor = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _wire_observability(self, observability):
        """Resolve the ``observability`` option against the middleware chain.

        An explicit ``Trace`` stage in a custom chain wins (its bundle is
        adopted); otherwise a truthy option prepends one.  Returns the active
        :class:`~repro.obs.runtime.Observability`, or ``None`` when the
        kernel serves uninstrumented.
        """
        trace_stage = next(
            (
                stage
                for stage in self._middleware
                if getattr(stage, "obs_trace_stage", False)
            ),
            None,
        )
        if observability is None or observability is False:
            return trace_stage.observability if trace_stage is not None else None
        from repro.obs.runtime import Observability, Trace

        obs = Observability.coerce(observability)
        if trace_stage is None:
            self._middleware.insert(0, Trace(obs))
        elif trace_stage.observability is not obs:
            raise ValidationError(
                "the middleware chain already carries a Trace stage with a "
                "different Observability; configure one or the other"
            )
        return obs

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_bundle(cls, path, **options) -> "ServiceKernel":
        """Build a kernel straight from an artifact bundle on disk.

        Unknown options raise :class:`~repro.exceptions.ValidationError`
        naming the bad key *before* the bundle is loaded.
        """
        check_service_options(options, where="ServiceKernel.from_bundle")
        return cls(SuRF.load(path), **options)

    # ------------------------------------------------------------------ introspection
    @property
    def finder(self) -> SuRF:
        """The finder currently being served (a new object after each swap)."""
        return self._finder

    @property
    def query_log(self):
        """The wired :class:`~repro.online.QueryLog` (``None`` when offline-only)."""
        return self._query_log

    @property
    def middleware(self) -> Tuple[Middleware, ...]:
        """The chain this kernel runs (immutable view; first = outermost)."""
        return tuple(self._middleware)

    @property
    def observability(self):
        """The active :class:`repro.obs.Observability`, or ``None``."""
        return self._obs

    @property
    def generation(self) -> int:
        """How many model swaps this kernel has performed (0 = as constructed)."""
        with self._lock:
            return self._generation

    def _snapshot(self) -> Tuple[SuRF, int]:
        """Atomically capture the (finder, generation) pair being served."""
        with self._lock:
            return self._finder, self._generation

    def _uses_shared_generator(self, finder: Optional[SuRF] = None) -> bool:
        """Whether the finder draws from a caller-owned live ``Generator``.

        Such a stream is shared, mutable and not thread-safe, so the execute
        stage submits such a finder's runs one at a time.
        """
        if finder is None:
            finder = self._finder
        parameters = finder.gso_parameters
        return isinstance(finder.random_state, np.random.Generator) or (
            parameters is not None and isinstance(parameters.random_state, np.random.Generator)
        )

    def _submit(self, fn, *args) -> Future:
        """Submit one run to the kernel's pool, building the pool on first use.

        Submission holds the pool lock, so a concurrent :meth:`close` never
        retires the pool between this call finding it and queueing the run.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers or os.cpu_count() or 1,
                    thread_name_prefix="repro-run",
                )
            return self._pool.submit(fn, *args)

    # ------------------------------------------------------------------ cache internals
    def _cache_get(self, key) -> Optional[RegionSearchResult]:
        """LRU lookup; caller must hold the lock."""
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
        return result

    def _cache_put(self, key, result: RegionSearchResult, generation: int) -> None:
        """LRU insert with eviction; caller must hold the lock.

        A result computed against a finder generation that has since been
        swapped out is dropped: caching it would resurrect the stale model's
        answers after the refresh already invalidated them.
        """
        if self.cache_size == 0 or generation != self._generation:
            if generation != self._generation and self._obs is not None:
                self._obs.cache_evictions.labels(self.name).inc()
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop every cached result (stats are kept)."""
        with self._lock:
            self._cache.clear()

    @property
    def cached_queries(self) -> int:
        """Number of results currently held in the cache."""
        with self._lock:
            return len(self._cache)

    @property
    def stats(self) -> ServiceStats:
        """A snapshot copy of the serving counters."""
        with self._lock:
            return replace(self._stats)

    def reset_stats(self) -> None:
        """Zero all counters (the cache is untouched)."""
        with self._lock:
            self._stats = ServiceStats()

    # ------------------------------------------------------------------ serving
    def _coerce_request(self, request: Union[FindRequest, RegionQuery]) -> FindRequest:
        if isinstance(request, FindRequest):
            return request
        if isinstance(request, RegionQuery):
            return FindRequest.from_query(request, model=self.name)
        raise ValidationError(
            f"expected a FindRequest or RegionQuery, got {type(request)!r}"
        )

    def serve(self, ctx: BatchContext) -> BatchContext:
        """Run a prepared context through the middleware chain (advanced use)."""
        return self._handler(ctx)

    def handle(self, request: Union[FindRequest, RegionQuery]) -> FindResponse:
        """Serve a single request through the middleware chain.

        Concurrent callers racing on the *same* uncached query may each run
        the optimiser (the results are identical); use :meth:`handle_batch`
        to coalesce known-duplicate requests.
        """
        start = perf_counter()
        request = self._coerce_request(request)
        ctx = BatchContext(self, [request])
        self._handler(ctx)
        state = ctx.states[0]
        # A lone request's latency is the whole call, matching the historical
        # single-query path (batch members report per-stage shares instead).
        state.elapsed_seconds = perf_counter() - start
        return self._response(state, ctx)

    def handle_batch(
        self, requests: Sequence[Union[FindRequest, RegionQuery]]
    ) -> List[FindResponse]:
        """Serve many requests at once, sharing work across them.

        Identical misses are coalesced — each distinct query runs GSO exactly
        once and every duplicate shares the result — and the distinct runs
        overlap on the kernel's run pool.  Responses come back in input order
        and are bit-identical to sequential :meth:`handle` calls under a fixed
        seed.
        The whole batch runs against the one finder generation captured at
        entry, even if a refresh lands mid-batch.
        """
        coerced = [self._coerce_request(request) for request in requests]
        ctx = BatchContext(self, coerced)
        self._handler(ctx)
        return [self._response(state, ctx) for state in ctx.states]

    def _response(self, state, ctx: BatchContext) -> FindResponse:
        proposals: Tuple[ProposalPayload, ...] = ()
        if state.result is not None and state.result.proposals:
            proposals = tuple(
                ProposalPayload.from_proposal(proposal) for proposal in state.result.proposals
            )
        return FindResponse(
            model=state.request.model,
            status=state.status,
            satisfiability=float(state.satisfiability),
            proposals=proposals,
            elapsed_seconds=float(state.elapsed_seconds),
            generation=int(ctx.generation),
            trace_id=state.trace_id,
            timing=state.timing,
            error=state.error,
            result=state.result,
        )

    # ------------------------------------------------------------------ online learning
    def _require_log(self):
        if self._query_log is None:
            raise ValidationError(
                "this service has no query log; construct it with query_log=QueryLog(...)"
            )
        return self._query_log

    def observe(self, region, value: float) -> None:
        """Record one externally observed exact evaluation into the query log."""
        self._require_log().record(region, value)
        with self._lock:
            self._stats.harvested += 1

    def observe_many(self, evaluations) -> None:
        """Record a batch of externally observed exact evaluations."""
        evaluations = list(evaluations)
        self._require_log().record_many(evaluations)
        with self._lock:
            self._stats.harvested += len(evaluations)

    @property
    def pending_log_entries(self) -> int:
        """Logged pairs not yet folded into the surrogate by a refresh."""
        if self._query_log is None:
            return 0
        with self._lock:
            cursor = self._log_cursor
        return max(0, self._query_log.total_recorded - cursor)

    def _ensure_incremental_trainer(self):
        if self._incremental_trainer is None:
            from repro.online.trainer import IncrementalTrainer

            self._incremental_trainer = IncrementalTrainer.from_finder(self._finder)
        return self._incremental_trainer

    def refresh(self, force_full: bool = False):
        """Fold freshly logged pairs into the surrogate and hot-swap the models.

        Drains the query log past the kernel's consumption cursor, hands the
        new pairs to the :class:`~repro.online.IncrementalTrainer` (warm-start
        rounds, or a full refit when drift was detected or ``force_full``),
        rebuilds the Eq. 5 satisfiability model from the enlarged sample, and
        atomically installs a **new finder object**: one pointer swap, a cache
        clear and a generation bump under the kernel lock.  In-flight queries
        complete against the generation they started with; their results are
        not cached.  With zero new pairs this is a strict no-op.  Concurrent
        refreshes are serialised on a dedicated lock.
        """
        self._require_log()
        with self._refresh_lock:
            trainer = self._ensure_incremental_trainer()
            with self._lock:
                cursor = self._log_cursor
            new_pairs, new_cursor = self._query_log.since(cursor)
            outcome = trainer.refresh(new_pairs, force_full=force_full)
            if outcome.mode == "noop":
                with self._lock:
                    self._log_cursor = new_cursor
                return outcome

            refreshed = self._swapped_finder(trainer)
            with self._lock:
                self._finder = refreshed
                self._generation += 1
                self._log_cursor = new_cursor
                evicted = len(self._cache)
                self._cache.clear()
                self._stats.refreshes += 1
                # Snapshot the counters so ``since_refresh`` reports the new
                # generation's behaviour from here on.
                self._stats.baseline = replace(self._stats, baseline=None)
            if evicted and self._obs is not None:
                self._obs.cache_evictions.labels(self.name).inc(evicted)
            return outcome

    def _swapped_finder(self, trainer) -> SuRF:
        """A new finder carrying the trainer's refreshed state.

        A shallow copy shares the immutable configuration (objective kind,
        GSO parameters, density model — the KDE describes the raw data, which
        the log cannot refresh) while the learned state is replaced wholesale.
        The solution space is re-inferred from the enlarged workload so the
        swarm can follow evaluations that drift beyond the original bounding
        box.
        """
        workload = trainer.workload
        refreshed = copy.copy(self._finder)
        refreshed.surrogate_ = trainer.surrogate
        refreshed.satisfiability_ = trainer.satisfiability
        refreshed.workload_features_ = workload.features
        refreshed.workload_targets_ = workload.targets
        refreshed.workload_size_ = len(workload)
        refreshed.solution_space_ = SolutionSpace.from_workload_features(
            workload.features,
            min_half_fraction=refreshed.min_half_fraction,
            max_half_fraction=refreshed.max_half_fraction,
        )
        return refreshed

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut the run pool down without waiting for it (idempotent).

        Queued runs are cancelled (their requesters read ``"error"``); runs
        already executing finish on their threads.  Any middleware exposing
        a ``close()`` method is closed too (the ``Trace`` stage flushes its
        JSONL sink).  The kernel stays usable: the next miss builds a fresh
        pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        for middleware in self._middleware:
            closer = getattr(middleware, "close", None)
            if callable(closer):
                closer()

    def __enter__(self) -> "ServiceKernel":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceKernel(name={self.name!r}, generation={self._generation}, "
            f"middleware={[getattr(m, 'name', type(m).__name__) for m in self._middleware]})"
        )


__all__ = ["ServiceKernel", "ServiceStats", "KERNEL_OPTIONS", "check_service_options"]
