"""The composable middleware chain the service kernel runs every batch through.

The PR 2–4 serving monolith hard-wired normalisation, the Eq. 5 gate, the LRU
cache, request coalescing, thread-pool execution and query-log harvesting into
one method.  Here each of those stages is a small **middleware** with one
uniform contract::

    class Middleware:
        name = "..."
        def __call__(self, ctx: BatchContext, next: Callable) -> BatchContext:
            ...            # inspect/transform ctx on the way in
            next(ctx)      # run the rest of the chain
            ...            # inspect/transform ctx on the way out
            return ctx

The default chain is ``Normalize → SatisfiabilityGate → Cache → Coalesce →
Execute → Harvest`` (:func:`default_chain`), and a deployment inserts rate
limiting, metrics or tracing by passing its own list to
:class:`~repro.api.kernel.ServiceKernel` — no core edits.  The stages
preserve the monolith's semantics bit for bit:

* the **gate** snapshots one ``(finder, generation)`` pair and probes Eq. 5
  against it; if a hot swap lands mid-probe, :class:`Cache` raises
  :class:`StaleGeneration` and the gate retries the downstream chain against
  the new model, so probabilities, cache hits and GSO runs always belong to a
  single model generation;
* the **cache** classifies the whole batch under one lock on the way in and
  re-inserts fresh results *generation-tagged* on the way out (a result
  computed against a superseded finder is dropped, never cached);
* **coalesce** groups identical misses so each distinct query runs GSO once;
* **execute** runs the distinct queries on the kernel's persistent thread
  pool (one at a time when the finder draws from a caller-owned live
  ``numpy`` ``Generator``, which is not thread-safe), with every run against
  the snapshot finder;
* **harvest** ground-truths served proposals into the query log when the
  kernel has an exact engine wired (the PR 3 online loop's input).
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.finder import RegionSearchResult, SuRF
from repro.core.query import RegionQuery
from repro.api.envelopes import FindRequest
from repro.exceptions import ValidationError
from repro.utils.validation import canonical_float


class StaleGeneration(Exception):
    """Internal control-flow signal: a hot swap landed between the Eq. 5 probe
    and the cache classification; the gate retries against the new model."""


def normalize_query(query: RegionQuery) -> RegionQuery:
    """Canonical form of a query, used as the cache key.

    Numeric fields are coerced to plain Python floats and rounded to 12
    significant digits (:func:`repro.utils.validation.canonical_float`), so a
    ``numpy.float64`` threshold, its float twin and a value carrying relative
    noise below ~1e-13 all hit the same cache entry.  Idempotent.
    """
    if not isinstance(query, RegionQuery):
        raise ValidationError(f"expected a RegionQuery, got {type(query)!r}")
    return RegionQuery(
        threshold=canonical_float(query.threshold),
        direction=query.direction,
        size_penalty=canonical_float(query.size_penalty),
    )


_NAN = float("nan")


#: Statuses decided *before* the satisfiability gate snapshots a model
#: generation (today: rate limiting).  They survive a :class:`StaleGeneration`
#: retry — the verdict did not depend on the superseded model — and the gate,
#: cache and execute stage all skip states carrying one.
PRE_GATE_STATUSES = frozenset({"throttled"})


class RequestState:
    """Mutable per-request slot inside a :class:`BatchContext`.

    ``__slots__``-based: the cached-hit path touches several of these fields
    per request and the benchmark holds the whole chain to <= 10% overhead
    over the PR 4 monolith.  ``deadline`` is an absolute expiry time on the
    deadline stage's clock (``None`` = unbounded); ``error`` carries the short
    exception text for ``"error"`` verdicts.
    """

    __slots__ = (
        "request",
        "query",
        "status",
        "satisfiability",
        "result",
        "elapsed_seconds",
        "deadline",
        "error",
        "trace_id",
        "timing",
    )

    def __init__(self, request: FindRequest):
        self.request = request
        self.query: Optional[RegionQuery] = None  # normalised by Normalize
        self.status = ""
        self.satisfiability = _NAN
        self.result: Optional[RegionSearchResult] = None
        self.elapsed_seconds = 0.0
        self.deadline: Optional[float] = None  # set by admission.Deadline
        self.error: Optional[str] = None
        # The id echoed on the response: the request's own, or one minted by
        # the Trace stage when observability is on (never the leader's — a
        # coalesced follower keeps its identity).
        self.trace_id: Optional[str] = request.trace_id
        self.timing: Optional[Dict[str, float]] = None  # opt-in obs breakdown

    def cache_key(self, kernel) -> Tuple[RegionQuery, Optional[int]]:
        """Cache/coalescing identity: the normalised query plus the effective
        proposal cap (a per-request ``max_proposals`` must never share a run
        with a differently-capped duplicate of the same query)."""
        cap = self.request.max_proposals
        return (self.query, cap if cap is not None else kernel.max_proposals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RequestState(status={self.status!r}, query={self.query!r})"


class BatchContext:
    """Everything one batch carries through the middleware chain.

    ``kernel`` is the owning :class:`~repro.api.kernel.ServiceKernel` (locks,
    cache, stats, config).  ``finder``/``generation`` are the model snapshot
    the gate captured.  ``pending`` is the coalescing map: each distinct
    uncached query → the request indices that asked for it.  ``extras`` is a
    free-form dict for custom middlewares (metrics, tracing, deadlines).
    """

    __slots__ = (
        "kernel",
        "states",
        "finder",
        "generation",
        "pending",
        "batch_start",
        "classify_seconds",
        "_extras",
    )

    def __init__(self, kernel, requests: Sequence[FindRequest]):
        self.kernel = kernel
        self.states: List[RequestState] = [RequestState(request) for request in requests]
        self.finder: Optional[SuRF] = None
        self.generation: int = -1
        self.pending: Dict[tuple, List[int]] = {}
        self.batch_start: float = time.perf_counter()
        self.classify_seconds: float = 0.0
        self._extras: Optional[dict] = None

    @property
    def extras(self) -> dict:
        """Free-form scratch space for custom middlewares (lazily allocated)."""
        if self._extras is None:
            self._extras = {}
        return self._extras

    def __len__(self) -> int:
        return len(self.states)

    def reset_classification(self) -> None:
        """Forget per-generation work so the gate can retry on a new snapshot.

        Pre-gate verdicts (:data:`PRE_GATE_STATUSES`, e.g. ``"throttled"``)
        are kept: they were decided before any model snapshot was taken, so a
        hot swap cannot invalidate them.  Deadlines are kept too — the budget
        clock keeps running across a generation retry.
        """
        for state in self.states:
            if state.status in PRE_GATE_STATUSES:
                continue
            state.status = ""
            state.satisfiability = _NAN
            state.result = None
            state.error = None
        self.pending = {}


Next = Callable[[BatchContext], BatchContext]


@runtime_checkable
class Middleware(Protocol):
    """The uniform middleware contract (any ``(ctx, next)`` callable works)."""

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:  # pragma: no cover
        ...


def compose(chain: Sequence[Middleware]) -> Next:
    """Fold a middleware list into one handler (first element outermost)."""
    chain = list(chain)
    for position, middleware in enumerate(chain):
        if not callable(middleware):
            raise ValidationError(
                f"middleware at position {position} is not callable: {middleware!r}"
            )

    def terminal(ctx: BatchContext) -> BatchContext:
        return ctx

    handler: Next = terminal
    for middleware in reversed(chain):
        def step(ctx: BatchContext, mw=middleware, inner=handler) -> BatchContext:
            result = mw(ctx, inner)
            return ctx if result is None else result

        handler = step
    return handler


def _obs_of(ctx: BatchContext):
    """The batch's (Observability, BatchRecorder) pair, or ``(None, None)``.

    Installed by the :class:`repro.obs.runtime.Trace` stage; duck-typed so
    this module never imports :mod:`repro.obs`.  One dict read on the
    uninstrumented path (and none when no middleware touched ``extras``).
    """
    extras = ctx._extras
    if extras is None:
        return None, None
    return extras.get("obs"), extras.get("obs_trace")


def run_query(finder: SuRF, query: RegionQuery, max_proposals: Optional[int], hook):
    """Execute one optimiser run; :class:`Execute` submits this to the kernel's pool.

    ``hook`` is a per-run profile (:class:`repro.obs.GSORunProfile`) or
    ``None``.  Returns ``(result, seconds, profile)`` where ``profile`` is the
    hook's summary, or ``None`` without a hook.
    """
    start = time.perf_counter()
    result = finder.find_regions(query, max_proposals=max_proposals, profile_hook=hook)
    seconds = time.perf_counter() - start
    return result, seconds, hook.summary() if hook is not None else None


# --------------------------------------------------------------------------- stages
class Normalize:
    """Canonicalise every request's query (the cache-key form).

    Built straight from the envelope fields — the request already carries
    validated numerics, so exactly one :class:`RegionQuery` is constructed
    per request (this is the cached-hit hot path).
    """

    name = "normalize"

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        for state in ctx.states:
            request = state.request
            # The envelope is frozen, so its canonical query is computed once
            # and interned on the instance — repeated queries (the cache-hit
            # traffic this layer exists for) skip re-normalisation entirely.
            query = getattr(request, "_normalized", None)
            if query is None:
                query = RegionQuery(
                    threshold=canonical_float(request.threshold),
                    direction=request.direction,
                    size_penalty=canonical_float(request.size_penalty),
                )
                object.__setattr__(request, "_normalized", query)
            state.query = query
        return next(ctx)


class SatisfiabilityGate:
    """Snapshot one model generation, probe Eq. 5, and mark hopeless queries.

    The probe runs outside the kernel lock (it is an ``O(log W)`` read on an
    immutable model object); :class:`Cache` re-verifies the generation under
    the lock and raises :class:`StaleGeneration` if a refresh swapped models
    mid-probe, in which case this stage retries the whole downstream chain on
    the new snapshot — an old-generation probability is never paired with a
    new-generation cached result.
    """

    name = "satisfiability-gate"

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        kernel = ctx.kernel
        while True:
            ctx.finder, ctx.generation = kernel._snapshot()
            for state in ctx.states:
                if state.status:  # pre-gate verdict (throttled): skip the probe
                    continue
                state.satisfiability = ctx.finder.satisfiability(state.query)
                if state.satisfiability <= kernel.min_satisfiability:
                    state.status = "rejected"
            try:
                return next(ctx)
            except StaleGeneration:
                _obs, recorder = _obs_of(ctx)
                if recorder is not None:
                    recorder.generation_retry(ctx, ctx.generation)
                ctx.reset_classification()


class Cache:
    """LRU lookup on the way in, generation-tagged insert on the way out.

    The whole batch is classified under **one** lock acquisition: rejected
    queries are counted, cached queries answered, and misses marked
    ``"served"`` — atomically against any concurrent refresh.  After the rest
    of the chain has produced results, fresh entries are inserted under the
    lock with the snapshot's generation tag; :meth:`ServiceKernel._cache_put`
    drops results belonging to a superseded generation.
    """

    name = "cache"

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        kernel = ctx.kernel
        with kernel._lock:
            if kernel._generation != ctx.generation:
                raise StaleGeneration()
            stats = kernel._stats
            cache_get = kernel._cache_get
            default_cap = kernel.max_proposals
            for state in ctx.states:
                stats.queries += 1
                if state.status == "rejected":
                    stats.rejected += 1
                    continue
                if state.status:  # pre-gate verdict (throttled): count, skip lookup
                    stats.throttled += 1
                    continue
                cap = state.request.max_proposals
                cached = cache_get((state.query, cap if cap is not None else default_cap))
                if cached is not None:
                    stats.cache_hits += 1
                    state.status = "cached"
                    state.result = cached
                    continue
                stats.cache_misses += 1
                state.status = "served"
        next(ctx)
        if ctx.pending:
            with kernel._lock:
                for key, indices in ctx.pending.items():
                    result = ctx.states[indices[0]].result
                    if result is not None:
                        kernel._cache_put(key, result, ctx.generation)
        return ctx


class Coalesce:
    """Group identical misses: each distinct query runs GSO exactly once."""

    name = "coalesce"

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        kernel = ctx.kernel
        pending: Optional[Dict[tuple, List[int]]] = None
        duplicates = 0
        for index, state in enumerate(ctx.states):
            if state.status == "served" and state.result is None:
                if pending is None:
                    pending = {}
                key = state.cache_key(kernel)
                if key in pending:
                    duplicates += 1
                    pending[key].append(index)
                else:
                    pending[key] = [index]
        if pending is not None:
            ctx.pending = pending
        if duplicates:
            with kernel._lock:
                kernel._stats.coalesced += duplicates
            _obs, recorder = _obs_of(ctx)
            if recorder is not None:
                recorder.note_coalesced(ctx)
        return next(ctx)


class Execute:
    """Run every distinct pending query against the snapshot finder.

    Every run goes through the kernel's one persistent thread pool
    (:meth:`~repro.api.kernel.ServiceKernel._submit`).  The distinct queries
    are submitted together, so they overlap as far as NumPy releases the
    GIL, and are collected in batch order; seeded runs stay bit-identical to
    sequential execution because each run derives its RNG stream from the
    finder's configured seed.  A finder seeded with a live ``numpy``
    ``Generator`` — shared, mutable, not thread-safe — has its runs submitted
    one at a time instead, each once the previous one has returned or been
    abandoned.

    The stage is **fault-isolating and deadline-aware**:

    * a run that raises marks only its own requesters ``"error"`` (the
      exception text on ``state.error``), removes the query from
      ``ctx.pending`` so nothing is cached or harvested for it, and leaves
      every other request in the batch untouched;
    * requests whose :class:`~repro.api.admission.Deadline` budget expired
      before their run started are marked ``"timeout"`` without running at
      all; a run that has not returned by the *latest* deadline among its
      coalesced requesters is abandoned and its requesters marked
      ``"timeout"`` — again with no cache write.  An abandoned run that is
      still queued is cancelled; a running one keeps its pool worker until
      it returns, so stalls hold at most the pool's width of threads.
      Without a deadline stage in the chain nothing changes.

    ``gso_runs`` / ``timeouts`` / ``errors`` counters are accumulated locally
    per batch and folded into :class:`~repro.api.kernel.ServiceStats` under
    one lock acquisition at the end — worker threads never touch the shared
    counters (see the concurrent-increment regression test in
    ``tests/unit/test_api.py``).
    """

    name = "execute"

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        # Rejected/cached/throttled responses cost one classification-loop
        # share each, not the whole batch's wall clock.
        ctx.classify_seconds = time.perf_counter() - ctx.batch_start
        per_query_seconds = ctx.classify_seconds / (len(ctx.states) or 1)
        for state in ctx.states:
            if state.status != "served":  # rejected, cached or throttled
                state.elapsed_seconds = per_query_seconds

        if ctx.pending:
            self._run_pending(ctx)
        return next(ctx)

    # ------------------------------------------------------------------ the run loop
    def _run_pending(self, ctx: BatchContext) -> None:
        kernel = ctx.kernel
        clock = (
            ctx._extras.get("deadline_clock", time.monotonic)
            if ctx._extras is not None
            else time.monotonic
        )
        obs, recorder = _obs_of(ctx)
        runs = timeouts = errors = 0

        def give_up(key, indices, status, message=None) -> None:
            ctx.pending.pop(key, None)
            batch_seconds = time.perf_counter() - ctx.batch_start
            for index in indices:
                state = ctx.states[index]
                state.status = status
                state.result = None
                state.error = message
                state.elapsed_seconds = batch_seconds

        # Queue-wait expiry: a query every requester has already given up on
        # is never run at all.
        runnable = []
        now = clock()
        for key, indices in list(ctx.pending.items()):
            states = [ctx.states[index] for index in indices]
            if states and all(
                state.deadline is not None and now >= state.deadline for state in states
            ):
                give_up(key, indices, "timeout")
                timeouts += len(indices)
            else:
                runnable.append((key, indices))

        def launch(item):
            (query, max_proposals), _indices = item
            hook = obs.run_profiler() if obs is not None else None
            return kernel._submit(run_query, ctx.finder, query, max_proposals, hook)

        # ``map`` is lazy: a shared live Generator gets each run submitted
        # only when the loop below reaches it.
        futures = map(launch, runnable)
        if not kernel._uses_shared_generator(ctx.finder):
            futures = list(futures)
        for (key, indices), future in zip(runnable, futures):
            deadlines = [ctx.states[index].deadline for index in indices]
            # The run is waited on until the *latest* requester gives up; a
            # single unbounded requester keeps the wait unbounded.
            wait_seconds = None
            if deadlines and all(deadline is not None for deadline in deadlines):
                wait_seconds = max(0.0, max(deadlines) - clock())
            try:
                result, seconds, profile = future.result(timeout=wait_seconds)
            except FuturesTimeoutError:
                future.cancel()  # dequeues a run that never started
                give_up(key, indices, "timeout")
                timeouts += len(indices)
                continue
            except Exception as exc:  # noqa: BLE001 - isolated per request
                give_up(key, indices, "error", f"{type(exc).__name__}: {exc}")
                errors += len(indices)
                continue
            runs += 1
            if obs is not None:
                obs.record_gso_run(ctx.states[indices[0]].request.model, result)
                if recorder is not None:
                    recorder.run_span(indices, seconds, result, profile)
            timeouts += self._deliver(ctx, key, indices, result, seconds, clock)

        if runs or timeouts or errors:
            with kernel._lock:
                stats = kernel._stats
                stats.gso_runs += runs
                stats.timeouts += timeouts
                stats.errors += errors

    def _deliver(self, ctx, key, indices, result, seconds, clock) -> int:
        """Assign a completed run to its requesters, expiring late deadlines.

        Returns the number of requesters marked ``"timeout"``.  If *every*
        requester's deadline has passed the key is dropped from
        ``ctx.pending`` so the late result is never cached or harvested.
        """
        now = clock()
        delivered = timeouts = 0
        for index in indices:
            state = ctx.states[index]
            if state.deadline is not None and now > state.deadline:
                state.status = "timeout"
                state.result = None
                state.elapsed_seconds = seconds
                timeouts += 1
            else:
                state.result = result
                state.elapsed_seconds = seconds
                delivered += 1
        if delivered == 0:
            ctx.pending.pop(key, None)
        return timeouts


class Harvest:
    """Ground-truth served proposals into the query log (online loop input).

    Runs only when the kernel has both an ``exact_engine`` and a
    ``query_log``; each fresh GSO run's proposals are evaluated *exactly* and
    the finite ``([x, l], y)`` pairs recorded — the deliberate exception to
    "no data access at query time" (opt-in, feeds only the log; responses
    still report surrogate predictions).  Unlike the PR 4 monolith, which
    harvested inside each worker thread, harvesting happens *after* the
    batch's runs complete, in batch order — the log's contents are identical
    but deterministically ordered, harvest cost no longer counts against
    per-query ``elapsed_seconds``, and a parallel-capable ``exact_engine``
    (e.g. sharded) still fans each ``evaluate_many`` out internally.
    """

    name = "harvest"

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        kernel = ctx.kernel
        if kernel._exact_engine is not None and kernel._query_log is not None and ctx.pending:
            from repro.surrogate.workload import RegionEvaluation

            harvested = 0
            for _key, indices in ctx.pending.items():
                result = ctx.states[indices[0]].result
                if result is None or not result.proposals:
                    continue
                regions = [proposal.region for proposal in result.proposals]
                values = np.asarray(
                    kernel._exact_engine.evaluate_many(regions), dtype=np.float64
                )
                finite = np.isfinite(values)
                kernel._query_log.record_many(
                    [
                        RegionEvaluation(region, float(value))
                        for region, value, keep in zip(regions, values, finite)
                        if keep
                    ]
                )
                harvested += int(finite.sum())
            if harvested:
                with kernel._lock:
                    kernel._stats.harvested += harvested
        return next(ctx)


def default_chain() -> List[Middleware]:
    """The standard pipeline: Normalize → Gate → Cache → Coalesce → Execute → Harvest."""
    return [Normalize(), SatisfiabilityGate(), Cache(), Coalesce(), Execute(), Harvest()]


__all__ = [
    "BatchContext",
    "RequestState",
    "Middleware",
    "StaleGeneration",
    "PRE_GATE_STATUSES",
    "compose",
    "default_chain",
    "normalize_query",
    "run_query",
    "Normalize",
    "SatisfiabilityGate",
    "Cache",
    "Coalesce",
    "Execute",
    "Harvest",
]
