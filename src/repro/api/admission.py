"""Load-control middleware: deadlines, rate limiting and admission control.

The ROADMAP's "millions of users" north star means the front door must keep
answering — degraded, but bounded — when traffic exceeds what the swarm
optimiser can absorb.  These three stages slot into the PR 5 middleware chain
(each is a plain ``(ctx, next)`` callable) and turn overload into explicit
per-request verdicts instead of unbounded queueing:

* :class:`Deadline` — per-request latency budgets.  A request that cannot be
  answered inside its budget (either because it waited too long behind other
  work or because its GSO run stalled) comes back with status ``"timeout"``;
  its result, if one eventually materialises, is never cached.
* :class:`RateLimit` — a token bucket per tenant (or per any caller-chosen
  key).  Requests beyond the sustained rate are marked ``"throttled"``
  *before* the Eq. 5 probe, so a noisy tenant cannot burn satisfiability
  probes, cache slots or optimiser time.
* :class:`AdmissionControl` — a kernel-wide bound on concurrently executing
  GSO runs plus a bounded admission queue.  When a batch's distinct misses
  would push the in-flight count past the bound, the *lowest* Eq. 5
  satisfiability work is shed first (status ``"shed"``): under pressure the
  system spends its remaining capacity on the queries most likely to have
  satisfiable answers — the paper's Eq. 5 gate doubling as a load-shedding
  priority.

The canonical production order (see :func:`production_chain`) is::

    Normalize → RateLimit → SatisfiabilityGate → Deadline → Cache
              → Coalesce → AdmissionControl → Execute → Harvest

RateLimit sits before the gate (throttling must stay cheap), Deadline after
it (the budget clock starts once the request is admitted past the rate
limiter; its verdicts are applied inside the execute stage), and
AdmissionControl after Coalesce (shedding operates on *distinct* runs, and a
cached hit must never be shed).  Every stage takes an optional ``clock``
callable so tests can drive virtual time deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.api.envelopes import FindRequest
from repro.api.middleware import (
    BatchContext,
    Coalesce,
    Execute,
    Harvest,
    Middleware,
    Next,
    Normalize,
    SatisfiabilityGate,
    Cache,
)
from repro.exceptions import ValidationError

Clock = Callable[[], float]


# --------------------------------------------------------------------------- deadline
class Deadline:
    """Attach an absolute expiry time to every request in the batch.

    The stage itself only *stamps* ``state.deadline = now + budget`` (and
    publishes its clock in ``ctx.extras["deadline_clock"]``); enforcement
    lives in the execute stage, which skips runs every requester has given up
    on, abandons runs that stall past the latest requester's deadline, and
    refuses to deliver (or cache) results that arrive after a requester's
    budget.  A request's own ``deadline_seconds`` overrides the stage
    default; with neither, the request is unbounded.

    Parameters
    ----------
    default_budget:
        Budget in seconds applied to requests that carry no
        ``deadline_seconds`` of their own (``None`` = unbounded by default).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    name = "deadline"

    def __init__(self, default_budget: Optional[float] = None, clock: Clock = time.monotonic):
        if default_budget is not None and not default_budget > 0.0:
            raise ValidationError(f"default_budget must be > 0, got {default_budget}")
        self.default_budget = default_budget
        self._clock = clock

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        now = self._clock()
        stamped = False
        for state in ctx.states:
            if state.deadline is not None:
                # Already stamped (a generation retry re-enters the chain):
                # the original budget keeps running, it is never extended.
                stamped = True
                continue
            budget = state.request.deadline_seconds
            if budget is None:
                budget = self.default_budget
            if budget is not None:
                state.deadline = now + budget
                stamped = True
        if stamped:
            ctx.extras["deadline_clock"] = self._clock
        return next(ctx)


# --------------------------------------------------------------------------- rate limit
class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second up to ``capacity``.

    The conservation law (asserted by the Hypothesis suite): tokens granted
    can never exceed the initial burst capacity plus what the elapsed time
    refilled — ``granted <= capacity + rate * elapsed``.
    """

    def __init__(self, rate: float, capacity: float, clock: Clock = time.monotonic):
        if not rate > 0.0:
            raise ValidationError(f"rate must be > 0, got {rate}")
        if not capacity >= 1.0:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.granted = 0
        self.denied = 0
        self._clock = clock
        self._tokens = float(capacity)
        self._updated = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._updated)
            self._updated = now
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.granted += 1
                return True
            self.denied += 1
            return False

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (refilled as of now)."""
        with self._lock:
            elapsed = max(0.0, self._clock() - self._updated)
            return min(self.capacity, self._tokens + elapsed * self.rate)


def _tenant_key(request: FindRequest) -> str:
    return request.model


class RateLimit:
    """Per-key token-bucket throttling, keyed per tenant by default.

    Sits *before* the satisfiability gate: a throttled request never probes
    Eq. 5, never touches the cache and never runs the optimiser — its verdict
    (status ``"throttled"``) is decided outside any model snapshot and
    therefore survives generation retries.  One bucket is kept per key
    (default: the request's ``model``), created on first sight.

    Parameters
    ----------
    rate:
        Sustained tokens/second granted per key.
    capacity:
        Burst size (defaults to ``max(rate, 1)``).
    key:
        ``request -> str`` grouping function (default: tenant name).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    name = "rate-limit"

    def __init__(
        self,
        rate: float,
        capacity: Optional[float] = None,
        key: Callable[[FindRequest], str] = _tenant_key,
        clock: Clock = time.monotonic,
    ):
        if not rate > 0.0:
            raise ValidationError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else max(self.rate, 1.0)
        if not self.capacity >= 1.0:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self._key = key
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def bucket(self, key: str) -> TokenBucket:
        """The bucket for ``key`` (created on first use)."""
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.capacity, clock=self._clock)
                self._buckets[key] = bucket
            return bucket

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        for state in ctx.states:
            if not self.bucket(self._key(state.request)).try_acquire():
                state.status = "throttled"
        return next(ctx)


# --------------------------------------------------------------------------- admission
class AdmissionControl:
    """Bound concurrent optimiser work; shed the least-satisfiable work first.

    Tracks the number of distinct GSO runs currently executing across *all*
    batches of the kernel this stage is installed in.  A new batch may admit
    at most ``max_inflight + max_queue - currently_inflight`` additional
    distinct runs; anything beyond that is shed **lowest Eq. 5 satisfiability
    first** — under pressure, capacity goes to the queries most likely to
    have answers (the probabilities were just computed by the gate, so
    prioritising on them is free).

    Shed requests get status ``"shed"``, are removed from the coalescing map
    (so they are never executed, cached or harvested) and count into the
    ``shed`` stat.  Cached hits, rejections and throttles are never shed —
    this stage runs after classification and only touches pending misses.
    """

    name = "admission-control"

    def __init__(self, max_inflight: int = 8, max_queue: int = 8):
        if max_inflight < 1:
            raise ValidationError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValidationError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self._inflight = 0
        self._lock = threading.Lock()

    def __call__(self, ctx: BatchContext, next: Next) -> BatchContext:
        if not ctx.pending:
            return next(ctx)
        capacity = self.max_inflight + self.max_queue
        obs = ctx._extras.get("obs") if ctx._extras is not None else None
        with self._lock:
            available = max(0, capacity - self._inflight)
            admitted = min(len(ctx.pending), available)
            self._inflight += admitted
            inflight_now = self._inflight
        if obs is not None:
            obs.admission_inflight.labels(ctx.kernel.name).set(inflight_now)
        try:
            overflow = len(ctx.pending) - admitted
            if overflow > 0:
                self._shed(ctx, overflow)
            return next(ctx)
        finally:
            with self._lock:
                self._inflight -= admitted
                inflight_now = self._inflight
            if obs is not None:
                obs.admission_inflight.labels(ctx.kernel.name).set(inflight_now)

    def _shed(self, ctx: BatchContext, overflow: int) -> None:
        # Keep the highest-probability distinct runs; shed the rest.  Ties
        # break on insertion order (later arrivals shed first).
        ranked: List[tuple] = sorted(
            enumerate(ctx.pending.items()),
            key=lambda item: (
                min(ctx.states[index].satisfiability for index in item[1][1]),
                -item[0],
            ),
        )
        shed_count = 0
        batch_seconds = time.perf_counter() - ctx.batch_start
        extras = ctx._extras
        obs = extras.get("obs") if extras is not None else None
        recorder = extras.get("obs_trace") if extras is not None else None
        for _position, (key, indices) in ranked[:overflow]:
            del ctx.pending[key]
            for index in indices:
                state = ctx.states[index]
                state.status = "shed"
                state.result = None
                state.elapsed_seconds = batch_seconds
                shed_count += 1
                if obs is not None:
                    obs.shed_total.labels(state.request.model, "overload").inc()
                if recorder is not None:
                    recorder.event(
                        index, "shed",
                        reason="overload",
                        satisfiability=float(state.satisfiability),
                    )
        if shed_count:
            kernel = ctx.kernel
            with kernel._lock:
                kernel._stats.shed += shed_count


# --------------------------------------------------------------------------- chains
def production_chain(
    *,
    rate_limit: Optional[RateLimit] = None,
    deadline: Optional[Deadline] = None,
    admission: Optional[AdmissionControl] = None,
    observability=None,
) -> List[Middleware]:
    """The serving chain with the load-control stages in canonical positions.

    Any stage left ``None`` is simply omitted (with all three ``None`` this
    degenerates to :func:`~repro.api.middleware.default_chain`).  Pass
    ``observability=True`` (or a configured :class:`repro.obs.Observability`)
    to prepend the tracing stage — the outermost position, so every other
    stage's latency lands in its span tree.  GSO runs execute on the
    kernel's run pool, whichever chain is installed.
    """
    chain: List[Middleware] = []
    if observability is not None and observability is not False:
        from repro.obs.runtime import Trace

        chain.append(Trace(observability))
    chain.append(Normalize())
    if rate_limit is not None:
        chain.append(rate_limit)
    chain.append(SatisfiabilityGate())
    if deadline is not None:
        chain.append(deadline)
    chain.append(Cache())
    chain.append(Coalesce())
    if admission is not None:
        chain.append(admission)
    chain.append(Execute())
    chain.append(Harvest())
    return chain


__all__ = [
    "Deadline",
    "TokenBucket",
    "RateLimit",
    "AdmissionControl",
    "production_chain",
]
