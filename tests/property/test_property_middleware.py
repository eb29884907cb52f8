"""Property tests for the serving-under-load middleware laws.

Four families of invariants, all driven deterministically (virtual clocks, an
instant finder) so Hypothesis can explore hundreds of schedules without ever
paying for a real GSO run:

1. **Chain composition** — ``compose`` is an onion: stages enter in list
   order and unwind in reverse, every stage sees the same context object,
   and composition is associative (composing a prefix with the composed
   suffix behaves like composing the whole list).
2. **Extras isolation** — ``ctx.extras`` starts empty for every batch; junk
   written by one batch's middleware is never visible to the next batch.
3. **Deadline monotonicity** — with the chain consuming ``advance`` virtual
   seconds before execution, a request times out *iff* its budget is at most
   ``advance``; in particular, if a budget ``T`` times out then every budget
   ``T' <= T`` times out too (shrinking a budget can never un-time-out a
   request).
4. **Token-bucket conservation** — over any schedule of acquisitions and
   clock advances, ``granted <= capacity + rate * elapsed`` (you cannot be
   granted more than the initial burst plus what time refilled), grants plus
   denials account for every attempt, and the available balance stays within
   ``[0, capacity]``.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Deadline,
    FindRequest,
    ServiceKernel,
    TokenBucket,
    compose,
    production_chain,
)
from repro.core.finder import SuRF


# --------------------------------------------------------------------------- helpers
class InstantFinder(SuRF):
    """Returns a canned result instantly — execution cost drops to ~0."""

    def find_regions(self, query, max_proposals=None, profile_hook=None):
        return self.canned


@pytest.fixture(scope="module")
def instant_surf(fitted_surf, density_query):
    canned = fitted_surf.find_regions(density_query)
    fast = copy.copy(fitted_surf)
    fast.__class__ = InstantFinder
    fast.canned = canned
    return fast


class VirtualClock:
    """Replays a scripted sequence of times, then repeats the last one."""

    def __init__(self, times):
        self._times = list(times)

    def __call__(self) -> float:
        if len(self._times) > 1:
            return self._times.pop(0)
        return self._times[0]


class Recorder:
    """Middleware that logs its enter/exit order into a shared trace."""

    def __init__(self, label, trace):
        self.label = label
        self.trace = trace

    def __call__(self, ctx, next):
        self.trace.append(("enter", self.label))
        result = next(ctx)
        self.trace.append(("exit", self.label))
        return result


# --------------------------------------------------------------------------- composition laws
class TestComposition:
    @given(size=st.integers(min_value=0, max_value=8))
    def test_chain_is_an_onion(self, size):
        trace = []
        handler = compose([Recorder(i, trace) for i in range(size)])
        ctx = object()
        assert handler(ctx) is ctx  # terminal returns the same context
        entered = [label for kind, label in trace if kind == "enter"]
        exited = [label for kind, label in trace if kind == "exit"]
        assert entered == list(range(size))
        assert exited == list(reversed(range(size)))

    @given(size=st.integers(min_value=1, max_value=8), split=st.integers(min_value=0, max_value=8))
    def test_composition_is_associative(self, size, split):
        split = min(split, size)
        labels = list(range(size))
        flat_trace = []
        compose([Recorder(i, flat_trace) for i in labels])(object())

        nested_trace = []
        suffix = compose([Recorder(i, nested_trace) for i in labels[split:]])

        class Bridge:
            def __call__(self, ctx, next):
                suffix(ctx)
                return next(ctx)

        compose([Recorder(i, nested_trace) for i in labels[:split]] + [Bridge()])(object())
        # The bridge runs the suffix inside the prefix's onion: the enter
        # order (all that matters for stage semantics) is identical.
        assert [t for t in flat_trace if t[0] == "enter"] == [
            t for t in nested_trace if t[0] == "enter"
        ]

    def test_every_stage_sees_the_same_context(self):
        seen = []

        class Witness:
            def __call__(self, ctx, next):
                seen.append(ctx)
                return next(ctx)

        sentinel = object()
        compose([Witness(), Witness(), Witness()])(sentinel)
        assert all(ctx is sentinel for ctx in seen)


# --------------------------------------------------------------------------- extras isolation
class TestExtrasIsolation:
    @given(batches=st.integers(min_value=2, max_value=6))
    @settings(max_examples=20)
    def test_extras_start_empty_for_every_batch(self, instant_surf, density_query, batches):
        observed = []

        class Contaminator:
            name = "contaminator"

            def __call__(self, ctx, next):
                observed.append(dict(ctx.extras))
                ctx.extras["junk"] = ctx.extras.get("junk", 0) + 1
                return next(ctx)

        chain = production_chain()
        chain.insert(1, Contaminator())
        kernel = ServiceKernel(instant_surf, middleware=chain, cache_size=0)
        for step in range(batches):
            kernel.handle(FindRequest(threshold=density_query.threshold * (1 + step)))
        assert len(observed) >= batches
        assert all(snapshot == {} for snapshot in observed)


# --------------------------------------------------------------------------- deadline monotonicity
class TestDeadlineMonotonicity:
    def outcome(self, instant_surf, density_query, budget, advance):
        clock = VirtualClock([0.0, advance])
        chain = production_chain(deadline=Deadline(clock=clock))
        kernel = ServiceKernel(instant_surf, middleware=chain, cache_size=0)
        response = kernel.handle(
            FindRequest(threshold=density_query.threshold, deadline_seconds=budget)
        )
        return response.status

    @given(
        advance=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        budget=st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_timeout_exactly_when_budget_consumed(
        self, instant_surf, density_query, advance, budget
    ):
        status = self.outcome(instant_surf, density_query, budget, advance)
        assert status == ("timeout" if advance >= budget else "served")

    @given(
        advance=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        budgets=st.lists(
            st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=4,
        ),
    )
    @settings(max_examples=25)
    def test_shrinking_a_budget_never_revives_a_timeout(
        self, instant_surf, density_query, advance, budgets
    ):
        outcomes = [
            (budget, self.outcome(instant_surf, density_query, budget, advance))
            for budget in sorted(budgets)
        ]
        # Walking budgets upward, once a request stops timing out it never
        # starts again — the verdict is monotone in the budget.
        timed_out = [status == "timeout" for _budget, status in outcomes]
        first_ok = timed_out.index(False) if False in timed_out else len(timed_out)
        assert all(timed_out[:first_ok])
        assert not any(timed_out[first_ok:])


# --------------------------------------------------------------------------- token bucket conservation
acquire_or_advance = st.one_of(
    st.just(("acquire",)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
)


class TestTokenBucketConservation:
    @given(
        rate=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        capacity=st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
        schedule=st.lists(acquire_or_advance, max_size=60),
    )
    def test_granted_never_exceeds_capacity_plus_refill(self, rate, capacity, schedule):
        clock_now = [0.0]
        bucket = TokenBucket(rate, capacity, clock=lambda: clock_now[0])
        attempts = 0
        for op in schedule:
            if op[0] == "advance":
                clock_now[0] += op[1]
            else:
                attempts += 1
                bucket.try_acquire()
        elapsed = clock_now[0]
        assert bucket.granted + bucket.denied == attempts
        # Conservation: the initial burst plus what time refilled, with a
        # one-ulp cushion for the float accumulation along the schedule.
        ceiling = capacity + rate * elapsed
        assert bucket.granted <= ceiling * (1 + 1e-9) + 1e-9
        assert 0.0 <= bucket.available <= capacity

    @given(
        rate=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        capacity=st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    )
    def test_burst_is_exactly_the_capacity(self, rate, capacity):
        bucket = TokenBucket(rate, capacity, clock=lambda: 0.0)
        granted = sum(bucket.try_acquire() for _ in range(int(capacity) + 10))
        assert granted == int(capacity)
