"""Fault-injection tests: mid-batch failures and stalls.

The serving chain must degrade *per request*: a GSO run that raises (or
stalls past its deadline) yields ``"error"`` / ``"timeout"`` on exactly the
requests that depended on it, never writes to the cache, never contaminates
the other requests in the batch, and leaves
:class:`~repro.api.kernel.ServiceStats` consistent.  Every run executes on
the kernel's persistent run pool, so a storm of stalled runs must also keep
the thread count within the pool's width.

The flaky finders are **threshold-keyed**, not call-counted: a query whose
threshold lands in the poison set fails deterministically no matter which
pool thread runs it.
"""

import copy
import sys
import threading
import time

from repro.api import (
    Deadline,
    FindRequest,
    ServiceKernel,
    production_chain,
)
from repro.core.finder import SuRF


# --------------------------------------------------------------------------- flaky finders
class FlakyFinder(SuRF):
    """Raises on any query whose threshold is in the poison set."""

    def find_regions(self, query, max_proposals=None, profile_hook=None):
        if any(abs(query.threshold - poison) < 1e-12 for poison in self.poison):
            raise RuntimeError(f"injected failure at threshold {query.threshold}")
        return super().find_regions(
            query, max_proposals=max_proposals, profile_hook=profile_hook
        )


class StallFinder(SuRF):
    """Stalls (default 1s) on any poisoned threshold, then answers normally."""

    def find_regions(self, query, max_proposals=None, profile_hook=None):
        if any(abs(query.threshold - poison) < 1e-12 for poison in self.poison):
            time.sleep(self.stall_seconds)
        return super().find_regions(
            query, max_proposals=max_proposals, profile_hook=profile_hook
        )


class InstantFinder(SuRF):
    """Answers every query with one canned result, so runs cost ~nothing."""

    def find_regions(self, query, max_proposals=None, profile_hook=None):
        return self.canned


def make_flaky(fitted_surf, cls, poison, **attrs):
    """A shallow copy of the fitted finder re-classed to a flaky variant.

    The copy shares the (immutable, read-only) trained models, so behaviour
    on non-poisoned queries is bit-identical to the original finder.
    """
    flaky = copy.copy(fitted_surf)
    flaky.__class__ = cls
    flaky.poison = tuple(poison)
    for name, value in attrs.items():
        setattr(flaky, name, value)
    return flaky


def assert_stats_consistent(kernel, responses):
    """Every response status is accounted for exactly once in the counters."""
    stats = kernel.stats
    by_status = {}
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
    assert stats.queries == len(responses)
    assert stats.errors == by_status.get("error", 0)
    assert stats.timeouts == by_status.get("timeout", 0)
    assert stats.rejected == by_status.get("rejected", 0)
    assert stats.cache_hits == by_status.get("cached", 0)


POISON = 0.123456789


# --------------------------------------------------------------------------- thread path
class TestThreadPoolFaults:
    def test_mid_batch_error_is_isolated_to_affected_requests(
        self, fitted_surf, density_query
    ):
        flaky = make_flaky(fitted_surf, FlakyFinder, [POISON])
        kernel = ServiceKernel(flaky, max_workers=4)
        good, bad = density_query.threshold, POISON
        responses = kernel.handle_batch(
            [
                FindRequest(threshold=good),
                FindRequest(threshold=bad),
                FindRequest(threshold=good * 1.01),
            ]
        )
        assert [r.status for r in responses] == ["served", "error", "served"]
        assert "RuntimeError" in responses[1].error
        assert "injected failure" in responses[1].error
        assert responses[1].result is None and responses[1].proposals == ()
        assert responses[0].proposals and responses[2].proposals
        assert_stats_consistent(kernel, responses)
        assert kernel.stats.errors == 1

    def test_errors_never_poison_the_cache(self, fitted_surf, density_query):
        flaky = make_flaky(fitted_surf, FlakyFinder, [POISON])
        kernel = ServiceKernel(flaky, max_workers=4)
        first = kernel.handle_batch(
            [FindRequest(threshold=density_query.threshold), FindRequest(threshold=POISON)]
        )
        assert [r.status for r in first] == ["served", "error"]
        assert kernel.cached_queries == 1  # only the served query was cached
        second = kernel.handle_batch(
            [FindRequest(threshold=density_query.threshold), FindRequest(threshold=POISON)]
        )
        # The good query hits the cache; the poisoned one re-runs and re-fails
        # (an error was never cached as if it were an answer).
        assert [r.status for r in second] == ["cached", "error"]
        assert kernel.stats.errors == 2

    def test_coalesced_requesters_all_see_the_error(self, fitted_surf):
        flaky = make_flaky(fitted_surf, FlakyFinder, [POISON])
        kernel = ServiceKernel(flaky, max_workers=4)
        responses = kernel.handle_batch(
            [FindRequest(threshold=POISON), FindRequest(threshold=POISON)]
        )
        assert [r.status for r in responses] == ["error", "error"]
        assert kernel.stats.errors == 2
        assert kernel.stats.gso_runs == 0

    def test_one_worker_pool_isolates_errors_too(self, fitted_surf, density_query):
        # max_workers=1 runs the batch's distinct queries one after another.
        flaky = make_flaky(fitted_surf, FlakyFinder, [POISON])
        kernel = ServiceKernel(flaky, max_workers=1)
        responses = kernel.handle_batch(
            [FindRequest(threshold=POISON), FindRequest(threshold=density_query.threshold)]
        )
        assert [r.status for r in responses] == ["error", "served"]
        assert_stats_consistent(kernel, responses)

    def test_close_racing_batches_fails_no_request(self, fitted_surf, density_query):
        # close() may retire the pool while other threads submit to it: every
        # request must still get a verdict (a cancelled run reads "error"),
        # never an exception out of handle().
        canned = fitted_surf.find_regions(density_query)
        instant = make_flaky(fitted_surf, InstantFinder, [], canned=canned)
        kernel = ServiceKernel(instant, cache_size=0, max_workers=2)
        clients, per_client = 8, 40
        statuses = []
        done = threading.Event()

        def client():
            for _ in range(per_client):
                statuses.append(kernel.handle(density_query).status)

        def closer():
            while not done.is_set():
                kernel.close()
                time.sleep(0)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=client) for _ in range(clients)]
        closing = threading.Thread(target=closer)
        try:
            closing.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            closing.join(timeout=10)
            sys.setswitchinterval(previous)
            kernel.close()
        assert not any(thread.is_alive() for thread in threads + [closing])
        assert len(statuses) == clients * per_client
        assert set(statuses) <= {"served", "error"}
        assert kernel.stats.gso_runs + kernel.stats.errors == clients * per_client


# --------------------------------------------------------------------------- deadlines
class TestDeadlines:
    def make_kernel(self, finder, budget=None, **options):
        chain = production_chain(deadline=Deadline(default_budget=budget))
        return ServiceKernel(finder, middleware=chain, **options)

    def test_stalled_run_times_out_while_others_serve(self, fitted_surf, density_query):
        stall = make_flaky(
            fitted_surf, StallFinder, [POISON], stall_seconds=5.0
        )
        kernel = self.make_kernel(stall, budget=0.5, max_workers=2)
        start = time.monotonic()
        responses = kernel.handle_batch(
            [FindRequest(threshold=density_query.threshold), FindRequest(threshold=POISON)]
        )
        elapsed = time.monotonic() - start
        assert [r.status for r in responses] == ["served", "timeout"]
        # The batch gave up on the stalled run instead of waiting it out.
        assert elapsed < 4.0
        assert kernel.cached_queries == 1
        assert_stats_consistent(kernel, responses)

    def test_expired_budget_skips_the_run_entirely(self, fitted_surf, density_query):
        kernel = self.make_kernel(fitted_surf, max_workers=2)
        response = kernel.handle(
            FindRequest(threshold=density_query.threshold, deadline_seconds=1e-9)
        )
        assert response.status == "timeout"
        assert kernel.stats.gso_runs == 0  # expired before launch: never ran
        assert kernel.cached_queries == 0

    def test_generous_budget_serves_normally(self, fitted_surf, density_query):
        kernel = self.make_kernel(fitted_surf, budget=300.0, max_workers=2)
        response = kernel.handle(FindRequest(threshold=density_query.threshold))
        assert response.status == "served"
        assert response.proposals
        assert kernel.stats.timeouts == 0

    def test_stall_storm_keeps_threads_bounded(self, fitted_surf):
        # Each batch abandons one fresh stalled run; the abandoned runs must
        # queue on the kernel's pool instead of each keeping a new thread.
        max_workers = 2
        poisons = [POISON * (1.0 + 0.01 * step) for step in range(20)]
        stall = make_flaky(fitted_surf, StallFinder, poisons, stall_seconds=2.0)
        kernel = self.make_kernel(stall, budget=0.05, max_workers=max_workers)
        baseline = threading.active_count()
        peak = baseline
        try:
            for threshold in poisons:
                responses = kernel.handle_batch([FindRequest(threshold=threshold)])
                assert [r.status for r in responses] == ["timeout"]
                peak = max(peak, threading.active_count())
        finally:
            kernel.close()
        assert peak <= baseline + max_workers
        assert kernel.stats.timeouts == len(poisons)
        assert kernel.cached_queries == 0
