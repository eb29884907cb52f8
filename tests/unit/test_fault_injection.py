"""Fault-injection tests: mid-batch failures, stalls and worker crashes.

The serving chain must degrade *per request*: a GSO run that raises (or
stalls past its deadline, or takes its whole worker process down) yields
``"error"`` / ``"timeout"`` on exactly the requests that depended on it,
never writes to the cache, never contaminates the other requests in the
batch, and leaves :class:`~repro.api.kernel.ServiceStats` consistent.  Both
execution paths — the thread pool and the
:class:`~repro.api.execution.ProcessExecute` process pool — are covered.

The flaky finders are **threshold-keyed**, not call-counted: a query whose
threshold lands in the poison set fails deterministically no matter which
thread or worker process runs it (call counters would not survive the process
boundary, where each worker holds its own unpickled copy).
"""

import copy
import os
import time

import pytest

from repro.api import (
    Deadline,
    FindRequest,
    ProcessExecute,
    ServiceKernel,
    production_chain,
)
from repro.core.finder import SuRF


# --------------------------------------------------------------------------- flaky finders
# Module level so instances pickle cleanly into process-pool workers.
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


class CrashFinder(SuRF):
    """Kills its own process on poisoned thresholds (worker-crash injection)."""

    def find_regions(self, query, max_proposals=None, profile_hook=None):
        if any(abs(query.threshold - poison) < 1e-12 for poison in self.poison):
            os._exit(13)
        return super().find_regions(
            query, max_proposals=max_proposals, profile_hook=profile_hook
        )


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

    def test_inline_path_isolates_errors_too(self, fitted_surf, density_query):
        # max_workers=1 forces the sequential (inline) execution path.
        flaky = make_flaky(fitted_surf, FlakyFinder, [POISON])
        kernel = ServiceKernel(flaky, max_workers=1)
        responses = kernel.handle_batch(
            [FindRequest(threshold=POISON), FindRequest(threshold=density_query.threshold)]
        )
        assert [r.status for r in responses] == ["error", "served"]
        assert_stats_consistent(kernel, responses)


# --------------------------------------------------------------------------- deadlines
class TestDeadlines:
    def make_kernel(self, finder, budget=None, execute=None, **options):
        chain = production_chain(deadline=Deadline(default_budget=budget), execute=execute)
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


# --------------------------------------------------------------------------- process path
class TestProcessPoolFaults:
    def test_worker_exception_is_isolated_per_request(self, fitted_surf, density_query):
        flaky = make_flaky(fitted_surf, FlakyFinder, [POISON])
        with ServiceKernel(flaky, executor="process", max_workers=2) as kernel:
            responses = kernel.handle_batch(
                [
                    FindRequest(threshold=density_query.threshold),
                    FindRequest(threshold=POISON),
                ]
            )
            assert [r.status for r in responses] == ["served", "error"]
            assert "RuntimeError" in responses[1].error
            assert kernel.cached_queries == 1
            assert_stats_consistent(kernel, responses)
            # The pool survives an ordinary worker exception.
            again = kernel.handle(FindRequest(threshold=density_query.threshold * 1.01))
            assert again.status == "served"

    def test_worker_crash_breaks_only_the_current_batch(self, fitted_surf, density_query):
        crash = make_flaky(fitted_surf, CrashFinder, [POISON])
        with ServiceKernel(crash, executor="process", max_workers=2) as kernel:
            broken = kernel.handle(FindRequest(threshold=POISON))
            assert broken.status == "error"
            assert broken.error  # BrokenProcessPool text surfaces on the envelope
            # The dead pool was dropped; the next batch rebuilds and serves.
            recovered = kernel.handle(FindRequest(threshold=density_query.threshold))
            assert recovered.status == "served"
            assert recovered.proposals

    def test_stalled_worker_times_out_under_a_deadline(self, fitted_surf, density_query):
        stall = make_flaky(fitted_surf, StallFinder, [POISON], stall_seconds=3.0)
        execute = ProcessExecute(max_workers=2)
        chain = production_chain(deadline=Deadline(default_budget=0.5), execute=execute)
        kernel = ServiceKernel(stall, middleware=chain, max_workers=2)
        try:
            responses = kernel.handle_batch(
                [
                    FindRequest(threshold=density_query.threshold),
                    FindRequest(threshold=POISON),
                ]
            )
            assert [r.status for r in responses] == ["served", "timeout"]
            assert kernel.cached_queries == 1
        finally:
            kernel.close()

    def test_unpicklable_finder_falls_back_to_threads(self, fitted_surf, density_query):
        unpicklable = copy.copy(fitted_surf)
        unpicklable.not_picklable = lambda: None  # lambdas cannot be pickled
        with ServiceKernel(unpicklable, executor="process", max_workers=2) as kernel:
            response = kernel.handle(FindRequest(threshold=density_query.threshold))
            assert response.status == "served"
            assert response.proposals
