"""Tests for the benchmark's own arithmetic (no workload is run)."""

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench.compare import verdict
from perfbench.layers import FIND_PARTS, find_coverage, per_find
from perfbench.loadgen import Request, open_loop_rung
from perfbench.stats import (
    Rung,
    latency_from_due,
    max_qps,
    percentile,
    samples_beyond,
    self_time,
    tail_percentile,
)
from perfbench.tracing import Span, SpanIndex, Tracer


# --------------------------------------------------------------------------- tail percentile
@pytest.mark.parametrize(
    "count, expected_q",
    [(10_000, 99.9), (1_000, 99.0), (900, 95.0), (200, 95.0), (181, 90.0), (100, 90.0),
     (40, 75.0), (20, 50.0)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(count, expected_q):
    samples = [float(value) for value in range(count)]
    q, value = tail_percentile(samples)
    assert q == expected_q
    assert value == percentile(samples, q)
    assert samples_beyond(count, q) >= 10


def test_tail_percentile_falls_back_to_the_maximum_for_tiny_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_samples_beyond_is_exact_at_the_boundary():
    assert samples_beyond(1_000, 99.0) == 10  # positions 990..999 lie past 989.01
    assert samples_beyond(901, 99.0) == 9  # positions 892..900 lie past 891.0
    assert samples_beyond(10_000, 99.9) == 10
    assert samples_beyond(19, 50.0) == 9


# --------------------------------------------------------------------------- self time
def test_self_time_counts_overlapping_children_from_two_threads_once():
    # Parent [0, 10]; a child on each of two threads overlapping on [3, 4],
    # and a third child running past the parent's end.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - (5.0 + 2.0))


def _find_tree(extra=()):
    """A find [0, 10] on one thread; times are chosen so the parts add up to 10."""
    rows = [
        (1, "core.find", 0.0, 10.0, None),
        (2, "core.objective", 0.5, 1.0, 1),  # warm start scores the past workload
        (3, "surrogate.predict", 0.6, 0.9, 2),
        (4, "optim.gso", 1.0, 7.0, 1),
        (5, "core.objective", 2.0, 5.0, 4),
        (6, "surrogate.predict", 2.0, 4.0, 5),
        (7, "density.mass", 5.0, 6.5, 4),
        (8, "core.postprocess", 8.0, 9.5, 1),
        (9, "surrogate.predict", 8.5, 9.0, 8),
        *extra,
    ]
    return [Span(i, name, lo, hi, parent, 1, 1, "measure", None) for i, name, lo, hi, parent in rows]


def _parts(spans):
    table = per_find(SpanIndex(spans), [spans[0]])
    values = {name: table[name][0] * 1e3 for name in FIND_PARTS}
    return values, find_coverage(values, table["find"][0] * 1e3)


def test_reported_find_parts_cover_the_find():
    values, coverage = _parts(_find_tree())
    assert values["core.find_self_ms"] == pytest.approx(2_000.0)  # 10 - 0.5 - 6 - 1.5
    assert values["core.objective_self_ms"] == pytest.approx(1_200.0)  # 0.2 + 1.0
    assert values["optim.gso_self_ms"] == pytest.approx(1_500.0)  # 6 - 3 - 1.5
    assert values["core.postprocess_ms"] == pytest.approx(1_000.0)  # 1.5 - 0.5
    assert values["surrogate.predict_ms_per_find"] == pytest.approx(2_800.0)
    assert values["density.mass_ms_per_find"] == pytest.approx(1_500.0)
    assert coverage == pytest.approx(100.0)


def test_find_coverage_fails_on_a_layer_no_part_reports():
    # A data scan below the find: its second is nobody's self time.
    _values, coverage = _parts(_find_tree(extra=[(10, "backends.evaluate", 7.0, 8.0, 1)]))
    assert coverage == pytest.approx(90.0)


def test_find_coverage_fails_when_parts_overlap_across_threads():
    # The mass call runs on a second thread beside the predict call for one
    # second: each self time stays honest, but the leaves count it twice.
    _values, coverage = _parts(_find_tree(extra=[(10, "density.mass", 3.0, 4.0, 5)]))
    assert coverage == pytest.approx(110.0)


def test_pool_threads_adopt_the_submitting_span():
    tracer = Tracer()
    tracer.patch(ThreadPoolExecutor, "submit", tracer._adopting_submit(ThreadPoolExecutor.submit))
    barrier = threading.Barrier(2, timeout=10.0)
    child = tracer.traced(lambda: barrier.wait(), "child")

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(child) for _ in range(2)]
            for future in futures:
                future.result(timeout=10.0)

    try:
        tracer.traced(parent, "parent")()
    finally:
        tracer.uninstall()
    root = next(span for span in tracer.spans if span.name == "parent")
    kids = [span for span in tracer.spans if span.name == "child"]
    assert len(kids) == 2
    assert all(kid.parent == root.id for kid in kids)
    assert len({kid.thread for kid in kids}) == 2
    assert ThreadPoolExecutor.submit.__name__ == "submit"


# --------------------------------------------------------------------------- due-time timing
def test_latency_counts_from_due_not_from_send():
    due, sent, done = 1.0, 1.4, 1.5
    assert latency_from_due(due, done) == pytest.approx(0.5)
    assert latency_from_due(due, done) > done - sent


def test_open_loop_times_each_request_from_its_due_time():
    async def app(scope, receive, send):
        await receive()
        await asyncio.sleep(0.002)
        body = json.dumps({"status": "cached", "generation": 0, "proposals": []}).encode()
        await send({"type": "http.response.start", "status": 200, "headers": []})
        await send({"type": "http.response.body", "body": body})

    class Registry:
        def get(self, _name):
            return self

        generation = 0

    requests = [Request("/find", b"{}", (("t", 0),)) for _ in range(20)]
    loop = asyncio.new_event_loop()
    try:
        run = loop.run_until_complete(open_loop_rung(app, Registry(), 400.0, requests))
    finally:
        loop.close()
    rung = run.rung
    assert rung.count == 20 and rung.failed == 0
    gaps = [later - earlier for earlier, later in zip(rung.dues, rung.dues[1:])]
    assert all(gap == pytest.approx(1 / 400.0) for gap in gaps)
    for due, sent, done, latency in zip(rung.dues, rung.sends, rung.dones, rung.hit_latencies):
        assert sent >= due
        assert latency == pytest.approx(done - due)


# --------------------------------------------------------------------------- max_qps rung rule
def _rung(offered, latency, count=1_000, failed=0, slowdown=1.0):
    rung = Rung(offered_qps=offered, failed=failed)
    step = 1.0 / offered
    for index in range(count):
        due = index * step
        sent = index * step * slowdown
        rung.dues.append(due)
        rung.sends.append(sent)
        rung.dones.append(sent + latency)
        rung.hit_latencies.append(sent + latency - due)
    return rung


def test_max_qps_is_the_highest_passing_rung():
    slow_tail = _rung(1_000, 0.002)
    for index in range(0, slow_tail.count, 50):  # 2% of hits at 80 ms, no backlog
        slow_tail.hit_latencies[index] = 0.080
    rungs = [_rung(250, 0.002), slow_tail, _rung(2_000, 0.003), _rung(3_000, 0.003)]
    limit = 0.050
    assert [rung.passes(limit) for rung in rungs] == [True, False, True, True]
    assert max_qps(rungs, limit) == pytest.approx(rungs[3].completed_qps)
    assert max_qps(rungs, limit) == pytest.approx(3_000, rel=0.01)


def test_rungs_with_a_growing_backlog_or_failures_never_count():
    limit = 0.050
    lagging_sender = _rung(4_000, 0.001, slowdown=1.2)  # generator could not drive the rate
    assert lagging_sender.backlog_grew() and not lagging_sender.passes(limit)
    queueing = _rung(4_000, 0.001)
    queueing.dones = [done + index * 0.0001 for index, done in enumerate(queueing.dones)]
    assert queueing.backlog_grew() and not queueing.passes(limit)
    failing = _rung(4_000, 0.001, failed=1)
    assert not failing.passes(limit)
    assert max_qps([_rung(250, 0.001), lagging_sender, queueing, failing], limit) == pytest.approx(
        250, rel=0.01
    )
    assert max_qps([failing], limit) == 0.0


def test_rungs_above_the_first_saturated_rung_are_not_credited():
    limit = 0.050
    saturated = _rung(2_000, 0.001, slowdown=1.2)
    fluke = _rung(3_000, 0.002)  # passes on its own: the machine had a fast moment
    assert fluke.passes(limit)
    rungs = [_rung(250, 0.002), _rung(1_000, 0.002), saturated, fluke]
    assert max_qps(rungs, limit) == pytest.approx(rungs[1].completed_qps)


def test_benchmark_names_one_rung_metric_per_ladder_rate():
    from perfbench.workloads import RUNG_RATES

    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    prefix = "loadgen.rung_hit_p99_ms."
    named = [item["name"] for item in benchmark["per_layer"] if item["name"].startswith(prefix)]
    assert named == [f"{prefix}{rate}" for rate in RUNG_RATES]


# --------------------------------------------------------------------------- compare verdicts
def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    pairs = lambda new: list(zip(parent, new))  # noqa: E731
    faster = [value * 0.8 for value in parent]
    assert verdict(parent, faster, pairs(faster), False, 0.1) == "better"
    slower = [value * 1.2 for value in parent]
    assert verdict(parent, slower, pairs(slower), False, 0.1) == "worse"
    same = list(reversed(parent))
    assert verdict(parent, same, pairs(same), False, 0.1) == "within bound"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, same, list(zip(noisy, same)), False, 0.1) == "unresolved"
