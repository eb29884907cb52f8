"""The three workloads: set-up, timed phase and correctness checks.

Each workload returns an :class:`Outcome` holding the end-to-end metrics under
their ``BENCHMARK.json`` names, the same numbers under the names the design
uses (printed by ``run.py``), the correctness checks, and the per-layer
numbers that come from counters rather than spans.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.api import AsgiApp, ModelRegistry
from repro.api.envelopes import ProposalPayload
from repro.core.evaluation import average_iou, compliance_rate
from repro.core.query import RegionQuery
from repro.online import QueryLog
from repro.optim.gso import GSOParameters

from perfbench import worlds
from perfbench.loadgen import Exchange, Request, encode, exchange, open_loop_rung
from perfbench.stats import latency_from_due, max_qps, median, percentile, tail_percentile
from perfbench.tracing import Tracer


@dataclass
class Outcome:
    metrics: Dict[str, float]
    named: List[Tuple[str, float, str]]
    checks: List[Tuple[str, bool]]
    attempted: int
    failed: int
    layer: Dict[str, float] = field(default_factory=dict)


def _ms(seconds: float) -> float:
    return seconds * 1_000.0


def _tail_ms(samples: List[float]) -> Tuple[float, float]:
    q, value = tail_percentile(samples)
    return q, _ms(value)


def _stats_delta(before: dict, after: dict) -> Dict[str, int]:
    fields = ("queries", "cache_hits", "gso_runs", "coalesced", "rejected")
    return {
        name: sum(after[t].as_dict()[name] - before[t].as_dict()[name] for t in after)
        for name in fields
    }


def _api_layer(delta: Dict[str, int]) -> Dict[str, float]:
    return {
        "api.hit_ratio": delta["cache_hits"] / delta["queries"] if delta["queries"] else 0.0,
        "api.gso_runs": float(delta["gso_runs"]),
        "api.coalesced": float(delta["coalesced"]),
        "api.rejected": float(delta["rejected"]),
    }


def _served_trees(finders) -> float:
    return float(sum(getattr(f.surrogate_.estimator, "num_trees_", 0) for f in finders))


def _end_to_end(setup_times: List[float], p50_ms: float, rate: float, compliance: float,
                iou: float) -> Dict[str, float]:
    """The bounded metrics under their ``BENCHMARK.json`` names."""
    return {
        "setup_s": median(setup_times),
        "p50_ms": p50_ms,
        "rate_per_s": rate,
        "compliance": compliance,
        "iou": iou,
    }


#: The status each kind of planned request must come back with.
WANTED = {"miss": "served", "hit": "cached", "rejected": "rejected"}


def _expecting(request: Request, expect: str) -> Request:
    request.expect = expect
    return request


@dataclass
class Tally:
    """The response checks, folded in one batch of exchanges at a time.

    Only verdicts, counts and one payload per answered ``(tenant, key)`` are
    kept, not the responses, so peak memory does not grow with the number of
    rungs.
    """

    statuses: bool = True
    generations: bool = True
    payloads: bool = True
    expected: bool = True
    attempted: int = 0
    failed: int = 0
    hopeless_entries: int = 0
    answers: Dict[tuple, list] = field(default_factory=dict)

    def add(self, exchanges: List[Exchange], expected_proposals: Callable = lambda _entry: None):
        for record in exchanges:
            self.attempted += 1
            self.hopeless_entries += sum(1 for _tenant, key in record.request.entries
                                         if key == "hopeless")
            if record.failed():
                self.failed += 1
                self.statuses = self.expected = False
                continue
            statuses = record.statuses()
            if set(statuses) != {WANTED[record.request.expect]}:
                self.expected = False
            for index, (entry, payload) in enumerate(zip(record.request.entries, record.payloads())):
                low, high = record.generations_before[index], record.generations_after[index]
                if not low <= payload["generation"] <= high:
                    self.generations = False
                expected = expected_proposals(entry)
                if expected is not None and payload["proposals"] != expected:
                    self.payloads = False
                if payload["status"] in ("served", "cached"):
                    self.answers.setdefault(entry, [payload, 0])[1] += 1


def _delivered_quality(answers: Dict[tuple, list], world: "ServingWorld") -> Tuple[float, float]:
    """Compliance and mean IoU of the proposals the responses delivered.

    Each answered entry counts once, so a popular threshold weighs as much as
    the traffic that asked for it.  The proposals of each distinct
    ``(tenant, key)`` are evaluated exactly once, after timing: compliance
    pools every delivered proposal checked against the data, IoU compares each
    answer with its tenant's planted regions.
    """
    compliant = total = iou = 0.0
    for (tenant, key), (payload, count) in answers.items():
        regions = [ProposalPayload.from_dict(item).region() for item in payload["proposals"]]
        iou += count * average_iou(regions, world.tenants[tenant].synthetic.ground_truth_regions)
        if regions:
            values = world.tenants[tenant].engine.evaluate_many(regions)
            compliant += count * int(np.sum(values > world.thresholds[(tenant, key)]))
            total += count * len(regions)
    answered = sum(count for _payload, count in answers.values())
    return (compliant / total if total else 0.0), (iou / answered if answered else 0.0)


# --------------------------------------------------------------------------- cold_find
COLD_POINTS = 100_000
GOLDEN = (5 ** 0.5 - 1) / 2


def cold_margins(seed: int, count: int, low: float = 0.55, high: float = 0.95) -> np.ndarray:
    """Distinct margins in ``[low, high)``: a golden-ratio sequence from a seeded start.

    Any prefix of the sequence covers the interval evenly, so runs that
    complete different numbers of finds, or start from different seeds, ask
    questions of the same spread of difficulty.
    """
    start = np.random.default_rng([seed, 11]).random()
    return low + (high - low) * np.mod(start + GOLDEN * np.arange(count), 1.0)


#: Set-ups per untraced cold_find run.  One takes ~2 s, so the run sets up five
#: times and measures after each (see :func:`cold_find`).
COLD_SETUPS = 5


def cold_find(seed: int, seconds: float, tracer: Tracer, setups: int = COLD_SETUPS) -> Outcome:
    """One analyst calling ``SuRF.find_regions`` back to back with distinct thresholds.

    The run alternates set-ups and measured slices.  After each set-up it
    calls ``find_regions`` on the fresh finder, at least once and until the
    run's measured time reaches that set-up's share of ``seconds``; the
    thresholds continue from slice to slice.  The host's speed drifts in
    phases of several seconds, so finds taken from five stretches of the run
    vary less from run to run than one block of the same length.
    """
    queries = None
    setup_times: List[float] = []
    latencies: List[float] = []
    slice_rates: List[float] = []
    results = []
    failed = 0
    measured = 0.0
    tenant = None
    for index in range(setups):
        tracer.phase = "setup"
        tenant = None
        tenant, setup_seconds = worlds.timed_build(
            lambda: worlds.build_tenant("density-2d", COLD_POINTS))
        setup_times.append(setup_seconds)
        if queries is None:
            queries = iter([
                RegionQuery(threshold=tenant.synthetic.suggested_threshold(float(margin)),
                            direction="above", size_penalty=4.0)
                for margin in cold_margins(seed, 1_000)
            ])
        tracer.phase = "measure"
        begin = time.perf_counter()
        calls = 0
        while calls == 0 or measured + time.perf_counter() - begin < seconds * (index + 1) / setups:
            query = next(queries)
            calls += 1
            start = time.perf_counter()
            try:
                result = tenant.finder.find_regions(query)
            except Exception:  # noqa: BLE001 - a failed find is counted, the run goes on
                traceback.print_exc()
                failed += 1
                continue
            latencies.append(time.perf_counter() - start)
            results.append((query, result))
        wall = time.perf_counter() - begin
        measured += wall
        slice_rates.append(calls / wall)
    tracer.phase = "check"
    if not results:
        raise RuntimeError("no find_regions call completed")

    compliant = total = 0
    for query, result in results:
        if result.proposals:
            compliant += (compliance_rate(result.proposals, tenant.engine, query)
                          * len(result.proposals))
            total += len(result.proposals)
    compliance = compliant / total if total else 0.0
    truth = tenant.synthetic.ground_truth_regions
    iou = float(np.mean([average_iou(r.all_feasible_regions(), truth) for _q, r in results]))
    replay = tenant.finder.find_regions(results[0][0])
    first_fingerprint = worlds.fingerprint(results[0][1].proposals)

    p50 = _ms(median(latencies))
    q, tail = _tail_ms(latencies)
    rate = median(slice_rates)
    metrics = _end_to_end(setup_times, p50, rate, compliance, iou)
    named = [
        ("find_p50_ms", p50, "ms"),
        (f"find_p{q:g}_ms", tail, "ms"),
        ("finds_per_s", rate, "1/s"),
        ("compliance", compliance, "ratio"),
        ("iou", iou, "ratio"),
        ("finds", float(len(latencies)), "count"),
        ("measured_s", measured, "s"),
        ("fingerprint", first_fingerprint, "sha256"),
    ]
    checks = [
        ("the first find's proposals replay bit-identically on the run's last set-up",
         worlds.fingerprint(replay.proposals) == first_fingerprint),
        ("every find_regions call returned", failed == 0),
    ]
    layer = {"surrogate.trees": _served_trees([tenant.finder])}
    return Outcome(metrics, named, checks, len(latencies) + failed, failed, layer)


# --------------------------------------------------------------------------- hot_serve
HOT_POINTS = 100_000
HOT_THRESHOLDS = 8
HOPELESS_SHARE = 0.03
#: Offered rates of the ladder; the first is the nominal rung.  Above it the
#: rates climb in ~8% steps through the saturation point of a two-core host
#: (1.2k to 4k requests/s, depending on how busy the machine's other
#: tenants keep it).  Every rung runs, past saturation too, so each one's hit
#: p99 is measured; ``BENCHMARK.json`` names one per-layer metric per rate.
RUNG_RATES = (250, 700, 850, 1000, 1080, 1170, 1260, 1360, 1470, 1590, 1710, 1850, 2000,
              2160, 2330, 2520, 2720, 2940, 3170, 3420, 3700, 4000, 4320, 4670)
#: At the reference run length (10 s) every rung sends at least this many
#: requests (enough for a p99) and lasts at least ``RUNG_SECONDS``.
RUNG_REQUESTS = 1_000
RUNG_SECONDS = 0.5
#: Unmeasured requests at the nominal rate before the ladder, so the front
#: door's worker threads exist before the first timed request.
WARMUP_REQUESTS = 250
#: Hit tail limit a rung must meet to count towards ``max_qps``.
HIT_LIMIT_SECONDS = 0.050
#: Swarm used for the cache warm-up (see ``serving_finder``).
WARMUP_SWARM = dict(num_particles=24, num_iterations=3)


def serving_finder(finder):
    """The fitted finder with a small warm-up swarm.

    The hot path never runs GSO; only the set-up's warm-up runs do, and at
    the Table-I budget they alone would take ~20 s per set-up.  The surrogate,
    density and Eq. 5 models are the fitted ones, unchanged.
    """
    served = copy.copy(finder)
    served.warm_start_fraction = 0.0
    served.gso_parameters = GSOParameters(
        random_state=finder.gso_parameters.random_state, **WARMUP_SWARM
    )
    return served


@dataclass
class ServingWorld:
    tenants: Dict[str, worlds.Tenant]
    registry: ModelRegistry
    app: AsgiApp
    thresholds: Dict[tuple, float]
    warm: Dict[tuple, dict] = field(default_factory=dict)


def _serving_world(num_points: int, thresholds_per_tenant: int) -> ServingWorld:
    tenants = {name: worlds.build_tenant(name, num_points) for name in worlds.TENANT_SHAPES}
    registry = ModelRegistry()
    thresholds: Dict[tuple, float] = {}
    for name, tenant in tenants.items():
        for index, value in enumerate(worlds.eq5_thresholds(tenant.finder, thresholds_per_tenant)):
            thresholds[(name, index)] = value
        thresholds[(name, "hopeless")] = worlds.hopeless_threshold(tenant.finder)
    return ServingWorld(tenants, registry, AsgiApp(registry), thresholds)


def _build_hot_world(loop) -> ServingWorld:
    world = _serving_world(HOT_POINTS, HOT_THRESHOLDS)
    for name, tenant in world.tenants.items():
        world.registry.register(name, serving_finder(tenant.finder))
    for name in world.tenants:
        request = encode([(name, index) for index in range(HOT_THRESHOLDS)], world.thresholds)
        record = loop.run_until_complete(
            exchange(world.app, world.registry, request, time.perf_counter())
        )
        for entry, payload in zip(request.entries, record.payloads()):
            world.warm[entry] = payload
    return world


def _hot_traffic(world: ServingWorld, rng: np.random.Generator, count: int) -> List[Request]:
    """``count`` single-entry requests: a uniform tenant, then hopeless or a Zipf key.

    Requests for the same ``(tenant, key)`` share one encoded :class:`Request`.
    """
    names = list(world.tenants)
    tenants = rng.integers(len(names), size=count)
    hopeless = rng.random(count) < HOPELESS_SHARE
    keys = rng.choice(HOT_THRESHOLDS, size=count, p=worlds.zipf_weights(HOT_THRESHOLDS))
    catalogue = {}
    for name in names:
        catalogue[(name, "hopeless")] = _expecting(encode([(name, "hopeless")], world.thresholds),
                                                   "rejected")
        for key in range(HOT_THRESHOLDS):
            catalogue[(name, key)] = _expecting(encode([(name, key)], world.thresholds), "hit")
    return [
        catalogue[(names[tenant], "hopeless" if rejected else int(key))]
        for tenant, rejected, key in zip(tenants, hopeless, keys)
    ]


def hot_serve(seed: int, seconds: float, tracer: Tracer, setups: int = worlds.SETUPS) -> Outcome:
    """Many users repeating popular queries: an open-loop ladder of hit traffic.

    The nominal rate is offered twice, as the ladder's first rung and again
    after its last, and ``hit_p50_ms`` is the median over both: the host's
    speed drifts in phases of several seconds, and the two stretches lie a
    ladder apart.  The bounded rate is the requests answered per second of
    the process's CPU time over both stretches, the front door's capacity
    from its cost; ``max_qps`` is printed.  Spans of both stretches are the
    ``measure`` phase; the rest of the ladder is ``ladder``, whose rungs past
    saturation queue by design.
    """
    loop = asyncio.new_event_loop()
    try:
        world, setup_times = worlds.timed_setups(lambda: _build_hot_world(loop), setups)
        scale = seconds / 10.0
        ladders = [
            _hot_traffic(
                world,
                np.random.default_rng([seed, 23, index]),
                max(100, int(round(max(RUNG_REQUESTS, rate * RUNG_SECONDS) * scale))),
            )
            for index, rate in enumerate(RUNG_RATES)
        ]
        repeat = _hot_traffic(world, np.random.default_rng([seed, 37]), len(ladders[0]))
        warmup = _hot_traffic(world, np.random.default_rng([seed, 29]), WARMUP_REQUESTS)
        loop.run_until_complete(open_loop_rung(world.app, world.registry, RUNG_RATES[0], warmup))
        before = world.registry.stats()
        tally = Tally()
        rungs = []
        nominal_cpu = 0.0
        for rate, requests in zip(RUNG_RATES, ladders):
            gc.collect()
            tracer.phase = "measure" if rate == RUNG_RATES[0] else "ladder"
            cpu = time.process_time()
            run = loop.run_until_complete(open_loop_rung(world.app, world.registry, rate, requests))
            if rate == RUNG_RATES[0]:
                nominal_cpu += time.process_time() - cpu
            rungs.append(run.rung)
            tally.add(run.exchanges, lambda entry: world.warm.get(entry, {}).get("proposals"))
        gc.collect()
        tracer.phase = "measure"
        cpu = time.process_time()
        again = loop.run_until_complete(
            open_loop_rung(world.app, world.registry, RUNG_RATES[0], repeat))
        nominal_cpu += time.process_time() - cpu
        tally.add(again.exchanges, lambda entry: world.warm.get(entry, {}).get("proposals"))
        tracer.phase = "check"
        after = world.registry.stats()
        loop.run_until_complete(loop.shutdown_default_executor())
    finally:
        loop.close()

    delta = _stats_delta(before, after)
    warm_ok = all(payload["status"] == "served" for payload in world.warm.values())
    nominal = rungs[0]
    hits = nominal.hit_latencies + again.rung.hit_latencies
    p50 = _ms(median(hits))
    q, tail = _tail_ms(hits)
    best = max_qps(rungs, HIT_LIMIT_SECONDS)
    per_cpu_second = (nominal.count + again.rung.count) / nominal_cpu
    compliance, iou = _delivered_quality(tally.answers, world)
    metrics = _end_to_end(setup_times, p50, per_cpu_second, compliance, iou)
    named = [
        ("hit_p50_ms", p50, "ms"),
        (f"hit_p{q:g}_ms", tail, "ms"),
        ("max_qps", best, "req/s"),
        ("requests_per_cpu_s", per_cpu_second, "1/s"),
        ("failed_ratio", tally.failed / tally.attempted, "ratio"),
        ("compliance", compliance, "ratio"),
        ("iou", iou, "ratio"),
    ]
    printed = [(f"rung.{rung.offered_qps}", rung) for rung in rungs]
    printed.append((f"rung.{RUNG_RATES[0]}.again", again.rung))
    for name, rung in printed:
        rung_q, rung_tail = _tail_ms(rung.hit_latencies) if rung.hit_latencies else (99.0, 0.0)
        named.append((
            name,
            rung.completed_qps,
            f"req/s sent={rung.sent_qps:.0f} late_p99={_ms(percentile(rung.lateness, 99)):.2f}ms "
            f"hit_p{rung_q:g}={rung_tail:.2f}ms pass={rung.passes(HIT_LIMIT_SECONDS)}",
        ))
    checks = [
        ("every warm-up entry ran GSO", warm_ok),
        ("every response was served, cached or rejected", tally.statuses),
        ("every cached response carries the warm-up's proposals", tally.payloads),
        ("every response's generation lies in the window sampled around it", tally.generations),
        ("hopeless thresholds were rejected and the rest answered from cache", tally.expected),
        ("the rejected count equals the hopeless requests sent",
         delta["rejected"] == tally.hopeless_entries),
        ("no request ran GSO during the ladder", delta["gso_runs"] == 0),
    ]
    layer = dict(_api_layer(delta))
    layer["surrogate.trees"] = _served_trees(t.finder for t in world.tenants.values())
    layer["loadgen.late_p99_ms"] = _ms(percentile(nominal.lateness + again.rung.lateness, 99))
    layer["loadgen.hit_tail_ms"] = tail
    for rung in rungs:
        # A rung where every request failed has no hits; the run is then
        # incorrect, and the p99 of all its requests stands in.
        latencies = rung.hit_latencies or [
            latency_from_due(due, done) for due, done in zip(rung.dues, rung.dones)
        ]
        layer[f"loadgen.rung_hit_p99_ms.{rung.offered_qps}"] = _ms(percentile(latencies, 99))
    return Outcome(metrics, named, checks, tally.attempted, tally.failed, layer)


# --------------------------------------------------------------------------- refresh_storm
STORM_POINTS = 200_000
EPOCHS = 2
#: Fresh thresholds per client per epoch: the first arrives as a ``/find_batch``
#: with three copies, the other as a ``/find``.
MISSES_PER_EPOCH = 2
#: Hit requests per client per epoch at the reference run length (10 s).
HITS_PER_EPOCH = 250
BATCH_SHARE = 0.10
#: Think time between a client's hopeless requests while a refresh runs, so
#: the clients load the front door beside the refresh without starving it.
REFRESH_THINK_SECONDS = 0.005
#: Longest hopeless stream a client can send while one refresh runs.
REFRESH_STREAM = 20_000


def storm_clients() -> int:
    """One closed-loop client per core the process may use (at most four)."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def storm_thresholds(clients: int) -> int:
    """Thresholds per tenant: enough for one fresh set per client and epoch.

    Epoch ``e`` misses on the thresholds whose index is ``e`` modulo
    ``EPOCHS``.
    """
    per_epoch = -(-clients * MISSES_PER_EPOCH // len(worlds.TENANT_SHAPES))
    return EPOCHS * per_epoch


def _build_storm_world(clients: int) -> ServingWorld:
    world = _serving_world(STORM_POINTS, storm_thresholds(clients))
    for name, tenant in world.tenants.items():
        world.registry.register(
            name, tenant.finder, query_log=QueryLog(capacity=100_000), exact_engine=tenant.engine
        )
    return world


@dataclass
class StormPlan:
    """Each client's requests: per epoch its misses and its hits, plus a hopeless stream."""

    misses: List[List[List[Request]]]
    hits: List[List[List[Request]]]
    hopeless: List[List[Request]]


def _storm_plan(world: ServingWorld, seed: int, clients: int, hits: int) -> StormPlan:
    """The seeded request sequence of every client.

    Each client owns ``MISSES_PER_EPOCH`` fresh thresholds per epoch that no
    other client asks for, so nothing races: the first arrives as a
    ``/find_batch`` with three copies (one GSO run, two coalesced), the rest
    as ``/find``.  Which thresholds miss, and in what order, is the same in
    every run: the refresh folds the misses' harvest in that order, and a
    different order fits a different model.  The seed draws everything else:
    every hit in the epoch repeats one of the client's thresholds, alone or in
    a batch of three, except ~3% hopeless thresholds the Eq. 5 gate rejects;
    while a refresh runs, clients send only hopeless thresholds, whose answer
    no swap can change.
    """
    names = list(world.tenants)
    deals = [
        [(name, index) for index in range(epoch, storm_thresholds(clients), EPOCHS)
         for name in names]
        for epoch in range(EPOCHS)
    ]
    rejected = {name: _expecting(encode([(name, "hopeless")], world.thresholds), "rejected")
                for name in names}
    plan = StormPlan([], [], [])
    for client in range(clients):
        rng = np.random.default_rng([seed, 31, client])
        client_misses, client_hits = [], []
        for epoch in range(EPOCHS):
            start = client * MISSES_PER_EPOCH
            keys = deals[epoch][start:start + MISSES_PER_EPOCH]
            client_misses.append(
                [_expecting(encode([keys[0]] * 3, world.thresholds), "miss")]
                + [_expecting(encode([key], world.thresholds), "miss") for key in keys[1:]]
            )
            items = []
            for _ in range(hits):
                draw = rng.random()
                if draw < HOPELESS_SHARE:
                    items.append(rejected[names[int(rng.integers(len(names)))]])
                elif draw < HOPELESS_SHARE + BATCH_SHARE:
                    picked = [keys[int(rng.integers(len(keys)))] for _ in range(3)]
                    items.append(_expecting(encode(picked, world.thresholds), "hit"))
                else:
                    key = keys[int(rng.integers(len(keys)))]
                    items.append(_expecting(encode([key], world.thresholds), "hit"))
            client_hits.append(items)
        plan.misses.append(client_misses)
        plan.hits.append(client_hits)
        plan.hopeless.append(
            [rejected[names[int(i)]] for i in rng.integers(len(names), size=REFRESH_STREAM)]
        )
    return plan


def _first_misses(world: ServingWorld, seed: int, clients: int) -> List[Exchange]:
    """Every client's first-epoch misses, one at a time as the storm sends them."""
    plan = _storm_plan(world, seed, clients, 0)
    loop = asyncio.new_event_loop()
    try:
        return [
            loop.run_until_complete(exchange(world.app, world.registry, request, time.perf_counter()))
            for client_misses in plan.misses for request in client_misses[0]
        ]
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


def refresh_storm(seed: int, seconds: float, tracer: Tracer,
                  setups: int = worlds.SETUPS) -> Outcome:
    """Closed-loop clients through the front door while a refresher hot-swaps models.

    Each epoch the clients send their misses one at a time (a miss waits for
    any other client's miss to finish), wait for one another, then send their
    hits; between epochs the refresher hot-swaps every tenant while the
    clients keep sending hopeless requests until it is done.  So a miss never
    shares the interpreter with another miss or a hit, whose overlap would
    otherwise decide its latency, and the requests during a refresh measure
    reads beside a write.

    The storm runs on the last set-up.  Each earlier set-up, built only to
    time ``setup_s``, first serves the storm's first-epoch misses, so the miss
    latencies come from stretches of the run tens of seconds apart: the host's
    speed drifts in phases of several seconds.
    """
    clients = storm_clients()
    early: List[Exchange] = []
    world, setup_times = worlds.timed_setups(
        lambda: _build_storm_world(clients), setups,
        between=lambda built: early.extend(_first_misses(built, seed, clients)),
    )
    hits = max(20, int(round(HITS_PER_EPOCH * seconds / 10.0)))
    plan = _storm_plan(world, seed, clients, hits)
    registry, app = world.registry, world.app

    loop = asyncio.new_event_loop()
    start_refresh = [threading.Event() for _ in range(EPOCHS - 1)]
    refresh_done = [asyncio.Event() for _ in range(EPOCHS - 1)]
    misses_done = [asyncio.Event() for _ in range(EPOCHS)]
    missed = [0] * EPOCHS
    one_miss = asyncio.Lock()
    arrived = [0] * (EPOCHS - 1)
    abort = threading.Event()
    outcomes: List[dict] = []
    refresh_error: List[Exception] = []

    def refresher() -> None:
        for index in range(EPOCHS - 1):
            try:
                if not start_refresh[index].wait(timeout=150.0):
                    raise TimeoutError("clients never reached the refresh point")
                if abort.is_set():
                    return
                outcomes.append(registry.refresh_all())
            except Exception as exc:  # noqa: BLE001 - handed to the main thread
                refresh_error.append(exc)
            finally:
                loop.call_soon_threadsafe(refresh_done[index].set)

    async def send(request: Request) -> Exchange:
        return await exchange(app, registry, request, time.perf_counter())

    async def client(index: int) -> List[Exchange]:
        records = []
        hopeless = iter(plan.hopeless[index])
        for epoch in range(EPOCHS):
            for request in plan.misses[index][epoch]:
                async with one_miss:
                    records.append(await send(request))
            missed[epoch] += 1
            if missed[epoch] == clients:
                misses_done[epoch].set()
            await misses_done[epoch].wait()
            for request in plan.hits[index][epoch]:
                records.append(await send(request))
            if epoch < EPOCHS - 1:
                arrived[epoch] += 1
                if arrived[epoch] == clients:
                    start_refresh[epoch].set()
                for request in hopeless:
                    records.append(await send(request))
                    if refresh_done[epoch].is_set():
                        break
                    await asyncio.sleep(REFRESH_THINK_SECONDS)
                await refresh_done[epoch].wait()
        return records

    async def storm() -> List[List[Exchange]]:
        return await asyncio.gather(*(client(index) for index in range(clients)))

    before = registry.stats()
    thread = threading.Thread(target=refresher, name="perfbench-refresher")
    tracer.phase = "measure"
    thread.start()
    try:
        per_client = loop.run_until_complete(storm())
    finally:
        abort.set()
        for event in start_refresh:
            event.set()
        thread.join(timeout=170.0)
        tracer.phase = "check"
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
    if refresh_error:
        raise refresh_error[0]
    after = registry.stats()

    exchanges = [record for records in per_client for record in records]
    begin = min(record.sent for record in exchanges)
    end = max(record.done for record in exchanges)
    misses = [record for record in exchanges + early if record.ran_gso() and not record.failed()]
    hits_only = [record for record in exchanges if not record.ran_gso() and not record.failed()]
    tally = Tally()
    tally.add(exchanges)
    early_ok = all(not record.failed() and record.ran_gso() for record in early)
    delta = _stats_delta(before, after)
    miss_requests = sum(1 for record in exchanges if record.request.expect == "miss")
    miss_batches = sum(
        1 for record in exchanges
        if record.request.expect == "miss" and record.request.path == "/find_batch"
    )
    swaps = {name: 0 for name in world.tenants}
    refresh_seconds, refresh_modes = [], []
    for outcome in outcomes:
        for name, result in outcome.items():
            if result.mode != "noop":
                swaps[name] += 1
            refresh_seconds.append(result.seconds)
            refresh_modes.append(f"{name}:{result.mode}:{result.num_new_pairs}")
    generations_ok = all(registry.get(name).generation == swaps[name] for name in world.tenants)
    polluted, cached = _cache_pollution(registry)

    compliance, iou = _delivered_quality(tally.answers, world)
    miss_p50 = _ms(median([record.seconds for record in misses]))
    hit_latencies = [record.seconds for record in hits_only]
    q, hit_tail = _tail_ms(hit_latencies)
    storm_qps = len(exchanges) / (end - begin)
    metrics = _end_to_end(setup_times, miss_p50, storm_qps, compliance, iou)
    named = [
        ("miss_p50_ms", miss_p50, "ms"),
        ("hit_p50_ms", _ms(median(hit_latencies)), "ms"),
        (f"hit_p{q:g}_ms", hit_tail, "ms"),
        ("storm_qps", storm_qps, "req/s"),
        ("refresh_p50_s", median(refresh_seconds) if refresh_seconds else 0.0, "s"),
        ("refreshes", " ".join(refresh_modes), "tenant:mode:pairs"),
        ("failed_ratio", tally.failed / tally.attempted, "ratio"),
        ("compliance", compliance, "ratio"),
        ("iou", iou, "ratio"),
        ("misses", float(len(misses)), "count"),
        ("clients", float(clients), "count"),
    ]
    checks = [
        ("every response was served, cached or rejected", tally.statuses),
        ("every response's generation lies in the window sampled around it", tally.generations),
        ("first requests ran GSO, repeats hit the cache, hopeless ones were rejected",
         tally.expected),
        ("one GSO run per first request", delta["gso_runs"] == miss_requests),
        ("duplicate batch entries were coalesced", delta["coalesced"] == 2 * miss_batches),
        ("the rejected count equals the hopeless entries sent",
         delta["rejected"] == tally.hopeless_entries),
        ("every tenant's generation counts its swaps", generations_ok),
        ("every refresh swapped a model", all(count == EPOCHS - 1 for count in swaps.values())),
        ("every surviving cache entry re-predicts bit-identically", cached > 0 and polluted == 0),
        ("the first-epoch misses on the earlier set-ups all ran GSO", early_ok),
    ]
    layer = dict(_api_layer(delta))
    layer["surrogate.trees"] = _served_trees(registry.get(n).finder for n in world.tenants)
    layer["loadgen.hit_tail_ms"] = hit_tail
    early_failed = sum(1 for record in early if record.failed())
    return Outcome(metrics, named, checks, tally.attempted + len(early),
                   tally.failed + early_failed, layer)


def _cache_pollution(registry: ModelRegistry) -> Tuple[int, int]:
    """Cached proposals that no longer re-predict under their tenant's surrogate."""
    polluted = cached = 0
    for name in registry.names():
        kernel = registry.get(name)
        with kernel._lock:
            surrogate = kernel._finder.surrogate_
            entries = list(kernel._cache.values())
        for result in entries:
            cached += 1
            for proposal in result.proposals:
                if surrogate.predict_vector(proposal.region.to_vector()) != proposal.predicted_value:
                    polluted += 1
    return polluted, cached


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "cold_find": cold_find,
    "hot_serve": hot_serve,
    "refresh_storm": refresh_storm,
}
