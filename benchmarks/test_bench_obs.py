"""Observability overhead guard: tracing + metrics must stay near-free.

The PR 9 acceptance bounds:

* **Cached-burst overhead <= 10%** — serving an all-cached 16-query burst
  through a kernel with full observability (tracing, per-stage latency
  histograms, request counters) must cost at most 1.10x the uninstrumented
  kernel.  This is the paper's headline property again (cached latency
  independent of everything), now with the instrumentation riding along.
* **End-to-end find overhead <= 5%** — a cold GSO-backed ``find`` (where the
  optimiser dominates) must cost at most 1.05x with observability on; the
  per-iteration profile hook is one attribute check plus two trajectory
  appends per swarm iteration.

``REPRO_OBS_OVERHEAD_FLOOR`` relaxes both ceilings on noisy shared runners
(locally and in the tier-1 driver the acceptance values apply).  The measured
per-stage latency breakdown is written to
``benchmarks/results/test_bench_obs_stage_breakdown.txt``.
"""

import os
import time

import numpy as np
import pytest

from repro.api import FindRequest, ServiceKernel
from repro.core.finder import SuRF
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.synthetic import make_synthetic_dataset
from repro.ml.boosting import GradientBoostingRegressor
from repro.obs import Observability
from repro.optim.gso import GSOParameters
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import generate_workload

#: Queries per burst / distinct thresholds inside it (the PR 5 bench shape).
BATCH_QUERIES = 16
DISTINCT_QUERIES = 4
#: Rounds of the cached-burst timing loop (median-of-rounds is reported).
CACHED_ROUNDS = 400


def _cached_ceiling() -> float:
    """Allowed obs-on cached-burst latency ratio (acceptance: 1.10)."""
    return float(os.environ.get("REPRO_OBS_OVERHEAD_FLOOR", "1.10"))


def _find_ceiling() -> float:
    """Allowed obs-on end-to-end find latency ratio (acceptance: 1.05)."""
    return float(os.environ.get("REPRO_OBS_OVERHEAD_FLOOR", "1.05"))


@pytest.fixture(scope="module")
def obs_finder():
    synthetic = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=2, num_points=5_000, random_state=9
    )
    engine = DataEngine(synthetic.dataset, synthetic.statistic)
    workload = generate_workload(engine, 1_000, random_state=0)
    finder = SuRF(
        trainer=SurrogateTrainer(
            estimator=GradientBoostingRegressor(n_estimators=60, max_depth=4, random_state=0),
            random_state=0,
        ),
        gso_parameters=GSOParameters(num_particles=40, num_iterations=25, random_state=0),
        random_state=0,
    )
    sample = engine.dataset.sample(600, random_state=0).select_columns(engine.region_columns).values
    finder.fit(workload, data_sample=sample)
    return finder


@pytest.fixture(scope="module")
def obs_burst(obs_finder):
    """16 requests over 4 distinct thresholds — repeated analyst traffic."""
    model = obs_finder.satisfiability_
    templates = [
        RegionQuery(threshold=float(model.quantile(q)), direction="above")
        for q in np.linspace(0.70, 0.85, DISTINCT_QUERIES)
    ]
    return [
        FindRequest.from_query(templates[i % DISTINCT_QUERIES])
        for i in range(BATCH_QUERIES)
    ]


def _time_interleaved_bursts(bare_batch, observed_batch, burst):
    """Median wall-clock of all-cached bursts, bare and observed interleaved.

    Alternating the two kernels within each round means machine noise (CPU
    frequency drift, background load) hits both measurements alike instead of
    biasing whichever loop ran second.
    """
    bare_samples, observed_samples = [], []
    for _ in range(CACHED_ROUNDS):
        start = time.perf_counter()
        bare_batch(burst)
        middle = time.perf_counter()
        observed_batch(burst)
        bare_samples.append(middle - start)
        observed_samples.append(time.perf_counter() - middle)
    return float(np.median(bare_samples)), float(np.median(observed_samples))


def test_bench_obs_cached_burst_overhead(obs_finder, obs_burst):
    """Full observability costs <= 10% on the all-cached 16-query burst."""
    bare = ServiceKernel(obs_finder)
    observed = ServiceKernel(
        obs_finder, name="observed", observability=Observability()
    )

    # Cold passes fill both caches — and verdicts must be identical before
    # any latency claim.
    bare_responses = bare.handle_batch(obs_burst)
    observed_responses = observed.handle_batch(obs_burst)
    for lhs, rhs in zip(bare_responses, observed_responses):
        assert lhs.status == rhs.status
        assert lhs.proposals == rhs.proposals

    bare_seconds, observed_seconds = _time_interleaved_bursts(
        bare.handle_batch, observed.handle_batch, obs_burst
    )

    ratio = observed_seconds / bare_seconds
    print(
        f"\ncached 16-query burst: bare {bare_seconds * 1e6:.1f}us, "
        f"observed {observed_seconds * 1e6:.1f}us, ratio {ratio:.2f}x "
        f"(ceiling {_cached_ceiling():.2f}x)"
    )
    assert ratio <= _cached_ceiling()

    _write_stage_breakdown(observed)


def test_bench_obs_end_to_end_find_overhead(obs_finder, obs_burst):
    """Observability costs <= 5% on a cold GSO-backed find."""
    request = obs_burst[0]

    def one_cold_find(observability) -> float:
        kernel = ServiceKernel(obs_finder, observability=observability)
        start = time.perf_counter()
        response = kernel.handle(request)
        elapsed = time.perf_counter() - start
        assert response.status == "served"
        return elapsed

    # Interleaved best-of-5: a ~200ms optimiser run jitters by several
    # percent on its own, so alternate the two variants and take each side's
    # best rather than timing two separate loops.
    bare_samples, observed_samples = [], []
    for _ in range(5):
        bare_samples.append(one_cold_find(None))
        observed_samples.append(one_cold_find(Observability()))
    bare_seconds = min(bare_samples)
    observed_seconds = min(observed_samples)

    ratio = observed_seconds / bare_seconds
    print(
        f"\ncold GSO find: bare {bare_seconds * 1e3:.1f}ms, "
        f"observed {observed_seconds * 1e3:.1f}ms, ratio {ratio:.2f}x "
        f"(ceiling {_find_ceiling():.2f}x)"
    )
    assert ratio <= _find_ceiling()


def _write_stage_breakdown(kernel) -> None:
    """Write the measured per-stage latency means to the results artifact."""
    from conftest import write_results

    from repro.experiments.reporting import format_table
    from repro.obs import parse_prometheus_text

    parsed = parse_prometheus_text(kernel.observability.metrics.render())
    sums = parsed.get("repro_request_latency_seconds_sum", {})
    counts = parsed.get("repro_request_latency_seconds_count", {})
    rows = []
    for labels, total in sorted(sums.items()):
        count = counts.get(labels, 0.0)
        if count:
            stage = labels.split('stage="')[1].rstrip('"}')
            rows.append(
                {
                    "stage": stage,
                    "observations": int(count),
                    "mean_us": f"{total / count * 1e6:.2f}",
                }
            )
    write_results(
        "test_bench_obs_stage_breakdown",
        format_table(rows, title="per-stage latency breakdown (obs-on cached burst)"),
    )
