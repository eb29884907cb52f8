#!/usr/bin/env python3
"""Serving: train once, ship an artifact bundle, answer heavy query traffic.

This example walks the deployment story the paper's Table I motivates:

1. **Offline** (the beefy machine): evaluate a workload against the back-end,
   fit a ``SuRF`` finder and save the whole thing — surrogate, solution space,
   density model, Eq. 5 satisfiability model, configuration — to a single
   artifact bundle with ``finder.save(path)``.
2. **Online** (the serving host): load the bundle with
   ``ServiceKernel.from_bundle`` — no data, no engine, no training — and serve
   threshold queries with result caching, Eq. 5 rejection of hopeless
   thresholds, and coalesced multi-query batches.

The script asserts the serving contract as it goes (a cold query is
``served``, its repeat ``cached`` without a second GSO run, and a hopeless
threshold ``rejected``), so it doubles as the bundle + serving smoke check.
Run with ``python examples/serving.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import RegionQuery, ServiceKernel, SuRF
from repro.data import DataEngine, make_synthetic_dataset
from repro.experiments.reporting import format_table
from repro.optim.gso import GSOParameters
from repro.surrogate.workload import generate_workload


def train_and_save(bundle_path: Path) -> None:
    """The offline phase: one engine pass, one fit, one file on disk."""
    synthetic = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=2, num_points=6_000, random_state=3
    )
    engine = DataEngine(synthetic.dataset, synthetic.statistic)
    workload = generate_workload(engine, num_evaluations=1_500, random_state=0)
    finder = SuRF(
        gso_parameters=GSOParameters(num_particles=60, num_iterations=50, random_state=0),
        random_state=0,
    )
    data_sample = engine.dataset.sample(800, random_state=0).values
    finder.fit(workload, data_sample=data_sample)
    saved = finder.save(bundle_path)
    print(
        f"offline: trained on {finder.workload_size_} evaluations over "
        f"{engine.dataset.num_rows} points, bundle saved to {saved.name} "
        f"({saved.stat().st_size / 1024:.0f} KiB)"
    )


def serve_from_bundle(bundle_path: Path) -> None:
    """The online phase: everything below runs without touching the data."""
    kernel = ServiceKernel.from_bundle(bundle_path, cache_size=64)
    model = kernel.finder.satisfiability_

    # Thresholds chosen from the Eq. 5 statistic CDF, like the paper's Q3 pick.
    q3 = RegionQuery(threshold=model.quantile(0.75), direction="above")
    q9 = RegionQuery(threshold=model.quantile(0.90), direction="above")
    hopeless = RegionQuery(threshold=model.quantile(1.0) * 10, direction="above")

    rows = []
    for label, query, expected in [
        ("cold (GSO runs)", q3, "served"),
        ("repeat (cache hit)", q3, "cached"),
        ("rejected (Eq. 5)", hopeless, "rejected"),
    ]:
        response = kernel.handle(query)
        assert response.status == expected, (label, response)
        assert bool(response.proposals) == (expected != "rejected"), (label, response)
        rows.append(
            {
                "request": label,
                "status": response.status,
                "satisfiability": f"{response.satisfiability:.2f}",
                "proposals": len(response.proposals),
                "latency_ms": f"{response.elapsed_seconds * 1e3:.2f}",
            }
        )
    print(format_table(rows, title="\nsingle-query serving"))
    assert kernel.stats.gso_runs == 1, kernel.stats

    # A burst of concurrent analyst traffic: repeated thresholds dominate, so
    # coalescing + caching answer 12 queries with only one new GSO run.
    burst = [q3, q9, q3, hopeless, q9, q3, q9, q3, q9, q3, hopeless, q9]
    start = time.perf_counter()
    responses = kernel.handle_batch(burst)
    batch_seconds = time.perf_counter() - start
    statuses = {status: sum(1 for r in responses if r.status == status) for status in ("served", "cached", "rejected")}
    print(
        f"\nbatch of {len(burst)} queries in {batch_seconds * 1e3:.0f} ms "
        f"({len(burst) / batch_seconds:.1f} queries/s): {statuses}"
    )

    stats = kernel.stats
    print(
        f"kernel stats: {stats.queries} queries, {stats.gso_runs} GSO runs, "
        f"{stats.cache_hits} cache hits, {stats.coalesced} coalesced, "
        f"{stats.rejected} rejected, hit rate {stats.hit_rate:.0%}"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = Path(tmp) / "surf.bundle"
        train_and_save(bundle_path)
        serve_from_bundle(bundle_path)


if __name__ == "__main__":
    main()
