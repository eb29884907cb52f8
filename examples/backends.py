#!/usr/bin/env python3
"""Pluggable data backends: one engine API, four storage engines.

The paper's back-end "data/analytics system" is opaque — SuRF only needs
exact answers to ``f(x, l)``.  This example runs the *same* engine API over
all four :mod:`repro.backends` implementations and shows that:

1. every backend returns **bit-identical** statistics and masks
   (``numpy`` in-memory, ``chunked`` memory-mapped files, ``sqlite`` range
   ``WHERE`` scans, ``sharded`` parallel shards);
2. a surrogate trained against one backend serves queries identically no
   matter which backend ground-truths the proposals — here the
   ``ServiceKernel`` harvests its query log through a *sharded* exact engine;
3. backend choice is a capability decision (out-of-core? parallel? SQL?),
   not a correctness decision.

Run with ``python examples/backends.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import RegionQuery, ServiceKernel, SuRF
from repro.data import DataEngine, make_crimes_like
from repro.data.statistics import CountStatistic
from repro.experiments.reporting import format_table
from repro.online import QueryLog
from repro.optim.gso import GSOParameters

NUM_POINTS = 40_000
BACKENDS = {
    "numpy": None,
    "chunked": {"block_rows": 8_192},
    "sqlite": None,
    "sharded": {"num_shards": 4},
}


def main() -> None:
    crimes = make_crimes_like(num_points=NUM_POINTS, random_state=0)
    statistic = CountStatistic()

    # ----------------------------------------------------------- 1. bit-identical scans
    rng = np.random.default_rng(7)
    vectors = np.column_stack(
        [rng.uniform(0.2, 0.8, size=(32, 2)), rng.uniform(0.01, 0.1, size=(32, 2))]
    )
    rows, reference, engines = [], None, {}
    for name, options in BACKENDS.items():
        engine = DataEngine(crimes, statistic, backend=name, backend_options=options)
        start = time.perf_counter()
        values = engine.evaluate_batch(vectors)
        seconds = time.perf_counter() - start
        if reference is None:
            reference = values
        assert np.array_equal(values, reference), f"{name} diverged from the reference"
        rows.append(
            {
                "backend": name,
                "out_of_core": engine.backend.out_of_core,
                "parallel": engine.backend.parallel,
                "batch_of_32_ms": round(seconds * 1e3, 2),
            }
        )
        engines[name] = engine
    print(format_table(rows, title=f"Backend capability/latency (N={NUM_POINTS:,}, bit-identical results)"))

    # ------------------------------------------- 2. serving ground-truthed by any backend
    finder = SuRF.from_engine(
        engines["numpy"],
        num_evaluations=1_000,
        gso_parameters=GSOParameters(num_particles=40, num_iterations=25, random_state=0),
        random_state=0,
    )
    threshold = float(np.quantile(engines["numpy"].statistic_sample(100, random_state=1), 0.75))
    log = QueryLog(capacity=1_000)
    kernel = ServiceKernel(finder, query_log=log, exact_engine=engines["sharded"])
    response = kernel.handle(RegionQuery(threshold=threshold, direction="above"))
    assert response.status == "served" and response.proposals
    assert kernel.stats.harvested == len(response.proposals)
    harvested = log.since(0)[0]
    exact = engines["chunked"].evaluate_many([pair.region for pair in harvested])
    assert np.array_equal(exact, np.asarray([pair.value for pair in harvested]))
    print(
        f"served {len(response.proposals)} proposals; {kernel.stats.harvested} pairs "
        "ground-truthed through the sharded backend and verified bit-identical "
        "against the chunked backend"
    )

    for engine in engines.values():
        engine.close()
    print("backends demo OK")


if __name__ == "__main__":
    main()
