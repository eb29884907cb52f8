#!/usr/bin/env python3
"""Online learning: serve, harvest the query log, refresh, hot-swap.

The paper trains the surrogate on "pairs ``([x, l], y)`` harvested from the
query log" — a loop this example runs end to end:

1. **Offline**: fit a ``SuRF`` finder on ``W = 1,000`` past evaluations of a
   base distribution and serve it from a ``ServiceKernel`` wired to a ``QueryLog``.
2. **Drift**: the deployment's traffic shifts to a *different* distribution
   (here: the planted density clusters move); 500 exact evaluations from the
   drifted world are observed into the log.
3. **Refresh**: ``kernel.refresh()`` folds the logged pairs into the
   surrogate — warm-start rounds normally, a full refit when the rolling
   residual monitor says the model has drifted — refreshes the Eq. 5
   satisfiability CDF from the enlarged sample, and **hot-swaps** the new
   models atomically (one pointer swap; in-flight queries finish on the old
   generation).
4. The surrogate's RMSE on held-out *drifted* evaluations must improve
   measurably (asserted — this script doubles as the serve-smoke CI check),
   while a refresh with zero new pairs stays a bit-identical no-op.

Run with ``python examples/online.py``.
"""

from __future__ import annotations

import numpy as np

from repro import QueryLog, RegionQuery, ServiceKernel, SuRF
from repro.data import DataEngine, make_synthetic_dataset
from repro.experiments.reporting import format_table
from repro.optim.gso import GSOParameters
from repro.surrogate.workload import generate_workload


def build_kernel() -> ServiceKernel:
    """The offline phase: W = 1,000 past evaluations of the base distribution."""
    base = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=1, num_points=6_000, random_state=3
    )
    engine = DataEngine(base.dataset, base.statistic)
    workload = generate_workload(engine, num_evaluations=1_000, random_state=0)
    finder = SuRF(
        use_density_guidance=False,
        gso_parameters=GSOParameters(num_particles=60, num_iterations=40, random_state=0),
        random_state=0,
    )
    finder.fit(workload)
    print(f"offline: surrogate trained on W={finder.workload_size_} base-distribution pairs")
    return ServiceKernel(finder, query_log=QueryLog(capacity=100_000))


def main() -> None:
    kernel = build_kernel()

    # A refresh before anything was logged is a strict no-op: nothing swaps,
    # the cache survives, serving stays bit-identical.
    query = RegionQuery(
        threshold=kernel.finder.satisfiability_.quantile(0.75), direction="above"
    )
    cold = kernel.handle(query)
    noop = kernel.refresh()
    warm = kernel.handle(query)
    assert noop.mode == "noop" and kernel.generation == 0, noop
    assert warm.status == "cached" and warm.result is cold.result, warm
    print(f"no new pairs: refresh is a no-op (mode={noop.mode!r}, cache intact)")

    # The world drifts: traffic now comes from a distribution whose planted
    # clusters sit elsewhere.  500 exact evaluations are harvested into the
    # query log; 400 more are held out to measure the surrogate honestly.
    drifted = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=2, num_points=6_000, random_state=17
    )
    drifted_engine = DataEngine(drifted.dataset, drifted.statistic)
    observed = generate_workload(drifted_engine, num_evaluations=500, random_state=1)
    holdout = generate_workload(drifted_engine, num_evaluations=400, random_state=2)
    kernel.observe_many(list(observed))
    print(f"drift: {kernel.pending_log_entries} exact drifted-world pairs logged")

    rmse_before = kernel.finder.surrogate_.rmse(holdout.features, holdout.targets)
    samples_before = kernel.finder.satisfiability_.num_samples
    workload_before = kernel.finder.workload_size_
    outcome = kernel.refresh()
    rmse_after = kernel.finder.surrogate_.rmse(holdout.features, holdout.targets)

    rows = [
        {"metric": "refresh mode", "value": outcome.mode},
        {"metric": "drift score (rolling/baseline RMSE)", "value": f"{outcome.drift_score:.2f}"},
        {"metric": "pairs folded in", "value": outcome.num_new_pairs},
        {"metric": "training workload", "value": f"{workload_before} -> {outcome.workload_size}"},
        {
            "metric": "Eq. 5 CDF sample",
            "value": f"{samples_before} -> {kernel.finder.satisfiability_.num_samples}",
        },
        {"metric": "holdout RMSE (drifted region)", "value": f"{rmse_before:.1f} -> {rmse_after:.1f}"},
        {"metric": "refresh wall clock", "value": f"{outcome.seconds * 1e3:.0f} ms"},
        {"metric": "model generation", "value": kernel.generation},
    ]
    print(format_table(rows, title="\nserve -> log -> refresh -> swap"))

    # The acceptance gate: folding harvested pairs must measurably improve the
    # surrogate where the traffic actually lives now.
    assert outcome.mode in ("incremental", "full"), outcome
    assert kernel.generation == 1
    assert np.isfinite(rmse_after)
    assert rmse_after < 0.9 * rmse_before, (
        f"refresh did not measurably improve drifted-region RMSE: "
        f"{rmse_before:.2f} -> {rmse_after:.2f}"
    )

    # And the refreshed kernel keeps serving: the swapped-in satisfiability
    # model knows the drifted statistic range, the swarm the enlarged space.
    response = kernel.handle(
        RegionQuery(threshold=kernel.finder.satisfiability_.quantile(0.75), direction="above")
    )
    assert response.status == "served" and response.proposals, response
    print(
        f"\npost-swap serving OK: {len(response.proposals)} proposals, "
        f"stats={kernel.stats.as_dict()}"
    )
    improvement = 100.0 * (1.0 - rmse_after / rmse_before)
    print(f"online refresh improved drifted-region RMSE by {improvement:.0f}%")


if __name__ == "__main__":
    main()
