"""Online-refresh benchmarks: incremental warm-start refresh vs full retrain.

The online learning loop's acceptance bar (ISSUE 3): at ``W = 5,000`` past
evaluations with a drifting workload, folding freshly harvested pairs in via
warm-start boosting must be **≥ 5x cheaper** than retraining the surrogate
from scratch, while matching the full retrain's RMSE on held-out drifted
evaluations **within 10 %**.

The wall-clock floor can be relaxed on noisy shared CI runners with
``REPRO_ONLINE_SPEEDUP_FLOOR`` (the RMSE tolerance stays fixed — accuracy does
not depend on the runner).
"""

import os
import timeit

import pytest

from repro.data.engine import DataEngine
from repro.data.synthetic import make_synthetic_dataset
from repro.ml.boosting import GradientBoostingRegressor
from repro.online import IncrementalTrainer, QueryLog
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import generate_workload

#: The acceptance scale: base workload size and the drifted batch folded in.
BASE_WORKLOAD = 5_000
FRESH_PAIRS = 500
HOLDOUT_PAIRS = 400
#: Warm-start rounds per refresh — 10 % of the full ensemble, which is what
#: makes the incremental path ~6x cheaper while staying within the RMSE bar.
WARM_ROUNDS = 15


def _online_speedup_floor() -> float:
    """Required incremental-over-full speedup (default 5x, the acceptance floor)."""
    return float(os.environ.get("REPRO_ONLINE_SPEEDUP_FLOOR", "5.0"))


@pytest.fixture(scope="module")
def drifting_workload():
    """Base-world training data plus drifted-world fresh and holdout batches."""
    base = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=1, num_points=6_000, random_state=5
    )
    base_engine = DataEngine(base.dataset, base.statistic)
    workload = generate_workload(base_engine, BASE_WORKLOAD, random_state=0)

    drifted = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=2, num_points=6_000, random_state=23
    )
    drifted_engine = DataEngine(drifted.dataset, drifted.statistic)
    fresh = generate_workload(drifted_engine, FRESH_PAIRS, random_state=1)
    holdout = generate_workload(drifted_engine, HOLDOUT_PAIRS, random_state=2)

    trainer = SurrogateTrainer(
        estimator=GradientBoostingRegressor(n_estimators=150, max_depth=5, random_state=0),
        holdout_fraction=0.0,
        random_state=0,
    )
    surrogate = trainer.train(workload)
    return trainer, surrogate, workload, fresh, holdout


def test_bench_full_retrain(benchmark, drifting_workload):
    trainer, _, workload, fresh, holdout = drifting_workload
    merged = workload.merged_with(fresh)
    model = benchmark(trainer.train, merged)
    assert model.rmse(holdout.features, holdout.targets) > 0


def test_bench_incremental_refresh(benchmark, drifting_workload):
    trainer, surrogate, workload, fresh, holdout = drifting_workload
    merged = workload.merged_with(fresh)
    model = benchmark(trainer.train_incremental, surrogate, merged, WARM_ROUNDS)
    assert model.rmse(holdout.features, holdout.targets) > 0


def test_incremental_refresh_speedup_and_rmse_tolerance(drifting_workload):
    """The acceptance assertion: ≥ 5x cheaper, drifted-holdout RMSE within 10 %."""
    trainer, surrogate, workload, fresh, holdout = drifting_workload
    merged = workload.merged_with(fresh)

    full_seconds = min(timeit.repeat(lambda: trainer.train(merged), number=1, repeat=3))
    incremental_seconds = min(
        timeit.repeat(
            lambda: trainer.train_incremental(surrogate, merged, extra_rounds=WARM_ROUNDS),
            number=1,
            repeat=3,
        )
    )
    full_model = trainer.train(merged)
    incremental_model = trainer.train_incremental(surrogate, merged, extra_rounds=WARM_ROUNDS)

    speedup = full_seconds / incremental_seconds
    rmse_full = full_model.rmse(holdout.features, holdout.targets)
    rmse_incremental = incremental_model.rmse(holdout.features, holdout.targets)

    print(
        f"\nW={BASE_WORKLOAD}+{FRESH_PAIRS}: full retrain {full_seconds * 1e3:.0f} ms, "
        f"incremental {incremental_seconds * 1e3:.0f} ms ({speedup:.1f}x); "
        f"drifted-holdout RMSE full {rmse_full:.1f} vs incremental {rmse_incremental:.1f} "
        f"({rmse_incremental / rmse_full:.3f}x)"
    )
    assert speedup >= _online_speedup_floor(), (
        f"incremental refresh is only {speedup:.1f}x cheaper than a full retrain"
    )
    assert rmse_incremental <= 1.10 * rmse_full, (
        f"incremental RMSE {rmse_incremental:.2f} misses full-retrain RMSE "
        f"{rmse_full:.2f} by more than 10%"
    )


def test_end_to_end_service_refresh_latency(drifting_workload):
    """The whole kernel refresh (log drain → train → swap) stays sub-linear in W.

    Not a strict floor — just a guard that the hot-swap machinery (cursoring,
    satisfiability merge, finder rebuild) adds only small overhead on top of
    the incremental training cost measured above.
    """
    from repro.api import ServiceKernel
    from repro.core.finder import SuRF

    trainer, _, workload, fresh, _ = drifting_workload
    finder = SuRF(trainer=trainer, use_density_guidance=False, random_state=0)
    finder.fit(workload)
    kernel = ServiceKernel(
        finder,
        query_log=QueryLog(capacity=100_000),
        incremental_trainer=IncrementalTrainer.from_finder(
            finder, warm_start_rounds=WARM_ROUNDS, full_refit_on_drift=False
        ),
    )
    kernel.observe_many(list(fresh))

    incremental_seconds = min(
        timeit.repeat(
            lambda: trainer.train_incremental(
                kernel.finder.surrogate_, workload.merged_with(fresh), extra_rounds=WARM_ROUNDS
            ),
            number=1,
            repeat=3,
        )
    )
    import time

    start = time.perf_counter()
    outcome = kernel.refresh()
    refresh_seconds = time.perf_counter() - start

    print(
        f"\nkernel.refresh(): {refresh_seconds * 1e3:.0f} ms total for "
        f"{outcome.num_new_pairs} pairs (training alone: {incremental_seconds * 1e3:.0f} ms)"
    )
    assert outcome.mode == "incremental"
    assert kernel.generation == 1
    # Swap overhead (everything that is not training) stays small.
    assert refresh_seconds < 3.0 * incremental_seconds + 0.5
