"""Micro-benchmarks of the core primitives (repeated-measurement pytest-benchmark runs).

Unlike the per-figure benchmarks (which run a whole experiment once), these
time the hot operations SuRF relies on: exact back-end evaluation, surrogate
prediction, KDE region mass and one swarm iteration's worth of fitness calls.
"""

import numpy as np
import pytest

from recursive_predict import recursive_predict
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.regions import Region
from repro.data.synthetic import make_synthetic_dataset
from repro.density.region_mass import RegionMassEstimator
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import generate_workload
from repro.ml.boosting import GradientBoostingRegressor


@pytest.fixture(scope="module")
def prepared(bench_scale_module):
    scale = bench_scale_module
    synthetic = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=1, num_points=scale.num_points, random_state=0
    )
    engine = DataEngine(synthetic.dataset, synthetic.statistic)
    workload = generate_workload(engine, 2 * scale.workload_size, random_state=0)
    trainer = SurrogateTrainer(
        estimator=GradientBoostingRegressor(n_estimators=80, max_depth=5, random_state=0), random_state=0
    )
    surrogate = trainer.train(workload)
    density = RegionMassEstimator(random_state=0).fit(
        synthetic.dataset.sample(min(1_000, synthetic.dataset.num_rows), random_state=0).values
    )
    probe = synthetic.ground_truth[0].region
    batch = np.tile(probe.to_vector(), (100, 1))
    return engine, surrogate, density, probe, batch


@pytest.fixture(scope="module")
def bench_scale_module():
    import os

    from repro.experiments.config import get_scale

    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))


def test_bench_exact_engine_evaluation(benchmark, prepared):
    engine, _, _, probe, _ = prepared
    result = benchmark(engine.evaluate, probe)
    assert result > 0


def test_bench_surrogate_single_prediction(benchmark, prepared):
    _, surrogate, _, probe, _ = prepared
    result = benchmark(surrogate.predict_region, probe)
    assert result > 0


def test_bench_surrogate_batch_prediction(benchmark, prepared):
    _, surrogate, _, _, batch = prepared
    result = benchmark(surrogate.predict, batch)
    assert result.shape == (100,)


def test_bench_kde_region_mass_batch(benchmark, prepared):
    _, _, density, _, batch = prepared
    result = benchmark(density.mass_of_vectors, batch)
    assert result.shape == (100,)


def test_kde_tabulated_mass_speedup(prepared):
    """Eq. 8 box masses read from the fit-time CDF table against the exact
    per-sample ndtr sum, per 60-box batch (the swarm size of a default find):
    agreement within 2e-4 first, then the speed-up floor."""
    kde = prepared[2]._estimator
    assert kde._table is not None
    rng = np.random.default_rng(0)
    low, high = kde._samples.min(axis=0), kde._samples.max(axis=0)
    centres = rng.uniform(low, high, size=(60, kde.dim))
    halves = rng.uniform(0.01, 0.25, size=centres.shape) * (high - low)
    lowers, uppers = centres - halves, centres + halves
    np.testing.assert_allclose(
        kde.region_mass_batch(lowers, uppers), kde._exact_mass_batch(lowers, uppers),
        rtol=0.0, atol=2e-4,
    )
    exact, table = _best_of(
        lambda: kde._exact_mass_batch(lowers, uppers), lambda: kde.region_mass_batch(lowers, uppers)
    )
    speedup = exact / table
    print(f"\nKDE mass, 60 boxes: exact {exact * 1e3:.2f} ms, table {table * 1e6:.0f} us -> {speedup:.0f}x")
    assert speedup >= _speedup_floor()


# --------------------------------------------------------------------------- vectorization
# Before/after benchmarks for the vectorised hot paths: the whole-swarm GSO
# movement kernel vs. the per-particle reference loop (the test-side oracle in
# tests/helpers/gso_reference.py), and the
# engine's broadcast evaluate_batch vs. the seed's per-region scalar path
# (one evaluate_vector call per particle, which is what the true-GSO baseline
# used to pay every iteration).  The speedup tests assert the ISSUE's >= 5x
# acceptance floor using best-of-several timings.

GSO_BENCH_PARTICLES = 400
BATCH_BENCH_REGIONS = 1_000


def _speedup_floor() -> float:
    """Required speedup factor (default 5x; override for noisy shared CI runners)."""
    import os

    return float(os.environ.get("REPRO_SPEEDUP_FLOOR", "5.0"))


def _best_of(slow, fast, rounds=11):
    """Warm best-of-N wall-clock for each callable, measured back to back.

    Each side runs its repeats consecutively (not interleaved) so both are
    timed warm, the way the kernels run inside a real optimisation loop —
    interleaving would let the reference path's large temporaries evict the
    vectorised kernel's working set and skew the ratio.
    """
    import timeit

    return (
        min(timeit.repeat(slow, number=1, repeat=rounds)),
        min(timeit.repeat(fast, number=1, repeat=rounds)),
    )


@pytest.fixture(scope="module")
def swarm_state():
    """A mid-run swarm snapshot at L=400 with a realistic mix of fitness values,
    plus one optimiser per movement implementation."""
    from gso_reference import ReferenceGlowwormSwarmOptimizer

    from repro.optim.gso import GlowwormSwarmOptimizer, GSOParameters

    dim = 4
    rng = np.random.default_rng(0)
    params = GSOParameters(num_particles=GSO_BENCH_PARTICLES, num_iterations=1, random_state=0)
    optimizers = {
        movement: optimizer_cls(
            lambda m: -np.sum((m - 0.5) ** 2, axis=1), [0.0] * dim, [1.0] * dim, params
        )
        for movement, optimizer_cls in (
            ("reference", ReferenceGlowwormSwarmOptimizer),
            ("vectorized", GlowwormSwarmOptimizer),
        )
    }
    positions = rng.uniform(size=(GSO_BENCH_PARTICLES, dim))
    luciferin = rng.uniform(1.0, 10.0, size=GSO_BENCH_PARTICLES)
    radii = np.full(GSO_BENCH_PARTICLES, 0.3)
    fitness = -np.sum((positions - 0.5) ** 2, axis=1)
    step = 0.03
    max_radius = 1.0
    return optimizers, positions, luciferin, radii, fitness, step, max_radius


def _movement_timer(swarm_state, movement):
    optimizers, positions, luciferin, radii, fitness, step, max_radius = swarm_state
    optimizer = optimizers[movement]

    def run_once():
        rng = np.random.default_rng(123)
        return optimizer._movement_phase(
            positions, luciferin, radii.copy(), fitness, rng, step, max_radius
        )

    return run_once


def test_bench_gso_iteration_reference(benchmark, swarm_state):
    new_positions, _ = benchmark(_movement_timer(swarm_state, "reference"))
    assert new_positions.shape == (GSO_BENCH_PARTICLES, 4)


def test_bench_gso_iteration_vectorized(benchmark, swarm_state):
    new_positions, _ = benchmark(_movement_timer(swarm_state, "vectorized"))
    assert new_positions.shape == (GSO_BENCH_PARTICLES, 4)


def test_gso_iteration_vectorized_speedup(swarm_state):
    """The vectorised movement kernel is >= 5x the per-particle loop at L=400."""
    reference = _movement_timer(swarm_state, "reference")
    vectorized = _movement_timer(swarm_state, "vectorized")
    # Identical results first (same RNG stream, same floating-point decisions).
    ref_positions, ref_radii = reference()
    vec_positions, vec_radii = vectorized()
    assert np.array_equal(ref_positions, vec_positions)
    assert np.array_equal(ref_radii, vec_radii)

    time_reference, time_vectorized = _best_of(reference, vectorized)
    speedup = time_reference / time_vectorized
    print(
        f"\nGSO movement at L={GSO_BENCH_PARTICLES}: reference {time_reference * 1e3:.2f} ms, "
        f"vectorized {time_vectorized * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= _speedup_floor()


@pytest.fixture(scope="module")
def evaluation_batch(prepared):
    """1,000 random region vectors over the prepared engine's data bounds."""
    from repro.data.regions import random_region

    engine = prepared[0]
    rng = np.random.default_rng(11)
    bounds = engine.region_bounds()
    regions = [random_region(rng, bounds, 0.01, 0.3) for _ in range(BATCH_BENCH_REGIONS)]
    return engine, np.stack([region.to_vector() for region in regions])


def test_bench_engine_evaluate_batch(benchmark, evaluation_batch):
    engine, vectors = evaluation_batch
    result = benchmark(engine.evaluate_batch, vectors)
    assert result.shape == (BATCH_BENCH_REGIONS,)


def test_bench_engine_evaluate_looped(benchmark, evaluation_batch):
    engine, vectors = evaluation_batch

    def looped():
        return np.asarray([engine.evaluate_vector(vector) for vector in vectors])

    result = benchmark.pedantic(looped, rounds=3, iterations=1)
    assert result.shape == (BATCH_BENCH_REGIONS,)


def test_engine_evaluate_batch_speedup(evaluation_batch):
    """evaluate_batch of 1,000 regions is >= 5x the per-region scalar path."""
    engine, vectors = evaluation_batch

    def looped():
        return np.asarray([engine.evaluate_vector(vector) for vector in vectors])

    def batched():
        return engine.evaluate_batch(vectors)

    assert np.array_equal(looped(), batched())
    time_looped, time_batched = _best_of(looped, batched, rounds=5)
    speedup = time_looped / time_batched
    print(
        f"\nevaluate_batch of {BATCH_BENCH_REGIONS} regions: looped {time_looped * 1e3:.1f} ms, "
        f"batched {time_batched * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= _speedup_floor()


# --------------------------------------------------------------------------- compiled inference
# Compiled (flat SoA kernel, repro.ml.compiled — what every tree model's
# predict runs) vs. the recursive walk it replaced (the test-side oracle in
# tests/helpers/recursive_predict.py) on two workload shapes: a single row
# predicted 10,000 times (the scalar serving path) and one 10,000-row batch.
# Floors:
#
# * single-row per-call speedup >= REPRO_SPEEDUP_FLOOR (default 5x; ~13x here),
# * per-prediction cost of the compiled 10k-row batch vs. recursive single-row
#   calls >= the same floor (~300x in practice — this is the number that makes
#   the GSO loop's thousands of swarm evaluations cheap),
# * compiled 10k-batch vs. recursive 10k-batch >= REPRO_COMPILED_BATCH_FLOOR
#   (default 1.0 — a no-regression guard; at this size the recursive path is
#   already amortised over rows and both sides are gather-bound, so the honest
#   batch-vs-batch ratio is ~1.2x, reported informationally).

SINGLE_ROW_CALLS = 10_000
#: Per-call cost of the recursive side is measured on a sample of the 10k-call
#: workload: at ~2ms/call the full loop would take ~20s per timing round.
RECURSIVE_CALL_SAMPLE = 400
LARGE_BATCH_ROWS = 10_000


def _compiled_batch_floor() -> float:
    """Floor for compiled-vs-recursive at equal 10k-row batches (default: no regression)."""
    import os

    return float(os.environ.get("REPRO_COMPILED_BATCH_FLOOR", "1.0"))


@pytest.fixture(scope="module")
def compiled_pair(prepared):
    """The prepared 80-tree boosting surrogate, compiled, plus query workloads."""
    _, surrogate, _, _, _ = prepared
    estimator = surrogate.estimator
    predictor = estimator.compile()
    rng = np.random.default_rng(17)
    single = rng.uniform(size=(1, predictor.num_features))
    batch = rng.uniform(size=(LARGE_BATCH_ROWS, predictor.num_features))
    return estimator, predictor, single, batch


def test_bench_compiled_single_row(benchmark, compiled_pair):
    _, predictor, single, _ = compiled_pair
    result = benchmark(predictor.predict, single)
    assert result.shape == (1,)


def test_bench_recursive_single_row(benchmark, compiled_pair):
    estimator, _, single, _ = compiled_pair
    result = benchmark(recursive_predict, estimator, single)
    assert result.shape == (1,)


def test_bench_compiled_large_batch(benchmark, compiled_pair):
    _, predictor, _, batch = compiled_pair
    result = benchmark(predictor.predict, batch)
    assert result.shape == (LARGE_BATCH_ROWS,)


def test_compiled_single_row_speedup(compiled_pair):
    """Compiled single-row predict is >= 5x the recursive walk, per call."""
    estimator, predictor, single, _ = compiled_pair
    assert np.array_equal(recursive_predict(estimator, single), predictor.predict(single))

    def recursive_sample():
        for _ in range(RECURSIVE_CALL_SAMPLE):
            recursive_predict(estimator, single)

    def compiled_all():
        for _ in range(SINGLE_ROW_CALLS):
            predictor.predict(single)

    time_recursive, time_compiled = _best_of(recursive_sample, compiled_all, rounds=3)
    per_call_recursive = time_recursive / RECURSIVE_CALL_SAMPLE
    per_call_compiled = time_compiled / SINGLE_ROW_CALLS
    speedup = per_call_recursive / per_call_compiled
    print(
        f"\nsingle-row predict x{SINGLE_ROW_CALLS} calls: recursive {per_call_recursive * 1e6:.0f} us/call, "
        f"compiled {per_call_compiled * 1e6:.0f} us/call, speedup {speedup:.1f}x"
    )
    assert speedup >= _speedup_floor()


def test_compiled_batch_per_prediction_speedup(compiled_pair):
    """One compiled 10k-row batch vs. 10k recursive single-row calls, per prediction."""
    estimator, predictor, _, batch = compiled_pair
    assert np.array_equal(recursive_predict(estimator, batch), predictor.predict(batch))

    def recursive_calls():
        for row in batch[:RECURSIVE_CALL_SAMPLE]:
            recursive_predict(estimator, row[None, :])

    def compiled_batch():
        predictor.predict(batch)

    time_recursive, time_compiled = _best_of(recursive_calls, compiled_batch, rounds=3)
    per_prediction_recursive = time_recursive / RECURSIVE_CALL_SAMPLE
    per_prediction_compiled = time_compiled / LARGE_BATCH_ROWS
    speedup = per_prediction_recursive / per_prediction_compiled
    print(
        f"\nper prediction at n={LARGE_BATCH_ROWS}: recursive calls {per_prediction_recursive * 1e6:.0f} us, "
        f"compiled batch {per_prediction_compiled * 1e6:.2f} us, speedup {speedup:.0f}x"
    )
    assert speedup >= _speedup_floor()


def test_compiled_equal_batch_no_regression(compiled_pair):
    """Batch-vs-batch at 10k rows: both sides amortised — compiled must not lose."""
    estimator, predictor, _, batch = compiled_pair

    time_recursive, time_compiled = _best_of(
        lambda: recursive_predict(estimator, batch), lambda: predictor.predict(batch), rounds=5
    )
    ratio = time_recursive / time_compiled
    print(
        f"\n{LARGE_BATCH_ROWS}-row batch: recursive {time_recursive * 1e3:.1f} ms, "
        f"compiled {time_compiled * 1e3:.1f} ms, ratio {ratio:.2f}x "
        f"(floor {_compiled_batch_floor():.2f}x)"
    )
    assert ratio >= _compiled_batch_floor()


def test_bench_full_query_end_to_end(benchmark, prepared, bench_scale_module):
    engine, surrogate, density, probe, _ = prepared
    from repro.core.finder import SuRF
    from repro.optim.gso import GSOParameters

    scale = bench_scale_module
    finder = SuRF(
        gso_parameters=GSOParameters(
            num_particles=scale.num_particles, num_iterations=scale.num_iterations, random_state=0
        ),
        random_state=0,
    )
    workload = generate_workload(engine, scale.workload_size, random_state=1)
    finder.fit(workload, data_sample=engine.dataset.sample(500, random_state=0).values)
    query = RegionQuery(threshold=engine.evaluate(probe) * 0.8, direction="above")

    result = benchmark.pedantic(finder.find_regions, args=(query,), rounds=2, iterations=1)
    assert result.optimization.num_iterations > 0
