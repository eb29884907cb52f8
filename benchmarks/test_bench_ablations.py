"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the contribution of individual
SuRF components on a fixed multimodal density task:

* KDE-guided neighbour selection (Eq. 8) on/off,
* log objective (Eq. 4) vs ratio objective (Eq. 2),
* surrogate family (gradient boosting vs random forest vs k-NN vs ridge),
* GSO (multimodal) vs PSO (unimodal),
* warm-starting the swarm from past evaluations on/off.
"""

import numpy as np
from conftest import attach_rows

from repro.core.evaluation import average_iou, compliance_rate
from repro.core.finder import SuRF
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.synthetic import make_synthetic_dataset
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.linear import RidgeRegression
from repro.optim.gso import GSOParameters
from repro.optim.pso import ParticleSwarmOptimizer, PSOParameters
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import generate_workload


def _task(bench_scale, random_state=1):
    synthetic = make_synthetic_dataset(
        statistic="density", dim=2, num_regions=3, num_points=bench_scale.num_points, random_state=random_state
    )
    engine = DataEngine(synthetic.dataset, synthetic.statistic)
    workload = generate_workload(engine, 4 * bench_scale.workload_size, random_state=random_state)
    query = RegionQuery(threshold=synthetic.suggested_threshold(), direction="above", size_penalty=4.0)
    sample = engine.dataset.sample(min(800, engine.dataset.num_rows), random_state=random_state).values
    params = GSOParameters(
        num_particles=bench_scale.num_particles,
        num_iterations=bench_scale.num_iterations,
        random_state=random_state,
    )
    return synthetic, engine, workload, query, sample, params


def _evaluate_variant(synthetic, engine, query, finder, workload, sample):
    finder.fit(workload, data_sample=sample)
    result = finder.find_regions(query)
    regions = result.all_feasible_regions() or result.regions
    return {
        "iou": average_iou(regions, synthetic.ground_truth_regions),
        "compliance": compliance_rate(result.proposals, engine, query),
        "proposals": result.num_regions,
        "seconds": result.elapsed_seconds,
    }


def test_bench_ablation_density_guidance_and_objective(benchmark, bench_scale):
    synthetic, engine, workload, query, sample, params = _task(bench_scale)

    def run_all():
        rows = []
        variants = {
            "full SuRF (log objective, Eq.8 guidance)": dict(objective="log", use_density_guidance=True),
            "no density guidance": dict(objective="log", use_density_guidance=False),
            "ratio objective (Eq. 2)": dict(objective="ratio", use_density_guidance=True),
            "no warm start": dict(objective="log", use_density_guidance=True, warm_start_fraction=0.0),
        }
        for name, kwargs in variants.items():
            finder = SuRF(gso_parameters=params, random_state=1, **kwargs)
            outcome = _evaluate_variant(synthetic, engine, query, finder, workload, sample)
            rows.append({"variant": name, **outcome})
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    attach_rows(benchmark, rows, "Ablation — guidance, objective and warm start")
    assert len(rows) == 4


def test_bench_ablation_surrogate_family(benchmark, bench_scale):
    synthetic, engine, workload, query, sample, params = _task(bench_scale, random_state=2)

    families = {
        "gradient boosting": GradientBoostingRegressor(n_estimators=80, max_depth=5, random_state=2),
        "random forest": RandomForestRegressor(n_estimators=40, max_depth=10, random_state=2),
        "k-nearest neighbours": KNeighborsRegressor(n_neighbors=7, weights="distance"),
        "ridge regression": RidgeRegression(alpha=1.0),
    }

    def run_all():
        rows = []
        for name, estimator in families.items():
            finder = SuRF(
                trainer=SurrogateTrainer(estimator=estimator, random_state=2),
                gso_parameters=params,
                random_state=2,
            )
            outcome = _evaluate_variant(synthetic, engine, query, finder, workload, sample)
            rows.append({"surrogate": name, **outcome})
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    attach_rows(benchmark, rows, "Ablation — surrogate model family")
    assert len(rows) == 4


def test_bench_ablation_gso_vs_pso(benchmark, bench_scale):
    """GSO keeps multiple modes alive; PSO collapses to a single optimum."""
    synthetic, engine, workload, query, sample, params = _task(bench_scale, random_state=3)
    finder = SuRF(gso_parameters=params, random_state=3)
    finder.fit(workload, data_sample=sample)
    objective = finder.build_objective(query)
    lower, upper = finder.solution_space_.bounds_vectors()

    def run_both():
        gso_result = finder.find_regions(query)
        gso_iou = average_iou(gso_result.all_feasible_regions(), synthetic.ground_truth_regions)

        pso = ParticleSwarmOptimizer(
            objective.evaluate_batch,
            lower,
            upper,
            PSOParameters(
                num_particles=params.num_particles,
                num_iterations=params.num_iterations,
                random_state=3,
            ),
        )
        pso_result = pso.run()
        from repro.data.regions import Region

        pso_regions = [Region.from_vector(v) for v in pso_result.feasible_positions]
        pso_iou = average_iou(pso_regions, synthetic.ground_truth_regions)
        return [
            {"optimizer": "GSO (multimodal)", "iou": gso_iou, "distinct_proposals": gso_result.num_regions},
            {"optimizer": "PSO (unimodal)", "iou": pso_iou, "distinct_proposals": 1 if pso_regions else 0},
        ]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    attach_rows(benchmark, rows, "Ablation — GSO vs PSO on a k=3 multimodal query")
    assert len(rows) == 2
