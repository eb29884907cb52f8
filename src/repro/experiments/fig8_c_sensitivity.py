"""Figure 8 — sensitivity of the size-regularisation parameter ``c``.

The paper spreads a fixed set of candidate solutions uniformly over the
solution space of a d = 1, k = 1 dataset and, for growing ``c``, counts how
many of them lie within a small radius of the objective's global peak: the
share of such "viable" solutions shrinks as ``c`` concentrates the optimum on
ever smaller regions.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.objective import make_objective
from repro.core.query import RegionQuery
from repro.experiments import common
from repro.experiments.config import ExperimentScale, SMALL, get_scale
from repro.utils.rng import ensure_rng


def run(
    scale: ExperimentScale = SMALL,
    c_values: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
    num_solutions: int = 800,
    radius: float = 0.2,
    random_state: int = 13,
) -> List[Dict]:
    """Return, per ``c``, the fraction of uniform solutions within ``radius`` of the peak."""
    scale = get_scale(scale)
    synthetic = common.make_dataset("density", dim=1, num_regions=1, scale=scale, random_state=random_state)
    engine = common.build_engine(synthetic)
    threshold = synthetic.suggested_threshold()

    rng = ensure_rng(random_state)
    solutions = np.column_stack(
        [rng.uniform(0.0, 1.0, size=num_solutions), rng.uniform(0.01, 0.5, size=num_solutions)]
    )

    rows: List[Dict] = []
    for c in c_values:
        query = RegionQuery(threshold=threshold, direction="above", size_penalty=float(c))
        objective = make_objective("log", engine.evaluate_batch, query)
        values = objective.evaluate_batch(solutions)
        defined = np.isfinite(values)
        if not np.any(defined):
            rows.append({"c": float(c), "viable_fraction": 0.0, "num_solutions": num_solutions})
            continue
        peak = solutions[int(np.argmax(np.where(defined, values, -np.inf)))]
        distances = np.linalg.norm(solutions - peak, axis=1)
        viable = defined & (distances <= radius)
        rows.append(
            {
                "c": float(c),
                "viable_fraction": float(np.mean(viable)),
                "num_solutions": num_solutions,
            }
        )
    return rows
