"""Figure 7 — the log objective (Eq. 4) vs the ratio objective (Eq. 2) landscape.

The paper visualises both objectives over the 2-dim (x₁, l₁) solution space of
a d = 1, k = 3 dataset for c ∈ {1, 2, 3, 4}: the log objective is undefined on
infeasible regions (white area) while the ratio objective stays defined and can
mislead the swarm.  This runner evaluates both objectives on a regular grid and
reports, per (objective, c): the fraction of the grid where the objective is
defined, and whether the grid's best cell lies inside a ground-truth region.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.objective import make_objective
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.experiments import common
from repro.experiments.config import ExperimentScale, SMALL, get_scale


def _solution_grid(num_centers: int, num_lengths: int) -> np.ndarray:
    centers = np.linspace(0.02, 0.98, num_centers)
    lengths = np.linspace(0.01, 0.5, num_lengths)
    grid = np.array([[x, l] for x in centers for l in lengths])
    return grid


def run(
    scale: ExperimentScale = SMALL,
    c_values: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
    num_centers: int = 40,
    num_lengths: int = 30,
    random_state: int = 9,
) -> List[Dict]:
    """Evaluate both objectives over the (x₁, l₁) grid for each ``c``."""
    scale = get_scale(scale)
    synthetic = common.make_dataset("density", dim=1, num_regions=3, scale=scale, random_state=random_state)
    engine = common.build_engine(synthetic)
    threshold = synthetic.suggested_threshold()
    grid = _solution_grid(num_centers, num_lengths)
    gt_centers = np.asarray([gt.region.center[0] for gt in synthetic.ground_truth])
    gt_half = float(synthetic.ground_truth[0].region.half_lengths[0])

    rows: List[Dict] = []
    for c in c_values:
        query = RegionQuery(threshold=threshold, direction="above", size_penalty=float(c))
        for kind in ("log", "ratio"):
            objective = make_objective(kind, engine.evaluate_batch, query)
            values = objective.evaluate_batch(grid)
            defined = np.isfinite(values)
            if np.any(defined):
                best_index = int(np.argmax(np.where(defined, values, -np.inf)))
                best_center = grid[best_index, 0]
                best_on_ground_truth = bool(np.any(np.abs(gt_centers - best_center) <= gt_half))
            else:
                best_on_ground_truth = False
            rows.append(
                {
                    "objective": kind,
                    "c": float(c),
                    "defined_fraction": float(np.mean(defined)),
                    "best_on_ground_truth": best_on_ground_truth,
                    "grid_size": grid.shape[0],
                }
            )
    return rows
