"""Turning converged glowworms into a clean list of distinct region proposals.

After a GSO run many particles sit on (or near) the same local optimum.  This
module filters out infeasible particles, sorts the rest by objective value and
greedily merges particles whose regions overlap heavily, so the analyst gets
one representative proposal per discovered mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.objective import RegionObjective
from repro.data.regions import Region
from repro.exceptions import ValidationError
from repro.optim.result import OptimizationResult
from repro.utils.validation import check_batch_values


@dataclass(frozen=True)
class RegionProposal:
    """A single proposed region of interest.

    Attributes
    ----------
    region:
        The proposed hyper-rectangle.
    predicted_value:
        The statistic the surrogate (or true function) predicts for it.
    objective_value:
        The objective value the optimiser assigned to it.
    support:
        Number of swarm particles merged into this proposal (a crude confidence signal).
    """

    region: Region
    predicted_value: float
    objective_value: float
    support: int = 1

    @property
    def vector(self) -> np.ndarray:
        """The proposal's ``[x, l]`` solution vector."""
        return self.region.to_vector()


def proposals_from_result(
    result: OptimizationResult,
    objective: RegionObjective,
    overlap_threshold: float = 0.3,
    max_proposals: Optional[int] = None,
    min_support: int = 1,
) -> List[RegionProposal]:
    """Cluster the final swarm into distinct region proposals.

    Parameters
    ----------
    result:
        The finished optimisation run.
    objective:
        The objective used during the run.  Its ``statistic`` annotates each
        cluster with one batch call, and ``evaluate_batch`` reports the
        representatives' objective values.
    overlap_threshold:
        Two particles are considered the same mode when their regions' IoU
        exceeds this value.  Clusters are seeded in decreasing objective order,
        but each cluster is *represented* by the member whose predicted margin
        over the threshold is largest — the objective's maximiser sits right on
        the predicted feasibility boundary, where surrogate error makes true
        violations likely, whereas the max-margin member is the cluster's most
        robustly satisfying region.
    max_proposals:
        Keep at most this many proposals (highest objective first).
    min_support:
        Drop proposals supported by fewer than this many particles.
    """
    if not 0 <= overlap_threshold <= 1:
        raise ValidationError(f"overlap_threshold must be in [0, 1], got {overlap_threshold}")
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")

    feasible = result.feasible_mask
    if not np.any(feasible):
        return []
    positions = result.positions[feasible]
    fitness = result.fitness[feasible]
    order = np.argsort(fitness)[::-1]

    seed_regions: List[Region] = []
    members: List[List[int]] = []
    for index in order:
        region = Region.from_vector(positions[index])
        merged = False
        for cluster_index, seed in enumerate(seed_regions):
            if seed.iou(region) >= overlap_threshold:
                members[cluster_index].append(int(index))
                merged = True
                break
        if not merged:
            seed_regions.append(region)
            members.append([int(index)])

    representative_vectors: List[np.ndarray] = []
    representative_predictions: List[float] = []
    supports: List[int] = []
    for indices in members:
        if len(indices) < min_support:
            continue
        cluster_vectors = positions[indices]
        predictions = check_batch_values(
            objective.statistic(cluster_vectors), len(indices), name="statistic"
        )
        best = int(np.argmax(objective.query.margin(predictions)))
        representative_vectors.append(cluster_vectors[best])
        representative_predictions.append(float(predictions[best]))
        supports.append(len(indices))
    if not representative_vectors:
        return []

    # The cluster seed (highest-fitness member) and the max-margin representative
    # are generally *different* particles, so the representative's objective is
    # re-evaluated — one batch call over all representatives — to keep
    # ``objective_value`` consistent with ``region``/``predicted_value``.
    representative_objectives = objective.evaluate_batch(np.stack(representative_vectors))
    proposals = [
        RegionProposal(
            region=Region.from_vector(vector),
            predicted_value=prediction,
            objective_value=float(value),
            support=support,
        )
        for vector, prediction, value, support in zip(
            representative_vectors, representative_predictions, representative_objectives, supports
        )
    ]
    proposals.sort(key=lambda proposal: proposal.objective_value, reverse=True)
    if max_proposals is not None:
        proposals = proposals[: int(max_proposals)]
    return proposals
