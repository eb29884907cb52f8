"""f+GlowWorm: glowworm swarm optimisation driven by the *true* statistic.

Identical to SuRF's optimisation stage except that every fitness evaluation
queries the back-end :class:`DataEngine` — this is the accuracy upper bound
and cost lower bound the paper compares against (its run time scales with
``N`` while SuRF's does not).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.objective import ObjectiveKind, make_objective
from repro.core.postprocess import RegionProposal, proposals_from_result
from repro.core.query import RegionQuery, SolutionSpace
from repro.data.engine import DataEngine
from repro.optim.gso import GlowwormSwarmOptimizer, GSOParameters
from repro.optim.result import OptimizationResult


@dataclass
class TrueGSOResult:
    """Proposals plus raw optimisation diagnostics for an f+GlowWorm run."""

    proposals: List[RegionProposal]
    optimization: OptimizationResult
    elapsed_seconds: float
    function_evaluations: int


class TrueFunctionGSO:
    """GSO over the true objective (no surrogate).

    Parameters
    ----------
    objective:
        ``"log"`` (Eq. 4, default) or ``"ratio"`` (Eq. 2).
    gso_parameters:
        Swarm configuration; scaled to the solution dimensionality when omitted.
    min_half_fraction / max_half_fraction / overlap_threshold:
        Same meaning as in :class:`repro.core.finder.SuRF`.
    """

    def __init__(
        self,
        objective: ObjectiveKind = "log",
        gso_parameters: Optional[GSOParameters] = None,
        min_half_fraction: float = 0.005,
        max_half_fraction: float = 0.5,
        overlap_threshold: float = 0.3,
        random_state: Optional[int] = None,
    ):
        self.objective_kind = objective
        self.gso_parameters = gso_parameters
        self.min_half_fraction = float(min_half_fraction)
        self.max_half_fraction = float(max_half_fraction)
        self.overlap_threshold = float(overlap_threshold)
        self.random_state = random_state

        self.last_result_: Optional[TrueGSOResult] = None

    def find_regions(
        self,
        engine: DataEngine,
        query: RegionQuery,
        max_proposals: Optional[int] = None,
    ) -> List[RegionProposal]:
        """Mine regions for ``query`` by optimising the true objective directly."""
        start = time.perf_counter()
        engine.reset_evaluation_counter()

        space = SolutionSpace(
            engine.region_bounds(),
            min_half_fraction=self.min_half_fraction,
            max_half_fraction=self.max_half_fraction,
        )
        # One batched engine call per swarm iteration: a broadcast over the
        # data instead of L scalar scans.
        objective = make_objective(self.objective_kind, engine.evaluate_batch, query)
        parameters = self.gso_parameters
        if parameters is None:
            parameters = GSOParameters.for_dimension(space.solution_dim, random_state=self.random_state)

        lower, upper = space.bounds_vectors()
        optimizer = GlowwormSwarmOptimizer(objective.evaluate_batch, lower, upper, parameters)
        result = optimizer.run()
        proposals = proposals_from_result(
            result,
            objective,
            overlap_threshold=self.overlap_threshold,
            max_proposals=max_proposals,
        )
        elapsed = time.perf_counter() - start
        self.last_result_ = TrueGSOResult(
            proposals=proposals,
            optimization=result,
            elapsed_seconds=elapsed,
            function_evaluations=engine.num_evaluations,
        )
        return proposals
