"""The result container and the shared fitness evaluation of the swarm optimisers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.utils.validation import check_batch_values


def evaluate_swarm(objective: Callable[[np.ndarray], np.ndarray], positions: np.ndarray) -> np.ndarray:
    """Fitness of every particle from one ``objective`` call over the ``(L, D)`` positions.

    The objective must return shape ``(L,)``; ``NaN`` fitness reads as ``-inf``
    (infeasible).
    """
    values = check_batch_values(objective(positions), positions.shape[0], name="objective")
    return np.where(np.isnan(values), -np.inf, values)


@dataclass
class OptimizationResult:
    """Outcome of a swarm optimisation run.

    Attributes
    ----------
    positions:
        Final particle positions, shape ``(L, D)``.
    fitness:
        Final fitness value of each particle (``-inf`` for infeasible ones).
    initial_positions:
        Particle positions before the first iteration (for Fig. 1-style plots).
    mean_fitness_history:
        Mean finite fitness per iteration — the ``E[J]`` convergence curves of Fig. 9.
    feasible_fraction_history:
        Fraction of particles with finite fitness per iteration.
    num_iterations:
        Iterations actually executed (≤ the configured maximum when converged early).
    converged:
        Whether the early-stopping criterion fired before the iteration budget.
    function_evaluations:
        Total number of fitness evaluations performed.
    elapsed_seconds:
        Wall-clock time of the run.
    """

    positions: np.ndarray
    fitness: np.ndarray
    initial_positions: np.ndarray
    mean_fitness_history: List[float] = field(default_factory=list)
    feasible_fraction_history: List[float] = field(default_factory=list)
    num_iterations: int = 0
    converged: bool = False
    function_evaluations: int = 0
    elapsed_seconds: float = 0.0

    @property
    def feasible_mask(self) -> np.ndarray:
        """Boolean mask of particles whose final fitness is finite."""
        return np.isfinite(self.fitness)

    @property
    def feasible_positions(self) -> np.ndarray:
        """Final positions of the feasible particles only."""
        return self.positions[self.feasible_mask]

    @property
    def feasible_fraction(self) -> float:
        """Fraction of particles that ended on a feasible (finite-fitness) solution."""
        if self.fitness.size == 0:
            return 0.0
        return float(np.mean(self.feasible_mask))

    def best(self) -> Optional[np.ndarray]:
        """Position of the single best particle, or ``None`` if none are feasible."""
        if not np.any(self.feasible_mask):
            return None
        return self.positions[int(np.nanargmax(np.where(self.feasible_mask, self.fitness, -np.inf)))]
