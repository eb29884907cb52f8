"""Standard (global-best) Particle Swarm Optimization.

PSO converges to a *single* optimum; the paper picks GSO over PSO precisely
because the region-mining problem is multimodal.  This implementation exists
for the ablation comparing the two on multimodal queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.optim.result import OptimizationResult, evaluate_swarm
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_array


@dataclass
class PSOParameters:
    """Hyper-parameters of the particle swarm (standard 2007 defaults)."""

    num_particles: int = 100
    num_iterations: int = 100
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    convergence_tolerance: float = 1e-4
    convergence_patience: int = 15
    random_state: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_particles < 2:
            raise ValidationError(f"num_particles must be >= 2, got {self.num_particles}")
        if self.num_iterations < 1:
            raise ValidationError(f"num_iterations must be >= 1, got {self.num_iterations}")
        if not 0 < self.inertia < 1.5:
            raise ValidationError(f"inertia must be in (0, 1.5), got {self.inertia}")


class ParticleSwarmOptimizer:
    """Maximises a fitness function over a box-bounded space with global-best PSO.

    Parameters
    ----------
    objective:
        Fitness of the whole swarm: maps the ``(L, D)`` positions to ``(L,)``
        values, called once per iteration.  ``-inf`` / ``nan`` mark infeasible
        solutions.
    lower_bounds / upper_bounds:
        Box constraints of the solution space (positions are clipped to stay inside).
    parameters:
        :class:`PSOParameters`; defaults are created if omitted.
    """

    def __init__(
        self,
        objective: Callable[[np.ndarray], np.ndarray],
        lower_bounds: Sequence[float],
        upper_bounds: Sequence[float],
        parameters: Optional[PSOParameters] = None,
    ):
        self.objective = objective
        self.lower_bounds = check_array(lower_bounds, name="lower_bounds", ndim=1)
        self.upper_bounds = check_array(upper_bounds, name="upper_bounds", ndim=1)
        if self.lower_bounds.shape != self.upper_bounds.shape:
            raise ValidationError("lower_bounds and upper_bounds must have the same shape")
        if np.any(self.upper_bounds <= self.lower_bounds):
            raise ValidationError("upper_bounds must exceed lower_bounds in every dimension")
        self.dim = self.lower_bounds.shape[0]
        self.parameters = parameters or PSOParameters()

    def run(self) -> OptimizationResult:
        """Execute the swarm and return the final population (global best is ``result.best()``)."""
        params = self.parameters
        rng = ensure_rng(params.random_state)

        extent = self.upper_bounds - self.lower_bounds
        positions = rng.uniform(self.lower_bounds, self.upper_bounds, size=(params.num_particles, self.dim))
        initial_positions = positions.copy()
        velocities = rng.uniform(-0.1, 0.1, size=positions.shape) * extent

        fitness = evaluate_swarm(self.objective, positions)
        personal_best = positions.copy()
        personal_best_fitness = fitness.copy()
        global_idx = int(np.argmax(np.where(np.isfinite(fitness), fitness, -np.inf)))
        global_best = positions[global_idx].copy()
        global_best_fitness = fitness[global_idx]

        mean_history: list[float] = []
        feasible_history: list[float] = []
        best_seen = global_best_fitness
        stall = 0
        converged = False
        start = time.perf_counter()

        iterations_done = 0
        for iteration in range(params.num_iterations):
            iterations_done = iteration + 1
            r1 = rng.uniform(size=positions.shape)
            r2 = rng.uniform(size=positions.shape)
            velocities = (
                params.inertia * velocities
                + params.cognitive * r1 * (personal_best - positions)
                + params.social * r2 * (global_best - positions)
            )
            positions = np.clip(positions + velocities, self.lower_bounds, self.upper_bounds)
            fitness = evaluate_swarm(self.objective, positions)

            improved = fitness > personal_best_fitness
            personal_best[improved] = positions[improved]
            personal_best_fitness[improved] = fitness[improved]
            best_idx = int(np.argmax(np.where(np.isfinite(personal_best_fitness), personal_best_fitness, -np.inf)))
            if personal_best_fitness[best_idx] > global_best_fitness:
                global_best = personal_best[best_idx].copy()
                global_best_fitness = personal_best_fitness[best_idx]

            finite = np.isfinite(fitness)
            mean_history.append(float(fitness[finite].mean()) if np.any(finite) else float("nan"))
            feasible_history.append(float(np.mean(finite)))

            if np.isfinite(global_best_fitness):
                if global_best_fitness > best_seen + params.convergence_tolerance:
                    best_seen = global_best_fitness
                    stall = 0
                else:
                    stall += 1
                    if stall >= params.convergence_patience:
                        converged = True
                        break

        elapsed = time.perf_counter() - start
        return OptimizationResult(
            positions=positions,
            fitness=fitness,
            initial_positions=initial_positions,
            mean_fitness_history=mean_history,
            feasible_fraction_history=feasible_history,
            num_iterations=iterations_done,
            converged=converged,
            function_evaluations=params.num_particles * (iterations_done + 1),
            elapsed_seconds=elapsed,
        )
