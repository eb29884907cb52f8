"""Glowworm Swarm Optimization (Krishnanand & Ghose, 2009).

GSO is the multimodal swarm optimiser the paper uses to find *many* regions of
interest at once.  Each particle ("glowworm") carries a luciferin level that
tracks its fitness (Eq. 6 of the paper); particles move towards brighter
neighbours inside an adaptive local-decision radius (Eq. 7), which lets the
swarm split into groups that converge to different local optima.

This implementation adds the paper's two extensions:

* fitness values of ``-inf`` (infeasible regions under the log objective,
  Eq. 4) are handled by letting luciferin simply decay, so infeasible
  particles never attract neighbours but can still be pulled towards feasible
  ones;
* neighbour-selection probabilities can be re-weighted by the data mass of
  the neighbour's region (Eq. 8) via the ``selection_weight`` callback.

The movement phase is a whole-swarm vectorised kernel.  It consumes the
seeded RNG stream in exactly the order the original per-particle loop did —
one uniform draw per particle that has neighbours, one ``normal(size=d)`` draw
per isolated infeasible particle, in particle-index order — and makes the same
floating-point decisions, so seeded runs produce bit-identical trajectories.
(The one theoretical exception: the kernel compares squared distances against
squared radii, which could disagree with the loop's ``norm <= radius`` only
when a pairwise distance ties with a decision radius to within one rounding
error.)  The per-particle loop lives on as the equivalence oracle in
``tests/helpers/gso_reference.py``, which the equivalence tests and the
movement microbenchmarks compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.optim.result import OptimizationResult
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_array


@dataclass
class GSOParameters:
    """Hyper-parameters of the glowworm swarm.

    Defaults follow the original GSO paper and the values SuRF uses:
    ``rho = 0.4``, ``gamma = 0.6``, initial luciferin 5.0, ``beta = 0.08`` and
    a desired neighbourhood size of 5.
    """

    num_particles: int = 100
    num_iterations: int = 100
    luciferin_decay: float = 0.4
    luciferin_gain: float = 0.6
    initial_luciferin: float = 5.0
    step_size: float = 0.03
    initial_radius: Optional[float] = None
    max_radius: Optional[float] = None
    radius_gain: float = 0.08
    desired_neighbours: int = 5
    convergence_tolerance: float = 1e-3
    convergence_patience: int = 15
    min_iterations: int = 30
    #: Isolated particles sitting on an undefined (infeasible) objective value take a
    #: random step instead of staying frozen, so a swarm that starts with no feasible
    #: particle can still discover the feasible set.
    explore_when_isolated: bool = True
    random_state: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_particles < 2:
            raise ValidationError(f"num_particles must be >= 2, got {self.num_particles}")
        if self.num_iterations < 1:
            raise ValidationError(f"num_iterations must be >= 1, got {self.num_iterations}")
        if not 0 < self.luciferin_decay < 1:
            raise ValidationError(f"luciferin_decay must be in (0, 1), got {self.luciferin_decay}")
        if self.luciferin_gain <= 0:
            raise ValidationError(f"luciferin_gain must be > 0, got {self.luciferin_gain}")
        if self.step_size <= 0:
            raise ValidationError(f"step_size must be > 0, got {self.step_size}")
        if self.desired_neighbours < 1:
            raise ValidationError(f"desired_neighbours must be >= 1, got {self.desired_neighbours}")
        if self.initial_radius is not None and self.initial_radius <= 0:
            raise ValidationError(f"initial_radius must be > 0, got {self.initial_radius}")
        if self.max_radius is not None and self.max_radius <= 0:
            raise ValidationError(f"max_radius must be > 0, got {self.max_radius}")
        if (
            self.initial_radius is not None
            and self.max_radius is not None
            and self.max_radius < self.initial_radius
        ):
            raise ValidationError(
                f"max_radius ({self.max_radius}) must be >= initial_radius ({self.initial_radius})"
            )

    @staticmethod
    def recommended_radius(num_particles: int, dim: int) -> float:
        """Radius heuristic the paper adopts: ``(1 - 0.5**(1/L))**(1/d)``.

        Derived from the expected edge length needed for each particle to see a
        constant expected number of neighbours in a unit cube (Friedman et al.,
        Elements of Statistical Learning, Eq. 2.24).
        """
        num_particles = max(2, int(num_particles))
        dim = max(1, int(dim))
        return float((1.0 - 0.5 ** (1.0 / num_particles)) ** (1.0 / dim))

    @classmethod
    def for_dimension(cls, dim: int, **overrides) -> "GSOParameters":
        """Parameters scaled to the region-solution-space dimensionality.

        The paper increases the swarm with dimensionality (``L = 50 d`` over the
        2d-dimensional solution space) and sets the initial radius with the
        heuristic above.
        """
        dim = max(1, int(dim))
        num_particles = overrides.pop("num_particles", 50 * dim)
        radius = cls.recommended_radius(num_particles, dim)
        defaults = dict(
            num_particles=num_particles,
            initial_radius=radius,
            max_radius=max(radius * 3.0, 1.0),
        )
        defaults.update(overrides)
        return cls(**defaults)


class GlowwormSwarmOptimizer:
    """Multimodal maximiser over a box-bounded continuous solution space.

    Parameters
    ----------
    objective:
        Callable mapping a solution vector (shape ``(D,)``) to a scalar fitness.
        ``-inf`` / ``nan`` mark infeasible solutions.
    lower_bounds / upper_bounds:
        Box constraints of the solution space (positions are clipped to stay inside).
    parameters:
        :class:`GSOParameters`; defaults are created if omitted.
    batch_objective:
        Optional vectorised fitness over a ``(L, D)`` matrix returning ``(L,)``
        values.  Used in preference to ``objective`` for the per-iteration
        swarm evaluation (a large speed-up for surrogate models).
    selection_weight:
        Optional callable giving a positive weight for a candidate neighbour's
        position; selection probabilities are multiplied by it (Eq. 8 uses the
        KDE region mass here).
    batch_selection_weight:
        Optional vectorised version of ``selection_weight`` over a ``(L, D)``
        matrix; evaluated once per iteration for the whole swarm.
    initial_positions:
        Optional explicit start positions of shape ``(L, D)``.
    profile_hook:
        Optional observer with an ``on_iteration(iteration, evaluations,
        radii, fitness)`` method (e.g. :class:`repro.obs.GSORunProfile`),
        called once per swarm iteration with the running evaluation count,
        the decision radii and the fitness vector.  ``None`` (the default)
        costs one ``is not None`` check per iteration — the hook never touches
        the RNG stream, so seeded trajectories are identical with or without
        it.
    """

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        lower_bounds: Sequence[float],
        upper_bounds: Sequence[float],
        parameters: Optional[GSOParameters] = None,
        batch_objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        selection_weight: Optional[Callable[[np.ndarray], float]] = None,
        batch_selection_weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        initial_positions: Optional[np.ndarray] = None,
        profile_hook=None,
    ):
        self.objective = objective
        self.batch_objective = batch_objective
        self.lower_bounds = check_array(lower_bounds, name="lower_bounds", ndim=1)
        self.upper_bounds = check_array(upper_bounds, name="upper_bounds", ndim=1)
        if self.lower_bounds.shape != self.upper_bounds.shape:
            raise ValidationError("lower_bounds and upper_bounds must have the same shape")
        if np.any(self.upper_bounds <= self.lower_bounds):
            raise ValidationError("upper_bounds must exceed lower_bounds in every dimension")
        self.dim = self.lower_bounds.shape[0]
        self.parameters = parameters or GSOParameters()
        self.selection_weight = selection_weight
        self.batch_selection_weight = batch_selection_weight
        self._initial_positions = initial_positions
        self.profile_hook = profile_hook
        self._evaluations = 0

    # ------------------------------------------------------------------ helpers
    def _evaluate(self, position: np.ndarray) -> float:
        self._evaluations += 1
        value = self.objective(position)
        if value is None or np.isnan(value):
            return -np.inf
        return float(value)

    def _evaluate_all(self, positions: np.ndarray) -> np.ndarray:
        if self.batch_objective is not None:
            self._evaluations += positions.shape[0]
            values = np.asarray(self.batch_objective(positions), dtype=np.float64)
            return np.where(np.isnan(values), -np.inf, values)
        return np.asarray([self._evaluate(position) for position in positions])

    def _selection_weights(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Per-particle selection weights (Eq. 8), or ``None`` when not configured."""
        if self.batch_selection_weight is not None:
            weights = np.asarray(self.batch_selection_weight(positions), dtype=np.float64)
            return np.clip(np.nan_to_num(weights, nan=0.0), 0.0, None)
        if self.selection_weight is not None:
            weights = np.asarray(
                [max(0.0, float(self.selection_weight(position))) for position in positions]
            )
            return weights
        return None

    def _initial_swarm(self, rng: np.random.Generator) -> np.ndarray:
        params = self.parameters
        if self._initial_positions is not None:
            positions = check_array(self._initial_positions, name="initial_positions", ndim=2)
            if positions.shape != (params.num_particles, self.dim):
                raise ValidationError(
                    f"initial_positions must have shape ({params.num_particles}, {self.dim}), "
                    f"got {positions.shape}"
                )
            return np.clip(positions.copy(), self.lower_bounds, self.upper_bounds)
        return rng.uniform(self.lower_bounds, self.upper_bounds, size=(params.num_particles, self.dim))

    # ------------------------------------------------------------------ movement phase
    def _movement_phase(
        self,
        positions: np.ndarray,
        luciferin: np.ndarray,
        radii: np.ndarray,
        fitness: np.ndarray,
        rng: np.random.Generator,
        step: float,
        max_radius: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One movement + adaptive-radius phase (Eq. 7 / Eq. 8).

        Returns the proposed (unclipped) positions and the updated decision
        radii.
        """
        selection_weights = self._selection_weights(positions)
        return self._move_vectorized(
            positions, luciferin, radii, fitness, selection_weights, rng, step, max_radius
        )

    def _move_vectorized(
        self,
        positions: np.ndarray,
        luciferin: np.ndarray,
        radii: np.ndarray,
        fitness: np.ndarray,
        selection_weights: Optional[np.ndarray],
        rng: np.random.Generator,
        step: float,
        max_radius: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-swarm movement kernel.

        Replaces the per-particle loop with one boolean neighbour matrix, a
        row-wise inverse-CDF neighbour draw and batched step updates.  The RNG
        stream and every floating-point decision match the per-particle
        reference loop (see the module docstring), which the equivalence
        tests assert.
        """
        params = self.parameters
        num_particles = params.num_particles
        new_positions = positions.copy()

        # Pairwise squared distances via one BLAS Gram matrix instead of an
        # O(L * L * d) broadcast; ``d <= r`` becomes
        # ``d^2 <= r^2``, which flips a neighbour decision only if a distance
        # sits within one rounding error of the radius.
        squared_norms = np.einsum("ij,ij->i", positions, positions)
        squared_distances = squared_norms[:, None] + squared_norms[None, :]
        squared_distances -= 2.0 * (positions @ positions.T)
        np.maximum(squared_distances, 0.0, out=squared_distances)

        # Neighbour matrix: j is a neighbour of i iff it is inside i's decision
        # radius and strictly brighter.  The diagonal is excluded by the strict
        # luciferin comparison but cleared explicitly for clarity.
        neighbour_mask = (squared_distances <= (radii * radii)[:, None]) & (
            luciferin[None, :] > luciferin[:, None]
        )
        np.fill_diagonal(neighbour_mask, False)
        counts = neighbour_mask.sum(axis=1)
        has_neighbours = counts > 0
        movers = np.flatnonzero(has_neighbours)
        if params.explore_when_isolated:
            explore_mask = ~has_neighbours & ~np.isfinite(fitness)
        else:
            explore_mask = np.zeros(num_particles, dtype=bool)

        # RNG draws, in particle-index order exactly as the reference loop
        # makes them: one uniform per mover (what ``rng.choice`` consumes), one
        # d-dimensional normal per isolated infeasible particle.  Vector draws
        # consume the bit stream exactly like the equivalent sequence of
        # scalar draws, so each *run* of consecutive same-kind particles can
        # be drawn in one call; only the boundaries between kinds matter.
        uniforms = np.zeros(num_particles)
        random_directions: Optional[np.ndarray] = None
        if explore_mask.any():
            random_directions = np.zeros((num_particles, self.dim))
            active = np.flatnonzero(has_neighbours | explore_mask)
            kinds = has_neighbours[active]
            run_starts = np.flatnonzero(np.diff(kinds)) + 1
            for run in np.split(active, run_starts):
                if has_neighbours[run[0]]:
                    uniforms[run] = rng.random(run.size)
                else:
                    random_directions[run] = rng.normal(size=(run.size, self.dim))
        elif movers.size:
            uniforms[movers] = rng.random(movers.size)

        if movers.size:
            mask = neighbour_mask[movers]
            # Luciferin gaps to every brighter neighbour; zero elsewhere so the
            # cumulative sums below reproduce the compacted per-particle sums.
            gaps = np.where(mask, luciferin[None, :] - luciferin[movers][:, None], 0.0)
            if selection_weights is not None:
                gaps = gaps * np.where(mask, selection_weights[None, :], 0.0)
            totals = np.cumsum(gaps, axis=1)[:, -1]
            probabilities = gaps / np.where(totals > 0, totals, 1.0)[:, None]
            degenerate = totals <= 0
            if degenerate.any():
                probabilities[degenerate] = mask[degenerate] / counts[movers][degenerate][:, None]
            # Row-wise inverse-CDF draw: identical to rng.choice's internal
            # cumsum + renormalise + searchsorted(side="right").
            cdf = np.cumsum(probabilities, axis=1)
            cdf /= cdf[:, -1:]
            chosen = np.sum(cdf <= uniforms[movers, None], axis=1)

            directions = positions[chosen] - positions[movers]
            # Batched matmul hits the same BLAS dot kernel as np.linalg.norm
            # on a single vector, keeping the norms bit-identical.
            norms = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0])
            moving = norms > 1e-12
            if moving.any():
                rows = movers[moving]
                new_positions[rows] = (
                    positions[rows] + step * directions[moving] / norms[moving][:, None]
                )

        if random_directions is not None:
            explorers = np.flatnonzero(explore_mask)
            directions = random_directions[explorers]
            norms = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0])
            moving = norms > 1e-12
            if moving.any():
                rows = explorers[moving]
                new_positions[rows] = (
                    positions[rows] + step * directions[moving] / norms[moving][:, None]
                )

        # Adaptive decision radius (vectorised Eq. 7 radius update).
        radii = np.clip(
            radii + params.radius_gain * (params.desired_neighbours - counts), 1e-6, max_radius
        )
        return new_positions, radii

    # ------------------------------------------------------------------ main loop
    def run(self) -> OptimizationResult:
        """Execute the swarm and return the final particle population."""
        params = self.parameters
        rng = ensure_rng(params.random_state)
        self._evaluations = 0

        extent = float(np.mean(self.upper_bounds - self.lower_bounds))
        step = params.step_size * extent
        initial_radius = params.initial_radius
        if initial_radius is None:
            initial_radius = GSOParameters.recommended_radius(params.num_particles, self.dim) * extent
        max_radius = params.max_radius
        if max_radius is None:
            max_radius = 3.0 * initial_radius

        positions = self._initial_swarm(rng)
        initial_positions = positions.copy()
        luciferin = np.full(params.num_particles, params.initial_luciferin)
        radii = np.full(params.num_particles, initial_radius)
        fitness = self._evaluate_all(positions)

        mean_history: list[float] = []
        feasible_history: list[float] = []
        best_mean = -np.inf
        best_feasible_fraction = 0.0
        stall = 0
        converged = False
        start = time.perf_counter()

        hook = self.profile_hook
        iterations_done = 0
        for iteration in range(params.num_iterations):
            iterations_done = iteration + 1
            # Phase 1 — luciferin update (Eq. 6). Infeasible particles only decay.
            finite = np.isfinite(fitness)
            luciferin = (1.0 - params.luciferin_decay) * luciferin
            luciferin[finite] += params.luciferin_gain * fitness[finite]

            # Phase 2 — movement towards brighter neighbours (Eq. 7 / Eq. 8).
            new_positions, radii = self._movement_phase(
                positions, luciferin, radii, fitness, rng, step, max_radius
            )
            positions = np.clip(new_positions, self.lower_bounds, self.upper_bounds)
            fitness = self._evaluate_all(positions)

            finite = np.isfinite(fitness)
            mean_fitness = float(fitness[finite].mean()) if np.any(finite) else float("nan")
            feasible_fraction = float(np.mean(finite))
            mean_history.append(mean_fitness)
            feasible_history.append(feasible_fraction)

            if hook is not None:
                hook.on_iteration(iterations_done, self._evaluations, radii, fitness)

            # Early stopping: neither the swarm's mean fitness nor the fraction of
            # feasible particles has improved for ``convergence_patience`` iterations.
            improved = False
            if np.isfinite(mean_fitness) and mean_fitness > best_mean + params.convergence_tolerance:
                best_mean = mean_fitness
                improved = True
            if feasible_fraction > best_feasible_fraction + 1e-9:
                best_feasible_fraction = feasible_fraction
                improved = True
            if improved:
                stall = 0
            else:
                stall += 1
                if iterations_done >= params.min_iterations and stall >= params.convergence_patience:
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
            function_evaluations=self._evaluations,
            elapsed_seconds=elapsed,
        )
