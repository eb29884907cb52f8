"""The per-particle GSO movement loop: the equivalence oracle for the kernel.

:class:`repro.optim.gso.GlowwormSwarmOptimizer` moves the whole swarm with one
vectorised kernel.  This module keeps the original per-particle loop it
replaced, as a subclass that overrides the kernel, so the equivalence tests
(``tests/unit/test_vectorization_equivalence.py``) can assert bit-identical
seeded runs and the microbenchmarks
(``benchmarks/test_bench_microbenchmarks.py``) can time the kernel against it.
Both consume the RNG stream in the same order: one uniform draw per particle
that has neighbours, one ``normal(size=d)`` draw per isolated infeasible
particle, in particle-index order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optim.gso import GlowwormSwarmOptimizer


class ReferenceGlowwormSwarmOptimizer(GlowwormSwarmOptimizer):
    """GSO whose movement phase runs the per-particle reference loop."""

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
        """Per-particle movement loop in place of the whole-swarm kernel.

        This is a faithful port of the original (pre-vectorisation) loop with
        one deliberate change: the selection-weight total is a sequential
        ``cumsum`` rather than numpy's pairwise ``sum``, so that it matches
        the row-wise cumulative sums of the vectorised kernel bit-for-bit.
        The two totals can differ in the last ulp for particles with more
        than ~8 neighbours, which would alter the original trajectory only if
        a uniform draw fell within one rounding error of the perturbed CDF
        boundary.
        """
        params = self.parameters
        distances = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
        radii = radii.copy()
        new_positions = positions.copy()
        for i in range(params.num_particles):
            neighbour_mask = (distances[i] <= radii[i]) & (luciferin > luciferin[i])
            neighbour_mask[i] = False
            neighbours = np.flatnonzero(neighbour_mask)
            if neighbours.size:
                gaps = luciferin[neighbours] - luciferin[i]
                weights = gaps.astype(np.float64)
                if selection_weights is not None:
                    weights = weights * selection_weights[neighbours]
                # Sequential (cumsum) total so the normalisation matches the
                # row-wise cumulative sums of the vectorised kernel bit-for-bit.
                total = float(np.cumsum(weights)[-1])
                if total <= 0:
                    probabilities = np.full(neighbours.size, 1.0 / neighbours.size)
                else:
                    probabilities = weights / total
                chosen = int(rng.choice(neighbours, p=probabilities))
                direction = positions[chosen] - positions[i]
                norm = np.linalg.norm(direction)
                if norm > 1e-12:
                    new_positions[i] = positions[i] + step * direction / norm
            elif params.explore_when_isolated and not np.isfinite(fitness[i]):
                # Isolated + infeasible: random walk so the particle keeps exploring.
                direction = rng.normal(size=self.dim)
                norm = np.linalg.norm(direction)
                if norm > 1e-12:
                    new_positions[i] = positions[i] + step * direction / norm
            # Adaptive decision radius.
            radii[i] = float(
                np.clip(
                    radii[i] + params.radius_gain * (params.desired_neighbours - neighbours.size),
                    1e-6,
                    max_radius,
                )
            )
        return new_positions, radii
