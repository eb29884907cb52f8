"""Analyst queries and the region solution space they are answered over.

A :class:`RegionQuery` captures the analytics task the paper introduces:
"find regions whose statistic is above (or below) the cut-off ``y_R``",
together with the size-regularisation strength ``c`` from Eq. 2/4.

A :class:`SolutionSpace` describes the ``2d``-dimensional box the optimiser
searches: centres range over the data bounding box, half side lengths over a
configurable fraction of each dimension's extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Tuple

import numpy as np

from repro.data.regions import Region
from repro.exceptions import ValidationError

Direction = Literal["above", "below"]


@dataclass(frozen=True)
class RegionQuery:
    """A threshold query: find regions with statistic above/below ``threshold``.

    Parameters
    ----------
    threshold:
        The cut-off value ``y_R``.
    direction:
        ``"above"`` seeks regions with ``f(x, l) > y_R`` (the paper's default in
        experiments); ``"below"`` seeks ``f(x, l) < y_R``.
    size_penalty:
        The regularisation exponent ``c`` in Eqs. 2/4; larger values favour
        smaller (finer-grained) regions.
    """

    threshold: float
    direction: Direction = "above"
    size_penalty: float = 4.0

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValidationError(f"direction must be 'above' or 'below', got {self.direction!r}")
        if not np.isfinite(self.threshold):
            raise ValidationError(f"threshold must be finite, got {self.threshold}")
        if self.size_penalty < 0:
            raise ValidationError(f"size_penalty must be >= 0, got {self.size_penalty}")

    def margin(self, value: float | np.ndarray) -> float | np.ndarray:
        """Signed slack of ``value`` w.r.t. the constraint (positive = satisfied).

        ``value`` is one statistic or an array of them; the slack has its shape.
        """
        if self.direction == "above":
            return np.subtract(value, self.threshold, dtype=np.float64)
        return np.subtract(self.threshold, value, dtype=np.float64)

    def satisfied_by(self, value: float) -> bool:
        """Whether a statistic value satisfies the query's constraint (strictly)."""
        return bool(self.margin(value) > 0.0)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        comparator = ">" if self.direction == "above" else "<"
        return f"f(x, l) {comparator} {self.threshold} (c={self.size_penalty})"


@dataclass(frozen=True)
class SolutionSpace:
    """The ``2d``-dimensional box the optimiser searches over.

    Parameters
    ----------
    data_bounds:
        Bounding box of the data over the region columns.
    min_half_fraction / max_half_fraction:
        Half side lengths are constrained to this fraction of each dimension's
        extent (default 0.5 %–50 %, i.e. regions can cover up to the whole domain).
    """

    data_bounds: Region
    min_half_fraction: float = 0.005
    max_half_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.min_half_fraction < self.max_half_fraction:
            raise ValidationError(
                "must satisfy 0 < min_half_fraction < max_half_fraction, got "
                f"{self.min_half_fraction} and {self.max_half_fraction}"
            )

    @property
    def region_dim(self) -> int:
        """Dimensionality ``d`` of the regions."""
        return self.data_bounds.dim

    @property
    def solution_dim(self) -> int:
        """Dimensionality of the solution vectors (``2 d``)."""
        return 2 * self.region_dim

    @property
    def extent(self) -> np.ndarray:
        """Per-dimension extent of the data bounding box."""
        return self.data_bounds.upper - self.data_bounds.lower

    def bounds_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower/upper bound vectors of the ``[x, l]`` solution space."""
        extent = self.extent
        lower = np.concatenate([self.data_bounds.lower, self.min_half_fraction * extent])
        upper = np.concatenate([self.data_bounds.upper, self.max_half_fraction * extent])
        return lower, upper

    def clip_vector(self, vector: np.ndarray) -> np.ndarray:
        """Clip a solution vector into the admissible box."""
        lower, upper = self.bounds_vectors()
        return np.clip(np.asarray(vector, dtype=np.float64), lower, upper)

    def contains_vector(self, vector: np.ndarray) -> bool:
        """Whether a solution vector lies inside the admissible box."""
        lower, upper = self.bounds_vectors()
        vector = np.asarray(vector, dtype=np.float64)
        return bool(np.all(vector >= lower - 1e-12) and np.all(vector <= upper + 1e-12))

    @classmethod
    def from_workload_features(
        cls,
        features: np.ndarray,
        min_half_fraction: float = 0.005,
        max_half_fraction: float = 0.5,
    ) -> "SolutionSpace":
        """Infer the solution space from past-evaluation feature vectors ``[x, l]``.

        The data bounding box is reconstructed from the extremes of the
        evaluated regions, so SuRF never needs the raw data to know where to
        search.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] % 2 != 0:
            raise ValidationError("features must be a (n, 2d) array of [x, l] vectors")
        if features.shape[0] < 1:
            raise ValidationError(
                "features must contain at least one evaluation to infer the solution space"
            )
        dim = features.shape[1] // 2
        centers = features[:, :dim]
        halves = features[:, dim:]
        lower = (centers - halves).min(axis=0)
        upper = (centers + halves).max(axis=0)
        return cls(Region.from_bounds(lower, upper), min_half_fraction, max_half_fraction)
