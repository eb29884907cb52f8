"""Uniform interface for region probability-mass estimation (Eq. 8 guidance).

The GSO optimiser only needs one operation from a density model: "how much
data mass does this candidate region cover?".  :class:`RegionMassEstimator`
wraps either estimator behind that single method and adds the small-floor
behaviour used when re-weighting neighbour-selection probabilities.
"""

from __future__ import annotations

from typing import Literal, Optional, Union

import numpy as np

from repro.data.regions import Region
from repro.density.histogram import HistogramDensityEstimator
from repro.density.kde import GaussianKDE
from repro.exceptions import NotFittedError, ValidationError
from repro.utils.validation import check_array

EstimatorKind = Literal["kde", "histogram"]


class RegionMassEstimator:
    """Estimates ``∫_{x-l}^{x+l} p_A(a) da`` for candidate regions.

    After ``fit``, every query method is read-only; the serving layer
    (:mod:`repro.api`) relies on this to share one fitted estimator across
    concurrently executing GSO runs without locking.

    Parameters
    ----------
    method:
        ``"kde"`` (Gaussian KDE, works in any dimensionality) or
        ``"histogram"`` (cheaper, low dimensions only).
    floor:
        A small positive lower bound applied to returned masses so that
        multiplying selection probabilities by the mass (Eq. 8) never zeroes
        out every neighbour.
    max_samples / bins_per_dim / random_state:
        Passed to the wrapped estimator.
    """

    def __init__(
        self,
        method: EstimatorKind = "kde",
        floor: float = 1e-6,
        max_samples: int = 20_000,
        bins_per_dim: int = 20,
        random_state=None,
    ):
        if method not in ("kde", "histogram"):
            raise ValidationError(f"method must be 'kde' or 'histogram', got {method!r}")
        if floor <= 0:
            raise ValidationError(f"floor must be > 0, got {floor}")
        self.method = method
        self.floor = float(floor)
        self.max_samples = int(max_samples)
        self.bins_per_dim = int(bins_per_dim)
        self.random_state = random_state
        self._estimator: Union[None, GaussianKDE, HistogramDensityEstimator] = None

    def fit(self, points) -> "RegionMassEstimator":
        """Fit the underlying density estimator to ``points`` of shape ``(n, d)``."""
        points = check_array(points, name="points", ndim=2)
        if self.method == "kde":
            self._estimator = GaussianKDE(
                max_samples=self.max_samples, random_state=self.random_state
            ).fit(points)
        else:
            self._estimator = HistogramDensityEstimator(bins_per_dim=self.bins_per_dim).fit(points)
        return self

    def _check_fitted(self) -> None:
        if self._estimator is None:
            raise NotFittedError("RegionMassEstimator must be fitted before use")

    @property
    def dim(self) -> int:
        """Dimensionality of the fitted data."""
        self._check_fitted()
        return self._estimator.dim

    def region_mass(self, region: Region) -> float:
        """Probability mass covered by ``region``, floored at ``self.floor``."""
        self._check_fitted()
        return max(self.floor, float(self._estimator.region_mass(region)))

    def mass_of_vector(self, vector: np.ndarray) -> float:
        """Probability mass of a region encoded as the ``[x, l]`` solution vector."""
        return self.region_mass(Region.from_vector(np.asarray(vector, dtype=np.float64)))

    def mass_of_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Probability masses for a batch of ``[x, l]`` solution vectors, shape ``(m, 2d)``."""
        self._check_fitted()
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != 2 * self.dim:
            raise ValidationError(f"vectors must have shape (m, {2 * self.dim})")
        dim = self.dim
        centers = vectors[:, :dim]
        halves = vectors[:, dim:]
        lowers = centers - halves
        uppers = centers + halves
        if isinstance(self._estimator, GaussianKDE):
            masses = self._estimator.region_mass_batch(lowers, uppers)
        else:
            masses = np.asarray(
                [self._estimator.region_mass(Region.from_vector(vector)) for vector in vectors]
            )
        return np.maximum(masses, self.floor)
