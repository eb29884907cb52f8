"""Region probability-mass estimation for the Eq. 8 guidance.

The GSO optimiser only needs one operation from a density model: "how much
data mass does this candidate region cover?".  :class:`RegionMassEstimator`
answers it with the Gaussian KDE of :mod:`repro.density.kde` (read from its
tabulated CDF when the fit built one) and adds the small-floor behaviour used
when re-weighting neighbour-selection probabilities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.regions import Region
from repro.density.kde import GaussianKDE
from repro.exceptions import NotFittedError, ValidationError
from repro.utils.validation import check_array


class RegionMassEstimator:
    """Estimates ``∫_{x-l}^{x+l} p_A(a) da`` for candidate regions.

    After ``fit``, every query method is read-only; the serving layer
    (:mod:`repro.api`) relies on this to share one fitted estimator across
    concurrently executing GSO runs without locking.

    Parameters
    ----------
    floor:
        A small positive lower bound applied to returned masses so that
        multiplying selection probabilities by the mass (Eq. 8) never zeroes
        out every neighbour.
    max_samples / random_state:
        Passed to the wrapped :class:`~repro.density.kde.GaussianKDE`.
    """

    def __init__(
        self,
        floor: float = 1e-6,
        max_samples: int = 20_000,
        random_state=None,
    ):
        if floor <= 0:
            raise ValidationError(f"floor must be > 0, got {floor}")
        self.floor = float(floor)
        self.max_samples = int(max_samples)
        self.random_state = random_state
        self._estimator: Optional[GaussianKDE] = None

    def fit(self, points) -> "RegionMassEstimator":
        """Fit the KDE to ``points`` of shape ``(n, d)``."""
        points = check_array(points, name="points", ndim=2)
        self._estimator = GaussianKDE(
            max_samples=self.max_samples, random_state=self.random_state
        ).fit(points)
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

    def mass_of_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Probability masses for a batch of ``[x, l]`` solution vectors, shape ``(m, 2d)``."""
        self._check_fitted()
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != 2 * self.dim:
            raise ValidationError(f"vectors must have shape (m, {2 * self.dim})")
        dim = self.dim
        centers = vectors[:, :dim]
        halves = vectors[:, dim:]
        masses = self._estimator.region_mass_batch(centers - halves, centers + halves)
        return np.maximum(masses, self.floor)
