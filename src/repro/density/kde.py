"""Gaussian kernel density estimation with product kernels.

The estimator uses a diagonal (per-dimension) bandwidth so that the
probability mass of an axis-aligned hyper-rectangle has a closed form as a
product of Gaussian CDF differences — exactly what Eq. 8 of the paper needs.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from repro.data.regions import Region
from repro.exceptions import NotFittedError, ValidationError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_array


class GaussianKDE:
    """Product-kernel Gaussian KDE with Scott/Silverman or fixed bandwidths.

    Parameters
    ----------
    bandwidth:
        ``"scott"`` (default), ``"silverman"`` or a positive float / per-dimension
        array of bandwidth multipliers.
    max_samples:
        If the fitted data has more rows than this, a uniform subsample is used —
        mirroring the paper's note that the KDE is built "over a sample for
        large-scale datasets".
    random_state:
        Seed for the subsample.
    """

    def __init__(
        self,
        bandwidth: Union[str, float, np.ndarray] = "scott",
        max_samples: int = 20_000,
        random_state=None,
    ):
        self.bandwidth = bandwidth
        self.max_samples = int(max_samples)
        self.random_state = random_state

        self._samples: Optional[np.ndarray] = None
        self._bandwidths: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ fitting
    def fit(self, points) -> "GaussianKDE":
        """Fit the KDE to ``points`` of shape ``(n, d)``."""
        points = check_array(points, name="points", ndim=2)
        if points.shape[0] < 2:
            raise ValidationError("at least two points are required to fit a KDE")
        if points.shape[0] > self.max_samples:
            rng = ensure_rng(self.random_state)
            rows = rng.choice(points.shape[0], size=self.max_samples, replace=False)
            points = points[rows]
        self._samples = points
        self._bandwidths = self._compute_bandwidths(points)
        return self

    def _compute_bandwidths(self, points: np.ndarray) -> np.ndarray:
        num_samples, dim = points.shape
        spread = points.std(axis=0)
        spread = np.where(spread <= 0, 1e-6, spread)
        if isinstance(self.bandwidth, str):
            rule = self.bandwidth.lower()
            if rule == "scott":
                factor = num_samples ** (-1.0 / (dim + 4))
            elif rule == "silverman":
                factor = (num_samples * (dim + 2) / 4.0) ** (-1.0 / (dim + 4))
            else:
                raise ValidationError(
                    f"bandwidth must be 'scott', 'silverman' or a number, got {self.bandwidth!r}"
                )
            return factor * spread
        bandwidths = np.asarray(self.bandwidth, dtype=np.float64)
        if bandwidths.ndim == 0:
            bandwidths = np.full(dim, float(bandwidths))
        if bandwidths.shape != (dim,):
            raise ValidationError(f"bandwidth array must have shape ({dim},)")
        if np.any(bandwidths <= 0):
            raise ValidationError("bandwidths must be strictly positive")
        return bandwidths

    def _check_fitted(self) -> None:
        if self._samples is None:
            raise NotFittedError("GaussianKDE must be fitted before use")

    # ------------------------------------------------------------------ queries
    @property
    def dim(self) -> int:
        """Dimensionality of the fitted data."""
        self._check_fitted()
        return self._samples.shape[1]

    @property
    def bandwidths_(self) -> np.ndarray:
        """Fitted per-dimension bandwidths."""
        self._check_fitted()
        return self._bandwidths.copy()

    def region_mass(self, region: Region) -> float:
        """Probability mass of an axis-aligned region under the KDE.

        With a product Gaussian kernel the mass factorises over dimensions:
        for each sample and dimension it is the difference of two normal CDFs.
        """
        self._check_fitted()
        if region.dim != self.dim:
            raise ValidationError(
                f"region has dimensionality {region.dim}, KDE has {self.dim}"
            )
        return float(self.region_mass_batch(region.lower[None, :], region.upper[None, :])[0])

    def region_mass_batch(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """Probability mass of many axis-aligned boxes at once.

        Parameters
        ----------
        lowers / uppers:
            Arrays of shape ``(m, d)`` with the lower/upper corners of ``m`` boxes.
        """
        self._check_fitted()
        lowers = np.asarray(lowers, dtype=np.float64)
        uppers = np.asarray(uppers, dtype=np.float64)
        if lowers.ndim != 2 or lowers.shape != uppers.shape or lowers.shape[1] != self.dim:
            raise ValidationError(
                f"lowers and uppers must both have shape (m, {self.dim})"
            )
        samples = self._samples
        bandwidths = self._bandwidths
        masses = np.empty(lowers.shape[0], dtype=np.float64)
        # Chunk over query boxes to bound the (m, n_samples, d) intermediate.
        chunk = max(1, int(2_000_000 / max(samples.shape[0], 1)))
        for start in range(0, lowers.shape[0], chunk):
            upper_z = (uppers[start : start + chunk, None, :] - samples[None, :, :]) / bandwidths
            lower_z = (lowers[start : start + chunk, None, :] - samples[None, :, :]) / bandwidths
            per_dim = ndtr(upper_z) - ndtr(lower_z)
            masses[start : start + chunk] = np.prod(per_dim, axis=2).mean(axis=1)
        return masses
