"""The fitted surrogate model ``f̂`` that replaces the back-end system."""

from __future__ import annotations

import numpy as np

from repro.data.regions import Region
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.base import BaseEstimator
from repro.ml.metrics import root_mean_squared_error


class SurrogateModel:
    """Wraps a fitted regressor so callers can query statistics per region.

    The wrapper remembers the region dimensionality it was trained for and
    exposes both vector-level (``predict``) and region-level
    (``predict_region``) interfaces; the optimiser uses the former, analysts
    the latter.  The trainer compiles a tree model's tables before handing
    it out and bundles ship them, so prediction never mutates the wrapper or
    the estimator, and one fitted surrogate can be shared across the serving
    layer's concurrent GSO runs (:mod:`repro.api`) without locking.  When ``augment_features`` is
    set, the same feature map used at
    training time (:func:`repro.surrogate.features.augment_region_vectors`) is
    applied before every prediction — callers always pass plain ``[x, l]``
    vectors either way.
    """

    def __init__(self, estimator: BaseEstimator, region_dim: int, augment_features: bool = False):
        if region_dim < 1:
            raise ValidationError(f"region_dim must be >= 1, got {region_dim}")
        self._estimator = estimator
        self._region_dim = int(region_dim)
        self._augment_features = bool(augment_features)

    # ------------------------------------------------------------------ introspection
    @property
    def estimator(self) -> BaseEstimator:
        """The underlying fitted regressor."""
        return self._estimator

    @property
    def region_dim(self) -> int:
        """Dimensionality ``d`` of the regions this surrogate understands."""
        return self._region_dim

    @property
    def feature_dim(self) -> int:
        """Dimensionality of the feature vectors (``2 d``)."""
        return 2 * self._region_dim

    @property
    def augments_features(self) -> bool:
        """Whether the engineered feature map is applied before prediction."""
        return self._augment_features

    # ------------------------------------------------------------------ prediction
    def predict(self, vectors: np.ndarray) -> np.ndarray:
        """Predict statistics for a batch of ``[x, l]`` vectors, shape ``(n, 2d)``."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != self.feature_dim:
            raise ValidationError(
                f"expected vectors with {self.feature_dim} columns, got {vectors.shape[1]}"
            )
        if self._augment_features:
            from repro.surrogate.features import augment_region_vectors

            vectors = augment_region_vectors(vectors)
        return self._estimator.predict(vectors)

    def predict_vector(self, vector: np.ndarray) -> float:
        """Predict the statistic of a single ``[x, l]`` vector."""
        return float(self.predict(np.asarray(vector, dtype=np.float64).reshape(1, -1))[0])

    def predict_region(self, region: Region) -> float:
        """Predict the statistic of a :class:`Region`."""
        if region.dim != self._region_dim:
            raise ValidationError(
                f"region has dimensionality {region.dim}, surrogate expects {self._region_dim}"
            )
        return self.predict_vector(region.to_vector())

    # ------------------------------------------------------------------ evaluation
    def rmse(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Out-of-sample RMSE of the surrogate on held-out evaluations."""
        return root_mean_squared_error(targets, self.predict(features))
