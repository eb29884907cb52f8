"""Random forest regressor — an alternative surrogate model family."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import ensure_rng, optional_seed


class RandomForestRegressor(BaseEstimator):
    """Bagged regression trees with per-node feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth:
        Maximum depth of each tree.
    max_features:
        Features considered at each split; ``None`` uses ``ceil(sqrt(p))``.
    bootstrap:
        Whether each tree is trained on a bootstrap resample of the rows.
    min_samples_leaf / min_samples_split / max_bins:
        Passed through to the underlying trees.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 12,
        max_features: Optional[int] = None,
        bootstrap: bool = True,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_bins: int = 64,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_bins = max_bins
        self.random_state = random_state

        self._trees: Optional[List[DecisionTreeRegressor]] = None
        self._num_features: Optional[int] = None

    def fit(self, features, targets) -> "RandomForestRegressor":
        features, targets = self._validate_fit_inputs(features, targets)
        if int(self.n_estimators) < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {self.n_estimators}")
        self._invalidate_compiled()
        rng = ensure_rng(self.random_state)
        self._num_features = features.shape[1]
        max_features = self.max_features
        if max_features is None:
            max_features = max(1, int(np.ceil(np.sqrt(features.shape[1]))))

        self._trees = []
        for _ in range(int(self.n_estimators)):
            tree = DecisionTreeRegressor(
                max_depth=int(self.max_depth),
                min_samples_split=int(self.min_samples_split),
                min_samples_leaf=int(self.min_samples_leaf),
                max_bins=int(self.max_bins),
                max_features=int(max_features),
                random_state=optional_seed(rng),
            )
            if self.bootstrap:
                rows = rng.integers(0, features.shape[0], size=features.shape[0])
                tree.fit(features[rows], targets[rows])
            else:
                tree.fit(features, targets)
            self._trees.append(tree)
        return self

    def predict(self, features) -> np.ndarray:
        self._check_fitted("_trees")
        return self._predict_compiled(features)
