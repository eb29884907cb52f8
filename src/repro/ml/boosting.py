"""Gradient-boosted regression trees (the paper's XGBoost surrogate, from scratch).

The model minimises squared loss by fitting shallow regression trees to the
current residuals and adding them with a shrinkage factor (``learning_rate``).
Leaf values carry an L2 regularisation term ``reg_lambda`` — with squared loss
this reproduces the XGBoost leaf-weight formula — so the model exposes exactly
the hyper-parameters the paper tunes in its GridSearch experiments:
``learning_rate``, ``max_depth``, ``n_estimators`` and ``reg_lambda``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator
from repro.ml.tree import DecisionTreeRegressor, bin_features
from repro.utils.rng import ensure_rng, optional_seed


class GradientBoostingRegressor(BaseEstimator):
    """Gradient boosting with squared loss on histogram regression trees.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (trees).
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth of the individual trees.
    reg_lambda:
        L2 regularisation on leaf weights.
    subsample:
        Fraction of rows sampled (without replacement) for each tree;
        1.0 disables stochastic boosting.
    min_samples_leaf / min_samples_split / max_bins:
        Passed through to the underlying trees.
    early_stopping_rounds:
        If set together with ``validation_fraction``, training stops when the
        held-out RMSE has not improved for this many consecutive rounds.
    validation_fraction:
        Fraction of the training data held out for early stopping.
    warm_start:
        When ``True``, calling :meth:`fit` on an already-fitted model keeps
        the existing trees and boosts additional rounds up to ``n_estimators``
        on the data now provided (the scikit-learn ``warm_start`` idiom).
        Raise ``n_estimators`` above :attr:`num_trees_` before refitting —
        this is how the online loop folds freshly logged evaluations into a
        trained surrogate without paying for a full retrain.
    random_state:
        Seed controlling row subsampling and the validation split.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 5,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_bins: int = 64,
        early_stopping_rounds: Optional[int] = None,
        validation_fraction: float = 0.1,
        warm_start: bool = False,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_bins = max_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.warm_start = warm_start
        self.random_state = random_state

        self._trees: Optional[List[DecisionTreeRegressor]] = None
        self._base_prediction: float = 0.0
        self._num_features: Optional[int] = None
        self.train_scores_: List[float] = []
        self.validation_scores_: List[float] = []

    # ------------------------------------------------------------------ fitting
    def fit(self, features, targets) -> "GradientBoostingRegressor":
        features, targets = self._validate_fit_inputs(features, targets)
        self._validate_hyper_parameters()
        continuing = bool(self.warm_start) and self._trees is not None
        if continuing:
            if features.shape[1] != self._num_features:
                raise ValidationError(
                    f"warm_start fit expects {self._num_features} features, got {features.shape[1]}"
                )
            if int(self.n_estimators) <= len(self._trees):
                raise ValidationError(
                    f"warm_start requires n_estimators > the {len(self._trees)} trees already "
                    f"fitted, got n_estimators={self.n_estimators}"
                )
        rng = ensure_rng(self.random_state)
        self._num_features = features.shape[1]

        use_early_stopping = (
            self.early_stopping_rounds is not None and features.shape[0] >= 20
        )
        if use_early_stopping:
            num_valid = max(1, int(round(float(self.validation_fraction) * features.shape[0])))
            permutation = rng.permutation(features.shape[0])
            valid_idx, train_idx = permutation[:num_valid], permutation[num_valid:]
            valid_features, valid_targets = features[valid_idx], targets[valid_idx]
            features, targets = features[train_idx], targets[train_idx]
        else:
            valid_features = valid_targets = None

        if continuing:
            # Resume from the existing ensemble: its predictions on the data
            # now provided are the starting point the new rounds boost from.
            # They run through the tables the ensemble already carries (a
            # pickled clone keeps them).
            predictions = self.predict(features)
            valid_predictions = self.predict(valid_features) if use_early_stopping else None
        else:
            self._base_prediction = float(targets.mean())
            predictions = np.full(targets.shape[0], self._base_prediction)
            valid_predictions = (
                np.full(valid_targets.shape[0], self._base_prediction)
                if use_early_stopping
                else None
            )
            self._trees = []
            self.train_scores_ = []
            self.validation_scores_ = []
        # Any tables describe the ensemble before this fit.
        self._invalidate_compiled()

        binned = bin_features(features, max_bins=int(self.max_bins))
        best_valid = (
            float(np.sqrt(np.mean((valid_targets - valid_predictions) ** 2)))
            if continuing and use_early_stopping
            else np.inf
        )
        rounds_without_improvement = 0

        from repro.ml.compiled import CompiledPredictor

        for _ in range(int(self.n_estimators) - len(self._trees)):
            residuals = targets - predictions
            tree = DecisionTreeRegressor(
                max_depth=int(self.max_depth),
                min_samples_split=int(self.min_samples_split),
                min_samples_leaf=int(self.min_samples_leaf),
                max_bins=int(self.max_bins),
                reg_lambda=float(self.reg_lambda),
                random_state=optional_seed(rng),
            )
            if float(self.subsample) < 1.0:
                sample_size = max(2, int(round(float(self.subsample) * features.shape[0])))
                rows = rng.choice(features.shape[0], size=sample_size, replace=False)
                tree.fit(features[rows], residuals[rows])
            else:
                tree._fit_binned(binned, residuals)
            self._trees.append(tree)

            # Score the new tree through the kernel without keeping its
            # tables: per-tree tables would ride along in every pickle.
            scorer = CompiledPredictor(tree)
            update = float(self.learning_rate) * scorer.predict(features)
            predictions += update
            self.train_scores_.append(float(np.sqrt(np.mean((targets - predictions) ** 2))))

            if use_early_stopping:
                valid_predictions += float(self.learning_rate) * scorer.predict(valid_features)
                valid_rmse = float(np.sqrt(np.mean((valid_targets - valid_predictions) ** 2)))
                self.validation_scores_.append(valid_rmse)
                if valid_rmse < best_valid - 1e-12:
                    best_valid = valid_rmse
                    rounds_without_improvement = 0
                else:
                    rounds_without_improvement += 1
                    if rounds_without_improvement >= int(self.early_stopping_rounds):
                        break
        return self

    def _validate_hyper_parameters(self) -> None:
        if int(self.n_estimators) < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0 < float(self.learning_rate) <= 1:
            raise ValidationError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0 < float(self.subsample) <= 1:
            raise ValidationError(f"subsample must be in (0, 1], got {self.subsample}")
        if float(self.reg_lambda) < 0:
            raise ValidationError(f"reg_lambda must be >= 0, got {self.reg_lambda}")

    # ------------------------------------------------------------------ prediction
    def predict(self, features) -> np.ndarray:
        self._check_fitted("_trees")
        return self._predict_compiled(features)

    @property
    def num_trees_(self) -> int:
        """Number of trees actually fitted (may be fewer than ``n_estimators``)."""
        self._check_fitted("_trees")
        return len(self._trees)
