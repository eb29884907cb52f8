"""Histogram-based CART regression trees.

The tree is the building block for the gradient-boosted surrogate models
(:mod:`repro.ml.boosting`).  Split search is histogram based: every feature is
bucketed into at most ``max_bins`` quantile bins once per fit, and the best
split at a node is found from per-bin sums and counts with prefix sums —
exactly the strategy modern boosting libraries (XGBoost "hist", LightGBM)
use, which keeps pure-numpy training fast enough for the paper's workloads.

Leaf values support an optional L2 regularisation term ``reg_lambda`` so that
a leaf predicts ``sum(y) / (count + reg_lambda)``; with squared loss this is
the XGBoost leaf weight formula and lets the boosting module expose the same
``reg_lambda`` hyper-parameter the paper tunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator
from repro.utils.rng import ensure_rng


@dataclass
class _Node:
    """A tree node: either an internal split or a leaf with a constant value."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class _BinnedData:
    """Feature matrix pre-bucketed into quantile bins (shared across boosting rounds)."""

    codes: np.ndarray  # (n, p) int32 bin index per sample and feature
    edges: list  # per-feature array of bin upper edges (len = n_bins_f - 1)

    @property
    def num_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def num_features(self) -> int:
        return self.codes.shape[1]


def bin_features(features: np.ndarray, max_bins: int = 64) -> _BinnedData:
    """Bucket every feature into at most ``max_bins`` quantile bins.

    Returns the integer bin codes and, per feature, the thresholds (bin upper
    edges) used to translate a chosen bin split back into a real-valued split.
    """
    if max_bins < 2:
        raise ValidationError(f"max_bins must be >= 2, got {max_bins}")
    num_samples, num_features = features.shape
    codes = np.empty((num_samples, num_features), dtype=np.int32)
    edges = []
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    for feature_idx in range(num_features):
        column = features[:, feature_idx]
        cut_points = np.unique(np.quantile(column, quantiles))
        # Remove cut points equal to the max so the last bin is never empty.
        cut_points = cut_points[cut_points < column.max()] if cut_points.size else cut_points
        codes[:, feature_idx] = np.searchsorted(cut_points, column, side="right")
        edges.append(cut_points.astype(np.float64))
    return _BinnedData(codes=codes, edges=edges)


class DecisionTreeRegressor(BaseEstimator):
    """Regression tree grown greedily by maximising the variance-reduction gain.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (a single leaf has depth 0).
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples each child must keep for a split to be valid.
    max_bins:
        Number of quantile bins used for histogram split search.
    reg_lambda:
        L2 regularisation added to leaf denominators (XGBoost-style).
    max_features:
        If set, the number of features sampled (without replacement) at each
        node — used by random forests.  ``None`` considers every feature.
    min_gain:
        Minimum gain required to accept a split.
    random_state:
        Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_bins: int = 64,
        reg_lambda: float = 0.0,
        max_features: Optional[int] = None,
        min_gain: float = 1e-12,
        random_state=None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.reg_lambda = reg_lambda
        self.max_features = max_features
        self.min_gain = min_gain
        self.random_state = random_state

        self._root: Optional[_Node] = None
        self._num_features: Optional[int] = None
        self.node_count_ = 0

    # ------------------------------------------------------------------ fitting
    def fit(self, features, targets) -> "DecisionTreeRegressor":
        features, targets = self._validate_fit_inputs(features, targets)
        self._validate_hyper_parameters()
        binned = bin_features(features, max_bins=int(self.max_bins))
        return self._fit_binned(binned, targets)

    def _fit_binned(self, binned: _BinnedData, targets: np.ndarray) -> "DecisionTreeRegressor":
        """Fit from pre-binned features (shared by :class:`GradientBoostingRegressor`)."""
        self._validate_hyper_parameters()
        self._invalidate_compiled()
        self._num_features = binned.num_features
        self._rng = ensure_rng(self.random_state)
        self.node_count_ = 0
        indices = np.arange(binned.num_samples)
        self._binned = binned
        self._targets = targets
        self._root = self._grow(indices, depth=0)
        # Release references used only while growing.
        del self._binned, self._targets
        return self

    def _validate_hyper_parameters(self) -> None:
        if int(self.max_depth) < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")
        if int(self.min_samples_split) < 2:
            raise ValidationError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if int(self.min_samples_leaf) < 1:
            raise ValidationError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if float(self.reg_lambda) < 0:
            raise ValidationError(f"reg_lambda must be >= 0, got {self.reg_lambda}")

    def _leaf_value(self, target_sum: float, count: int) -> float:
        return target_sum / (count + float(self.reg_lambda)) if count else 0.0

    def _grow(self, indices: np.ndarray, depth: int) -> _Node:
        self.node_count_ += 1
        targets = self._targets[indices]
        target_sum = float(targets.sum())
        count = indices.size
        node = _Node(value=self._leaf_value(target_sum, count))

        if (
            depth >= int(self.max_depth)
            or count < int(self.min_samples_split)
            or np.all(targets == targets[0])
        ):
            return node

        split = self._best_split(indices, target_sum, count)
        if split is None:
            return node

        feature, bin_threshold, real_threshold = split
        codes = self._binned.codes[indices, feature]
        left_mask = codes <= bin_threshold
        node.feature = feature
        node.threshold = real_threshold
        node.left = self._grow(indices[left_mask], depth + 1)
        node.right = self._grow(indices[~left_mask], depth + 1)
        return node

    def _candidate_features(self) -> np.ndarray:
        num_features = self._num_features
        if self.max_features is None or int(self.max_features) >= num_features:
            return np.arange(num_features)
        size = max(1, int(self.max_features))
        return self._rng.choice(num_features, size=size, replace=False)

    def _best_split(self, indices: np.ndarray, target_sum: float, count: int):
        """Return ``(feature, bin_index, threshold)`` of the best split, or ``None``."""
        reg = float(self.reg_lambda)
        min_leaf = int(self.min_samples_leaf)
        parent_score = target_sum**2 / (count + reg)
        best_gain = float(self.min_gain)
        best = None

        targets = self._targets[indices]
        for feature in self._candidate_features():
            edges = self._binned.edges[feature]
            if edges.size == 0:
                continue
            num_bins = edges.size + 1
            codes = self._binned.codes[indices, feature]
            bin_counts = np.bincount(codes, minlength=num_bins)
            bin_sums = np.bincount(codes, weights=targets, minlength=num_bins)

            left_counts = np.cumsum(bin_counts)[:-1]
            left_sums = np.cumsum(bin_sums)[:-1]
            right_counts = count - left_counts
            right_sums = target_sum - left_sums

            valid = (left_counts >= min_leaf) & (right_counts >= min_leaf)
            if not np.any(valid):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                score = left_sums**2 / (left_counts + reg) + right_sums**2 / (right_counts + reg)
            score = np.where(valid, score, -np.inf)
            best_bin = int(np.argmax(score))
            gain = float(score[best_bin]) - parent_score
            if gain > best_gain:
                best_gain = gain
                # Training sends x to the left bins iff x < edge (the codes come
                # from searchsorted side="right"), while prediction tests
                # x <= threshold; the largest float below the edge makes both
                # route a value equal to the edge to the right.
                best = (int(feature), best_bin, float(np.nextafter(edges[best_bin], -np.inf)))
        return best

    # ------------------------------------------------------------------ prediction
    def predict(self, features) -> np.ndarray:
        self._check_fitted("_root")
        return self._predict_compiled(features)

    # ------------------------------------------------------------------ introspection
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted("_root")
        deepest = 0
        stack = [(self._root, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, level)
            else:
                stack.append((node.left, level + 1))
                stack.append((node.right, level + 1))
        return deepest

    def num_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        self._check_fitted("_root")
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend((node.left, node.right))
        return count
