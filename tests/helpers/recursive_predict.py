"""The recursive tree walk: the bit-identity oracle for the compiled kernel.

Every tree model in :mod:`repro.ml` predicts through its compiled tables
(:mod:`repro.ml.compiled`).  :func:`recursive_predict` keeps the per-node walk
those tables replaced — single tree, boosting sum, forest mean, in their
original float operation order — for the equivalence tests to assert
``np.array_equal`` against and the benchmarks to time the kernel against.
:func:`recursive_finder` gives a fitted ``SuRF`` predicting through it.
"""

from __future__ import annotations

import copy
from functools import partial
from types import SimpleNamespace

import numpy as np

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node
from repro.surrogate.model import SurrogateModel


def recursive_predict(estimator, features) -> np.ndarray:
    """Predict ``features`` by walking ``estimator``'s fitted trees node by node."""
    estimator._check_fitted("_root" if isinstance(estimator, DecisionTreeRegressor) else "_trees")
    features = estimator._validate_predict_inputs(features, estimator._num_features)
    if isinstance(estimator, GradientBoostingRegressor):
        predictions = np.full(features.shape[0], estimator._base_prediction)
        for tree in estimator._trees:
            predictions += float(estimator.learning_rate) * _walk(tree._root, features)
        return predictions
    if isinstance(estimator, RandomForestRegressor):
        stacked = np.stack([_walk(tree._root, features) for tree in estimator._trees])
        return stacked.mean(axis=0)
    if isinstance(estimator, DecisionTreeRegressor):
        return _walk(estimator._root, features)
    raise TypeError(f"no recursive walk for {type(estimator).__name__}")


def _walk(root: _Node, features: np.ndarray) -> np.ndarray:
    """One tree's predictions, routing row subsets down the linked nodes."""
    out = np.empty(features.shape[0], dtype=np.float64)
    # Iterative with an explicit stack: recursion would consume one Python
    # frame per split level, and an unconstrained depth-first chain (e.g.
    # max_depth=None-style fits on monotone targets) can approach the
    # interpreter's recursion limit.
    stack = [(root, np.arange(features.shape[0]))]
    while stack:
        node, indices = stack.pop()
        if node.is_leaf or indices.size == 0:
            out[indices] = node.value
            continue
        mask = features[indices, node.feature] <= node.threshold
        stack.append((node.right, indices[~mask]))
        stack.append((node.left, indices[mask]))
    return out


def recursive_finder(finder):
    """A shallow copy of a fitted SuRF whose surrogate predicts through the walk;
    everything else (solution space, density model, seeds) is shared."""
    surrogate = finder.surrogate_
    oracle = SimpleNamespace(predict=partial(recursive_predict, surrogate.estimator))
    twin = copy.copy(finder)
    twin.surrogate_ = SurrogateModel(
        oracle, surrogate.region_dim, augment_features=surrogate.augments_features
    )
    return twin
