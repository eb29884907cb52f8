"""Compiled surrogate inference: flat structure-of-arrays tree ensembles.

Every tree model in :mod:`repro.ml` — :class:`~repro.ml.tree.DecisionTreeRegressor`,
:class:`~repro.ml.forest.RandomForestRegressor` and
:class:`~repro.ml.boosting.GradientBoostingRegressor` — predicts only through
this module.  Walking the linked ``_Node`` structure costs one Python visit
(and several small numpy temporaries) per node; inside the GSO loop a single
``find`` issues thousands of surrogate evaluations over swarm-sized batches,
and per-node Python overhead would swamp the actual arithmetic.

:class:`CompiledPredictor` flattens a fitted ensemble once into five parallel
node tables — ``feature``, ``threshold``, ``left_child``, ``right_child`` and
``leaf_value`` — with all trees concatenated into the same arrays and a
``roots`` vector marking each tree's entry point.  Nodes are laid out in
breadth-first order with siblings adjacent (``right_child == left_child + 1``),
and leaves are self-loops (``left_child == right_child == self`` with a ``+inf``
threshold), so the traversal kernel needs no leaf test at all:

    node = left_child[node] + (x[feature[node]] > threshold[node])

advances every (tree, row) pair one level and leaves parked leaves in place.
The numpy kernel applies that update level-synchronously to the whole
``(num_trees, num_rows)`` frontier, so one ``find``'s worth of surrogate calls
becomes ``max_depth`` vectorised gathers instead of ``num_trees x num_nodes``
Python visits (large batches are processed in cache-sized chunks).

The trainer compiles each model it returns once
(:meth:`~repro.ml.base.BaseEstimator.compile` keeps the tables on the
estimator, so they pickle with it); an estimator without tables compiles on
its first predict.  Predictions are **bit-identical** to the recursive walk,
not merely close: leaf routing uses the same ``x <= threshold`` comparison on
the same float64 values, and per-row aggregation replays the walk's exact
operation order (for boosting, one reduce down the stacked
``[base; learning_rate * leaves]`` rows, which adds them in tree order like the
walk's sequential ``out += learning_rate * tree_prediction``;
``stacked.mean(axis=0)`` for forests).  The walk itself survives
only as the test oracle ``tests/helpers/recursive_predict.py``, against which
``tests/unit/test_compiled.py`` and ``tests/property/test_property_compiled.py``
hold ``np.array_equal`` across families, hyper-parameters and warm-start
rounds.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, _Node
from repro.utils.validation import check_array

#: Rows per traversal chunk.  The level-synchronous kernel materialises
#: ``(num_trees, chunk)`` temporaries; chunking keeps them cache-resident on
#: large serving batches without changing any per-row result (each row's
#: traversal and aggregation order is independent of its neighbours).
DEFAULT_CHUNK_SIZE = 1024


def _flatten_tree(root: _Node, arrays: "_NodeArrays") -> Tuple[int, int]:
    """Append ``root``'s nodes to the flat tables; return (root_index, depth).

    Breadth-first order keeps siblings adjacent, which is what lets the kernel
    compute the next node as ``left_child + went_right`` with no second child
    gather.  The walk is iterative, so trees deeper than Python's recursion
    limit compile fine (see the deep-tree regression tests).
    """
    offset = len(arrays.feature)
    nodes: List[Tuple[_Node, int]] = [(root, 0)]
    index_of = {id(root): offset}
    depth = 0
    cursor = 0
    while cursor < len(nodes):
        node, level = nodes[cursor]
        cursor += 1
        depth = max(depth, level)
        if not node.is_leaf:
            index_of[id(node.left)] = offset + len(nodes)
            nodes.append((node.left, level + 1))
            index_of[id(node.right)] = offset + len(nodes)
            nodes.append((node.right, level + 1))
    for position, (node, _) in enumerate(nodes):
        index = offset + position
        if node.is_leaf:
            arrays.feature.append(-1)
            arrays.threshold.append(np.inf)
            arrays.left.append(index)
        else:
            arrays.feature.append(int(node.feature))
            arrays.threshold.append(float(node.threshold))
            arrays.left.append(index_of[id(node.left)])
        arrays.value.append(float(node.value))
    return offset, depth


class _NodeArrays:
    """Mutable builders for the flat node tables while trees are appended."""

    def __init__(self) -> None:
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.value: List[float] = []


class CompiledPredictor:
    """A fitted tree ensemble compiled to flat SoA tables with a batch kernel.

    Parameters
    ----------
    estimator:
        A *fitted* :class:`~repro.ml.tree.DecisionTreeRegressor`,
        :class:`~repro.ml.forest.RandomForestRegressor` or
        :class:`~repro.ml.boosting.GradientBoostingRegressor` (or subclass).
        Anything else — including an unfitted instance — raises
        :class:`~repro.exceptions.ValidationError`; probe with
        :meth:`compilable` first.
    chunk_size:
        Rows per traversal chunk (see :data:`DEFAULT_CHUNK_SIZE`).

    The compiled tables are plain numpy arrays: the predictor pickles cheaply,
    rides inside :class:`~repro.core.finder.SuRF` artifact bundles, and never
    mutates (or references) the estimator it was compiled from.
    """

    def __init__(self, estimator: BaseEstimator, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if int(chunk_size) < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        roots_nodes, aggregation, base, weight, num_features = self._extract(estimator)
        arrays = _NodeArrays()
        roots: List[int] = []
        depths: List[int] = []
        for root in roots_nodes:
            root_index, depth = _flatten_tree(root, arrays)
            roots.append(root_index)
            depths.append(depth)

        #: Per-node split feature; ``-1`` marks a leaf.
        self.feature = np.asarray(arrays.feature, dtype=np.int32)
        #: Per-node split threshold; ``+inf`` on leaves so ``x > threshold``
        #: is always False and the self-loop keeps the row parked.
        self.threshold = np.asarray(arrays.threshold, dtype=np.float64)
        #: Per-node left child (absolute index); leaves point to themselves.
        self.left_child = np.asarray(arrays.left, dtype=np.int32)
        #: Per-node right child.  BFS keeps siblings adjacent, so this is
        #: always ``left_child + 1`` on internal nodes (the invariant the
        #: branchless kernel exploits) and a self-loop on leaves.
        self.right_child = np.where(
            self.feature < 0, self.left_child, self.left_child + 1
        ).astype(np.int32)
        #: Per-node value — the leaf prediction on leaves, the node's mean on
        #: internal nodes (kept for introspection).
        self.leaf_value = np.asarray(arrays.value, dtype=np.float64)
        #: Root index of every tree in the concatenated tables.
        self.roots = np.asarray(roots, dtype=np.int32)

        self._is_leaf = self.feature < 0
        # The kernel gathers features unconditionally; leaves read column 0
        # but discard the comparison (threshold is +inf), so clipping is safe.
        self._safe_feature = np.where(self._is_leaf, 0, self.feature).astype(np.int32)
        self._depths = tuple(depths)
        self._levels = max(depths) if depths else 0
        self._aggregation = aggregation
        self._base = float(base)
        self._weight = float(weight)
        self._num_features = int(num_features)
        self._chunk_size = int(chunk_size)

    # ------------------------------------------------------------------ construction
    SUPPORTED = (DecisionTreeRegressor, RandomForestRegressor, GradientBoostingRegressor)

    @classmethod
    def compilable(cls, estimator) -> bool:
        """Whether ``estimator`` is a fitted member of a compilable family."""
        if isinstance(estimator, GradientBoostingRegressor) or isinstance(estimator, RandomForestRegressor):
            return estimator._trees is not None and len(estimator._trees) > 0
        if isinstance(estimator, DecisionTreeRegressor):
            return estimator._root is not None
        return False

    @classmethod
    def _extract(cls, estimator):
        """Pull (tree roots, aggregation mode, base, weight, num_features)."""
        if not cls.compilable(estimator):
            if isinstance(estimator, cls.SUPPORTED):
                raise ValidationError(
                    f"{type(estimator).__name__} must be fitted before it can be compiled"
                )
            raise ValidationError(
                f"cannot compile a {type(estimator).__name__}; compilable families: "
                "DecisionTreeRegressor, RandomForestRegressor, GradientBoostingRegressor"
            )
        if isinstance(estimator, GradientBoostingRegressor):
            return (
                [tree._root for tree in estimator._trees],
                "sum",
                estimator._base_prediction,
                float(estimator.learning_rate),
                estimator._num_features,
            )
        if isinstance(estimator, RandomForestRegressor):
            return ([tree._root for tree in estimator._trees], "mean", 0.0, 1.0, estimator._num_features)
        return ([estimator._root], "single", 0.0, 1.0, estimator._num_features)

    # ------------------------------------------------------------------ introspection
    @property
    def num_trees(self) -> int:
        """Number of trees in the compiled ensemble."""
        return int(self.roots.size)

    @property
    def num_nodes(self) -> int:
        """Total nodes across all trees."""
        return int(self.feature.size)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest tree (number of traversal levels)."""
        return int(self._levels)

    @property
    def num_features(self) -> int:
        """Feature-vector width the ensemble was fitted on."""
        return self._num_features

    @property
    def aggregation(self) -> str:
        """How per-tree leaves combine: ``"single"``, ``"mean"`` or ``"sum"``."""
        return self._aggregation

    # ------------------------------------------------------------------ prediction
    def predict(self, features) -> np.ndarray:
        """Predict targets for ``features`` (``(n, p)``), bit-identical to a
        recursive walk of the ensemble the tables were compiled from."""
        features = check_array(features, name="features", ndim=2)
        if features.shape[1] != self._num_features:
            raise ValidationError(
                f"compiled predictor expects {self._num_features} features, got {features.shape[1]}"
            )
        num_rows = features.shape[0]
        out = np.empty(num_rows, dtype=np.float64)
        for start in range(0, num_rows, self._chunk_size):
            stop = min(start + self._chunk_size, num_rows)
            chunk = np.ascontiguousarray(features[start:stop])
            self._aggregate(self._leaf_matrix(chunk), out[start:stop])
        return out

    def _leaf_matrix(self, features: np.ndarray) -> np.ndarray:
        """Leaf value per (tree, row) by level-synchronous traversal: the
        whole (tree, row) frontier steps one depth level per iteration;
        parked leaves self-loop in place."""
        num_rows, num_cols = features.shape
        flat = features.ravel()
        node = np.repeat(self.roots[:, None], num_rows, axis=1)
        row_offsets = (np.arange(num_rows, dtype=np.int32) * num_cols)[None, :]
        for _ in range(self._levels):
            cell = self._safe_feature.take(node)
            cell += row_offsets
            went_right = flat.take(cell) > self.threshold.take(node)
            node = self.left_child.take(node)
            node += went_right
        return self.leaf_value.take(node)

    def _aggregate(self, leaves: np.ndarray, out: np.ndarray) -> None:
        """Combine the (num_trees, n) leaf matrix into ``out`` replaying the
        recursive walk's exact float operation order (see module docstring)."""
        if self._aggregation == "sum":
            # One reduce down the stacked [base; w * leaves] columns adds the
            # rows in order, as the walk does.  A single column would be
            # reduced pairwise instead, so it is padded to two.
            num_rows = leaves.shape[1]
            stacked = np.empty((leaves.shape[0] + 1, max(num_rows, 2)))
            stacked[0] = self._base
            np.multiply(leaves, self._weight, out=stacked[1:, :num_rows])
            if num_rows == 1:
                stacked[1:, 1] = stacked[1:, 0]
            out[:] = np.add.reduce(stacked, axis=0)[:num_rows]
        elif self._aggregation == "mean":
            out[:] = leaves.mean(axis=0)
        else:
            out[:] = leaves[0]


__all__ = ["CompiledPredictor"]
