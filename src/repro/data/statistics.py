"""Region statistics ``y = f(x, l)`` (Definition 2/3 of the paper).

A :class:`StatisticSpec` turns the subset ``D`` of data vectors inside a region
into a scalar statistic.  The paper's experiments use two of them —
``density`` (the number of points inside the region) and ``aggregate`` (the
average of one attribute over points inside the region) — but notes the
statistic can be anything (sum, variance, higher-order moments, class ratio,
median, ...).  All of those are provided here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ValidationError
from repro.utils.registry import Registry


class StatisticSpec(ABC):
    """Specification of a statistic computed over the points inside a region.

    The array-level kernels (:meth:`compute_from_values`,
    :meth:`compute_from_counts`, :meth:`compute_batch_from_arrays`) are what
    :mod:`repro.backends` evaluates, since a backend may hold the data in a
    memory map, a SQLite table or a set of shards rather than a
    :class:`Dataset`.  The dataset-level :meth:`compute` scores one region of
    an in-memory dataset (the synthetic generators' ground truth) with the
    same reduction.
    """

    #: Value reported for an empty region when the statistic needs data points.
    empty_value: float = 0.0

    #: Statistics fully determined by the number of rows inside the region
    #: (no attribute values needed); backends answer them from counts alone.
    count_only: bool = False

    #: How the statistic decomposes across disjoint row partitions (shards):
    #: ``"exact"`` — merging per-shard sufficient stats reproduces the
    #: unsharded reduction bit for bit (integer-valued sums); ``"float"`` —
    #: the merge is algebraically equal but may differ in the last ulp
    #: (float summation order); ``None`` — non-decomposable, the shards'
    #: selected values must be gathered and reduced centrally.
    decomposition: Optional[str] = None

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier (``count``, ``average``, ...)."""

    @abstractmethod
    def region_columns(self, dataset: Dataset) -> list:
        """Columns of ``dataset`` that the hyper-rectangle constrains."""

    @abstractmethod
    def compute(self, dataset: Dataset, mask: np.ndarray) -> float:
        """Compute the statistic over the rows of ``dataset`` selected by ``mask``."""

    # ------------------------------------------------------------------ array-level kernels
    def target_position(self, dataset: Dataset) -> Optional[int]:
        """Column position of the measured attribute, or ``None`` for count-only stats."""
        return None

    def compute_from_values(self, values: np.ndarray) -> float:
        """Reduce the gathered target values of one region (row order preserved).

        Must be bit-identical to :meth:`compute` when ``values`` equals the
        masked target column in row order — backends rely on that to stay
        equivalent to the in-memory path.
        """
        raise NotImplementedError(f"{type(self).__name__} has no value-level kernel")

    def compute_from_counts(self, counts: np.ndarray) -> np.ndarray:
        """Vector of statistics from per-region row counts (count-only stats)."""
        raise NotImplementedError(f"{type(self).__name__} is not a count-only statistic")

    def compute_batch_from_arrays(
        self, target: Optional[np.ndarray], masks: np.ndarray
    ) -> np.ndarray:
        """Reduce every row of an ``(M, N)`` mask matrix to the region's statistic.

        ``target`` is the full measured-attribute column (``None`` for
        count-only statistics).  Default: one gather + :meth:`compute_from_values`
        per mask row, so it is bit-identical to :meth:`compute` per region;
        subclasses vectorise it only where the result is provably identical
        (integer-valued reductions are exact in float64 regardless of
        summation order, arbitrary float reductions are not).
        """
        masks = np.asarray(masks, dtype=bool)
        if self.count_only:
            return self.compute_from_counts(masks.sum(axis=1, dtype=np.int64))
        if target is None:
            raise ValidationError(f"statistic {self.name!r} needs a target column")
        return np.asarray(
            [self.compute_from_values(target[mask]) for mask in masks], dtype=np.float64
        )

    # ------------------------------------------------------------------ shard decomposition
    def partial_stats(self, values: np.ndarray) -> tuple:
        """Sufficient statistics of one shard's gathered values (see ``decomposition``)."""
        raise NotImplementedError(f"{type(self).__name__} is not decomposable")

    def merge_stats(self, partials: Sequence[tuple]) -> float:
        """Merge per-shard sufficient statistics into the region's statistic."""
        raise NotImplementedError(f"{type(self).__name__} is not decomposable")

    def region_dim(self, dataset: Dataset) -> int:
        """Dimensionality of the region vector for this statistic over ``dataset``."""
        return len(self.region_columns(dataset))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class CountStatistic(StatisticSpec):
    """Number of data points inside the region (the paper's *density* statistic)."""

    count_only = True
    decomposition = "exact"  # a sum of shard counts is the count

    @property
    def name(self) -> str:
        return "count"

    def region_columns(self, dataset: Dataset) -> list:
        return dataset.column_names

    def compute(self, dataset: Dataset, mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask))

    def compute_from_counts(self, counts: np.ndarray) -> np.ndarray:
        return np.asarray(counts, dtype=np.int64).astype(np.float64)


class _AttributeStatistic(StatisticSpec):
    """Base class for statistics of a single target attribute.

    Per Definition 2, the measured attribute is *not* part of the
    hyper-rectangle: the region constrains all other columns.
    """

    def __init__(self, target_column, exclude_target_from_region: bool = True):
        self.target_column = target_column
        self.exclude_target_from_region = bool(exclude_target_from_region)

    def region_columns(self, dataset: Dataset) -> list:
        target = dataset.column_names[dataset.column_position(self.target_column)]
        if not self.exclude_target_from_region:
            return dataset.column_names
        return [name for name in dataset.column_names if name != target]

    def target_position(self, dataset: Dataset) -> Optional[int]:
        return dataset.column_position(self.target_column)

    def compute(self, dataset: Dataset, mask: np.ndarray) -> float:
        return self.compute_from_values(self._target_values(dataset, mask))

    def _target_values(self, dataset: Dataset, mask: np.ndarray) -> np.ndarray:
        return dataset.column(self.target_column)[mask]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(target_column={self.target_column!r})"


class AverageStatistic(_AttributeStatistic):
    """Average of the target attribute over points in the region (paper's *aggregate*)."""

    decomposition = "float"  # (count, sum) partials; merge rounds differently in the last ulp

    @property
    def name(self) -> str:
        return "average"

    def compute_from_values(self, values: np.ndarray) -> float:
        if values.size == 0:
            return self.empty_value
        return float(values.mean())

    def partial_stats(self, values: np.ndarray) -> tuple:
        return (int(values.size), float(values.sum()) if values.size else 0.0)

    def merge_stats(self, partials: Sequence[tuple]) -> float:
        count = sum(partial[0] for partial in partials)
        if count == 0:
            return self.empty_value
        return float(sum(partial[1] for partial in partials) / count)


class SumStatistic(_AttributeStatistic):
    """Sum of the target attribute over points in the region."""

    decomposition = "float"  # partial sums; re-summing changes pairwise rounding

    @property
    def name(self) -> str:
        return "sum"

    def compute_from_values(self, values: np.ndarray) -> float:
        return float(values.sum()) if values.size else self.empty_value

    def partial_stats(self, values: np.ndarray) -> tuple:
        return (int(values.size), float(values.sum()) if values.size else 0.0)

    def merge_stats(self, partials: Sequence[tuple]) -> float:
        if sum(partial[0] for partial in partials) == 0:
            return self.empty_value
        return float(sum(partial[1] for partial in partials))


class VarianceStatistic(_AttributeStatistic):
    """Population variance of the target attribute over points in the region."""

    #: (count, mean, M2) partials merged with Chan's parallel update — unlike
    #: the textbook E[x²]−E[x]² sufficient stats, this never cancels two large
    #: squares, so the merged value stays within summation-order rounding of
    #: the unsharded reduction even for tiny variances at huge means.
    decomposition = "float"

    @property
    def name(self) -> str:
        return "variance"

    def compute_from_values(self, values: np.ndarray) -> float:
        if values.size == 0:
            return self.empty_value
        return float(values.var())

    def partial_stats(self, values: np.ndarray) -> tuple:
        if values.size == 0:
            return (0, 0.0, 0.0)
        mean = float(values.mean())
        return (int(values.size), mean, float(np.square(values - mean).sum()))

    def merge_stats(self, partials: Sequence[tuple]) -> float:
        count, mean, m2 = 0, 0.0, 0.0
        for part_count, part_mean, part_m2 in partials:
            if part_count == 0:
                continue
            if count == 0:
                count, mean, m2 = part_count, part_mean, part_m2
                continue
            delta = part_mean - mean
            total = count + part_count
            m2 = m2 + part_m2 + delta * delta * (count * part_count / total)
            mean = mean + delta * part_count / total
            count = total
        if count == 0:
            return self.empty_value
        return float(m2 / count)


class MedianStatistic(_AttributeStatistic):
    """Median of the target attribute — a non-decomposable statistic (Definition 3).

    ``decomposition`` stays ``None``: a sharded backend must gather the
    selected values from every shard and reduce them centrally.
    """

    @property
    def name(self) -> str:
        return "median"

    def compute_from_values(self, values: np.ndarray) -> float:
        if values.size == 0:
            return self.empty_value
        return float(np.median(values))


class RatioStatistic(_AttributeStatistic):
    """Fraction of points in the region whose target attribute equals ``positive_value``.

    Used for the Human Activity use case: the ratio of readings labelled with a
    given activity inside a region of the sensor space.
    """

    decomposition = "exact"  # (count, positives) partials are integer-exact

    def __init__(self, target_column, positive_value: float, exclude_target_from_region: bool = True):
        super().__init__(target_column, exclude_target_from_region)
        self.positive_value = float(positive_value)

    @property
    def name(self) -> str:
        return "ratio"

    def compute_from_values(self, values: np.ndarray) -> float:
        if values.size == 0:
            return self.empty_value
        return float(np.mean(np.isclose(values, self.positive_value)))

    def compute_batch_from_arrays(
        self, target: Optional[np.ndarray], masks: np.ndarray
    ) -> np.ndarray:
        # A ratio is a quotient of two integer counts, both exact in float64,
        # so the vectorised version matches the scalar one bit-for-bit.
        masks = np.asarray(masks, dtype=bool)
        if target is None:
            raise ValidationError("ratio statistic needs a target column")
        matches = np.isclose(target, self.positive_value)
        counts = masks.sum(axis=1, dtype=np.int64)
        positives = (masks & matches[None, :]).sum(axis=1, dtype=np.int64)
        values = np.full(masks.shape[0], self.empty_value, dtype=np.float64)
        covered = counts > 0
        values[covered] = positives[covered] / counts[covered]
        return values

    def partial_stats(self, values: np.ndarray) -> tuple:
        return (
            int(values.size),
            int(np.count_nonzero(np.isclose(values, self.positive_value))),
        )

    def merge_stats(self, partials: Sequence[tuple]) -> float:
        count = sum(partial[0] for partial in partials)
        if count == 0:
            return self.empty_value
        # np.mean over booleans is an exact integer sum divided by the size,
        # so this division is bit-identical to compute_from_values.
        return float(sum(partial[1] for partial in partials) / count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RatioStatistic(target_column={self.target_column!r}, "
            f"positive_value={self.positive_value})"
        )


#: Plugin registry of constructible statistics.  Built-ins are registered
#: below; third parties add their own via ``STATISTICS.register(name, factory)``
#: (also re-exported through :mod:`repro.api.registries`).
STATISTICS = Registry("statistic")
STATISTICS.register("count", lambda **kw: CountStatistic(), aliases=("density",))
STATISTICS.register(
    "average", lambda **kw: AverageStatistic(kw["target_column"]), aliases=("aggregate",)
)
STATISTICS.register("sum", lambda **kw: SumStatistic(kw["target_column"]))
STATISTICS.register("variance", lambda **kw: VarianceStatistic(kw["target_column"]))
STATISTICS.register("median", lambda **kw: MedianStatistic(kw["target_column"]))
STATISTICS.register(
    "ratio", lambda **kw: RatioStatistic(kw["target_column"], kw["positive_value"])
)


def make_statistic(name: str, **kwargs) -> StatisticSpec:
    """Create a statistic by name, resolved through the :data:`STATISTICS` registry.

    Built-in names: ``count``/``density``, ``average``/``aggregate``, ``sum``,
    ``variance``, ``median`` and ``ratio``.  Attribute statistics require a
    ``target_column`` keyword; ``ratio`` also needs ``positive_value``.
    """
    try:
        return STATISTICS.create(name, **kwargs)
    except KeyError as exc:
        raise ValidationError(f"statistic {name!r} is missing required argument {exc}") from exc
