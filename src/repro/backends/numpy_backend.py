"""In-memory NumPy backend — the default and bit-exact reference.

This is the scan code extracted verbatim from the pre-backend
``DataEngine`` internals: the blocked broadcast mask kernel, the
``MAX_MASK_ELEMENTS`` region blocking of batched evaluation, and the optional
:class:`~repro.data.index.GridIndex`.  The refactor's contract is that
``DataEngine(dataset, statistic)`` routed through this backend returns
bit-identical values to the pre-refactor engine, which the seeded equivalence
suite (``tests/property/test_property_backends.py``) asserts.

With an index attached, evaluation *prunes first*: candidate rows come from
the grid cells overlapping the region and only those are counted or gathered.
This now covers attribute statistics too (the historical count-only
restriction is lifted): pruned candidate indices are sorted back into row
order before the target gather, so float reductions see exactly the array the
unindexed path reduces.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.backends.base import MAX_MASK_ELEMENTS, DataBackend, block_mask_kernel
from repro.exceptions import ValidationError


class NumpyBackend(DataBackend):
    """Exact scans over in-memory arrays (optionally pruned by a grid index).

    Parameters
    ----------
    region_values:
        ``(N, d)`` matrix of the region columns.
    target_values:
        Optional ``(N,)`` measured-attribute column for attribute statistics.
    index:
        Optional :class:`~repro.data.index.GridIndex` built over
        ``region_values``; when present, scans prune to candidate cells first.
    """

    name = "numpy"

    def __init__(
        self,
        region_values: np.ndarray,
        target_values: Optional[np.ndarray] = None,
        index=None,
    ):
        region_values = np.asarray(region_values, dtype=np.float64)
        if region_values.ndim != 2 or region_values.shape[0] == 0:
            raise ValidationError(
                f"region_values must be a non-empty (N, d) matrix, got shape {region_values.shape}"
            )
        self._region_values = region_values
        # Contiguous per-dimension columns for the batched mask kernel.
        self._columns = [
            np.ascontiguousarray(region_values[:, k]) for k in range(region_values.shape[1])
        ]
        self._target = None
        if target_values is not None:
            target_values = np.asarray(target_values, dtype=np.float64)
            if target_values.shape != (region_values.shape[0],):
                raise ValidationError(
                    f"target_values must have shape ({region_values.shape[0]},), "
                    f"got {target_values.shape}"
                )
            self._target = target_values
        if index is not None and getattr(index, "num_points", None) != region_values.shape[0]:
            raise ValidationError(
                "index does not cover the backend's rows: "
                f"{getattr(index, 'num_points', None)} indexed vs {region_values.shape[0]} stored"
            )
        self._index = index

    # ------------------------------------------------------------------ introspection
    @property
    def num_rows(self) -> int:
        return self._region_values.shape[0]

    @property
    def region_dim(self) -> int:
        return self._region_values.shape[1]

    @property
    def has_target(self) -> bool:
        return self._target is not None

    @property
    def index(self):
        """The attached :class:`~repro.data.index.GridIndex`, or ``None``."""
        return self._index

    @property
    def region_values(self) -> np.ndarray:
        """The stored ``(N, d)`` region-column matrix."""
        return self._region_values

    @property
    def target_values(self) -> Optional[np.ndarray]:
        """The stored target column, or ``None``."""
        return self._target

    # ------------------------------------------------------------------ primitives
    def scan_masks(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        lowers, uppers = self._check_corners(lowers, uppers)
        # Full mask width even with an index: the (M, N) matrix covers N rows.
        self.counters.note_scan(lowers.shape[0], lowers.shape[0] * self.num_rows)
        return self._scan_block(lowers, uppers)

    def count(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        lowers, uppers = self._check_corners(lowers, uppers)
        if lowers.shape[0] == 0:
            self.counters.note_scan(0, 0)
            return np.empty(0, dtype=np.int64)
        if self._index is not None:
            counts = np.asarray(
                [indices.size for indices in self._index.query_many(lowers, uppers)],
                dtype=np.int64,
            )
            self.counters.note_scan(lowers.shape[0], int(counts.sum()))
            return counts
        self.counters.note_scan(lowers.shape[0], lowers.shape[0] * self.num_rows)
        counts = np.empty(lowers.shape[0], dtype=np.int64)
        for start, stop, masks in self._iter_mask_blocks(lowers, uppers):
            counts[start:stop] = masks.sum(axis=1, dtype=np.int64)
        return counts

    def gather(self, lowers: np.ndarray, uppers: np.ndarray) -> List[np.ndarray]:
        lowers, uppers = self._check_corners(lowers, uppers)
        self._require_target_column()
        if lowers.shape[0] == 0:
            self.counters.note_gather(0, 0)
            return []
        if self._index is not None:
            values = [
                self._target[np.sort(indices)]
                for indices in self._index.query_many(lowers, uppers)
            ]
            self.counters.note_gather(
                lowers.shape[0], sum(selected.size for selected in values)
            )
            return values
        self.counters.note_gather(lowers.shape[0], lowers.shape[0] * self.num_rows)
        values: List[np.ndarray] = []
        for _, _, masks in self._iter_mask_blocks(lowers, uppers):
            values.extend(self._target[mask] for mask in masks)
        return values

    def take(self, indices: np.ndarray) -> np.ndarray:
        return self._region_values[np.asarray(indices, dtype=np.int64)]

    # ------------------------------------------------------------------ evaluation
    def evaluate(self, statistic, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """Batched statistic evaluation.

        * Unindexed: the pre-refactor engine path, verbatim — full masks in
          ``MAX_MASK_ELEMENTS`` region blocks reduced by the statistic's
          batch kernel (which vectorises count/ratio and loops the scalar
          reduction for order-sensitive float statistics).
        * Indexed: the base template, whose count or gather prunes to the
          sorted candidate rows — no ``(M, N)`` mask is materialised for any
          statistic.
        """
        if self._index is not None:
            return super().evaluate(statistic, lowers, uppers)
        lowers, uppers = self._check_corners(lowers, uppers)
        if not statistic.count_only:
            self._require_target(statistic)
        note = self.counters.note_scan if statistic.count_only else self.counters.note_gather
        note(lowers.shape[0], lowers.shape[0] * self.num_rows)
        values = np.empty(lowers.shape[0], dtype=np.float64)
        for start, stop, masks in self._iter_mask_blocks(lowers, uppers):
            values[start:stop] = statistic.compute_batch_from_arrays(self._target, masks)
        return values

    # ------------------------------------------------------------------ internals
    def _scan_block(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """Mask computation shared by :meth:`scan_masks` and the blocked
        iterators — no scan accounting, so a blocked caller counts once."""
        masks = np.empty((lowers.shape[0], self.num_rows), dtype=bool)
        if lowers.shape[0] == 0:
            return masks
        if self._index is not None:
            masks[:] = False
            for row, indices in enumerate(self._index.query_many(lowers, uppers)):
                masks[row, indices] = True
            return masks
        return block_mask_kernel(self._columns, lowers, uppers, masks)

    def _iter_mask_blocks(self, lowers: np.ndarray, uppers: np.ndarray):
        """Yield ``(start, stop, masks)`` with at most MAX_MASK_ELEMENTS bools each."""
        block = max(1, MAX_MASK_ELEMENTS // max(self.num_rows, 1))
        for start in range(0, lowers.shape[0], block):
            stop = min(start + block, lowers.shape[0])
            yield start, stop, self._scan_block(lowers[start:stop], uppers[start:stop])

    def _require_target_column(self) -> None:
        if self._target is None:
            raise ValidationError(
                f"backend {self.name!r} stores no target column; gather is unavailable"
            )
