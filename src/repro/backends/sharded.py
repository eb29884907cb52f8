"""Sharded parallel exact evaluation: range-partitioned rows, thread-pool scans.

:class:`ShardedBackend` splits the row range into contiguous shards, each held
by any other :class:`~repro.backends.base.DataBackend` (in-memory NumPy by
default; memory-mapped or SQLite shards compose freely), and evaluates every
scan on all shards concurrently.  The mask kernels and SQL scans release the
GIL, so on multi-core hosts a 4-shard scan approaches 4x single-backend
throughput (``benchmarks/test_bench_backends.py`` asserts the >= 2x floor).

Merging per-shard results back into exact statistics follows Definition 3's
decomposability distinction:

* **counts** are integer sums over shards — always exact;
* statistics whose ``decomposition`` is ``"exact"`` (``count``, ``ratio``)
  merge integer sufficient statistics — bit-identical to an unsharded scan;
* with ``merge="stats"``, ``"float"``-decomposable statistics (``sum``,
  ``average``, ``variance``) merge float sufficient statistics — the fast
  path that ships O(shards) numbers instead of the selected values, equal to
  the unsharded reduction up to summation-order rounding;
* everything else — including ``merge="exact"`` float statistics and
  non-decomposable ones (``median``) — **gathers**: shards return their
  selected target values, the merge concatenates them in shard order (= row
  order, because the partition is a contiguous range split) and reduces once
  with the statistic's own kernel, bit-identical to the in-memory reference.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.backends.base import DataBackend
from repro.exceptions import ValidationError

_MERGE_MODES = ("exact", "stats")


class ShardedBackend(DataBackend):
    """Fan scans out over contiguous row shards and merge the results.

    Parameters
    ----------
    shards:
        Sub-backends holding consecutive row ranges, in row order.  All must
        share the region dimensionality; either all or none store a target.
    max_workers:
        Thread-pool width (default ``min(num shards, cpu count)``); ``1``
        evaluates shards serially.
    merge:
        ``"exact"`` (default) keeps every statistic bit-identical to an
        unsharded scan; ``"stats"`` additionally merges float sufficient
        statistics (``sum``/``average``/``variance``) without gathering, at
        the cost of last-ulp drift.
    """

    name = "sharded"
    parallel = True

    def __init__(
        self,
        shards: Sequence[DataBackend],
        max_workers: Optional[int] = None,
        merge: str = "exact",
    ):
        shards = list(shards)
        if len(shards) < 1:
            raise ValidationError("ShardedBackend requires at least one shard")
        dims = {shard.region_dim for shard in shards}
        if len(dims) != 1:
            raise ValidationError(f"shards disagree on region_dim: {sorted(dims)}")
        targets = {shard.has_target for shard in shards}
        if len(targets) != 1:
            raise ValidationError("either every shard or no shard must store a target column")
        if merge not in _MERGE_MODES:
            raise ValidationError(f"merge must be one of {_MERGE_MODES}, got {merge!r}")
        if max_workers is not None and int(max_workers) < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        self._shards = shards
        self._offsets = np.cumsum([0] + [shard.num_rows for shard in shards])
        self.merge = merge
        self.max_workers = max_workers
        self.out_of_core = all(shard.out_of_core for shard in shards)

    @classmethod
    def from_arrays(
        cls,
        region_values: np.ndarray,
        target_values: Optional[np.ndarray] = None,
        num_shards: int = 4,
        shard_backend: str = "numpy",
        max_workers: Optional[int] = None,
        merge: str = "exact",
        **shard_options,
    ) -> "ShardedBackend":
        """Range-partition in-memory arrays across ``num_shards`` sub-backends."""
        from repro.backends import make_backend

        region_values = np.asarray(region_values, dtype=np.float64)
        if region_values.ndim != 2 or region_values.shape[0] == 0:
            raise ValidationError(
                f"region_values must be a non-empty (N, d) matrix, got shape {region_values.shape}"
            )
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        num_shards = min(num_shards, region_values.shape[0])
        boundaries = np.linspace(0, region_values.shape[0], num_shards + 1).astype(np.int64)
        shards = []
        for shard_id, (start, stop) in enumerate(zip(boundaries[:-1], boundaries[1:])):
            options = dict(shard_options)
            # Storage-location options must not be shared between shards: a
            # common sqlite path would have every shard drop and re-create the
            # same table, a common chunked directory would overwrite the same
            # .npy files — either way only the last shard's rows would survive.
            if "path" in options and options["path"] is not None:
                options["path"] = f"{options['path']}.shard{shard_id}"
            if "directory" in options and options["directory"] is not None:
                options["directory"] = os.path.join(
                    str(options["directory"]), f"shard-{shard_id}"
                )
            shards.append(
                make_backend(
                    shard_backend,
                    region_values[start:stop],
                    None if target_values is None else target_values[start:stop],
                    **options,
                )
            )
        return cls(shards, max_workers=max_workers, merge=merge)

    # ------------------------------------------------------------------ introspection
    @property
    def num_rows(self) -> int:
        return int(self._offsets[-1])

    @property
    def region_dim(self) -> int:
        return self._shards[0].region_dim

    @property
    def has_target(self) -> bool:
        return self._shards[0].has_target

    @property
    def num_shards(self) -> int:
        """Number of sub-backends."""
        return len(self._shards)

    @property
    def shards(self) -> List[DataBackend]:
        """The sub-backends, in row order."""
        return list(self._shards)

    # ------------------------------------------------------------------ fan-out core
    def _map(self, task: Callable[[DataBackend], object]) -> list:
        """Run ``task`` once per shard, concurrently when workers allow."""
        workers = self.max_workers
        if workers is None:
            workers = min(len(self._shards), os.cpu_count() or 1)
        if workers <= 1 or len(self._shards) == 1:
            return [task(shard) for shard in self._shards]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, self._shards))

    # ------------------------------------------------------------------ primitives
    def scan_masks(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        lowers, uppers = self._check_corners(lowers, uppers)
        # Logical scan accounting; each shard also counts its physical share.
        self.counters.note_scan(lowers.shape[0], lowers.shape[0] * self.num_rows)
        parts = self._map(lambda shard: shard.scan_masks(lowers, uppers))
        return np.concatenate(parts, axis=1)

    def count(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        lowers, uppers = self._check_corners(lowers, uppers)
        self.counters.note_scan(lowers.shape[0], lowers.shape[0] * self.num_rows)
        parts = self._map(lambda shard: shard.count(lowers, uppers))
        # Integer sums over disjoint shards are the unsharded counts exactly.
        return np.sum(parts, axis=0, dtype=np.int64)

    def gather(self, lowers: np.ndarray, uppers: np.ndarray) -> List[np.ndarray]:
        lowers, uppers = self._check_corners(lowers, uppers)
        if not self.has_target:
            raise ValidationError(
                f"backend {self.name!r} stores no target column; gather is unavailable"
            )
        self.counters.note_gather(lowers.shape[0], lowers.shape[0] * self.num_rows)
        parts = self._map(lambda shard: shard.gather(lowers, uppers))
        # Shard order is row order (contiguous range partition), so the
        # concatenation is exactly the unsharded row-order gather.
        return [
            np.concatenate([part[row] for part in parts]) for row in range(lowers.shape[0])
        ]

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise ValidationError(
                f"row indices must be in [0, {self.num_rows}), "
                f"got range [{indices.min()}, {indices.max()}]"
            )
        out = np.empty((indices.size, self.region_dim), dtype=np.float64)
        shard_ids = np.searchsorted(self._offsets, indices, side="right") - 1
        for shard_id, shard in enumerate(self._shards):
            selected = shard_ids == shard_id
            if selected.any():
                out[selected] = shard.take(indices[selected] - self._offsets[shard_id])
        return out

    # ------------------------------------------------------------------ evaluation
    def evaluate(self, statistic, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        decomposition = statistic.decomposition
        use_sufficient_stats = decomposition == "exact" or (
            decomposition == "float" and self.merge == "stats"
        )
        if statistic.count_only or not use_sufficient_stats:
            return super().evaluate(statistic, lowers, uppers)
        lowers, uppers = self._check_corners(lowers, uppers)
        self._require_target(statistic)
        # Sufficient-statistics merges never call self.gather, so the
        # logical gather is accounted here (shards count their own).
        self.counters.note_gather(lowers.shape[0], lowers.shape[0] * self.num_rows)
        # Shards reduce their own selections to sufficient statistics;
        # only O(num_shards) tuples per region cross the merge.
        parts = self._map(
            lambda shard: [
                statistic.partial_stats(values)
                for values in shard.gather(lowers, uppers)
            ]
        )
        return np.asarray(
            [
                statistic.merge_stats([part[row] for part in parts])
                for row in range(lowers.shape[0])
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        for shard in self._shards:
            shard.close()
