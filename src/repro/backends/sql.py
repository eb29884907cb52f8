"""SQL backend: region predicates compiled to range ``WHERE`` clauses (stdlib sqlite3).

A hyper-rectangle is a conjunction of per-column range predicates, which maps
one-to-one onto SQL::

    SELECT COUNT(*) FROM data
    WHERE c0 >= ? AND c0 <= ? AND c1 >= ? AND c1 <= ?

so the scan runs inside the database engine and only counts (or the selected
target values) cross the boundary.  Count-only statistics are answered
entirely by ``COUNT(*)``; with ``exact_reductions=False``, ``sum`` and
``average`` statistics are answered by SQL ``SUM``/``AVG`` aggregates as well
(server-side, but the database's summation order may differ from NumPy's in
the last ulp).  The default keeps bit-identity with the in-memory reference:
float statistics fetch the matching target values ``ORDER BY rowid`` — i.e.
in row order — and reduce them with the statistic's own NumPy kernel.

SQLite stores ``REAL`` as IEEE-754 doubles and Python binds floats losslessly,
so the range comparisons decide every row exactly as NumPy does.  One
connection is shared across threads behind a lock (``sqlite3`` connections
are not concurrency-safe), which lets a served :class:`~repro.api.ServiceKernel`
ground-truth proposals against a SQL-resident engine from its worker pool.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import List, Optional

import numpy as np

from repro.backends.base import DataBackend
from repro.exceptions import ValidationError


class SQLiteBackend(DataBackend):
    """Exact region scans against a SQLite table.

    Parameters
    ----------
    region_values:
        ``(N, d)`` region-column matrix loaded into the table.
    target_values:
        Optional ``(N,)`` target column (stored as the ``target`` column).
    path:
        Database location; ``None`` uses a private in-memory database.  The
        backend owns the ``data`` table at that location: an existing one is
        dropped and reloaded from the given arrays.
    exact_reductions:
        When ``True`` (default), float statistics gather values and reduce in
        NumPy, bit-identical to the in-memory backend.  When ``False``,
        ``sum``/``average`` run as SQL aggregates — faster over large
        selections, equal up to summation-order rounding.
    """

    name = "sqlite"
    out_of_core = True

    _AGGREGATES = {"sum": "SUM(target)", "average": "AVG(target)"}

    def __init__(
        self,
        region_values: np.ndarray,
        target_values: Optional[np.ndarray] = None,
        path=None,
        exact_reductions: bool = True,
    ):
        region_values = np.asarray(region_values, dtype=np.float64)
        if region_values.ndim != 2 or region_values.shape[0] == 0:
            raise ValidationError(
                f"region_values must be a non-empty (N, d) matrix, got shape {region_values.shape}"
            )
        if target_values is not None:
            target_values = np.asarray(target_values, dtype=np.float64)
            if target_values.shape != (region_values.shape[0],):
                raise ValidationError(
                    f"target_values must have shape ({region_values.shape[0]},), "
                    f"got {target_values.shape}"
                )
        if not np.all(np.isfinite(region_values)) or (
            target_values is not None and not np.all(np.isfinite(target_values))
        ):
            # SQLite stores NaN as NULL, silently changing comparison results.
            raise ValidationError("SQLiteBackend requires finite data values")
        self._num_rows, self._dim = region_values.shape
        self._has_target = target_values is not None
        self.exact_reductions = bool(exact_reductions)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            ":memory:" if path is None else str(path), check_same_thread=False
        )
        self._load(region_values, target_values)
        self._where = " AND ".join(f"c{k} >= ? AND c{k} <= ?" for k in range(self._dim))

    def _load(self, region_values: np.ndarray, target_values: Optional[np.ndarray]) -> None:
        columns = [f"c{k} REAL" for k in range(self._dim)]
        if self._has_target:
            columns.append("target REAL")
        placeholders = ", ".join("?" for _ in columns)
        with self._lock:
            self._connection.execute("DROP TABLE IF EXISTS data")
            self._connection.execute(f"CREATE TABLE data ({', '.join(columns)})")
            stacked = (
                np.column_stack([region_values, target_values])
                if self._has_target
                else region_values
            )
            self._connection.executemany(
                f"INSERT INTO data VALUES ({placeholders})",
                (tuple(map(float, row)) for row in stacked),
            )
            self._connection.commit()

    # ------------------------------------------------------------------ introspection
    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def region_dim(self) -> int:
        return self._dim

    @property
    def has_target(self) -> bool:
        return self._has_target

    # ------------------------------------------------------------------ SQL helpers
    def _params(self, lower: np.ndarray, upper: np.ndarray) -> tuple:
        params = []
        for k in range(self._dim):
            params.extend((float(lower[k]), float(upper[k])))
        return tuple(params)

    def _fetch(self, sql: str, params: tuple) -> list:
        with self._lock:
            return self._connection.execute(sql, params).fetchall()

    # ------------------------------------------------------------------ primitives
    def scan_masks(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        lowers, uppers = self._check_corners(lowers, uppers)
        self.counters.note_scan(lowers.shape[0], lowers.shape[0] * self._num_rows)
        masks = np.zeros((lowers.shape[0], self._num_rows), dtype=bool)
        sql = f"SELECT rowid FROM data WHERE {self._where}"
        for row in range(lowers.shape[0]):
            rows = self._fetch(sql, self._params(lowers[row], uppers[row]))
            if rows:
                # SQLite rowids are 1-based insertion order.
                masks[row, np.fromiter((r[0] - 1 for r in rows), dtype=np.int64)] = True
        return masks

    def count(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        lowers, uppers = self._check_corners(lowers, uppers)
        self.counters.note_scan(lowers.shape[0], lowers.shape[0] * self._num_rows)
        sql = f"SELECT COUNT(*) FROM data WHERE {self._where}"
        return np.asarray(
            [
                self._fetch(sql, self._params(lowers[row], uppers[row]))[0][0]
                for row in range(lowers.shape[0])
            ],
            dtype=np.int64,
        )

    def gather(self, lowers: np.ndarray, uppers: np.ndarray) -> List[np.ndarray]:
        lowers, uppers = self._check_corners(lowers, uppers)
        if not self._has_target:
            raise ValidationError(
                f"backend {self.name!r} stores no target column; gather is unavailable"
            )
        self.counters.note_gather(lowers.shape[0], lowers.shape[0] * self._num_rows)
        sql = f"SELECT target FROM data WHERE {self._where} ORDER BY rowid"
        return [
            np.asarray(
                [r[0] for r in self._fetch(sql, self._params(lowers[row], uppers[row]))],
                dtype=np.float64,
            )
            for row in range(lowers.shape[0])
        ]

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        names = ", ".join(f"c{k}" for k in range(self._dim))
        out = np.empty((indices.size, self._dim), dtype=np.float64)
        sql = f"SELECT {names} FROM data WHERE rowid = ?"
        for position, index in enumerate(indices):
            rows = self._fetch(sql, (int(index) + 1,))
            if not rows:
                raise ValidationError(f"row index {int(index)} out of range")
            out[position] = rows[0]
        return out

    # ------------------------------------------------------------------ evaluation
    def evaluate(self, statistic, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        aggregate = self._AGGREGATES.get(statistic.name)
        if statistic.count_only or aggregate is None or self.exact_reductions:
            return super().evaluate(statistic, lowers, uppers)
        lowers, uppers = self._check_corners(lowers, uppers)
        self._require_target(statistic)
        # Pushed-down aggregation never calls gather, so account here.
        self.counters.note_gather(lowers.shape[0], lowers.shape[0] * self._num_rows)
        sql = f"SELECT {aggregate}, COUNT(target) FROM data WHERE {self._where}"
        values = np.empty(lowers.shape[0], dtype=np.float64)
        for row in range(lowers.shape[0]):
            total, count = self._fetch(sql, self._params(lowers[row], uppers[row]))[0]
            values[row] = statistic.empty_value if count == 0 else float(total)
        return values

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.ProgrammingError:  # pragma: no cover - already closed
                pass
