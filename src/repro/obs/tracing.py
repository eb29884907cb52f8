"""Request tracing: span trees, a capped in-memory ring and a JSONL exporter.

A **span** is one timed operation; spans nest into a tree that shows where a
request's wall clock went — middleware stage by middleware stage, down to the
individual GSO runs the execute stage launched.  The
:class:`~repro.obs.runtime.Trace` middleware builds one tree per batch (every
stage of the kernel's chain pushes a child span; generation retries simply
re-enter the inner stages, so their spans appear twice under the gate) and
registers one :class:`TraceRecord` per request keyed by its envelope trace
id, so ``GET /trace/{id}`` on the front door can replay exactly what happened
to any recent request.

Records land in a :class:`Tracer`: a thread-safe, capacity-capped ring
(oldest records evicted first — tracing must never grow without bound) plus
an optional append-only JSONL file, one record per line, for offline
analysis.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError


class Span:
    """One timed node of a trace tree.

    ``start``/``end`` are :func:`time.perf_counter` readings; exported times
    are offsets from the tree's root, so they are meaningful across processes
    and restarts (absolute wall-clock epochs are deliberately not recorded —
    the tree describes *where time went*, not *when*).
    """

    __slots__ = ("name", "start", "end", "attributes", "events", "children")

    def __init__(self, name: str, start: Optional[float] = None, **attributes):
        self.name = name
        self.start = perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.attributes: Optional[Dict[str, Any]] = dict(attributes) if attributes else None
        self.events: Optional[List[Tuple[str, float, Optional[dict]]]] = None
        self.children: Optional[List["Span"]] = None

    def child(self, name: str, start: Optional[float] = None, **attributes) -> "Span":
        node = Span(name, start=start, **attributes)
        if self.children is None:
            self.children = []
        self.children.append(node)
        return node

    def event(self, name: str, **attributes) -> None:
        if self.events is None:
            self.events = []
        self.events.append((name, perf_counter(), attributes or None))

    def set_attribute(self, key: str, value: Any) -> None:
        if self.attributes is None:
            self.attributes = {}
        self.attributes[key] = value

    def finish(self, end: Optional[float] = None) -> None:
        if self.end is None:
            self.end = perf_counter() if end is None else end

    @property
    def duration_seconds(self) -> float:
        end = self.end if self.end is not None else perf_counter()
        return max(0.0, end - self.start)

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        """JSON-safe tree view with times as offsets from ``origin``."""
        if origin is None:
            origin = self.start
        node: Dict[str, Any] = {
            "name": self.name,
            "offset_seconds": max(0.0, self.start - origin),
            "duration_seconds": self.duration_seconds,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.events:
            node["events"] = [
                {"name": name, "offset_seconds": max(0.0, at - origin), "attributes": attrs}
                for name, at, attrs in self.events
            ]
        if self.children:
            node["children"] = [child.to_dict(origin) for child in self.children]
        return node

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, duration={self.duration_seconds:.6f}s)"


class TraceRecord:
    """One request's finished trace: identity, verdict and its span tree."""

    __slots__ = ("trace_id", "model", "status", "root", "events")

    def __init__(
        self,
        trace_id: str,
        model: str,
        status: str,
        root: Span,
        events: Optional[List[Tuple[str, float, Optional[dict]]]] = None,
    ):
        self.trace_id = trace_id
        self.model = model
        self.status = status
        self.root = root
        self.events = events

    def to_dict(self) -> Dict[str, Any]:
        origin = self.root.start
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "model": self.model,
            "status": self.status,
            "spans": self.root.to_dict(origin),
        }
        if self.events:
            payload["events"] = [
                {"name": name, "offset_seconds": max(0.0, at - origin), "attributes": attrs}
                for name, at, attrs in self.events
            ]
        return payload


class Tracer:
    """Capped ring of recent :class:`TraceRecord` plus an optional JSONL sink.

    Parameters
    ----------
    capacity:
        Maximum records held in memory; the oldest is evicted when a new one
        arrives at capacity.  Lookup by trace id is O(1).
    jsonl_path:
        When given, every record is also appended to this file as one JSON
        line at record time (the in-memory ring caps retention; the file does
        not).  The file handle is opened lazily and closed by :meth:`close`.
    """

    def __init__(self, capacity: int = 512, jsonl_path=None):
        if int(capacity) < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.jsonl_path = jsonl_path
        #: trace id -> TraceRecord | row tuple; the dict's insertion order IS
        #: the eviction order, so no separate ring bookkeeping is needed.
        self._records: Dict[str, object] = {}
        self._sink = None
        self._lock = threading.Lock()

    def record(self, record: TraceRecord) -> None:
        self.record_many((record,))

    def record_many(self, records: Sequence[TraceRecord]) -> None:
        """Register a batch of finished records under one lock acquisition.

        JSONL serialization (when a sink is configured) happens before the
        lock; ring maintenance is O(1) per record."""
        lines = None
        if self.jsonl_path is not None:
            lines = [json.dumps(record.to_dict()) for record in records]
        with self._lock:
            held = self._records
            for record in records:
                trace_id = record.trace_id
                if trace_id in held:  # move duplicates to the fresh end
                    del held[trace_id]
                held[trace_id] = record
            while len(held) > self.capacity:
                del held[next(iter(held))]
            if lines:
                if self._sink is None:
                    self._sink = open(self.jsonl_path, "a", encoding="utf-8")
                self._sink.write("\n".join(lines) + "\n")
                self._sink.flush()

    def record_rows(self, rows: Sequence[tuple]) -> None:
        """Register ``(trace_id, model, status, root, events)`` rows.

        The request hot path stores plain tuples; :meth:`get` materialises a
        :class:`TraceRecord` only when someone actually asks for the trace.
        With a JSONL sink configured every record is serialized at record
        time anyway, so the lazy form buys nothing and the rows are promoted
        eagerly."""
        if self.jsonl_path is not None:
            self.record_many([TraceRecord(*row) for row in rows])
            return
        with self._lock:
            held = self._records
            for row in rows:
                trace_id = row[0]
                if trace_id in held:
                    del held[trace_id]
                held[trace_id] = row
            while len(held) > self.capacity:
                del held[next(iter(held))]

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        with self._lock:
            entry = self._records.get(trace_id)
            if entry is None:
                return None
            if type(entry) is tuple:  # promote a lazy row in place
                entry = TraceRecord(*entry)
                self._records[trace_id] = entry
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def close(self) -> None:
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None:
            sink.close()


__all__ = [
    "Span",
    "TraceRecord",
    "Tracer",
]
