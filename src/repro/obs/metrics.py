"""A thread-safe, mergeable metrics registry with Prometheus exposition.

The serving layer's counters (:class:`~repro.api.kernel.ServiceStats`) are a
coarse per-kernel summary; operating the ROADMAP's front door needs labelled
time series — requests by tenant and verdict, latency histograms by stage,
GSO surrogate-eval counts, backend rows scanned.  This module provides the
storage for those series with three deliberate properties:

* **thread-safe**: every family keeps one lock; increments from the kernel's
  worker threads, the admission stage and the ASGI scrape path never race;
* **mergeable**: :meth:`MetricsRegistry.snapshot` produces a plain,
  picklable dict and :meth:`MetricsRegistry.merge` folds such a snapshot into
  a live registry — :meth:`repro.api.ModelRegistry.render_metrics` merges the
  registries of tenants that carry separate observability bundles into one
  ``/metrics`` body;
* **pull-based gauges**: callbacks registered via
  :meth:`MetricsRegistry.register_collector` run at snapshot/render time, so
  state that already exists elsewhere (cache occupancy, generation, drift
  RMSE, backend counters) costs nothing per request and is simply *read* when
  ``/metrics`` is scraped.

Exposition follows the Prometheus text format (``# HELP`` / ``# TYPE``,
``_bucket{le="..."}`` / ``_sum`` / ``_count`` for histograms), which every
Prometheus-compatible scraper parses.  No third-party client library is used
or required.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError

#: Fixed log-spaced latency buckets (seconds): 1 µs to 100 s, two per decade.
#: Shared by every latency histogram so per-stage series are comparable and
#: snapshot merges never face mismatched bucket layouts.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 2.0), 12) for exponent in range(-12, 5)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing count (one labelled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(f"counters only increase, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set_total(self, value: float) -> None:
        """Overwrite the running total — for collectors mirroring an external
        monotonic count (e.g. backend row counters) and for snapshot merges.
        Regular instrumentation must use :meth:`inc`."""
        with self._lock:
            self._value = float(value)


class Gauge:
    """A value that can go up and down (one labelled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution (one labelled child of a family).

    Buckets are cumulative at exposition time but stored as per-bucket counts
    so merges are element-wise adds.  ``observe`` is the hot path: one bisect
    over the (shared, immutable) upper-bound tuple plus three adds under the
    family lock.
    """

    __slots__ = ("_lock", "_bounds", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]):
        self._lock = lock
        self._bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        slot = bisect_left(self._bounds, value)
        with self._lock:
            self.counts[slot] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations under one lock acquisition
        (a batch's requests all share one total-latency reading)."""
        count = int(count)
        if count <= 0:
            return
        value = float(value)
        slot = bisect_left(self._bounds, value)
        with self._lock:
            self.counts[slot] += count
            self.sum += value * count
            self.count += count


_KINDS = ("counter", "gauge", "histogram")
_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by their label-value tuple."""

    __slots__ = ("name", "help", "kind", "label_names", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        _check_name(name)
        if kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {kind!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValidationError(f"invalid label name {label!r} for metric {name!r}")
        if kind == "histogram":
            buckets = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS))
            if list(buckets) != sorted(set(buckets)):
                raise ValidationError(f"histogram buckets must be strictly increasing, got {buckets}")
        elif buckets is not None:
            raise ValidationError(f"buckets only apply to histograms, not {kind!r}")
        self.name = name
        self.help = str(help)
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, *values: str):
        """The child for one label-value combination (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValidationError(
                f"metric {self.name!r} takes labels {self.label_names}, got {values!r}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self._lock, self.buckets)
                    else:
                        child = _CHILD_TYPES[self.kind](self._lock)
                    self._children[key] = child
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Stable-ordered ``(label_values, child)`` pairs."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Named metric families plus pull-time collector callbacks.

    Families are created idempotently: asking for an existing name with the
    same kind and labels returns the same family (so many kernels can share
    one registry); a conflicting re-declaration raises.
    """

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ declaration
    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise ValidationError(
                        f"metric {name!r} already declared as {family.kind} with labels "
                        f"{family.label_names}, cannot redeclare as {kind} with {tuple(labels)}"
                    )
                return family
            family = MetricFamily(
                name, help, kind, tuple(labels),
                tuple(buckets) if buckets is not None else None,
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, "counter", labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._family(name, help, "histogram", labels, buckets or DEFAULT_LATENCY_BUCKETS)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------ collectors
    def register_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every snapshot/render.

        Collectors *read* existing state (cache sizes, drift monitors, backend
        counters) into gauges at scrape time, so tracked subsystems pay
        nothing per request.
        """
        if not callable(collector):
            raise ValidationError(f"collector must be callable, got {collector!r}")
        with self._lock:
            self._collectors.append(collector)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    # ------------------------------------------------------------------ snapshot / merge
    def snapshot(self, run_collectors: bool = True) -> Dict[str, dict]:
        """A plain, picklable view of every family — the unit of merging.

        Aggregation layers call it to merge many registries into one.
        """
        if run_collectors:
            self._run_collectors()
        out: Dict[str, dict] = {}
        for family in self.families():
            series: Dict[Tuple[str, ...], object] = {}
            for key, child in family.series():
                if family.kind == "histogram":
                    with family._lock:
                        series[key] = {
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                else:
                    series[key] = child.value
            out[family.name] = {
                "help": family.help,
                "kind": family.kind,
                "labels": family.label_names,
                "buckets": family.buckets,
                "series": series,
            }
        return out

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms *add* (no increment is ever lost when many
        registries merge); gauges take the snapshot's value (last writer
        wins — gauges describe current state, not accumulation).
        """
        for name, payload in snapshot.items():
            family = self._family(
                name, payload["help"], payload["kind"],
                payload["labels"], payload.get("buckets"),
            )
            for key, value in payload["series"].items():
                child = family.labels(*key)
                if family.kind == "counter":
                    with family._lock:
                        child._value += float(value)
                elif family.kind == "gauge":
                    child.set(float(value))
                else:
                    counts = value["counts"]
                    if len(counts) != len(child.counts):
                        raise ValidationError(
                            f"histogram {name!r} snapshot has {len(counts)} buckets, "
                            f"registry has {len(child.counts)}"
                        )
                    with family._lock:
                        for slot, delta in enumerate(counts):
                            child.counts[slot] += delta
                        child.sum += value["sum"]
                        child.count += value["count"]

    # ------------------------------------------------------------------ exposition
    def render(self) -> str:
        """Prometheus text exposition (runs collectors first)."""
        self._run_collectors()
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.series():
                labels = _render_labels(family.label_names, key)
                if family.kind == "histogram":
                    with family._lock:
                        counts = list(child.counts)
                        total, count = child.sum, child.count
                    cumulative = 0
                    for bound, bucket_count in zip(family.buckets, counts):
                        cumulative += bucket_count
                        bucket_labels = _render_labels(
                            family.label_names + ("le",), key + (_format_value(bound),)
                        )
                        lines.append(f"{family.name}_bucket{bucket_labels} {cumulative}")
                    cumulative += counts[-1]
                    inf_labels = _render_labels(family.label_names + ("le",), key + ("+Inf",))
                    lines.append(f"{family.name}_bucket{inf_labels} {cumulative}")
                    lines.append(f"{family.name}_sum{labels} {_format_value(total)}")
                    lines.append(f"{family.name}_count{labels} {count}")
                else:
                    lines.append(f"{family.name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"


def _render_labels(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"' for name, value in zip(names, values)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse Prometheus text exposition into ``{series_name: {labelset: value}}``.

    A deliberately small validating parser used by the smoke example and the
    tests to assert the exposition format is well formed: every non-comment
    line must be ``name{labels} value`` with a parseable float value.
    """
    series: Dict[str, Dict[str, float]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$", line)
        if match is None:
            raise ValidationError(f"unparseable exposition line {line_number}: {line!r}")
        name, labels, raw_value = match.groups()
        value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        series.setdefault(name, {})[labels or ""] = value
    return series


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "parse_prometheus_text",
]
