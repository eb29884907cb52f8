"""Observability: metrics registry, request tracing and profiling hooks.

Opt in per kernel — ``ServiceKernel(finder, observability=True)`` or
``production_chain(observability=...)`` — and scrape ``GET /metrics`` /
``GET /trace/{id}`` on the front door.  Everything is off by default and the
uninstrumented serving path is unchanged; see the "Observability" section of
``docs/architecture.md`` for the metric name/label table and overhead policy.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.runtime import (
    GSORunProfile,
    Observability,
    Trace,
    instrument_chain,
    register_kernel,
)
from repro.obs.tracing import Span, TraceRecord, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "parse_prometheus_text",
    "Observability",
    "Trace",
    "GSORunProfile",
    "instrument_chain",
    "register_kernel",
    "Span",
    "TraceRecord",
    "Tracer",
]
