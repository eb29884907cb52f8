"""Per-layer metrics of a traced run, from its spans and the workload's counters.

Every name in ``BENCHMARK.json``'s ``per_layer`` list is reported on every
workload; a layer the workload does not load reports 0 (``design.json``
lists which layers each workload bypasses).  Per-find times are means over
the timed finds, so the parts of a find add up to it.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.stats import median, percentile
from perfbench.tracing import Span, SpanIndex, Tracer


def _median(values: List[float]) -> float:
    return median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _info_sum(spans: List[Span], key: str) -> float:
    return float(sum(span.info[key] for span in spans if span.info and key in span.info))


#: The per-find time figures, named as reported: together they cover each find.
#: The surrogate and the Eq. 8 mass are leaves, so their whole calls count;
#: every other span counts its self time, so no instant is counted twice.
FIND_PARTS = {
    "core.find_self_ms": ("core.find", "self"),
    "core.objective_self_ms": ("core.objective", "self"),
    "optim.gso_self_ms": ("optim.gso", "self"),
    "core.postprocess_ms": ("core.postprocess", "self"),
    "surrogate.predict_ms_per_find": ("surrogate.predict", "duration"),
    "density.mass_ms_per_find": ("density.mass", "duration"),
}


def per_find(index: SpanIndex, finds: List[Span]) -> Dict[str, List[float]]:
    """For each find: its duration, the :data:`FIND_PARTS` and the counts below it."""
    table: Dict[str, List[float]] = {
        name: [] for name in ("find", "proposals", "iterations", "evals", "predict_rows", "boxes")
    }
    table.update({name: [] for name in FIND_PARTS})
    for find in finds:
        by_name: Dict[str, List[Span]] = {find.name: [find]}
        for span in index.descendants(find):
            by_name.setdefault(span.name, []).append(span)
        for metric, (span_name, measure) in FIND_PARTS.items():
            spans = by_name.get(span_name, [])
            table[metric].append(sum(
                index.self_time(span) if measure == "self" else span.duration for span in spans
            ))
        table["find"].append(find.duration)
        table["proposals"].append(_info_sum(by_name.get("core.postprocess", []), "proposals"))
        gso = by_name.get("optim.gso", [])
        table["iterations"].append(_info_sum(gso, "iterations"))
        table["evals"].append(_info_sum(gso, "evals"))
        table["predict_rows"].append(_info_sum(by_name.get("surrogate.predict", []), "rows"))
        table["boxes"].append(_info_sum(by_name.get("density.mass", []), "rows"))
    return table


def find_coverage(values: Dict[str, float], find_ms: float) -> float:
    """The reported :data:`FIND_PARTS` as a percentage of the mean find span.

    About 100 when the reported layers account for the whole find; less when
    a call below ``find_regions`` lands in a layer no part reports, more when
    parts overlap (nested leaves, or children on two threads at once).
    """
    return 100.0 * sum(values[name] for name in FIND_PARTS) / find_ms if find_ms else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, float], names: List[str]) -> Dict[str, float]:
    """Every per-layer metric in ``names``; 0 where the workload has no such work.

    Span figures come from the ``measure`` phase (the timed finds and
    requests; on ``hot_serve`` the nominal rung), set-up figures (training,
    compile, KDE fit, scans) from every phase.  ``counters`` holds the
    figures the workload and ``run.py`` measured themselves.
    """
    index = SpanIndex(tracer.spans)
    measured = lambda name: index.named(name, "measure")  # noqa: E731
    every = index.named
    values: Dict[str, float] = {name: 0.0 for name in names}

    asgi = measured("api.asgi")
    waits = []
    for span in asgi:
        kernels = [kid for kid in index.children.get(span.id, ()) if kid.name == "api.kernel"]
        if kernels:
            waits.append(min(kid.start for kid in kernels) - span.start)
    values["api.asgi_self_us"] = _median([index.self_time(span) for span in asgi]) * 1e6
    values["api.kernel_self_us"] = _median(
        [index.self_time(span) for span in measured("api.kernel")]) * 1e6
    values["api.queue_wait_p50_ms"] = _p(waits, 50) * 1e3
    values["api.queue_wait_p99_ms"] = _p(waits, 99) * 1e3
    values["core.gate_us"] = _median([span.duration for span in measured("core.gate")]) * 1e6

    finds = per_find(index, measured("core.find"))
    for name in FIND_PARTS:
        values[name] = _mean(finds[name]) * 1e3
    values["core.proposals_per_find"] = _mean(finds["proposals"])
    values["core.sat_rebuild_ms"] = _median(
        [span.duration for span in every("core.sat_rebuild")]) * 1e3
    values["optim.iterations_per_find"] = _mean(finds["iterations"])
    values["optim.evals_per_find"] = _mean(finds["evals"])
    rows = sum(finds["predict_rows"])
    predict_seconds = sum(finds["surrogate.predict_ms_per_find"])
    values["surrogate.predict_us_per_row"] = predict_seconds / rows * 1e6 if rows else 0.0
    values["surrogate.rows_per_find"] = _mean(finds["predict_rows"])
    values["surrogate.train_s"] = _median([span.duration for span in every("surrogate.train")])
    values["ml.compile_ms"] = _median([span.duration for span in every("ml.compile")]) * 1e3
    boxes = sum(finds["boxes"])
    mass_seconds = sum(finds["density.mass_ms_per_find"])
    values["density.us_per_box"] = mass_seconds / boxes * 1e6 if boxes else 0.0
    values["density.boxes_per_find"] = _mean(finds["boxes"])
    values["density.fit_ms"] = _median([span.duration for span in every("density.fit")]) * 1e3

    scans = every("backends.evaluate")
    scanned = _info_sum(scans, "scanned")
    scan_seconds = sum(span.duration for span in scans)
    values["backends.evaluate_ms"] = _median([span.duration for span in scans]) * 1e3
    values["backends.rows_scanned"] = scanned
    values["backends.rows_per_s"] = scanned / scan_seconds if scan_seconds else 0.0

    refreshes = every("online.refresh")
    values["online.refresh_s"] = _median([span.duration for span in refreshes])
    modes = [span.info["mode"] for span in refreshes if span.info]
    values["online.full_refits"] = float(modes.count("full"))
    values["online.incremental_refits"] = float(modes.count("incremental"))
    values["online.pairs_folded"] = _info_sum(refreshes, "pairs")
    values["online.log_record_us"] = _median(
        [span.duration for span in every("online.log_record")]) * 1e6

    values["trace.self_sum_pct"] = find_coverage(values, _mean(finds["find"]) * 1e3)
    for name, value in counters.items():
        if name in values:
            values[name] = float(value)
    return values
