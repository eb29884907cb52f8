"""Spans recorded from outside the program, around each layer's public entry points.

A traced run installs wrappers on the callables listed in :func:`install`;
nothing under ``src/`` knows it is being traced.  Each wrapper keeps a name,
a start, an end, the parent span, the request id and the phase in memory;
the spans are written out when the run ends.

The parent span and the request id live in context variables, so they follow
``asyncio`` tasks and ``asyncio.to_thread``.  Work submitted to a plain
``ThreadPoolExecutor`` (the kernel's ``Execute`` stage, the registry's
per-tenant fan-out) does not inherit the context, so the submit wrapper hands
the submitter's span to the worker thread, and spans opened there attach to it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench.stats import self_time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread", "phase", "info")

    def __init__(self, span_id, name, start, end, parent, request, thread, phase, info):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.thread = thread
        self.phase = phase
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [
            self.id, self.name, self.start, self.end, self.parent,
            self.request, self.thread, self.phase, self.info,
        ]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        #: ``setup``, ``measure``, ``ladder`` or ``check``: stamped on every span that starts.
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._request = contextvars.ContextVar("perfbench_request", default=None)
        self._adopted = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ context
    def _parent(self) -> Optional[int]:
        parent = self._current.get()
        return parent if parent is not None else getattr(self._adopted, "span", None)

    def _request_id(self) -> Optional[int]:
        request = self._request.get()
        return request if request is not None else getattr(self._adopted, "request", None)

    def _record(self, span_id, name, start, end, parent, phase, info) -> None:
        self.spans.append(
            Span(span_id, name, start, end, parent, self._request_id(),
                 threading.get_ident(), phase, info)
        )

    # ------------------------------------------------------------------ wrappers
    def traced(self, fn: Callable, name: str, info: Optional[Callable] = None,
               before: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``before(args)`` runs first and its value reaches
        ``info(args, result, before_value)``, which returns the span's counts.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            parent = tracer._parent()
            span_id = next(tracer._ids)
            token = tracer._current.set(span_id)
            prior = before(args) if before is not None else None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                counts = info(args, result, prior) if info is not None and result is not None else None
                tracer._record(span_id, name, start, end, parent, phase, counts)

        return wrapper

    def traced_asgi(self, fn: Callable, name: str) -> Callable:
        """The ASGI entry point: every HTTP call starts a new request id."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(app, scope, receive, send):
            if scope.get("type") != "http":
                return await fn(app, scope, receive, send)
            phase = tracer.phase
            request_token = tracer._request.set(next(tracer._request_ids))
            span_id = next(tracer._ids)
            token = tracer._current.set(span_id)
            start = time.perf_counter()
            try:
                return await fn(app, scope, receive, send)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                tracer._record(span_id, name, start, end, None, phase, None)
                tracer._request.reset(request_token)

        return wrapper

    def _adopting_submit(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            parent, request = tracer._parent(), tracer._request_id()
            if parent is None and request is None:
                return original(executor, fn, *args, **kwargs)
            adopted = tracer._adopted

            def run_adopted(*inner_args, **inner_kwargs):
                saved = (getattr(adopted, "span", None), getattr(adopted, "request", None))
                adopted.span, adopted.request = parent, request
                try:
                    return fn(*inner_args, **inner_kwargs)
                finally:
                    adopted.span, adopted.request = saved

            return original(executor, run_adopted, *args, **kwargs)

        return submit

    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str, **hooks) -> None:
        self.patch(owner, attribute, self.traced(getattr(owner, attribute), name, **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ output
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["id", "name", "start", "end", "parent", "request",
                                "thread", "phase", "info"],
                    "spans": [span.as_row() for span in self.spans],
                },
                handle,
            )


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every ``repro`` layer the workloads load."""
    import repro.core.finder as finder_module
    from repro.api.asgi import AsgiApp
    from repro.api.kernel import ServiceKernel
    from repro.core.finder import SuRF
    from repro.core.objective import LogObjective, RatioObjective
    from repro.core.satisfiability import SatisfiabilityModel
    from repro.data.engine import DataEngine
    from repro.density.region_mass import RegionMassEstimator
    from repro.ml.base import BaseEstimator
    from repro.online.query_log import QueryLog
    from repro.optim.gso import GlowwormSwarmOptimizer
    from repro.surrogate.model import SurrogateModel
    from repro.surrogate.training import SurrogateTrainer

    def rows(args, result, _prior):
        return {"rows": len(args[1])}

    def scanned_before(args):
        return args[0].backend.counters.rows_scanned

    def scanned(args, result, prior):
        return {"rows": len(result), "scanned": args[0].backend.counters.rows_scanned - prior}

    def gso_counts(_args, result, _prior):
        return {"iterations": result.num_iterations, "evals": result.function_evaluations}

    def refresh_outcome(_args, result, _prior):
        return {"mode": result.mode, "pairs": result.num_new_pairs}

    tracer.patch(AsgiApp, "__call__", tracer.traced_asgi(AsgiApp.__call__, "api.asgi"))
    tracer.wrap(ServiceKernel, "handle", "api.kernel")
    tracer.wrap(ServiceKernel, "handle_batch", "api.kernel")
    tracer.wrap(ServiceKernel, "refresh", "online.refresh", info=refresh_outcome)
    tracer.wrap(SuRF, "find_regions", "core.find")
    tracer.wrap(SatisfiabilityModel, "probability", "core.gate")
    tracer.wrap(SatisfiabilityModel, "extended_with", "core.sat_rebuild")
    # ``finder`` imported the function by name, so it is patched where it is looked up.
    tracer.wrap(finder_module, "proposals_from_result", "core.postprocess",
                info=lambda _args, result, _prior: {"proposals": len(result)})
    tracer.wrap(LogObjective, "evaluate_batch", "core.objective", info=rows)
    tracer.wrap(RatioObjective, "evaluate_batch", "core.objective", info=rows)
    tracer.wrap(GlowwormSwarmOptimizer, "run", "optim.gso", info=gso_counts)
    tracer.wrap(SurrogateModel, "predict", "surrogate.predict", info=rows)
    tracer.wrap(SurrogateTrainer, "train", "surrogate.train")
    tracer.wrap(SurrogateTrainer, "train_incremental", "surrogate.train")
    tracer.wrap(BaseEstimator, "compile", "ml.compile")
    tracer.wrap(RegionMassEstimator, "mass_of_vectors", "density.mass", info=rows)
    tracer.wrap(RegionMassEstimator, "fit", "density.fit")
    tracer.wrap(DataEngine, "evaluate_batch", "backends.evaluate",
                info=scanned, before=scanned_before)
    tracer.wrap(QueryLog, "record_many", "online.log_record")
    tracer.patch(ThreadPoolExecutor, "submit", tracer._adopting_submit(ThreadPoolExecutor.submit))
    return tracer


# --------------------------------------------------------------------------- analysis
class SpanIndex:
    """Parent → children lookup and self times over a finished trace."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str, phase: Optional[str] = None) -> List[Span]:
        return [
            span for span in self.spans
            if span.name == name and (phase is None or span.phase == phase)
        ]

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, ())
        return self_time(span.start, span.end, [(kid.start, kid.end) for kid in kids])

    def descendants(self, span: Span) -> List[Span]:
        found: List[Span] = []
        stack = list(self.children.get(span.id, ()))
        while stack:
            kid = stack.pop()
            found.append(kid)
            stack.extend(self.children.get(kid.id, ()))
        return found
