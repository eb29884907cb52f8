"""Multi-tenant model routing: one service, many named finders.

A deployment rarely serves one model: each **tenant** is a dataset × statistic
pair with its own fitted finder, cache, counters and online-learning loop.
The :class:`ModelRegistry` hosts one
:class:`~repro.api.kernel.ServiceKernel` per tenant name and routes every
:class:`~repro.api.envelopes.FindRequest` by its ``model`` field::

    registry = ModelRegistry()
    registry.register("crimes/count", crimes_finder)
    registry.load("taxi/avg-fare", "bundles/taxi.surf", cache_size=256)

    response = registry.find(FindRequest(threshold=500, model="crimes/count"))

Batches may mix tenants freely: :meth:`ModelRegistry.find_batch` groups the
requests per model, serves each group through its kernel's middleware chain
(keeping in-batch coalescing and each tenant's own run pool), and returns the
responses in input order.  The online loop drives per-model refresh/hot-swap
through :meth:`refresh` / :meth:`refresh_all`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.envelopes import FindRequest, FindResponse
from repro.api.kernel import (
    KERNEL_OPTIONS,
    ServiceKernel,
    ServiceStats,
    check_service_options,
)
from repro.api.middleware import Middleware
from repro.core.finder import SuRF
from repro.exceptions import ValidationError


#: Options :meth:`ModelRegistry.register` / :meth:`ModelRegistry.load` accept —
#: the kernel options minus ``name``, which the registry supplies itself.
TENANT_OPTIONS = tuple(option for option in KERNEL_OPTIONS if option != "name")


class ModelRegistry:
    """Routes typed requests to named :class:`ServiceKernel` tenants.

    Parameters
    ----------
    middleware:
        Default middleware chain for kernels built by :meth:`register` /
        :meth:`load` (``None`` = each kernel gets the standard chain).  A
        pre-built kernel keeps its own chain.
    """

    def __init__(self, middleware: Optional[Sequence[Middleware]] = None):
        self._default_middleware = list(middleware) if middleware is not None else None
        self._kernels: Dict[str, ServiceKernel] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ tenancy
    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"model name must be a non-empty string, got {name!r}")
        return name

    def register(
        self,
        name: str,
        model: Union[SuRF, ServiceKernel],
        **options,
    ) -> ServiceKernel:
        """Add a tenant: a fitted finder (a kernel is built around it) or a
        pre-built kernel.  Unknown options and taken names raise
        :class:`ValidationError`; re-registering requires :meth:`unregister`
        first (accidental shadowing of a live tenant is never silent).
        """
        name = self._check_name(name)
        if isinstance(model, ServiceKernel):
            if options:
                raise ValidationError(
                    "options only apply when registering a finder; configure the "
                    "ServiceKernel directly instead"
                )
            kernel = model
        else:
            check_service_options(
                options, allowed=TENANT_OPTIONS, where="ModelRegistry.register"
            )
            options.setdefault("middleware", self._default_middleware)
            if options["middleware"] is None:
                options.pop("middleware")
            kernel = ServiceKernel(model, name=name, **options)
        with self._lock:
            if name in self._kernels:
                raise ValidationError(
                    f"model {name!r} is already registered; unregister it first"
                )
            # Adopt the name only once the slot is known to be free, so a
            # rejected registration never renames a live kernel.
            kernel.name = name
            self._kernels[name] = kernel
        return kernel

    def load(self, name: str, path, **options) -> ServiceKernel:
        """Register a tenant straight from an artifact bundle on disk.

        Unknown options raise :class:`ValidationError` naming the bad key
        *before* the bundle is loaded (the historical ``from_bundle`` silently
        deferred this to a ``TypeError`` after the expensive load).
        """
        self._check_name(name)
        check_service_options(options, allowed=TENANT_OPTIONS, where="ModelRegistry.load")
        return self.register(name, SuRF.load(path), **options)

    def unregister(self, name: str) -> ServiceKernel:
        """Detach and return a tenant's kernel (missing names raise)."""
        with self._lock:
            try:
                return self._kernels.pop(name)
            except KeyError:
                raise ValidationError(
                    f"unknown model {name!r}; registered: {sorted(self._kernels)}"
                ) from None

    def get(self, name: str) -> ServiceKernel:
        """The kernel serving ``name`` (unknown names raise, listing tenants)."""
        with self._lock:
            try:
                return self._kernels[name]
            except KeyError:
                raise ValidationError(
                    f"unknown model {name!r}; registered: {sorted(self._kernels)}"
                ) from None

    def names(self) -> Tuple[str, ...]:
        """All tenant names, sorted."""
        with self._lock:
            return tuple(sorted(self._kernels))

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._kernels

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)

    # ------------------------------------------------------------------ serving
    def find(self, request: FindRequest) -> FindResponse:
        """Serve one request through the kernel its ``model`` field names."""
        if not isinstance(request, FindRequest):
            raise ValidationError(f"expected a FindRequest, got {type(request)!r}")
        return self.get(request.model).handle(request)

    def find_batch(self, requests: Sequence[FindRequest]) -> List[FindResponse]:
        """Serve a mixed-tenant batch; responses come back in input order.

        Requests are grouped by model name and each group goes through its
        kernel's chain as one batch, so per-tenant coalescing, caching and
        parallel execution behave exactly as a single-tenant batch would.
        Groups are served one after another on the calling thread, in order
        of each tenant's first request; a group's distinct runs overlap on
        its kernel's own run pool.
        """
        groups: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            if not isinstance(request, FindRequest):
                raise ValidationError(
                    f"expected FindRequest at position {index}, got {type(request)!r}"
                )
            groups.setdefault(request.model, []).append(index)
        # Resolve every tenant before serving any, so a typo'd model name
        # fails the whole batch up front instead of half-serving it.
        kernels = {name: self.get(name) for name in groups}
        responses: List[Optional[FindResponse]] = [None] * len(requests)
        for name, indices in groups.items():
            batch = kernels[name].handle_batch([requests[index] for index in indices])
            for index, response in zip(indices, batch):
                responses[index] = response
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------ online learning
    def refresh(self, name: str, force_full: bool = False):
        """Drive one tenant's refresh/hot-swap (PR 3 online loop)."""
        return self.get(name).refresh(force_full=force_full)

    def refresh_all(self, force_full: bool = False) -> Dict[str, object]:
        """Refresh every tenant that has a query log; returns name → outcome."""
        outcomes: Dict[str, object] = {}
        for name in self.names():
            kernel = self.get(name)
            if kernel.query_log is None:
                continue
            outcomes[name] = kernel.refresh(force_full=force_full)
        return outcomes

    def stats(self) -> Dict[str, ServiceStats]:
        """Per-tenant counter snapshots (name → :class:`ServiceStats`)."""
        return {name: self.get(name).stats for name in self.names()}

    # ------------------------------------------------------------------ observability
    def _observabilities(self) -> List:
        """Each distinct :class:`~repro.obs.Observability` across tenants.

        Kernels may share one bundle (tenant labels keep their series apart);
        deduplication is by identity so a shared registry is scraped once.
        """
        seen: List = []
        for name in self.names():
            obs = self.get(name).observability
            if obs is not None and not any(obs is known for known in seen):
                seen.append(obs)
        return seen

    def render_metrics(self) -> str:
        """Prometheus text over every tenant (the ``GET /metrics`` body).

        One observability bundle renders directly; several distinct bundles
        are merged via snapshot into a fresh registry.  Tenants *without*
        observability still contribute: their :class:`ServiceStats` counters
        are exposed as ``repro_service_stats`` gauges, so the endpoint is
        never empty.
        """
        from repro.obs.metrics import MetricsRegistry

        observabilities = self._observabilities()
        if len(observabilities) == 1:
            merged = observabilities[0].metrics
        else:
            merged = MetricsRegistry()
            for obs in observabilities:
                merged.merge(obs.metrics.snapshot())
        bare = [
            name for name in self.names() if self.get(name).observability is None
        ]
        if bare:
            stats_gauge = merged.gauge(
                "repro_service_stats",
                "ServiceKernel lifetime counters, by name.",
                ("model", "counter"),
            )
            for name in bare:
                for counter_name, value in self.get(name).stats.as_dict().items():
                    if isinstance(value, (int, float)):
                        stats_gauge.labels(name, counter_name).set(value)
        return merged.render()

    def find_trace(self, trace_id: str):
        """A recorded trace as a JSON-safe dict, or ``None`` (``/trace/{id}``)."""
        for obs in self._observabilities():
            record = obs.tracer.get(trace_id)
            if record is not None:
                return record.to_dict()
        return None

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut down every tenant's run pool (idempotent).

        Forwards to each kernel's :meth:`ServiceKernel.close`.  Kernels stay
        registered and usable — a later miss simply rebuilds its pool.
        """
        for name in self.names():
            self.get(name).close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry(models={list(self.names())})"


__all__ = ["ModelRegistry"]
