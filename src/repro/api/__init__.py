"""One front door: typed envelopes, a middleware service kernel, model routing.

``repro.api`` is the single public entry point for serving deployments.  The
paper's headline property (Table I) makes query serving independent of the
dataset size, so the *service surface* is the scaling frontier — and this
package is that surface, re-architected from the PR 2–4 monolith into three
composable layers:

1. **Typed envelopes** (:mod:`repro.api.envelopes`) —
   :class:`FindRequest`/:class:`FindResponse` frozen dataclasses with
   dict/JSON round-trips, replacing ad-hoc tuples.
2. **Middleware kernel** (:mod:`repro.api.middleware`,
   :mod:`repro.api.kernel`) — every batch runs through a composable chain
   (``Normalize → SatisfiabilityGate → Cache → Coalesce → Execute →
   Harvest`` by default); deployments insert rate limiting, metrics or
   tracing without touching the core.  Batch coalescing and the
   generation-tagged cache semantics of the original serving monolith are
   preserved bit-identically.
3. **Multi-tenant routing** (:mod:`repro.api.tenancy`) — a
   :class:`ModelRegistry` hosts many named finders (dataset × statistic
   tenants), routes requests by model name and drives per-model
   refresh/hot-swap from the online-learning loop.

On top of those sit the **load-control stages** (:mod:`repro.api.admission`:
per-request deadlines, per-tenant token-bucket rate limiting,
satisfiability-ranked admission control) and the **async front door**
(:mod:`repro.api.asgi`): a dependency-free ASGI app serving the envelopes
over HTTP/JSON, with an in-process test client and a stdlib dev server.
Every GSO run a kernel executes goes through that kernel's one persistent
thread pool, whichever chain it serves.

Plus the **declarative registries** (:mod:`repro.api.registries`): statistics,
backends, surrogate families and optimisers are all string-keyed plugin
registries, so engines, services and experiments are constructible from plain
config dicts.

Quickstart::

    from repro.api import FindRequest, ModelRegistry

    registry = ModelRegistry()
    registry.load("crimes/count", "bundles/crimes.surf")
    response = registry.find(FindRequest(threshold=500, model="crimes/count"))
    for proposal in response.proposals:
        print(proposal.center, proposal.predicted_value)
"""

from repro.api.admission import (
    AdmissionControl,
    Deadline,
    RateLimit,
    TokenBucket,
    production_chain,
)
from repro.api.asgi import AsgiApp, HttpFrontDoor, asgi_request
from repro.api.envelopes import (
    DEFAULT_MODEL,
    RESPONSE_STATUSES,
    FindRequest,
    FindResponse,
    ProposalPayload,
)
from repro.api.kernel import ServiceKernel, ServiceStats
from repro.api.middleware import (
    PRE_GATE_STATUSES,
    BatchContext,
    Cache,
    Coalesce,
    Execute,
    Harvest,
    Middleware,
    Normalize,
    RequestState,
    SatisfiabilityGate,
    compose,
    default_chain,
    normalize_query,
)
from repro.api.registries import (
    BACKENDS,
    OPTIMIZERS,
    STATISTICS,
    SURROGATES,
    Registry,
    engine_from_config,
    kernel_from_config,
    resolve_backend,
    resolve_optimizer,
    resolve_statistic,
    resolve_surrogate,
    statistic_from_config,
)
from repro.api.tenancy import ModelRegistry

__all__ = [
    "DEFAULT_MODEL",
    "RESPONSE_STATUSES",
    "PRE_GATE_STATUSES",
    "FindRequest",
    "FindResponse",
    "ProposalPayload",
    "ServiceKernel",
    "ServiceStats",
    "ModelRegistry",
    "Middleware",
    "BatchContext",
    "RequestState",
    "compose",
    "default_chain",
    "normalize_query",
    "Normalize",
    "SatisfiabilityGate",
    "Cache",
    "Coalesce",
    "Execute",
    "Harvest",
    "Deadline",
    "TokenBucket",
    "RateLimit",
    "AdmissionControl",
    "production_chain",
    "AsgiApp",
    "HttpFrontDoor",
    "asgi_request",
    "Registry",
    "STATISTICS",
    "BACKENDS",
    "SURROGATES",
    "OPTIMIZERS",
    "resolve_statistic",
    "resolve_backend",
    "resolve_surrogate",
    "resolve_optimizer",
    "statistic_from_config",
    "engine_from_config",
    "kernel_from_config",
]
