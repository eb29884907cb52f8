"""Typed request/response envelopes — the wire format of the front door.

Every query entering the system is a frozen :class:`FindRequest` and every
answer leaving it is a frozen :class:`FindResponse`.  Both round-trip through
plain dicts and JSON (``to_dict``/``from_dict``, ``to_json``/``from_json``),
so HTTP front-ends, queues and log pipelines can carry them without knowing
anything about the library's internals.

A request names the **model** (tenant) it targets — a key in the
:class:`~repro.api.tenancy.ModelRegistry` — plus an optional caller-supplied
``trace_id`` that is echoed back verbatim for request correlation.  The
response carries the serving verdict (``served`` / ``cached`` / ``rejected``),
the Eq. 5 satisfiability probability, the proposals as serialisable
:class:`ProposalPayload` records, timing, and the model generation that
answered (so callers can detect hot swaps).  The rich in-process
:class:`~repro.core.finder.RegionSearchResult` rides along in ``result`` for
local callers but is deliberately excluded from the dict/JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.finder import RegionSearchResult
from repro.core.query import RegionQuery
from repro.data.regions import Region
from repro.exceptions import ValidationError

#: Tenant name a request targets when none is given.
DEFAULT_MODEL = "default"


def _known_fields(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.init)


def _check_payload(cls, payload: Mapping[str, Any], *, ignore: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """Validate a dict payload's keys against the dataclass fields."""
    if not isinstance(payload, Mapping):
        raise ValidationError(f"{cls.__name__} payload must be a mapping, got {type(payload)!r}")
    known = set(_known_fields(cls))
    unknown = sorted(set(payload) - known - set(ignore))
    if unknown:
        raise ValidationError(
            f"{cls.__name__} payload has unknown key(s) {unknown}; known keys: {sorted(known)}"
        )
    return {key: value for key, value in payload.items() if key in known}


@dataclass(frozen=True)
class FindRequest:
    """One region-mining query addressed to a named model.

    Parameters
    ----------
    threshold / direction / size_penalty:
        The :class:`~repro.core.query.RegionQuery` fields (Eqs. 2/4).
    model:
        Name of the tenant model this request is routed to (a key in the
        :class:`~repro.api.tenancy.ModelRegistry`; single-model kernels ignore
        it unless it mismatches their own name).
    max_proposals:
        Per-request cap on returned proposals (``None`` = the model's default).
    trace_id:
        Opaque caller-supplied correlation id, echoed on the response.
    deadline_seconds:
        Per-request latency budget.  Honoured when the serving chain contains
        a :class:`~repro.api.admission.Deadline` stage: a request that cannot
        be answered within its budget comes back with status ``"timeout"``
        instead of blocking the caller (``None`` = the stage's default budget,
        or no budget at all when the chain has no deadline stage).
    """

    threshold: float
    direction: str = "above"
    size_penalty: float = 4.0
    model: str = DEFAULT_MODEL
    max_proposals: Optional[int] = None
    trace_id: Optional[str] = None
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # RegionQuery owns the numeric validation; building it here surfaces
        # bad envelopes at construction time instead of deep in the kernel.
        query = RegionQuery(
            threshold=float(self.threshold),
            direction=self.direction,
            size_penalty=float(self.size_penalty),
        )
        object.__setattr__(self, "threshold", query.threshold)
        object.__setattr__(self, "size_penalty", query.size_penalty)
        if not isinstance(self.model, str) or not self.model:
            raise ValidationError(f"model must be a non-empty string, got {self.model!r}")
        if self.max_proposals is not None:
            if int(self.max_proposals) < 1:
                raise ValidationError(f"max_proposals must be >= 1, got {self.max_proposals}")
            object.__setattr__(self, "max_proposals", int(self.max_proposals))
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise ValidationError(f"trace_id must be a string, got {type(self.trace_id)!r}")
        if self.deadline_seconds is not None:
            budget = float(self.deadline_seconds)
            if not budget > 0.0:
                raise ValidationError(
                    f"deadline_seconds must be > 0, got {self.deadline_seconds}"
                )
            object.__setattr__(self, "deadline_seconds", budget)

    @classmethod
    def from_query(
        cls,
        query: RegionQuery,
        model: str = DEFAULT_MODEL,
        max_proposals: Optional[int] = None,
        trace_id: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> "FindRequest":
        """Wrap a :class:`RegionQuery` (optionally adding model/trace fields).

        Hot path: the query already passed :class:`RegionQuery` validation, so
        this skips ``__post_init__`` instead of re-validating the numerics —
        serving layers wrap every incoming query through here.
        """
        if not isinstance(query, RegionQuery):
            raise ValidationError(f"expected a RegionQuery, got {type(query)!r}")
        if not isinstance(model, str) or not model:
            raise ValidationError(f"model must be a non-empty string, got {model!r}")
        if max_proposals is not None and int(max_proposals) < 1:
            raise ValidationError(f"max_proposals must be >= 1, got {max_proposals}")
        if trace_id is not None and not isinstance(trace_id, str):
            raise ValidationError(f"trace_id must be a string, got {type(trace_id)!r}")
        if deadline_seconds is not None and not float(deadline_seconds) > 0.0:
            raise ValidationError(f"deadline_seconds must be > 0, got {deadline_seconds}")
        return cls._bare(query, model, max_proposals, trace_id, deadline_seconds)

    @classmethod
    def _bare(
        cls,
        query: RegionQuery,
        model: str,
        max_proposals: Optional[int] = None,
        trace_id: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> "FindRequest":
        """Unvalidated construction from known-good parts (serving hot path).

        Callers guarantee ``query`` is a live :class:`RegionQuery` and
        ``model`` a validated tenant name; nothing is re-checked.
        """
        self = object.__new__(cls)
        set_ = object.__setattr__
        set_(self, "threshold", query.threshold)
        set_(self, "direction", query.direction)
        set_(self, "size_penalty", query.size_penalty)
        set_(self, "model", model)
        set_(self, "max_proposals", max_proposals)
        set_(self, "trace_id", trace_id)
        set_(self, "deadline_seconds", deadline_seconds)
        return self

    def query(self) -> RegionQuery:
        """The plain :class:`RegionQuery` this envelope carries."""
        return RegionQuery(
            threshold=self.threshold, direction=self.direction, size_penalty=self.size_penalty
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe, lossless under :meth:`from_dict`)."""
        return {
            "threshold": self.threshold,
            "direction": self.direction,
            "size_penalty": self.size_penalty,
            "model": self.model,
            "max_proposals": self.max_proposals,
            "trace_id": self.trace_id,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FindRequest":
        """Rebuild a request from :meth:`to_dict` output (unknown keys raise)."""
        return cls(**_check_payload(cls, payload))

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict` (floats round-trip exactly)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FindRequest":
        try:
            payload = json.loads(text)
        except (TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"invalid FindRequest JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class ProposalPayload:
    """Serialisable view of one :class:`~repro.core.postprocess.RegionProposal`."""

    center: Tuple[float, ...]
    half_lengths: Tuple[float, ...]
    predicted_value: float
    objective_value: float
    support: int = 1

    @classmethod
    def from_proposal(cls, proposal) -> "ProposalPayload":
        return cls(
            center=tuple(float(v) for v in proposal.region.center),
            half_lengths=tuple(float(v) for v in proposal.region.half_lengths),
            predicted_value=float(proposal.predicted_value),
            objective_value=float(proposal.objective_value),
            support=int(proposal.support),
        )

    def region(self) -> Region:
        """The proposal's hyper-rectangle as a live :class:`Region`."""
        return Region(np.asarray(self.center), np.asarray(self.half_lengths))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "center": list(self.center),
            "half_lengths": list(self.half_lengths),
            "predicted_value": self.predicted_value,
            "objective_value": self.objective_value,
            "support": self.support,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProposalPayload":
        payload = _check_payload(cls, payload)
        for key in ("center", "half_lengths"):
            if key in payload:
                payload[key] = tuple(float(v) for v in payload[key])
        return cls(**payload)


#: Every serving verdict a response may carry.  The first three are the
#: historical happy-path statuses; the rest are produced by the load-control
#: stages of :mod:`repro.api.admission` and the fault-tolerant executor:
#: ``"throttled"`` (per-tenant token bucket exhausted), ``"shed"`` (admission
#: control dropped the run under pressure), ``"timeout"`` (per-request
#: deadline expired) and ``"error"`` (the optimiser run raised; the message is
#: on ``error``).  None of the last four ever writes to the result cache.
RESPONSE_STATUSES = (
    "served",
    "cached",
    "rejected",
    "throttled",
    "shed",
    "timeout",
    "error",
)


@dataclass(frozen=True)
class FindResponse:
    """One answered request.

    ``status`` is ``"served"`` (fresh GSO run, possibly shared with identical
    queries of the same batch), ``"cached"`` (LRU hit), ``"rejected"``
    (Eq. 5 probability at or below the model's gate) or one of the degraded
    verdicts in :data:`RESPONSE_STATUSES` (``"throttled"`` / ``"shed"`` /
    ``"timeout"`` / ``"error"`` — produced under load-control middleware or an
    optimiser fault, never cached).  ``generation`` is the model generation
    that answered — it advances on every hot swap, so a caller can tell which
    model produced a cached result.  ``result`` carries the full in-process
    :class:`RegionSearchResult` for local callers; it is excluded from
    comparisons and from the dict/JSON forms (a response reconstructed from a
    payload has ``result=None``).  ``error`` holds the short exception text
    for ``"error"`` responses.  ``timing`` is the opt-in per-stage latency
    breakdown (stage name → seconds, inclusive of nested stages) attached
    when the kernel runs with ``Observability(timing_breakdown=True)``;
    ``None`` otherwise.
    """

    model: str
    status: str
    satisfiability: float
    proposals: Tuple[ProposalPayload, ...] = ()
    elapsed_seconds: float = 0.0
    generation: int = 0
    trace_id: Optional[str] = None
    error: Optional[str] = None
    timing: Optional[Dict[str, float]] = field(default=None, compare=False, repr=False)
    result: Optional[RegionSearchResult] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise ValidationError(
                f"status must be one of {RESPONSE_STATUSES}, got {self.status!r}"
            )
        if self.error is not None and not isinstance(self.error, str):
            raise ValidationError(f"error must be a string, got {type(self.error)!r}")
        object.__setattr__(
            self, "proposals", tuple(self.proposals) if self.proposals else ()
        )

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    @property
    def regions(self) -> Tuple[Region, ...]:
        """Proposed regions as live :class:`Region` objects."""
        return tuple(proposal.region() for proposal in self.proposals)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; drops the in-process ``result`` handle."""
        return {
            "model": self.model,
            "status": self.status,
            "satisfiability": self.satisfiability,
            "proposals": [proposal.to_dict() for proposal in self.proposals],
            "elapsed_seconds": self.elapsed_seconds,
            "generation": self.generation,
            "trace_id": self.trace_id,
            "error": self.error,
            "timing": dict(self.timing) if self.timing is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FindResponse":
        payload = _check_payload(cls, payload, ignore=("result",))
        payload.pop("result", None)
        if "proposals" in payload:
            payload["proposals"] = tuple(
                ProposalPayload.from_dict(item) for item in payload["proposals"]
            )
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FindResponse":
        try:
            payload = json.loads(text)
        except (TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"invalid FindResponse JSON: {exc}") from exc
        return cls.from_dict(payload)


__all__ = [
    "DEFAULT_MODEL",
    "RESPONSE_STATUSES",
    "FindRequest",
    "ProposalPayload",
    "FindResponse",
]
