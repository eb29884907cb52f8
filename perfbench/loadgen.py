"""The benchmark's traffic generators: one open loop and closed-loop clients.

Both drive :class:`repro.api.AsgiApp` in-process through
:func:`repro.api.asgi_request` on one asyncio event loop, so no sockets are
opened and the generator adds no threads of its own.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api import asgi_request

from perfbench.stats import Rung, latency_from_due

#: Statuses a healthy run may answer with; anything else counts as failed.
OK_STATUSES = frozenset({"served", "cached", "rejected"})


@dataclass
class Request:
    """One pre-encoded call: ``/find`` with one entry or ``/find_batch`` with several.

    ``entries`` are ``(tenant, key)`` pairs; ``key`` is a threshold index or
    ``"hopeless"``.  ``expect`` is what the sequence was built to get back
    (``"miss"``, ``"hit"`` or ``"rejected"``), or ``None`` when not fixed.
    """

    path: str
    body: bytes
    entries: Tuple[Tuple[str, object], ...]
    expect: Optional[str] = None


@dataclass
class Exchange:
    """What happened to one :class:`Request`."""

    request: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    http_status: int = 0
    body: bytes = b""
    generations_before: Tuple[int, ...] = ()
    generations_after: Tuple[int, ...] = ()
    _payloads: Optional[List[dict]] = field(default=None, repr=False, compare=False)

    @property
    def seconds(self) -> float:
        return self.done - self.sent

    def payloads(self) -> List[dict]:
        """Response envelopes, one per entry (``/find_batch`` unrolled).

        The body is decoded once: the checks read every response several times.
        """
        if self._payloads is None:
            decoded = json.loads(self.body.decode("utf-8"))
            batch = self.request.path == "/find_batch"
            self._payloads = decoded["responses"] if batch else [decoded]
        return self._payloads

    def statuses(self) -> List[str]:
        try:
            return [payload.get("status", "") for payload in self.payloads()]
        except (ValueError, KeyError, TypeError):
            return [""]

    def failed(self) -> bool:
        return self.http_status != 200 or not set(self.statuses()) <= OK_STATUSES

    def ran_gso(self) -> bool:
        """A batch counts as a miss if any entry in it ran GSO."""
        return "served" in self.statuses()


def encode(entries: Sequence[Tuple[str, object]], thresholds: dict) -> Request:
    """Build the wire body for ``entries`` against ``thresholds[(tenant, key)]``."""
    items = [{"threshold": thresholds[(tenant, key)], "model": tenant} for tenant, key in entries]
    if len(items) == 1:
        return Request("/find", json.dumps(items[0]).encode("utf-8"), tuple(entries))
    return Request("/find_batch", json.dumps({"requests": items}).encode("utf-8"), tuple(entries))


async def exchange(app, registry, request: Request, due: float) -> Exchange:
    """Send one request and record times, response and the generation window."""
    record = Exchange(request, due)
    tenants = [tenant for tenant, _key in request.entries]
    record.generations_before = tuple(registry.get(tenant).generation for tenant in tenants)
    record.sent = time.perf_counter()
    response = await asgi_request(app, "POST", request.path, body=request.body)
    record.done = time.perf_counter()
    record.generations_after = tuple(registry.get(tenant).generation for tenant in tenants)
    record.http_status = response.status
    record.body = response.body
    return record


# --------------------------------------------------------------------------- open loop
@dataclass
class RungRun:
    rung: Rung
    exchanges: List[Exchange] = field(default_factory=list)


async def open_loop_rung(app, registry, rate: float, requests: Sequence[Request]) -> RungRun:
    """Offer ``requests`` at ``rate`` per second on a fixed schedule.

    Sends never wait for replies.  Each request is timed from its due time,
    so a generator or event loop that falls behind shows up in the latency;
    how late the sends were is kept separately.
    """
    rung = Rung(offered_qps=rate)
    start = time.perf_counter() + 0.01
    dues = [start + index / rate for index in range(len(requests))]
    tasks = []
    index = 0
    while index < len(requests):
        now = time.perf_counter()
        while index < len(requests) and dues[index] <= now:
            tasks.append(asyncio.ensure_future(exchange(app, registry, requests[index], dues[index])))
            index += 1
        if index < len(requests):
            await asyncio.sleep(max(0.0, dues[index] - time.perf_counter()))
    exchanges = list(await asyncio.gather(*tasks))
    for record in exchanges:
        rung.dues.append(record.due)
        rung.sends.append(record.sent)
        rung.dones.append(record.done)
        if record.failed():
            rung.failed += 1
        elif not record.ran_gso():
            rung.hit_latencies.append(latency_from_due(record.due, record.done))
    return RungRun(rung, exchanges)
