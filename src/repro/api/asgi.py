"""The asyncio front door: an ASGI adapter over the typed envelopes.

:class:`AsgiApp` is a dependency-free `ASGI 3.0
<https://asgi.readthedocs.io/>`_ application that serves a
:class:`~repro.api.tenancy.ModelRegistry` (or a single
:class:`~repro.api.kernel.ServiceKernel`) over HTTP/JSON using the frozen
:class:`~repro.api.envelopes.FindRequest` / :class:`FindResponse` wire
format.  It runs under any ASGI server (``uvicorn repro.api.asgi:...``), under
the bundled :class:`HttpFrontDoor` dev server (pure stdlib, asyncio), or —
the mode every test and benchmark uses — **in-process** through
:func:`asgi_request`, with no sockets at all.

Routes
------
=======  ==============  =====================================================
method   path            behaviour
=======  ==============  =====================================================
GET      ``/healthz``    liveness: ``{"status": "ok", "models": [...]}``
GET      ``/models``     tenant names with generation + cache occupancy
GET      ``/stats``      per-tenant :class:`ServiceStats` counter dicts
GET      ``/metrics``    Prometheus text exposition over every tenant
GET      ``/trace/{id}`` one recorded trace (span tree) by envelope trace id
POST     ``/find``       one ``FindRequest`` JSON in, one ``FindResponse`` out
POST     ``/find_batch`` ``{"requests": [...]}`` in, ``{"responses": [...]}``
=======  ==============  =====================================================

``/metrics`` always answers (kernels without observability contribute their
``ServiceStats`` as gauges); ``/trace/{id}`` needs at least one kernel with
observability enabled and returns ``404`` for unknown or already-evicted ids.

``/find`` maps the serving verdict onto the HTTP status: ``served`` /
``cached`` / ``rejected`` are all ``200`` (a rejection is a valid answer),
``throttled`` → ``429``, ``shed`` → ``503``, ``timeout`` → ``504`` and
``error`` → ``500`` — the response body always carries the full envelope.
``/find_batch`` is always ``200``; per-request verdicts live inside the
envelopes.  Malformed payloads are ``400`` with the
:class:`~repro.exceptions.ValidationError` message, unknown models ``404``,
oversized bodies ``413``.

The event loop is never blocked: kernel calls (which may run GSO for
seconds) are dispatched to a thread (``asyncio.to_thread``), and each
kernel's misses run on that kernel's own run pool.  Thousands of
concurrent requests therefore queue in the loop cheaply while the kernel's
admission-control middleware decides what actually runs —
``benchmarks/test_bench_load.py`` drives exactly that shape.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.api.envelopes import FindRequest
from repro.api.kernel import ServiceKernel
from repro.api.tenancy import ModelRegistry
from repro.exceptions import ValidationError

#: Serving verdict → HTTP status for single-request responses.
STATUS_HTTP = {
    "served": 200,
    "cached": 200,
    "rejected": 200,
    "throttled": 429,
    "shed": 503,
    "timeout": 504,
    "error": 500,
}


class AsgiApp:
    """ASGI 3.0 application over a registry (or one kernel).

    Parameters
    ----------
    service:
        A :class:`~repro.api.tenancy.ModelRegistry` (multi-tenant) or a
        single :class:`~repro.api.kernel.ServiceKernel`.
    max_body_bytes:
        Request bodies beyond this size are refused with ``413`` before any
        JSON parsing (a front door must bound memory per request).
    """

    def __init__(self, service, *, max_body_bytes: int = 1 << 20):
        if isinstance(service, ServiceKernel):
            registry = ModelRegistry()
            registry.register(service.name, service)
            self._default_model: Optional[str] = service.name
        elif isinstance(service, ModelRegistry):
            registry = service
            names = registry.names()
            self._default_model = names[0] if len(names) == 1 else None
        else:
            raise ValidationError(
                f"service must be a ModelRegistry or ServiceKernel, got {type(service)!r}"
            )
        if max_body_bytes < 1:
            raise ValidationError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        self.registry = registry
        self.max_body_bytes = int(max_body_bytes)

    # ------------------------------------------------------------------ ASGI entry
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - websocket etc.
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        try:
            status, payload = await self._dispatch(scope, receive)
        except ValidationError as exc:
            status, payload = 400, {"error": str(exc)}
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # noqa: BLE001 - the front door never crashes
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, _PlainText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type.encode("ascii")
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = b"application/json"
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", content_type),
                    (b"content-length", str(len(body)).encode("ascii")),
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.registry.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # ------------------------------------------------------------------ routing
    async def _dispatch(self, scope, receive) -> Tuple[int, Any]:
        method = scope.get("method", "GET").upper()
        path = scope.get("path", "/")
        if path in ("/healthz", "/models", "/stats"):
            if method not in ("GET", "HEAD"):
                raise _HttpError(405, f"{path} only supports GET")
            if path == "/healthz":
                return 200, {"status": "ok", "models": list(self.registry.names())}
            if path == "/models":
                return 200, {"models": self._model_table()}
            return 200, {
                name: stats.as_dict() for name, stats in self.registry.stats().items()
            }
        if path == "/metrics":
            if method not in ("GET", "HEAD"):
                raise _HttpError(405, "/metrics only supports GET")
            text = await asyncio.to_thread(self.registry.render_metrics)
            return 200, _PlainText(text, _PROMETHEUS_CONTENT_TYPE)
        if path.startswith("/trace/"):
            if method not in ("GET", "HEAD"):
                raise _HttpError(405, "/trace/{id} only supports GET")
            trace_id = path[len("/trace/"):]
            record = self.registry.find_trace(trace_id)
            if record is None:
                raise _HttpError(404, f"no recorded trace {trace_id!r}")
            return 200, record
        if path in ("/find", "/find_batch"):
            if method != "POST":
                raise _HttpError(405, f"{path} only supports POST")
            payload = await self._read_json(scope, receive)
            if path == "/find":
                return await self._find(payload)
            return await self._find_batch(payload)
        raise _HttpError(404, f"unknown path {path!r}")

    def _model_table(self) -> List[Dict[str, Any]]:
        table = []
        for name in self.registry.names():
            kernel = self.registry.get(name)
            table.append(
                {
                    "model": name,
                    "generation": kernel.generation,
                    "cached_queries": kernel.cached_queries,
                    "pending_log_entries": kernel.pending_log_entries,
                }
            )
        return table

    # ------------------------------------------------------------------ handlers
    def _parse_request(self, payload) -> FindRequest:
        if isinstance(payload, dict) and "model" not in payload and self._default_model:
            payload = {**payload, "model": self._default_model}
        try:
            request = FindRequest.from_dict(payload)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            # Bad field types (e.g. a non-numeric threshold) surface as raw
            # ValueError from the envelope's coercions — still a client error.
            raise ValidationError(f"invalid FindRequest payload: {exc}") from exc
        if request.model not in self.registry:
            raise _HttpError(
                404,
                f"unknown model {request.model!r}; "
                f"registered: {list(self.registry.names())}",
            )
        return request

    async def _find(self, payload) -> Tuple[int, Any]:
        request = self._parse_request(payload)
        response = await asyncio.to_thread(self.registry.find, request)
        return STATUS_HTTP.get(response.status, 500), response.to_dict()

    async def _find_batch(self, payload) -> Tuple[int, Any]:
        if not isinstance(payload, dict) or "requests" not in payload:
            raise ValidationError('find_batch payload must be {"requests": [...]}')
        items = payload["requests"]
        if not isinstance(items, list):
            raise ValidationError(f"requests must be a list, got {type(items)!r}")
        requests = [self._parse_request(item) for item in items]
        responses = await asyncio.to_thread(self.registry.find_batch, requests)
        return 200, {"responses": [response.to_dict() for response in responses]}

    # ------------------------------------------------------------------ body handling
    async def _read_json(self, scope, receive):
        declared = _content_length(scope.get("headers") or [])
        if declared is not None and declared > self.max_body_bytes:
            raise _HttpError(413, f"request body exceeds {self.max_body_bytes} bytes")
        chunks: List[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise _HttpError(400, "client disconnected mid-request")
            chunk = message.get("body", b"")
            total += len(chunk)
            if total > self.max_body_bytes:
                raise _HttpError(413, f"request body exceeds {self.max_body_bytes} bytes")
            chunks.append(chunk)
            if not message.get("more_body", False):
                break
        try:
            return json.loads(b"".join(chunks) or b"null")
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON body: {exc}") from exc


#: The Prometheus text exposition content type (format version 0.0.4).
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _PlainText(NamedTuple):
    """Marker payload: serve as-is instead of JSON-encoding (``/metrics``)."""

    text: str
    content_type: str


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _content_length(headers) -> Optional[int]:
    for name, value in headers:
        if bytes(name).lower() == b"content-length":
            try:
                return int(value)
            except (TypeError, ValueError):
                return None
    return None


# --------------------------------------------------------------------------- in-process client
class AsgiResponse(NamedTuple):
    """What :func:`asgi_request` returns — the whole HTTP exchange, decoded."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body.decode("utf-8"))


async def asgi_request(
    app,
    method: str,
    path: str,
    json_body=None,
    body: Optional[bytes] = None,
    headers: Optional[List[Tuple[bytes, bytes]]] = None,
) -> AsgiResponse:
    """Drive an ASGI app in-process — the test/benchmark client.

    Builds a minimal ``http`` scope, feeds the (optional) body through
    ``receive`` and collects the response messages; no sockets, no server,
    no third-party client.  ``json_body`` takes any JSON-serialisable object;
    ``body`` takes raw bytes (mutually exclusive).
    """
    if json_body is not None and body is not None:
        raise ValidationError("pass json_body or body, not both")
    if json_body is not None:
        body = json.dumps(json_body).encode("utf-8")
    payload = body or b""
    request_headers = list(headers or [])
    if payload and not any(n.lower() == b"content-length" for n, _ in request_headers):
        request_headers.append((b"content-length", str(len(payload)).encode("ascii")))
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": method.upper(),
        "path": path,
        "raw_path": path.encode("ascii"),
        "query_string": b"",
        "headers": request_headers,
        "client": ("127.0.0.1", 0),
        "server": ("testserver", 80),
        "scheme": "http",
    }
    sent = {"done": False}

    async def receive():
        if sent["done"]:
            # A well-behaved app never reads past the end of the body; block
            # until disconnect rather than spinning.
            return {"type": "http.disconnect"}
        sent["done"] = True
        return {"type": "http.request", "body": payload, "more_body": False}

    messages: List[dict] = []

    async def send(message):
        messages.append(message)

    await app(scope, receive, send)
    status = 500
    response_headers: Dict[str, str] = {}
    chunks: List[bytes] = []
    for message in messages:
        if message["type"] == "http.response.start":
            status = message["status"]
            for name, value in message.get("headers", []):
                response_headers[bytes(name).decode("latin-1").lower()] = bytes(
                    value
                ).decode("latin-1")
        elif message["type"] == "http.response.body":
            chunks.append(message.get("body", b""))
    return AsgiResponse(status, response_headers, b"".join(chunks))


# --------------------------------------------------------------------------- dev server
class HttpFrontDoor:
    """A tiny stdlib HTTP/1.1 bridge that serves an ASGI app over TCP.

    Not a production server — deploy under uvicorn/hypercorn for that — but
    enough to smoke-test the real socket path (``examples/load.py``) without
    adding a dependency: one asyncio event loop on a daemon thread,
    ``Content-Length`` bodies, ``Connection: close`` semantics.

    Usage::

        door = HttpFrontDoor(AsgiApp(registry)).start()
        ... http.client.HTTPConnection("127.0.0.1", door.port) ...
        door.stop()
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port  # 0 = pick a free port; updated by start()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "HttpFrontDoor":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-http-front-door", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):  # pragma: no cover - startup hang
            raise RuntimeError("HTTP front door failed to start within 10s")
        return self

    def stop(self) -> None:
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10.0)
        self._started.clear()

    def __enter__(self) -> "HttpFrontDoor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot():
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._started.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    # ------------------------------------------------------------------ HTTP plumbing
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, target, _version = request_line.decode("latin-1").split(None, 2)
            except ValueError:
                writer.write(b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n")
                return
            headers: List[Tuple[bytes, bytes]] = []
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _sep, value = line.partition(b":")
                headers.append((name.strip().lower(), value.strip()))
            length = _content_length(headers) or 0
            body = await reader.readexactly(length) if length else b""
            path, _sep, query = target.partition("?")
            scope = {
                "type": "http",
                "asgi": {"version": "3.0", "spec_version": "2.3"},
                "http_version": "1.1",
                "method": method.upper(),
                "path": path,
                "raw_path": path.encode("latin-1"),
                "query_string": query.encode("latin-1"),
                "headers": headers,
                "scheme": "http",
                "server": (self.host, self.port),
                "client": writer.get_extra_info("peername") or ("127.0.0.1", 0),
            }
            fed = {"done": False}

            async def receive():
                if fed["done"]:
                    return {"type": "http.disconnect"}
                fed["done"] = True
                return {"type": "http.request", "body": body, "more_body": False}

            state = {"status": 200, "headers": [], "chunks": []}

            async def send(message):
                if message["type"] == "http.response.start":
                    state["status"] = message["status"]
                    state["headers"] = message.get("headers", [])
                elif message["type"] == "http.response.body":
                    state["chunks"].append(message.get("body", b""))

            await self.app(scope, receive, send)
            payload = b"".join(state["chunks"])
            lines = [f"HTTP/1.1 {state['status']} {_REASONS.get(state['status'], '')}".encode("latin-1")]
            seen_length = False
            for name, value in state["headers"]:
                if bytes(name).lower() == b"content-length":
                    seen_length = True
                lines.append(bytes(name) + b": " + bytes(value))
            if not seen_length:
                lines.append(b"content-length: " + str(len(payload)).encode("ascii"))
            lines.append(b"connection: close")
            writer.write(b"\r\n".join(lines) + b"\r\n\r\n" + payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):  # pragma: no cover
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - teardown race
                pass


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


__all__ = [
    "AsgiApp",
    "AsgiResponse",
    "HttpFrontDoor",
    "STATUS_HTTP",
    "asgi_request",
]
