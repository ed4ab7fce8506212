"""Asyncio HTTP/JSON front door over one detection service.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams (no new
dependencies): parse one request, answer JSON, close the connection.  The
event loop only shuttles bytes and JSON; every blocking router call
(``score``, ``submit_update`` — lock acquisition, wave waits) runs on a
bounded worker pool via ``run_in_executor`` so the loop keeps accepting
connections while waves execute.

Endpoints
---------

* ``POST /score`` — body ``{"nodes": [17, 42], "timeout": 30.0}`` →
  ``{"probabilities": [[h, b], ...], "delta_seqs": {"0": 3}}`` in request
  node order.
* ``POST /update`` — body ``{"edges_added": {"followers": [[17], [42]]},
  "features_changed": {"7": [0.1, ...]}}`` → ``{"shards": {"0": 4}}``
  (the delta's sequence number: the caller's read-your-writes barrier).
* ``GET /healthz`` — ``200`` while the service is ``ok``; ``503`` once it
  is closed or failed (a delta application raised), with the error.
* ``GET /metrics`` — content negotiated: ``Accept: text/plain`` answers
  Prometheus text exposition from the metrics registry; anything else gets
  the :meth:`ShardRouter.snapshot` JSON (the service's ``cluster_totals``).
* ``GET /traces`` — the tracer's ring buffer (``?limit=N`` caps the
  count), most recent first, plus tracer stats.

Request tracing
---------------

Every ``/score`` / ``/update`` request gets a request id — minted here, or
taken from an ``X-Repro-Request-Id`` header when the client sent one — and
the id is echoed back on the response.  When the router's tracer is armed,
the front door starts one trace per request (admission span here,
queue-wait / wave / delta spans recorded downstream) and finishes it when
the response is ready.

Backpressure and malformed input
--------------------------------

Admission is bounded twice: at most ``max_inflight`` scoring/update
requests may be in flight (the excess gets an immediate ``429`` with
``Retry-After`` instead of a queue slot — saturation costs the client a
retry, never the server unbounded memory), and request bodies are capped
at ``max_body_bytes`` (oversized uploads get ``413`` before being read
into memory).  Every request gets a defined status, never a dropped
connection: a head and body not received within ``_READ_DEADLINE_S``
answer ``408``; a malformed head, ``Content-Length`` or body answers
``400``; any unexpected exception answers ``500``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple, Union

from repro.analysis.sanitizer import tracked_rlock
from repro.obs.registry import MetricsRegistry, global_registry
from repro.obs.trace import ROOT_SPAN_ID, Trace, Tracer, mint_request_id
from repro.serving.cluster.router import ShardRouter

_MAX_HEADER_BYTES = 16 * 1024
#: Seconds a client has to deliver its request head and body, together.
_READ_DEADLINE_S = 10.0
_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A request the front door answers with ``status`` before dispatch."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ClusterHTTPServer:
    """One router behind five HTTP/JSON endpoints with bounded admission."""

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 8099,
        *,
        max_inflight: int = 64,
        max_body_bytes: int = 8 * 1024 * 1024,
        score_timeout_s: float = 60.0,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.router = router
        self.host = host
        self.port = port
        #: Trace/metrics plumbing defaults to the router's own — the front
        #: door mints request ids and owns per-request traces, the service
        #: fills in the downstream spans.  (getattr: HTTP tests drive the
        #: server with duck-typed stub routers.)
        self.tracer = tracer if tracer is not None else getattr(router, "tracer", None)
        if registry is None:
            registry = getattr(router, "registry", None)
        if registry is None:
            registry = global_registry()
        self.registry = registry
        self.max_inflight = int(max_inflight)
        self.max_body_bytes = int(max_body_bytes)
        self.score_timeout_s = float(score_timeout_s)
        self._server: Optional[asyncio.AbstractServer] = None
        # Blocking router calls (wave waits, delta validation) run here so
        # the event loop never blocks; the pool is deliberately smaller than
        # the admission bound — admitted requests queue on the executor,
        # which is fine, while *admission* itself stays bounded.
        self._executor = ThreadPoolExecutor(
            max_workers=min(self.max_inflight, 16),
            thread_name_prefix="repro-serve-http",
        )
        self._lock = tracked_rlock("ClusterHTTPServer._lock")
        self._inflight = 0  # guarded-by: _lock
        self._rejected = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks a free port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, wait for the acceptor, release the worker pool.

        The router is *not* closed here — the server is one front end over
        it; the owning process (``repro serve``) closes the router after
        the last front end is down.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        """Reserve one in-flight slot; False means answer 429 immediately."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._rejected += 1
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1

    def admission_stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "rejected": self._rejected,
            }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                status, payload, extra_headers = await self._handle_request(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                raise
            except Exception as error:  # noqa: BLE001 — a 500, never a dropped connection
                logging.getLogger(__name__).exception("unhandled error in a request")
                status, extra_headers = 500, {}
                payload = {"error": f"internal error: {type(error).__name__}: {error}"}
            await self._write_response(writer, status, payload, extra_headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, str, Dict[str, str], bytes]:
        """Method, path, query, lower-cased headers and body of one request.

        Raises :class:`_BadRequest` for a malformed head or
        ``Content-Length`` (400) and for a body over the cap (413, before
        any of it is read).
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as error:
            raise _BadRequest(400, "request head too large") from error
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest(400, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError as error:
            raise _BadRequest(400, f"malformed request line: {lines[0]!r}") from error
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        path, _, query = path.partition("?")
        length_text = headers.get("content-length", "0") or "0"
        try:
            content_length = int(length_text)
        except ValueError:
            content_length = -1
        if content_length < 0:
            raise _BadRequest(400, f"invalid Content-Length {length_text!r}")
        if content_length > self.max_body_bytes:
            raise _BadRequest(
                413,
                f"body of {content_length} bytes exceeds "
                f"{self.max_body_bytes}-byte cap",
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return method.upper(), path, query, headers, body

    @staticmethod
    def _query_int(query: str, name: str) -> Optional[int]:
        """``?limit=25``-style single-int query parameter (None when absent
        or unparsable — telemetry endpoints degrade, never 400)."""
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == name:
                try:
                    return int(value)
                except ValueError:
                    return None
        return None

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Union[Dict[str, object], str], Dict[str, str]]:
        # wait_for, not asyncio.timeout: the latter needs Python 3.11.
        try:
            method, path, query, headers, body = await asyncio.wait_for(
                self._read_request(reader), _READ_DEADLINE_S
            )
        except _BadRequest as error:
            return error.status, {"error": str(error)}, {}
        except asyncio.TimeoutError:
            return 408, {
                "error": f"request not received within {_READ_DEADLINE_S:g} s"
            }, {}

        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET /healthz"}, {}
            health = self.router.healthz()
            health["admission"] = self.admission_stats()
            return (200 if health.get("status") == "ok" else 503), health, {}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET /metrics"}, {}
            if "text/plain" in headers.get("accept", ""):
                return 200, self.registry.prometheus_text(), {}
            snapshot = self.router.snapshot()
            snapshot["admission"] = self.admission_stats()
            return 200, snapshot, {}
        if path == "/traces":
            if method != "GET":
                return 405, {"error": "use GET /traces"}, {}
            if self.tracer is None:
                return 200, {"enabled": False, "stats": {}, "traces": []}, {}
            return 200, {
                "enabled": True,
                "stats": self.tracer.stats(),
                "traces": self.tracer.recent(self._query_int(query, "limit")),
            }, {}
        if path in ("/score", "/update"):
            if method != "POST":
                return 405, {"error": f"use POST {path}"}, {}
            request_id = headers.get("x-repro-request-id") or mint_request_id()
            extra_headers = {"X-Repro-Request-Id": request_id}
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return 400, {"error": f"invalid JSON body: {error}"}, extra_headers
            if not isinstance(payload, dict):
                return 400, {"error": "JSON body must be an object"}, extra_headers
            trace: Optional[Trace] = None
            if self.tracer is not None:
                trace = self.tracer.start_trace(
                    f"http{path.replace('/', '_')}",
                    request_id=request_id,
                    attributes={"path": path},
                )
            try:
                admit_started = time.monotonic()
                admitted = self._admit()
                if trace is not None:
                    trace.add_span(
                        "admission",
                        admit_started,
                        time.monotonic() - admit_started,
                        parent_id=ROOT_SPAN_ID,
                        granted=admitted,
                    )
                if not admitted:
                    return 429, {
                        "error": "admission queue full",
                        "retry_after_s": 0.05,
                    }, extra_headers
                try:
                    loop = asyncio.get_running_loop()
                    if path == "/score":
                        call = functools.partial(self._do_score, payload, trace)
                    else:
                        call = functools.partial(self._do_update, payload, trace)
                    status, answer = await loop.run_in_executor(self._executor, call)
                    if isinstance(answer, dict):
                        answer.setdefault("request_id", request_id)
                    return status, answer, extra_headers
                finally:
                    self._release()
            finally:
                if trace is not None:
                    self.tracer.finish_trace(trace)
        return 404, {"error": f"unknown path {path!r}"}, {}

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, object], str],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, str):  # Prometheus text exposition
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _HTTP_REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        if status == 429:
            head += "Retry-After: 1\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Endpoint bodies (run on the worker pool — blocking is fine here)
    # ------------------------------------------------------------------
    def _do_score(
        self, payload: Dict[str, object], trace: Optional[Trace] = None
    ) -> Tuple[int, Dict[str, object]]:
        nodes = payload.get("nodes")
        if not isinstance(nodes, list):
            return 400, {"error": "'nodes' must be a list of node ids"}
        raw_timeout = payload.get("timeout", self.score_timeout_s)
        try:
            timeout = float(raw_timeout)
        except (TypeError, ValueError, OverflowError):
            timeout = math.nan
        if not (timeout > 0 and math.isfinite(timeout)):
            return 400, {
                "error": f"'timeout' must be finite and positive, got {raw_timeout!r}"
            }
        try:
            if trace is not None:
                handle = self.router.submit(nodes, trace=trace)
            else:  # positional: HTTP tests drive stub routers without tracing
                handle = self.router.submit(nodes)
            probabilities = handle.result(timeout)
        except (ValueError, TypeError, KeyError) as error:
            return 400, {"error": str(error)}
        except TimeoutError as error:
            return 503, {"error": str(error)}
        except RuntimeError as error:  # ServiceClosed, ServiceFailed
            return 503, {"error": str(error)}
        return 200, {
            "nodes": [int(node) for node in nodes],
            "probabilities": probabilities.tolist(),
            "delta_seqs": {str(k): int(v) for k, v in handle.delta_seqs.items()},
        }

    def _do_update(
        self, payload: Dict[str, object], trace: Optional[Trace] = None
    ) -> Tuple[int, Dict[str, object]]:
        edges_raw = payload.get("edges_added") or {}
        features_raw = payload.get("features_changed") or {}
        if not isinstance(edges_raw, dict) or not isinstance(features_raw, dict):
            return 400, {
                "error": "'edges_added' and 'features_changed' must be objects"
            }
        try:
            edges = {
                relation: (list(pair[0]), list(pair[1]))
                for relation, pair in edges_raw.items()
            }
            features = {int(node): list(row) for node, row in features_raw.items()}
            update_kwargs = {} if trace is None else {"trace": trace}
            sequences = self.router.submit_update(
                edges_added=edges or None,
                features_changed=features or None,
                **update_kwargs,
            )
        except (ValueError, TypeError, KeyError, IndexError) as error:
            return 400, {"error": str(error)}
        except RuntimeError as error:
            return 503, {"error": str(error)}
        return 200, {"shards": {str(k): int(v) for k, v in sequences.items()}}


def run_server(
    router: ShardRouter,
    host: str = "127.0.0.1",
    port: int = 8099,
    *,
    max_inflight: int = 64,
    ready_message: bool = True,
) -> None:
    """Blocking entry point for ``repro serve``: serve until SIGINT/SIGTERM.

    Owns the full lifecycle: bind, announce readiness on stdout (the CI
    smoke step waits for this line), serve, and on the first signal stop
    accepting, drain the service, and close it — a clean exit leaves no
    dispatcher thread, no pool, and no shared-memory segments.
    """
    import signal

    async def _main() -> None:
        server = ClusterHTTPServer(
            router, host, port, max_inflight=max_inflight
        )
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-unix event loops
                signal.signal(signum, lambda *_args: stop.set())
        if ready_message:
            print(
                f"repro serve: listening on http://{server.host}:{server.port} "
                "(1 shard(s))",
                flush=True,
            )
        await stop.wait()
        await server.close()

    try:
        asyncio.run(_main())
    finally:
        router.close()
