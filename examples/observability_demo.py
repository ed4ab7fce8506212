"""Observability demo: tracing and metrics through the HTTP front door.

Run with::

    python examples/observability_demo.py

The script trains a small BSG4Bot, loads it into one detection service
with an always-sample :class:`Tracer` attached (the in-process equivalent
of ``repro serve <artifact> --trace-sample 1.0``), and drives it over real
HTTP.  Every ``POST /score`` carries an ``X-Repro-Request-Id`` header; the
server echoes it and records one span tree per request — admission, queue
wait, the wave with its collation and model forward.  The script then
pulls ``GET /traces``, renders the slowest trace as a waterfall, and
scrapes ``GET /metrics`` in both JSON (the service's totals) and
Prometheus text form (validated with the strict parser the CI smoke step
uses).
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro import api
from repro.datasets import load_benchmark
from repro.obs import MetricsRegistry, Tracer, render_waterfall, validate_exposition
from repro.serving.cluster import ClusterHTTPServer, ShardRouter


class ServerThread:
    """Run one :class:`ClusterHTTPServer` on a private loop in a thread."""

    def __init__(self, router: ShardRouter) -> None:
        self._router = router
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.port = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RuntimeError("HTTP server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30.0)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        server = ClusterHTTPServer(self._router, port=0)
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.close()

    def request(self, path: str, body=None, headers=None):
        """Round-trip returning (parsed-or-raw body, response headers)."""
        url = f"http://127.0.0.1:{self.port}{path}"
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(req, timeout=60.0) as response:
            raw = response.read()
            if response.headers.get("Content-Type", "").startswith("text/plain"):
                return raw.decode("utf-8"), dict(response.headers)
            return json.loads(raw), dict(response.headers)


def main() -> None:
    print("Building a synthetic MGTAB-style benchmark (240 users)...")
    benchmark = load_benchmark("mgtab", num_users=240, tweets_per_user=8, seed=0)
    graph = benchmark.graph

    print("Training BSG4Bot (small serving configuration)...")
    detector = api.create_detector(
        {
            "name": "bsg4bot",
            "scale": None,
            "seed": 0,
            "overrides": {
                "pretrain_epochs": 30, "hidden_dim": 16, "pretrain_hidden_dim": 16,
                "subgraph_k": 5, "max_epochs": 6, "patience": 3,
            },
        }
    )
    history = detector.fit(graph)
    print(f"  converged after {history.num_epochs} epochs ({history.total_time:.1f}s)")

    with tempfile.TemporaryDirectory(prefix="repro-obs-demo-") as scratch:
        artifact = api.save_detector(detector, Path(scratch) / "artifact")

        print("\nLoading one detection service with tracing armed (sample rate 1.0)...")
        tracer = Tracer(1.0, capacity=64)
        router = ShardRouter.from_artifact(
            artifact, graph=graph, max_batch_size=32, max_wait_ms=3.0,
            tracer=tracer, registry=MetricsRegistry(),
        )
        try:
            with ServerThread(router) as server:
                print(f"Serving on http://127.0.0.1:{server.port}")

                nodes = [0, 17, 42]
                print(f"POST /score for nodes {nodes} with a request id...")
                answer, headers = server.request(
                    "/score", {"nodes": nodes},
                    headers={"X-Repro-Request-Id": "0bs3rvab1e0000d3"},
                )
                print(
                    f"  request id echoed: header="
                    f"{headers.get('X-Repro-Request-Id')} "
                    f"body={answer['request_id']}"
                )
                for node in range(8):  # some single-node traffic for contrast
                    server.request("/score", {"nodes": [node]})

                listing, _ = server.request("/traces")
                print(
                    f"GET /traces: {listing['stats']['kept']} kept / "
                    f"{listing['stats']['started']} started"
                )
                slowest = max(listing["traces"], key=lambda t: t["duration_s"])
                print(
                    f"\nSlowest trace ({slowest['request_id']}, "
                    f"{len(slowest['spans'])} spans) as a waterfall:\n"
                )
                print(render_waterfall(slowest))

                snapshot, _ = server.request("/metrics")
                totals = snapshot["cluster_totals"]
                latency = totals["request_latency"]
                print(
                    f"GET /metrics (JSON): {totals['requests']} requests, "
                    f"p99 {latency['p99_s'] * 1000:.2f} ms"
                )

                text, _ = server.request(
                    "/metrics", headers={"Accept": "text/plain"}
                )
                kinds = validate_exposition(text)
                histograms = sum(1 for kind in kinds.values() if kind == "histogram")
                print(
                    f"GET /metrics (Prometheus text): {len(kinds)} families "
                    f"({histograms} histograms) — strict validation passed"
                )
        finally:
            router.close()
    print("\nServer stopped, service closed.")


if __name__ == "__main__":
    main()
