"""HTTP serving demo: one detection service behind the asyncio front door.

Run with::

    python examples/cluster_demo.py

The script trains a small BSG4Bot, saves it as an artifact (the same files
``repro fit`` writes), loads it into one :class:`DetectionService`, and
stands up the asyncio HTTP/JSON front door on a local port — the
in-process equivalent of ``repro serve <artifact>``.  It then drives every
endpoint over real HTTP: concurrent ``POST /score`` requests coalesce into
micro-batched waves, a ``POST /update`` streams a graph mutation, a
follow-up score shows read-your-writes through the delta sequence, and
``GET /healthz`` / ``GET /metrics`` report the service.  Shutdown is clean:
no dispatcher thread, no process pool, no shared-memory segments left.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import api
from repro.datasets import load_benchmark
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

    def request(self, path: str, body=None):
        url = f"http://127.0.0.1:{self.port}{path}"
        data = None if body is None else json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(req, timeout=60.0) as response:
            return json.loads(response.read())


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

    with tempfile.TemporaryDirectory(prefix="repro-cluster-demo-") as scratch:
        artifact = api.save_detector(detector, Path(scratch) / "artifact")
        print(f"  artifact saved to {artifact}")

        print("\nLoading the artifact into one detection service...")
        router = ShardRouter.from_artifact(
            artifact, graph=graph, max_batch_size=32, max_wait_ms=3.0,
        )

        try:
            with ServerThread(router) as server:
                health = server.request("/healthz")
                print(
                    f"\nServing on http://127.0.0.1:{server.port} — healthz: "
                    f"{health['status']}"
                )

                print("Firing 24 concurrent POST /score requests...")
                def score(node: int):
                    return node, server.request("/score", {"nodes": [node]})

                with ThreadPoolExecutor(max_workers=8) as pool:
                    verdicts = dict(pool.map(score, range(24)))
                suspect = max(
                    verdicts, key=lambda n: verdicts[n]["probabilities"][0][1]
                )
                p_before = verdicts[suspect]["probabilities"][0][1]
                print(f"  top suspect: node {suspect} with p(bot) = {p_before:.3f}")

                relation = graph.relation_names[0]
                update = server.request(
                    "/update",
                    {"edges_added": {relation: [[suspect] * 3, [1, 5, 9]]}},
                )
                print(
                    f"POST /update (3 new '{relation}' edges) sequenced as "
                    f"delta {update['shards']['0']}"
                )

                rescored = server.request("/score", {"nodes": [suspect]})
                p_after = rescored["probabilities"][0][1]
                print(
                    f"  rescore after update: p(bot|node {suspect}) "
                    f"{p_before:.3f} -> {p_after:.3f} "
                    f"(read-your-writes: served at delta seq "
                    f"{rescored['delta_seqs']['0']} >= {update['shards']['0']})"
                )

                metrics = server.request("/metrics")
                totals = metrics["cluster_totals"]
                print(
                    f"GET /metrics: {totals['requests']} requests, "
                    f"{totals['nodes_scored']} nodes scored in {totals['waves']} waves"
                )
        finally:
            router.close()
    print("\nServer stopped, service closed: pool and segments released.")


if __name__ == "__main__":
    main()
