"""Front-door serving tests: the router over one detection service (waves
bit-identical to a serial session, read-your-writes, clean shutdown) and the
asyncio HTTP front end (admission backpressure, malformed input, the read
deadline, and the failed-service status)."""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api
from repro.core import BSG4Bot, BSG4BotConfig
from repro.sampling import biased
from repro.serving import DetectionService, ServiceFailed
from repro.serving.cluster import ClusterHTTPServer, ShardRouter
from repro.serving.cluster import http as front_door
from tests.conftest import make_separable_graph

GRAPH_SEED = 33
GRAPH_NODES = 60


def _make_graph():
    return make_separable_graph(num_nodes=GRAPH_NODES, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One fitted detector persisted once; tests load isolated copies."""
    graph = _make_graph()
    config = BSG4BotConfig(
        pretrain_epochs=10, hidden_dim=8, pretrain_hidden_dim=8,
        subgraph_k=3, max_epochs=3, min_epochs=1, patience=2, batch_size=16,
    )
    detector = BSG4Bot(config)
    detector.fit(graph)
    return api.save_detector(detector, tmp_path_factory.mktemp("cluster") / "artifact")


def _router(artifact, **kwargs):
    kwargs.setdefault("release_pool_on_close", False)
    return ShardRouter.from_artifact(artifact, graph=_make_graph(), **kwargs)


def _oracle_session(artifact):
    """A plain session on a fresh graph — the bit-identity reference."""
    graph = _make_graph()
    detector = api.load_detector(artifact, graph=graph)
    return api.DetectionSession(detector, graph), graph


# ----------------------------------------------------------------------
# Router: scoring
# ----------------------------------------------------------------------
class TestRouterScoring:
    def test_sharded_waves_bit_identical_to_single_session_oracle(self, artifact):
        """Every wave the router's service executed replays bit-for-bit
        through a serial ``score_nodes`` at the same batching."""
        router = _router(artifact, record_waves=True, max_batch_size=8, max_wait_ms=5.0)
        results = {}

        def client(node):
            results[node] = router.score([node], timeout=30.0)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        router.service.drain()
        oracle, _graph = _oracle_session(artifact)
        try:
            waves = router.service.wave_log
            for wave_nodes, wave_probabilities, _seq in waves:
                np.testing.assert_array_equal(
                    oracle.score_nodes(wave_nodes), wave_probabilities
                )
        finally:
            oracle.close(release_pool=False)
            router.close()
        assert len(waves) >= 2
        assert len(results) == 24
        assert all(rows.shape == (1, 2) for rows in results.values())

    def test_empty_and_invalid_requests(self, artifact):
        with _router(artifact) as router:
            assert router.score([]).shape == (0, 2)
            with pytest.raises(ValueError, match="out of range"):
                router.score([GRAPH_NODES + 7])

    def test_single_shard_router_matches_plain_service(self, artifact):
        nodes = [11, 3, 27, 5]
        with _router(artifact) as router:
            rows = router.score(nodes)
        graph = _make_graph()
        detector = api.load_detector(artifact, graph=graph)
        with DetectionService(detector, graph, release_pool_on_close=False) as service:
            np.testing.assert_array_equal(service.score(nodes), rows)


# ----------------------------------------------------------------------
# Router: updates
# ----------------------------------------------------------------------
class TestRouterUpdates:
    def test_feature_update_read_your_writes_across_shards(self, artifact):
        router = _router(artifact)
        node = 7
        new_row = router.service.graph.features[node] + 2.0
        sequences = router.submit_update(features_changed={node: new_row.copy()})
        assert list(sequences) == [0]
        handle = router.submit([node])
        rows = handle.result(30.0)
        assert handle.delta_seqs[0] >= sequences[0]
        np.testing.assert_array_equal(router.service.graph.features[node], new_row)
        router.close()
        # Bit-identity survives the delta: a fresh session that applied the
        # same delta scores the same wave identically.
        oracle, _graph = _oracle_session(artifact)
        try:
            oracle.apply_delta(features_changed={node: new_row.copy()})
            np.testing.assert_array_equal(oracle.score_nodes([node]), rows)
        finally:
            oracle.close(release_pool=False)

    def test_edge_update_lands_on_touched_shards_and_stays_bit_identical(
        self, artifact
    ):
        router = _router(artifact)
        relation = router.service.graph.relation_names[0]
        src, dst = 0, 1
        sequences = router.submit_update(edges_added={relation: ([src], [dst])})
        handle = router.submit([src])
        rows = handle.result(30.0)
        assert handle.delta_seqs[0] >= sequences[0]
        rel = router.service.graph.relation(relation)
        assert np.any((rel.src == src) & (rel.dst == dst))
        router.close()
        oracle, _graph = _oracle_session(artifact)
        try:
            oracle.apply_delta(edges_added={relation: ([src], [dst])})
            np.testing.assert_array_equal(oracle.score_nodes([src]), rows)
        finally:
            oracle.close(release_pool=False)

    def test_invalid_update_rejected_with_nothing_enqueued(self, artifact):
        with _router(artifact) as router:
            with pytest.raises(KeyError, match="unknown relation"):
                router.submit_update(edges_added={"bogus": ([0], [1])})
            snap = router.snapshot()
            assert snap["cluster_totals"]["deltas_enqueued"] == 0


# ----------------------------------------------------------------------
# The adapter over one service
# ----------------------------------------------------------------------
class TestRoutingLogic:
    def test_close_closes_every_shard_and_is_idempotent(self, artifact):
        router = _router(artifact)
        router.close()
        router.close()
        assert router.service.closed
        with pytest.raises(RuntimeError, match="closed"):
            router.score([0])
        with pytest.raises(RuntimeError, match="closed"):
            router.score([])
        with pytest.raises(RuntimeError, match="closed"):
            router.submit_update(features_changed={0: np.ones(router.service.graph.num_features)})


# ----------------------------------------------------------------------
# Lifecycle / leaks
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_clean_shutdown_leaves_no_threads_pool_or_shm(self, artifact):
        before = set(threading.enumerate())
        router = _router(artifact, release_pool_on_close=True)
        router.score([1, 40])
        router.submit_update(
            features_changed={3: router.service.graph.features[3] + 1.0}
        )
        router.service.drain()
        router.close()
        assert router.service.closed
        assert not router.service._thread.is_alive()
        assert biased._shared_pool is None
        assert not biased._shared_payload_registry
        leftover = set(threading.enumerate()) - before
        assert not leftover, f"live threads after close: {leftover}"

    def test_context_manager(self, artifact):
        with _router(artifact) as router:
            assert router.score([1]).shape == (1, 2)
        assert router.service.closed

    def test_snapshot_aggregates_shards(self, artifact):
        with _router(artifact) as router:
            router.score([1, 40])
            router.service.drain()
            totals = router.snapshot()["cluster_totals"]
            assert totals["requests"] == 1
            assert totals["nodes_scored"] == 2
            assert totals["requests"] == router.service.metrics.counters()["requests"]
            assert router.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class _ServerThread:
    """Run one ClusterHTTPServer on a private event loop in a thread."""

    def __init__(self, router, **kwargs):
        self._router = router
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.port = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10.0), "server failed to start"
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10.0)
        assert not self._thread.is_alive()

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        server = ClusterHTTPServer(self._router, port=0, **self._kwargs)
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.close()

    def request(self, path, body=None, method=None, timeout=30.0):
        url = f"http://127.0.0.1:{self.port}{path}"
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


class _BlockingStubRouter:
    """Router stand-in whose score blocks until released (backpressure tests)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def submit(self, nodes):
        outer = self

        class Handle:
            delta_seqs = {}

            def result(self, timeout=None):
                outer.entered.set()
                assert outer.release.wait(30.0)
                return np.zeros((len(nodes), 2))

        return Handle()

    def submit_update(self, edges_added=None, features_changed=None):
        return {0: 0}

    def healthz(self):
        return {"status": "ok", "uptime_s": 0.0}

    def snapshot(self):
        return {"cluster_totals": {}}


class _FaultyStubRouter(_BlockingStubRouter):
    """Router stand-in whose score raises an exception no handler maps."""

    def submit(self, nodes):
        raise IndexError("stub router fault")


def _raw_exchange(port, data, timeout=10.0):
    """Send raw bytes, read until the server closes; returns the response."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(data)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _parse(response):
    """``(status, JSON body)`` of a raw HTTP response."""
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestHTTPFrontEnd:
    def test_all_four_endpoints_end_to_end(self, artifact):
        """Pins the fields the end-to-end benchmark reads."""
        new_row = (_make_graph().features[3] + 1.0).tolist()
        with _router(artifact, max_batch_size=8) as router:
            with _ServerThread(router) as server:
                status, health = server.request("/healthz")
                assert status == 200 and health["status"] == "ok"

                status, scored = server.request("/score", {"nodes": [1, 40, 7]})
                assert status == 200
                rows = np.asarray(scored["probabilities"])
                assert rows.shape == (3, 2)
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
                assert scored["delta_seqs"] == {"0": -1}

                status, updated = server.request(
                    "/update", {"features_changed": {"3": new_row}}
                )
                assert status == 200 and updated["shards"] == {"0": 0}

                # Read-your-writes through HTTP: the next score is served at
                # the update's sequence number and sees the new row.
                status, rescored = server.request("/score", {"nodes": [3]})
                assert status == 200
                assert rescored["delta_seqs"] == {"0": 0}

                status, metrics = server.request("/metrics")
                assert status == 200
                totals = metrics["cluster_totals"]
                assert totals["requests"] == 2
                assert totals["nodes_scored"] == 4
                assert totals["deltas_applied"] == 1
                assert metrics["admission"]["max_inflight"] > 0
        oracle, _graph = _oracle_session(artifact)
        try:
            oracle.apply_delta(features_changed={3: np.asarray(new_row)})
            np.testing.assert_array_equal(
                oracle.score_nodes([3]), np.asarray(rescored["probabilities"])
            )
        finally:
            oracle.close(release_pool=False)

    def test_error_statuses(self, artifact):
        with _router(artifact) as router:
            with _ServerThread(router) as server:
                assert server.request("/nope")[0] == 404
                assert server.request("/score", method="GET")[0] == 405
                assert server.request("/healthz", {"x": 1})[0] == 405  # POST
                assert server.request("/score", {"nodes": "bogus"})[0] == 400
                status, payload = server.request("/score", {"nodes": [10_000]})
                assert status == 400 and "out of range" in payload["error"]

    def test_admission_queue_saturation_returns_429(self):
        stub = _BlockingStubRouter()
        with _ServerThread(stub, max_inflight=1) as server:
            first = {}

            def blocked_client():
                first["response"] = server.request("/score", {"nodes": [0]})

            thread = threading.Thread(target=blocked_client)
            thread.start()
            try:
                # Wait until the first request holds the only slot...
                assert stub.entered.wait(10.0)
                # ...then the next one must bounce immediately with 429.
                status, payload = server.request("/score", {"nodes": [1]})
                assert status == 429
                assert "admission" in payload["error"]
            finally:
                stub.release.set()
                thread.join(10.0)
            assert first["response"][0] == 200

    def test_oversized_body_rejected_before_buffering(self):
        stub = _BlockingStubRouter()
        stub.release.set()
        with _ServerThread(stub, max_body_bytes=64) as server:
            status, payload = server.request(
                "/score", {"nodes": list(range(1000))}
            )
            assert status == 413 and "cap" in payload["error"]

    def test_non_integer_content_length_answers_400(self):
        stub = _BlockingStubRouter()
        with _ServerThread(stub) as server:
            status, payload = _parse(_raw_exchange(
                server.port, b"POST /score HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            ))
        assert status == 400 and "Content-Length" in payload["error"]

    def test_negative_content_length_answers_400(self):
        stub = _BlockingStubRouter()
        with _ServerThread(stub) as server:
            status, payload = _parse(_raw_exchange(
                server.port, b"POST /score HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            ))
        assert status == 400 and "Content-Length" in payload["error"]

    def test_non_finite_timeout_answers_400(self):
        # 1e400 parses to inf; waiting on it would raise OverflowError.
        stub = _BlockingStubRouter()
        body = b'{"nodes": [0], "timeout": 1e400}'
        with _ServerThread(stub) as server:
            status, payload = _parse(_raw_exchange(
                server.port,
                b"POST /score HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body),
            ))
        assert status == 400 and "timeout" in payload["error"]
        assert not stub.entered.is_set()

    def test_unexpected_router_exception_answers_500(self):
        body = b'{"nodes": [0]}'
        with _ServerThread(_FaultyStubRouter()) as server:
            status, payload = _parse(_raw_exchange(
                server.port,
                b"POST /score HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body),
            ))
        assert status == 500 and "IndexError" in payload["error"]

    @pytest.mark.parametrize(
        "partial",
        [
            b"POST /score HTTP/1.1\r\nHost: x\r\n",  # half a head
            b"POST /score HTTP/1.1\r\nContent-Length: 20\r\n\r\n{",  # half a body
        ],
        ids=["head", "body"],
    )
    def test_stalled_request_answers_408_at_the_read_deadline(
        self, monkeypatch, partial
    ):
        monkeypatch.setattr(front_door, "_READ_DEADLINE_S", 0.3)
        stub = _BlockingStubRouter()
        with _ServerThread(stub) as server:
            started = time.monotonic()
            status, payload = _parse(_raw_exchange(server.port, partial))
            elapsed = time.monotonic() - started
        assert status == 408 and "0.3 s" in payload["error"]
        assert 0.25 <= elapsed < 5.0
        assert not stub.entered.is_set()

    def test_failed_delta_application_answers_503(self, artifact, monkeypatch):
        router = _router(artifact)

        def fail(**kwargs):
            raise RuntimeError("injected apply failure")

        monkeypatch.setattr(router.service.session, "apply_delta", fail)
        try:
            with _ServerThread(router) as server:
                status, _ = server.request(
                    "/update", {"edges_added": {router.service.graph.relation_names[0]: [[0], [1]]}}
                )
                assert status == 200  # validated and sequenced; applied later
                status, payload = server.request("/score", {"nodes": [0]})
                assert status == 503 and "injected" in payload["error"]
                status, health = server.request("/healthz")
                assert status == 503 and health["status"] == "failed"
                assert "injected" in health["error"]
                status, metrics = server.request("/metrics")
                assert metrics["cluster_totals"]["errors"] == 1
        finally:
            with pytest.raises(ServiceFailed):
                router.close()
