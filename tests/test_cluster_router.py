"""Cluster serving tests: shard planning, fan-out/fan-in bit-identity,
delta routing with read-your-writes across shards, clean shutdown, and the
asyncio HTTP front end (admission backpressure included)."""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api
from repro.core import BSG4Bot, BSG4BotConfig
from repro.graph import HeteroGraph
from repro.sampling import biased
from repro.serving import DetectionService
from repro.serving.cluster import (
    ClusterHTTPServer,
    ShardPlan,
    ShardRouter,
    ShardSpec,
    plan_shards,
)
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


def _router(artifact, num_shards=2, **kwargs):
    kwargs.setdefault("release_pool_on_close", False)
    return ShardRouter.from_artifact(
        artifact, graph=_make_graph(), num_shards=num_shards, seed=0, **kwargs
    )


def _oracle_session(artifact):
    """A single full-graph session — the bit-identity reference."""
    graph = _make_graph()
    detector = api.load_detector(artifact, graph=graph)
    return api.DetectionSession(detector, graph), graph


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_partition_covers_all_nodes_exactly_once(self, artifact):
        plan = plan_shards(_make_graph(), 3, seed=0, verify=False)
        owned = np.concatenate([spec.owned for spec in plan.shards])
        assert np.array_equal(np.sort(owned), np.arange(GRAPH_NODES))
        for spec in plan.shards:
            assert np.array_equal(plan.ownership[spec.owned], np.full(spec.owned.size, spec.shard_id))
            # Closure contains the owned set and the mask matches the array.
            assert np.isin(spec.owned, spec.closure).all()
            assert np.array_equal(np.flatnonzero(spec.closure_mask), spec.closure)

    def test_local_graphs_keep_full_node_space_and_closure_edges(self, artifact):
        graph = _make_graph()
        plan = plan_shards(graph, 2, seed=0, verify=False)
        for spec in plan.shards:
            local = spec.graph
            assert local.num_nodes == graph.num_nodes
            assert local.relation_names == graph.relation_names
            np.testing.assert_array_equal(local.features, graph.features)
            for name in graph.relation_names:
                full_rel, local_rel = graph.relation(name), local.relation(name)
                # Exactly the closure-incident edge subset survives.
                keep = spec.closure_mask[full_rel.src] | spec.closure_mask[full_rel.dst]
                np.testing.assert_array_equal(local_rel.src, full_rel.src[keep])
                np.testing.assert_array_equal(local_rel.dst, full_rel.dst[keep])

    def test_verified_plan_passes_reverification(self):
        graph = _make_graph()
        plan = plan_shards(graph, 2, seed=0, verify=True)
        assert plan.verified
        plan.verify(graph)  # must not raise

    def test_single_shard_plan_degenerates_to_full_graph(self, monkeypatch):
        """A closure covering the whole graph is verified by comparing edge
        lists: neither planning nor re-verification runs a PPR sweep."""
        from repro.serving.cluster import planner

        def fail(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("whole-graph shard ran a PPR sweep")

        monkeypatch.setattr(planner, "multi_source_ppr", fail)
        graph = _make_graph()
        plan = plan_shards(graph, 1, seed=0, verify=True)
        assert plan.num_shards == 1 and plan.verified
        assert plan.shards[0].num_owned == GRAPH_NODES
        assert plan.shards[0].graph.num_edges == graph.num_edges
        plan.verify(graph)  # must not raise

        # A new edge the shard's local graph lacks fails verification.
        grown = _make_graph()
        relation = grown.relation(grown.relation_names[0])
        linked = relation.adjacency() + relation.adjacency().T
        target = int(np.flatnonzero(linked[0].toarray().ravel() == 0)[1])
        relation.add_edges(np.array([0]), np.array([target]))
        with pytest.raises(planner.ShardPlanError, match="local edges differ"):
            plan.verify(grown)

    def test_stats_schema(self):
        plan = plan_shards(_make_graph(), 2, seed=0, verify=False)
        stats = plan.stats()
        assert stats["num_shards"] == 2 and not stats["verified"]
        assert len(stats["owned_sizes"]) == 2
        assert len(stats["halo_hops"]) == 2

    def test_invalid_arguments(self):
        graph = _make_graph()
        with pytest.raises(ValueError):
            plan_shards(graph, 0)
        with pytest.raises(ValueError):
            plan_shards(graph, 2, halo_hops=-1)


# ----------------------------------------------------------------------
# Router: fan-out/fan-in scoring
# ----------------------------------------------------------------------
class TestRouterScoring:
    def test_sharded_waves_bit_identical_to_single_session_oracle(self, artifact):
        """The tentpole contract: every per-shard wave replays bit-for-bit
        through a serial full-graph ``score_nodes`` at the same batching."""
        router = _router(artifact, num_shards=2, record_waves=True,
                         max_batch_size=8, max_wait_ms=5.0)
        results = {}

        def client(node):
            results[node] = router.score([node], timeout=30.0)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        router.drain()
        oracle, _graph = _oracle_session(artifact)
        waves = 0
        try:
            for service in router.services:
                for wave_nodes, wave_probabilities, _seq in service.wave_log:
                    waves += 1
                    np.testing.assert_array_equal(
                        oracle.score_nodes(wave_nodes), wave_probabilities
                    )
        finally:
            oracle.close(release_pool=False)
            router.close()
        assert waves >= 2  # both shards actually served coalesced waves
        assert len(results) == 24
        assert all(rows.shape == (1, 2) for rows in results.values())

    def test_fan_in_restores_caller_order_across_shards(self, artifact):
        # Deterministic batching: submit with dispatchers stopped, then
        # start them — each shard serves its slice as exactly one wave.
        router = _router(artifact, num_shards=2, autostart=False,
                         max_batch_size=16)
        nodes = [5, 40, 11, 52, 3, 27]
        handle = router.submit(nodes)
        for service in router.services:
            service.start()
        rows = handle.result(30.0)
        assert rows.shape == (len(nodes), 2)
        # Expected: the oracle scores each shard's slice at the same
        # batching, scattered back to the caller's positions.
        owners = router.plan.shard_of(np.asarray(nodes))
        oracle, _graph = _oracle_session(artifact)
        try:
            expected = np.empty_like(rows)
            for shard_id in np.unique(owners):
                positions = np.flatnonzero(owners == shard_id)
                expected[positions] = oracle.score_nodes(
                    np.asarray(nodes)[positions]
                )
            np.testing.assert_array_equal(rows, expected)
        finally:
            oracle.close(release_pool=False)
            router.close()

    def test_empty_and_invalid_requests(self, artifact):
        with _router(artifact, num_shards=2) as router:
            assert router.score([]).shape == (0, 2)
            with pytest.raises(ValueError, match="out of range"):
                router.score([GRAPH_NODES + 7])

    def test_single_shard_router_matches_plain_service(self, artifact):
        nodes = [11, 3, 27, 5]
        with _router(artifact, num_shards=1) as router:
            rows = router.score(nodes)
        graph = _make_graph()
        detector = api.load_detector(artifact, graph=graph)
        with DetectionService(detector, graph, release_pool_on_close=False) as service:
            np.testing.assert_array_equal(service.score(nodes), rows)


# ----------------------------------------------------------------------
# Router: delta fan-out
# ----------------------------------------------------------------------
class TestRouterUpdates:
    def test_feature_update_read_your_writes_across_shards(self, artifact):
        router = _router(artifact, num_shards=2)
        node = 7
        new_row = router.graph.features[node] + 2.0
        sequences = router.submit_update(features_changed={node: new_row.copy()})
        # Feature rows broadcast to every shard's local copy.
        assert set(sequences) == {0, 1}
        handle = router.submit([node])
        rows = handle.result(30.0)
        owner = int(router.plan.ownership[node])
        assert handle.delta_seqs[owner] >= sequences[owner]
        np.testing.assert_array_equal(router.plan.shards[owner].graph.features[node], new_row)
        # Shards that served no read apply the row from their idle loop;
        # once drained, every local copy holds it.
        router.drain()
        for spec in router.plan.shards:
            np.testing.assert_array_equal(spec.graph.features[node], new_row)
        router.close()
        # Bit-identity survives the delta: a fresh full-graph session that
        # applied the same delta scores the same wave identically.
        oracle, _graph = _oracle_session(artifact)
        try:
            oracle.apply_delta(features_changed={node: new_row.copy()})
            np.testing.assert_array_equal(oracle.score_nodes([node]), rows)
        finally:
            oracle.close(release_pool=False)

    def test_edge_update_lands_on_touched_shards_and_stays_bit_identical(
        self, artifact
    ):
        router = _router(artifact, num_shards=2)
        relation = router.graph.relation_names[0]
        src, dst = 0, 1
        sequences = router.submit_update(edges_added={relation: ([src], [dst])})
        touched = {
            spec.shard_id
            for spec in router.plan.shards
            if spec.closure_mask[src] or spec.closure_mask[dst]
        }
        assert set(sequences) == touched
        rows = router.score([src])
        router.drain()
        # Each touched shard's local graph now holds the edge.
        for spec, service in zip(router.plan.shards, router.services):
            if spec.shard_id in touched:
                rel = service.graph.relation(relation)
                assert np.any((rel.src == src) & (rel.dst == dst))
        router.close()
        oracle, oracle_graph = _oracle_session(artifact)
        try:
            oracle.apply_delta(edges_added={relation: ([src], [dst])})
            np.testing.assert_array_equal(oracle.score_nodes([src]), rows)
        finally:
            oracle.close(release_pool=False)

    def test_invalid_update_rejected_with_nothing_enqueued(self, artifact):
        with _router(artifact, num_shards=2) as router:
            with pytest.raises(KeyError, match="unknown relation"):
                router.submit_update(edges_added={"bogus": ([0], [1])})
            snap = router.snapshot()
            assert snap["cluster_totals"]["deltas_enqueued"] == 0


# ----------------------------------------------------------------------
# Routing logic in isolation (stub services, hand-built plan)
# ----------------------------------------------------------------------
class _StubHandle:
    def __init__(self, rows):
        self._rows = rows
        self.delta_seq = -1

    def result(self, timeout=None):
        return self._rows


class _StubService:
    def __init__(self):
        self.scored = []
        self.updates = []
        self.closed = False
        self._seq = -1

    def submit(self, nodes, trace=None, trace_parent=None):
        # Mirrors DetectionService.submit's signature (the router passes
        # trace kwargs whenever a tracer is armed, e.g. REPRO_TRACE_SAMPLE).
        nodes = np.asarray(nodes)
        self.scored.append(nodes)
        rows = np.stack([nodes.astype(float), np.zeros(nodes.size)], axis=1)
        return _StubHandle(rows)

    def submit_update(self, edges_added=None, features_changed=None):
        self.updates.append((edges_added, features_changed))
        self._seq += 1
        return self._seq

    def drain(self, timeout=None):
        pass

    def close(self, drain=True, timeout=None):
        self.closed = True

    def snapshot(self):
        return {"requests": len(self.scored)}


def _toy_plan():
    """6 nodes, two shards; closures overlap on nodes {2, 3} only."""
    features = np.eye(6)
    relations = {"r": (np.array([0, 2, 4]), np.array([1, 3, 5]))}
    def local(mask):
        keep = mask[relations["r"][0]] | mask[relations["r"][1]]
        return HeteroGraph(
            6, features.copy(), np.zeros(6, dtype=np.int64),
            {"r": (relations["r"][0][keep], relations["r"][1][keep])},
        )
    ownership = np.array([0, 0, 0, 1, 1, 1])
    masks = [
        np.array([True, True, True, True, False, False]),
        np.array([False, False, True, True, True, True]),
    ]
    shards = [
        ShardSpec(
            shard_id=i,
            owned=np.flatnonzero(ownership == i),
            closure=np.flatnonzero(masks[i]),
            halo_hops=1,
            graph=local(masks[i]),
            closure_mask=masks[i],
        )
        for i in range(2)
    ]
    graph = HeteroGraph(6, features, np.zeros(6, dtype=np.int64), relations)
    return ShardPlan(num_shards=2, ownership=ownership, shards=shards, seed=0), graph


class TestRoutingLogic:
    def test_score_routes_by_ownership_and_scatters_in_order(self):
        plan, graph = _toy_plan()
        services = [_StubService(), _StubService()]
        router = ShardRouter(plan, services, graph=graph, release_pool_on_close=False)
        rows = router.score([5, 0, 3, 1])
        # Stub rows carry the node id in column 0 — order must be caller's.
        np.testing.assert_array_equal(rows[:, 0], [5.0, 0.0, 3.0, 1.0])
        np.testing.assert_array_equal(services[0].scored[0], [0, 1])
        np.testing.assert_array_equal(services[1].scored[0], [5, 3])

    def test_edge_delta_reaches_only_closure_incident_shards(self):
        plan, graph = _toy_plan()
        services = [_StubService(), _StubService()]
        router = ShardRouter(plan, services, graph=graph, release_pool_on_close=False)
        # (0, 1): shard 0 only.  (4, 5): shard 1 only.  (2, 3): both.
        assert set(router.submit_update(edges_added={"r": ([0], [1])})) == {0}
        assert set(router.submit_update(edges_added={"r": ([4], [5])})) == {1}
        assert set(router.submit_update(edges_added={"r": ([2], [3])})) == {0, 1}
        assert len(services[0].updates) == 2
        assert len(services[1].updates) == 2
        # The shard sees only its closure-incident edge subset.
        mixed = router.submit_update(edges_added={"r": ([0, 4], [1, 5])})
        assert set(mixed) == {0, 1}
        edges0, _ = services[0].updates[-1]
        np.testing.assert_array_equal(edges0["r"][0], [0])
        edges1, _ = services[1].updates[-1]
        np.testing.assert_array_equal(edges1["r"][0], [4])

    def test_feature_delta_broadcasts_everywhere(self):
        plan, graph = _toy_plan()
        services = [_StubService(), _StubService()]
        router = ShardRouter(plan, services, graph=graph, release_pool_on_close=False)
        sequences = router.submit_update(features_changed={0: np.ones(6)})
        assert set(sequences) == {0, 1}

    def test_mismatched_service_count_rejected(self):
        plan, graph = _toy_plan()
        with pytest.raises(ValueError, match="2 shard"):
            ShardRouter(plan, [_StubService()], graph=graph)

    def test_close_closes_every_shard_and_is_idempotent(self):
        plan, graph = _toy_plan()
        services = [_StubService(), _StubService()]
        router = ShardRouter(plan, services, graph=graph, release_pool_on_close=False)
        router.close()
        router.close()
        assert all(service.closed for service in services)
        with pytest.raises(RuntimeError, match="closed"):
            router.score([0])
        with pytest.raises(RuntimeError, match="closed"):
            router.submit_update(features_changed={0: np.ones(6)})


# ----------------------------------------------------------------------
# Lifecycle / leaks
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_clean_shutdown_leaves_no_threads_pool_or_shm(self, artifact):
        before = set(threading.enumerate())
        router = ShardRouter.from_artifact(
            artifact, graph=_make_graph(), num_shards=2, seed=0,
            release_pool_on_close=True,
        )
        router.score([1, 40])
        router.submit_update(
            features_changed={3: router.graph.features[3] + 1.0}
        )
        router.drain()
        router.close()
        assert router.closed
        for service in router.services:
            assert service.closed
            assert not service._thread.is_alive()
        assert biased._shared_pool is None
        assert not biased._shared_payload_registry
        leftover = set(threading.enumerate()) - before
        assert not leftover, f"live threads after close: {leftover}"

    def test_context_manager(self, artifact):
        with _router(artifact, num_shards=2) as router:
            assert router.score([1]).shape == (1, 2)
        assert router.closed

    def test_snapshot_aggregates_shards(self, artifact):
        with _router(artifact, num_shards=2) as router:
            router.score([1, 40])
            router.drain()
            snap = router.snapshot()
            assert snap["router"]["requests"] == 1
            assert snap["cluster_totals"]["nodes_scored"] == 2
            assert len(snap["shards"]) == 2
            assert snap["plan"]["num_shards"] == 2
            health = router.healthz()
            assert health["status"] == "ok" and health["num_shards"] == 2


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
        return {"status": "ok", "num_shards": 1, "uptime_s": 0.0, "shards": []}

    def snapshot(self):
        return {"router": {}, "cluster_totals": {}, "plan": {}, "shards": []}


class TestHTTPFrontEnd:
    def test_all_four_endpoints_end_to_end(self, artifact):
        with _router(artifact, num_shards=2, max_batch_size=8) as router:
            with _ServerThread(router) as server:
                status, health = server.request("/healthz")
                assert status == 200 and health["status"] == "ok"
                assert health["num_shards"] == 2

                status, scored = server.request("/score", {"nodes": [1, 40, 7]})
                assert status == 200
                rows = np.asarray(scored["probabilities"])
                assert rows.shape == (3, 2)
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

                status, updated = server.request(
                    "/update",
                    {"features_changed": {"3": (router.graph.features[3] + 1.0).tolist()}},
                )
                assert status == 200 and set(updated["shards"]) == {"0", "1"}

                # Read-your-writes through HTTP: the next score's delta_seqs
                # cover the update's sequence numbers.
                status, rescored = server.request("/score", {"nodes": [3]})
                assert status == 200
                owner = str(int(router.plan.ownership[3]))
                assert int(rescored["delta_seqs"][owner]) >= int(updated["shards"][owner])

                status, metrics = server.request("/metrics")
                assert status == 200
                assert metrics["cluster_totals"]["nodes_scored"] >= 4
                assert metrics["admission"]["max_inflight"] > 0

    def test_error_statuses(self, artifact):
        with _router(artifact, num_shards=1) as router:
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
