"""Integration tests for ``repro.serving.DetectionService``: coalesced
scoring, read-your-writes update sequencing, telemetry, and lifecycle."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.core import BSG4Bot, BSG4BotConfig
from repro.sampling import biased
from repro.serving import DeltaLog, DetectionService, ServiceClosed, ServiceFailed
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
    return api.save_detector(detector, tmp_path_factory.mktemp("serving") / "artifact")


def _fresh(artifact):
    """An isolated (detector, graph) pair — loads are bit-identical."""
    graph = _make_graph()
    return api.load_detector(artifact, graph=graph), graph


def _service(artifact, **kwargs):
    detector, graph = _fresh(artifact)
    kwargs.setdefault("release_pool_on_close", False)
    return DetectionService(detector, graph, **kwargs)


class TestScoring:
    def test_sequential_scores_match_plain_session(self, artifact):
        nodes = [11, 3, 27, 5]
        detector, graph = _fresh(artifact)
        with api.DetectionSession(detector, graph) as session:
            expected = session.score_nodes(nodes)
        with _service(artifact) as service:
            np.testing.assert_array_equal(service.score(nodes), expected)

    def test_concurrent_burst_coalesces_and_slices_match_wave(self, artifact):
        # Deterministic coalescing: enqueue while the dispatcher is not yet
        # running, then start it — all requests must land in one wave.
        service = _service(artifact, autostart=False, record_waves=True,
                           max_batch_size=16)
        handles = [service.submit([node]) for node in (4, 9, 14, 19, 24)]
        service.start()
        rows = [handle.result(30.0) for handle in handles]
        assert all(handle.wave_requests == 5 for handle in handles)
        assert len(service.wave_log) == 1
        wave_nodes, wave_probabilities, _ = service.wave_log[0]
        np.testing.assert_array_equal(wave_nodes, [4, 9, 14, 19, 24])
        # Each caller's rows are exactly their slice of the wave output...
        for index, row in enumerate(rows):
            np.testing.assert_array_equal(row, wave_probabilities[index : index + 1])
        # ...and the wave replays bit-identically through serial scoring.
        detector, graph = _fresh(artifact)
        with api.DetectionSession(detector, graph) as replay:
            np.testing.assert_array_equal(
                replay.score_nodes(wave_nodes), wave_probabilities
            )
        service.close()

    def test_concurrent_threads_all_get_correct_rows(self, artifact):
        service = _service(artifact, max_wait_ms=5.0)
        results: dict = {}

        def client(node):
            results[node] = service.score([node], timeout=30.0)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.drain()
        snapshot = service.snapshot()
        service.close()
        # Every caller got its own node's row, regardless of wave packing.
        detector, graph = _fresh(artifact)
        with api.DetectionSession(detector, graph) as session:
            for node in range(24):
                expected = session.score_nodes([node])
                # Same node set but possibly different wave composition —
                # identical only when the wave was exactly this request.
                assert results[node].shape == expected.shape
        assert snapshot["requests"] == 24
        assert snapshot["waves"] <= 24

    def test_empty_request_short_circuits(self, artifact):
        with _service(artifact) as service:
            assert service.score([]).shape == (0, 2)
            assert service.snapshot()["requests"] == 0

    def test_invalid_nodes_rejected_at_submit(self, artifact):
        # Validated before entering the queue: the bad producer fails alone
        # and nothing reaches the dispatcher (no wave-mates poisoned).
        with _service(artifact) as service:
            with pytest.raises(ValueError, match="out of range"):
                service.score([10_000])
            assert service.score([1]).shape == (1, 2)
            assert service.snapshot()["errors"] == 0
            assert service.snapshot()["requests"] == 1

    def test_wave_error_propagates_and_service_survives(self, artifact):
        service = _service(artifact)
        original = service.session.score_nodes
        calls = {"count": 0}

        def flaky(nodes):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient scoring failure")
            return original(nodes)

        service.session.score_nodes = flaky
        try:
            with pytest.raises(RuntimeError, match="transient"):
                service.score([1])
            assert service.score([1]).shape == (1, 2)
            assert service.snapshot()["errors"] == 1
        finally:
            service.session.score_nodes = original
            service.close()

    def test_warmup_primes_the_store(self, artifact):
        with _service(artifact) as service:
            elapsed = service.warmup()
            assert elapsed > 0
            store = service.session.store
            built_before = store.build_count
            service.score(store.nodes()[:4])
            assert store.build_count == built_before  # nothing rebuilt


class TestUpdates:
    def test_read_your_writes_feature_update(self, artifact):
        service = _service(artifact)
        node = 7
        new_row = service.graph.features[node] + 2.0
        seq = service.submit_update(features_changed={node: new_row.copy()})
        handle = service.submit([node])
        rows = handle.result(30.0)
        assert handle.delta_seq >= seq
        np.testing.assert_array_equal(service.graph.features[node], new_row)
        service.close()
        # The response equals a fresh session that applied the same delta.
        detector, graph = _fresh(artifact)
        with api.DetectionSession(detector, graph) as session:
            session.apply_delta(features_changed={node: new_row.copy()})
            np.testing.assert_array_equal(session.score_nodes([node]), rows)

    def test_edge_update_lands_in_graph_between_waves(self, artifact):
        with _service(artifact) as service:
            relation = service.graph.relation_names[0]
            before = service.graph.relation(relation).num_edges
            service.submit_update(edges_added={relation: ([0, 1], [2, 3])})
            service.score([0])  # forces application before the wave
            assert service.graph.relation(relation).num_edges == before + 2

    def test_invalid_update_rejected_eagerly(self, artifact):
        with _service(artifact) as service:
            with pytest.raises(KeyError, match="unknown relation"):
                service.submit_update(edges_added={"bogus": ([0], [1])})
            assert service.snapshot()["pending_deltas"] == 0

    def test_drain_applies_deltas_without_score_traffic(self, artifact):
        with _service(artifact) as service:
            node = 3
            new_row = service.graph.features[node] + 1.0
            seq = service.submit_update(features_changed={node: new_row.copy()})
            service.drain()
            assert service.delta_log.applied_seq == seq
            # drain() must not return inside the popped-but-unapplied window:
            # the metric is incremented only after application completed.
            assert service.snapshot()["deltas_applied"] == 1
            np.testing.assert_array_equal(service.graph.features[node], new_row)

    def test_close_flushes_pending_deltas(self, artifact):
        service = _service(artifact)
        node = 5
        new_row = service.graph.features[node] + 1.0
        seq = service.submit_update(features_changed={node: new_row.copy()})
        service.close()
        assert service.delta_log.applied_seq == seq
        np.testing.assert_array_equal(service.graph.features[node], new_row)


class TestDeltaWatermark:
    """Size/age watermark: idle application defers until a bound is hit,
    so pure-update bursts coalesce — but drain/close/waves still force the
    full prefix."""

    def test_log_watermark_due_by_count_age_and_expedite(self):
        clock = [0.0]
        graph = _make_graph()
        log = DeltaLog(
            graph, max_pending=3, max_age_s=10.0, clock=lambda: clock[0]
        )
        relation = graph.relation_names[0]
        assert not log.watermark_due  # empty
        log.append(edges_added={relation: ([0], [1])})
        log.append(edges_added={relation: ([1], [2])})
        assert not log.watermark_due  # 2 < max_pending, age 0 < max_age_s
        clock[0] = 10.0
        assert log.watermark_due  # age bound hit
        clock[0] = 0.0
        log.append(edges_added={relation: ([2], [3])})
        assert log.watermark_due  # size bound hit
        delta = log.drain()
        assert delta.coalesced == 3 and not log.watermark_due
        log.append(edges_added={relation: ([3], [4])})
        assert not log.watermark_due
        log.expedite()
        assert log.watermark_due  # forced (drain/close path)
        log.drain()
        log.append(edges_added={relation: ([4], [5])})
        assert not log.watermark_due  # expedite does not outlive the drain

    def test_eager_default_is_due_immediately(self):
        graph = _make_graph()
        log = DeltaLog(graph)
        log.append(features_changed={0: graph.features[0] + 1.0})
        assert log.watermark_due

    def test_service_defers_pure_updates_until_count_watermark(self, artifact):
        import time as _time

        with _service(artifact, delta_max_pending=2, delta_max_age_s=60.0) as service:
            relation = service.graph.relation_names[0]
            service.submit_update(edges_added={relation: ([0], [1])})
            # Below both watermarks: the idle dispatcher must NOT apply it.
            _time.sleep(0.2)
            assert service.snapshot()["deltas_applied"] == 0
            assert service.snapshot()["pending_deltas"] == 1
            # Second delta hits max_pending: both apply as one coalesced pass.
            service.submit_update(edges_added={relation: ([1], [2])})
            deadline = _time.monotonic() + 10.0
            while service.snapshot()["deltas_applied"] < 2:
                assert _time.monotonic() < deadline, "watermark never fired"
                _time.sleep(0.01)
            assert service.snapshot()["pending_deltas"] == 0

    def test_waves_still_apply_deferred_deltas_first(self, artifact):
        # Read-your-writes is never deferred: a score forces the pending
        # prefix regardless of the watermark.
        with _service(artifact, delta_max_pending=100, delta_max_age_s=60.0) as service:
            node = 7
            new_row = service.graph.features[node] + 2.0
            seq = service.submit_update(features_changed={node: new_row.copy()})
            handle = service.submit([node])
            handle.result(30.0)
            assert handle.delta_seq >= seq
            np.testing.assert_array_equal(service.graph.features[node], new_row)

    def test_drain_expedites_past_the_age_watermark(self, artifact):
        with _service(artifact, delta_max_pending=100, delta_max_age_s=60.0) as service:
            node = 3
            new_row = service.graph.features[node] + 1.0
            seq = service.submit_update(features_changed={node: new_row.copy()})
            service.drain(timeout=10.0)  # must not wait out max_age_s
            assert service.delta_log.applied_seq == seq
            np.testing.assert_array_equal(service.graph.features[node], new_row)

    def test_close_flushes_watermarked_backlog(self, artifact):
        service = _service(artifact, delta_max_pending=100, delta_max_age_s=60.0)
        node = 5
        new_row = service.graph.features[node] + 1.0
        seq = service.submit_update(features_changed={node: new_row.copy()})
        service.close()
        assert service.delta_log.applied_seq == seq


class TestInterleavingProperty:
    """Satellite acceptance: replay a random schedule of deltas and score
    requests and check every response against a from-scratch session that
    applied the same delta prefix."""

    @pytest.mark.parametrize("schedule_seed", [0, 1])
    def test_random_schedule_matches_fresh_session_at_same_prefix(
        self, artifact, schedule_seed
    ):
        rng = np.random.default_rng(100 + schedule_seed)
        service = _service(artifact)
        graph = service.graph
        deltas = []      # the submitted deltas, in sequence order
        responses = []   # (nodes, delta_seq, probabilities)
        for _ in range(14):
            action = rng.random()
            if action < 0.3:  # add 1-2 random edges to a random relation
                relation = graph.relation_names[int(rng.integers(len(graph.relation_names)))]
                count = int(rng.integers(1, 3))
                src = rng.integers(0, graph.num_nodes, count)
                dst = rng.integers(0, graph.num_nodes, count)
                delta = {"edges_added": {relation: (src.copy(), dst.copy())}}
                service.submit_update(**delta)
                deltas.append(delta)
            elif action < 0.5:  # rewrite a random node's features
                node = int(rng.integers(graph.num_nodes))
                row = rng.normal(size=graph.num_features)
                delta = {"features_changed": {node: row.copy()}}
                service.submit_update(**delta)
                deltas.append(delta)
            else:  # score a random node subset
                nodes = np.unique(rng.integers(0, graph.num_nodes, int(rng.integers(1, 5))))
                handle = service.submit(nodes)
                rows = handle.result(30.0)
                responses.append((nodes, handle.delta_seq, rows))
        service.drain()
        service.close()
        assert responses, "schedule produced no score requests"

        for nodes, delta_seq, rows in responses:
            detector, fresh_graph = _fresh(artifact)
            with api.DetectionSession(detector, fresh_graph) as session:
                for delta in deltas[: delta_seq + 1]:
                    session.apply_delta(**delta)
                np.testing.assert_array_equal(session.score_nodes(nodes), rows)


class TestLifecycle:
    def test_close_is_idempotent_and_releases_everything(self, artifact):
        detector, graph = _fresh(artifact)
        service = DetectionService(detector, graph)  # default: release pool
        service.score([0, 1])
        biased.shared_process_pool(1)  # ensure a pool exists to release
        thread = service._thread
        service.close()
        service.close()
        assert not thread.is_alive()
        assert biased._shared_pool is None
        assert not biased._shared_payload_registry
        with pytest.raises(ServiceClosed):
            service.score([0])
        with pytest.raises(ServiceClosed):
            service.submit_update(features_changed={0: graph.features[0]})
        with pytest.raises(RuntimeError, match="closed"):
            service.session.score_nodes([0])

    def test_close_tears_down_even_when_drain_fails(self, artifact):
        service = _service(artifact)
        service.score([0])
        # Simulate a delta-application failure recorded by the dispatcher:
        # close() re-raises it from drain(), but teardown must still run.
        service._delta_error = RuntimeError("injected delta failure")
        with pytest.raises(RuntimeError, match="injected"):
            service.close()
        assert not service._thread.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            service.session.score_nodes([0])
        service.close()  # still idempotent afterwards

    def test_context_manager(self, artifact):
        with _service(artifact) as service:
            assert service.score([2]).shape == (1, 2)
        assert service.closed
        assert not service._thread.is_alive()

    def test_close_without_start_rejects_backlog(self, artifact):
        service = _service(artifact, autostart=False)
        handle = service.submit([1])
        service.close()
        with pytest.raises(Exception):
            handle.result(1.0)

    def test_from_artifact_with_graph(self, artifact):
        graph = _make_graph()
        with DetectionService.from_artifact(
            artifact, graph=graph, release_pool_on_close=False
        ) as service:
            assert service.score([4]).shape == (1, 2)

    def test_from_artifact_without_provenance_raises(self, artifact):
        with pytest.raises(ValueError, match="provenance"):
            DetectionService.from_artifact(artifact)

    def test_snapshot_schema(self, artifact):
        with _service(artifact, record_waves=True) as service:
            service.score([0, 1, 2])
            service.submit_update(
                features_changed={0: service.graph.features[0] + 0.5}
            )
            service.drain()
            snapshot = service.snapshot()
        for key in (
            "requests", "nodes_scored", "waves", "wave_nodes", "batch_occupancy",
            "requests_per_wave", "deltas_enqueued", "deltas_applied",
            "subgraphs_invalidated", "errors", "request_latency", "queue_wait",
            "model_time", "replay_hits", "replay_misses",
            "detector", "graph", "uptime_s", "pending_requests", "pending_deltas",
            "applied_delta_seq", "tail_delta_seq", "store_size",
            "store_cache_hits", "store_cache_misses", "subgraphs_built",
            "max_batch_size", "max_wait_ms",
        ):
            assert key in snapshot, key
        assert snapshot["requests"] == 1
        assert snapshot["nodes_scored"] == 3
        assert snapshot["deltas_applied"] == 1
        assert snapshot["request_latency"]["count"] == 1
        # Every executed wave lands one model_time sample and one replay
        # hit-or-miss tally (the first wave of a fresh session is a miss).
        assert snapshot["model_time"]["count"] == snapshot["waves"]
        assert (
            snapshot["replay_hits"] + snapshot["replay_misses"] == snapshot["waves"]
        )
        assert snapshot["replay_misses"] >= 1
        for key in ("p50_s", "p90_s", "p99_s", "mean_s"):
            assert snapshot["model_time"][key] >= 0.0
        import json

        json.dumps(snapshot)  # must stay JSON-serializable for the CLI


class TestDeltaFailure:
    """One rule for a failed delta application, on either path: the service
    is failed, scores and updates raise ``ServiceFailed``, ``health()``
    reports it, ``errors`` counts it once, and ``applied_seq`` never claims
    the delta."""

    @staticmethod
    def _fail(**kwargs):
        raise RuntimeError("injected apply failure")

    def _assert_failed(self, service, seq):
        health = service.health()
        assert health["status"] == "failed" and "injected" in health["error"]
        assert service.delta_log.applied_seq < seq
        with pytest.raises(ServiceFailed, match="injected"):
            service.score([0])
        with pytest.raises(ServiceFailed, match="injected"):
            service.submit_update(features_changed={0: service.graph.features[0]})
        assert service.snapshot()["errors"] == 1
        with pytest.raises(ServiceFailed):
            service.close()
        assert not service._thread.is_alive()

    def test_idle_path_failure_fails_the_service(self, artifact, monkeypatch):
        service = _service(artifact)
        monkeypatch.setattr(service.session, "apply_delta", self._fail)
        # No score traffic: only the dispatcher's idle loop applies it.
        seq = service.submit_update(features_changed={0: service.graph.features[0] + 1.0})
        deadline = time.monotonic() + 30.0
        while service.health()["status"] != "failed" and time.monotonic() < deadline:
            time.sleep(0.01)
        self._assert_failed(service, seq)

    def test_pre_wave_failure_rejects_the_wave_and_fails_the_service(
        self, artifact, monkeypatch
    ):
        service = _service(artifact, autostart=False)
        monkeypatch.setattr(service.session, "apply_delta", self._fail)
        seq = service.submit_update(features_changed={0: service.graph.features[0] + 1.0})
        handle = service.submit([0])  # queued first: the delta applies pre-wave
        service.start()
        with pytest.raises(ServiceFailed, match="injected"):
            handle.result(30.0)
        self._assert_failed(service, seq)
