"""Observability tests: trace sampling/retention/span trees, the metrics
registry with Prometheus exposition (render + strict validation), histogram
bucket accessors and bucket merging, the trace CLI, and end-to-end
propagation of one request id through the HTTP front door."""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api, cli
from repro.core import BSG4Bot, BSG4BotConfig
from repro.obs import (
    ROOT_SPAN_ID,
    MetricFamily,
    MetricsRegistry,
    Tracer,
    activate_trace,
    current_trace,
    merge_buckets,
    mint_request_id,
    phase_span,
    read_traces,
    render_prometheus,
    render_waterfall,
    span,
    summarize_traces,
    validate_exposition,
)
from repro.obs.trace import add_ambient_span
from repro.serving.cluster import ShardRouter
from repro.serving.metrics import LatencyHistogram, ServingMetrics
from tests.conftest import make_separable_graph
from tests.test_cluster_router import _ServerThread

GRAPH_SEED = 33
GRAPH_NODES = 60


# ----------------------------------------------------------------------
# Latency histogram accessors
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_buckets_are_cumulative_and_end_at_inf(self):
        histogram = LatencyHistogram()
        for seconds in (0.0001, 0.001, 0.001, 0.5):
            histogram.observe(seconds)
        buckets = histogram.buckets()
        bounds = [bound for bound, _ in buckets]
        counts = [count for _, count in buckets]
        assert math.isinf(bounds[-1])
        assert bounds[:-1] == sorted(bounds[:-1])
        assert counts == sorted(counts)  # cumulative: non-decreasing
        assert counts[-1] == histogram.count == 4

    def test_observe_rejects_nan_and_negative(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.observe(float("nan"))
        with pytest.raises(ValueError):
            histogram.observe(-0.001)
        assert histogram.count == 0  # rejected samples leave no trace


# ----------------------------------------------------------------------
# Bucket merging (duplicate histogram samples merge at scrape)
# ----------------------------------------------------------------------
class TestAggregation:
    def test_merge_buckets_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            merge_buckets([[(0.1, 1), (math.inf, 1)], [(0.2, 1), (math.inf, 1)]])


# ----------------------------------------------------------------------
# Tracer: sampling, retention, ring buffer, dump
# ----------------------------------------------------------------------
class TestTracer:
    def test_sampling_is_deterministic_under_fixed_seed(self):
        ids = [f"req-{index:04d}" for index in range(200)]
        first = [Tracer(0.5, seed=7).sampled(request_id) for request_id in ids]
        second = [Tracer(0.5, seed=7).sampled(request_id) for request_id in ids]
        assert first == second  # same seed, same decisions — across instances
        assert any(first) and not all(first)  # rate 0.5 keeps a strict subset
        other_seed = [Tracer(0.5, seed=8).sampled(request_id) for request_id in ids]
        assert other_seed != first

    def test_sample_rate_bounds(self):
        assert all(Tracer(1.0).sampled(mint_request_id()) for _ in range(20))
        tracer = Tracer(0.0)
        assert not tracer.enabled
        assert tracer.start_trace("noop") is None
        with pytest.raises(ValueError):
            Tracer(1.5)

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(1.0, capacity=2)
        for name in ("first", "second", "third"):
            tracer.finish_trace(tracer.start_trace(name))
        stats = tracer.stats()
        assert stats["started"] == 3 and stats["kept"] == 3
        assert stats["evicted"] == 1 and stats["buffered"] == 2
        names = [trace["name"] for trace in tracer.recent()]
        assert names == ["third", "second"]  # most recent first; oldest gone
        assert [trace["name"] for trace in tracer.recent(limit=1)] == ["third"]

    def test_slow_trace_dumped_as_jsonl(self, tmp_path):
        dump = tmp_path / "slow.jsonl"
        # sample_rate=0 with a zero slow threshold: kept (and dumped)
        # purely via the always-keep-slow policy.
        tracer = Tracer(0.0, slow_threshold_s=0.0, dump_path=str(dump))
        assert tracer.enabled
        trace = tracer.start_trace("slow-req", request_id="deadbeef00000000")
        assert trace is not None and not trace.sampled
        trace.add_span("work", trace.started_at, 0.001, step="one")
        assert tracer.finish_trace(trace)
        fast_tracer = Tracer(0.5, seed=0, dump_path=str(dump))
        unsampled = [
            request_id
            for request_id in (f"probe-{index}" for index in range(64))
            if not fast_tracer.sampled(request_id)
        ]
        # Unsampled + not slow: dropped, and never written to the dump.
        assert not fast_tracer.finish_trace(
            fast_tracer.start_trace("fast-req", request_id=unsampled[0])
        )
        loaded = read_traces(str(dump))
        assert len(loaded) == 1
        assert loaded[0]["request_id"] == "deadbeef00000000"
        assert loaded[0]["slow"] is True
        assert [span_dict["name"] for span_dict in loaded[0]["spans"]] == [
            "slow-req",
            "work",
        ]
        assert loaded[0]["spans"][1]["attributes"] == {"step": "one"}

    def test_from_env_disabled_unless_armed(self):
        assert Tracer.from_env({}) is None
        assert Tracer.from_env({"REPRO_TRACE_SAMPLE": "0"}) is None
        armed = Tracer.from_env(
            {"REPRO_TRACE_SAMPLE": "1.0", "REPRO_TRACE_BUFFER": "17"}
        )
        assert armed is not None and armed.enabled and armed.capacity == 17
        slow_only = Tracer.from_env({"REPRO_TRACE_SLOW_MS": "250"})
        assert slow_only is not None
        assert slow_only.slow_threshold_s == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Ambient (contextvar) spans — the training/ingest propagation style
# ----------------------------------------------------------------------
class TestAmbientSpans:
    def test_nested_spans_record_parent_links(self):
        tracer = Tracer(1.0)
        trace = tracer.start_trace("fit")
        with activate_trace(trace):
            assert current_trace() is trace
            with span("outer", phase="pretrain") as outer_id:
                with span("inner"):
                    pass
                add_ambient_span("late", trace.started_at, 0.001, cache="hit")
        assert current_trace() is None
        tracer.finish_trace(trace)
        spans = {item["name"]: item for item in trace.to_dict()["spans"]}
        assert spans["outer"]["parent_id"] == ROOT_SPAN_ID
        assert spans["inner"]["parent_id"] == outer_id
        assert spans["late"]["parent_id"] == outer_id  # ambient parent
        assert spans["outer"]["attributes"] == {"phase": "pretrain"}
        assert spans["late"]["attributes"] == {"cache": "hit"}

    def test_span_helpers_are_noops_without_a_trace(self):
        with span("orphan") as span_id:
            assert span_id is None
        add_ambient_span("orphan", 0.0, 0.0)  # must not raise
        with activate_trace(None) as trace:
            assert trace is None

    def test_phase_span_accumulates_phase_times(self):
        phase_times = {}
        with phase_span("construction", phase_times):
            pass
        first = phase_times["construction"]
        with phase_span("construction", phase_times):
            pass
        assert phase_times["construction"] > first  # += — not overwrite
        tracer = Tracer(1.0)
        trace = tracer.start_trace("fit")
        with activate_trace(trace):
            with phase_span("training", phase_times, epochs=3):
                pass
        names = [item["name"] for item in trace.to_dict()["spans"]]
        assert "training" in names and "training" in phase_times


# ----------------------------------------------------------------------
# Metrics registry + Prometheus exposition
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_owned_counter_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help")
        assert registry.counter("repro_test_total") is counter
        counter.inc()
        counter.inc(2.0)
        assert counter.value == pytest.approx(3.0)
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        with pytest.raises(ValueError):
            registry.gauge("repro_test_total")

    def test_callback_gauge_reads_live_value(self):
        registry = MetricsRegistry()
        values = {"workers": 4.0}
        registry.gauge("repro_test_workers", fn=lambda: values["workers"])
        assert registry.collect()[0].samples == [({}, 4.0)]
        values["workers"] = 7.0
        assert registry.collect()[0].samples == [({}, 7.0)]

    def test_duplicate_counter_samples_merge_at_scrape(self):
        registry = MetricsRegistry()
        family = lambda: [  # noqa: E731 - tiny test collector
            MetricFamily("repro_dup_total", "counter", "d", [({}, 2.0)])
        ]
        registry.register("a", family)
        registry.register("b", family)
        families = registry.collect()
        assert len(families) == 1
        assert families[0].samples == [({}, 4.0)]
        validate_exposition(registry.prometheus_text())

    def test_prometheus_text_passes_strict_validation(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_requests_total", "Requests.").inc(5)
        registry.gauge("repro_test_depth", "Depth.").set(2.5)
        metrics = ServingMetrics()
        metrics.increment("requests")
        metrics.request_latency.observe(0.003)
        metrics.queue_wait.observe(0.001)
        metrics.model_time.observe(0.002)
        registry.register("service", lambda: metrics.metric_families({"service": "g"}))
        text = registry.prometheus_text()
        kinds = validate_exposition(text)
        assert kinds["repro_test_requests_total"] == "counter"
        assert kinds["repro_test_depth"] == "gauge"
        assert kinds["repro_serving_request_latency_seconds"] == "histogram"
        assert 'service="g"' in text
        assert render_prometheus(registry.collect()) == text

    @pytest.mark.parametrize(
        "bad_text",
        [
            "repro_orphan_total 1\n",  # sample with no preceding # TYPE
            "# TYPE repro_h histogram\n"  # buckets not cumulative
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 1\nrepro_h_count 3\n",
            "# TYPE repro_h histogram\n"  # _count disagrees with +Inf
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 1\nrepro_h_count 4\n",
            "# TYPE repro_h histogram\n"  # missing the +Inf bucket
            'repro_h_bucket{le="0.1"} 1\n'
            "repro_h_sum 1\nrepro_h_count 1\n",
            "# TYPE repro_c counter\nrepro_c 1\nrepro_c 2\n",  # duplicate sample
            "# TYPE repro_g gauge\nrepro_g{le=} 1\n",  # malformed labels
        ],
    )
    def test_validation_rejects_malformed_expositions(self, bad_text):
        with pytest.raises(ValueError):
            validate_exposition(bad_text)


# ----------------------------------------------------------------------
# Trace dump rendering + CLI
# ----------------------------------------------------------------------
class TestTraceRendering:
    def _dumped_trace(self, tmp_path):
        dump = tmp_path / "traces.jsonl"
        tracer = Tracer(1.0, slow_threshold_s=0.0, dump_path=str(dump))
        trace = tracer.start_trace("score", request_id="cafe000000000000")
        parent = trace.add_span("wave", trace.started_at, 0.004)
        trace.add_span(
            "model_forward", trace.started_at, 0.002, parent_id=parent, mode="replay"
        )
        tracer.finish_trace(trace)
        return dump

    def test_waterfall_shows_hierarchy_and_attributes(self, tmp_path):
        dump = self._dumped_trace(tmp_path)
        rendered = render_waterfall(read_traces(str(dump))[0])
        assert "score" in rendered and "model_forward" in rendered
        assert "mode=replay" in rendered
        summary = summarize_traces(read_traces(str(dump)))
        assert "cafe000000000000" in summary  # the trace is accounted for

    def test_cli_renders_dump(self, tmp_path, capsys):
        dump = self._dumped_trace(tmp_path)
        assert cli.main(["trace", str(dump)]) == 0
        output = capsys.readouterr().out
        assert "score" in output and "model_forward" in output

    def test_cli_reports_empty_dump(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["trace", str(empty)]) == 1
        assert "no traces" in capsys.readouterr().out.lower()


# ----------------------------------------------------------------------
# End-to-end: one HTTP request, one trace
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One fitted detector persisted once (same recipe as the cluster tests)."""
    graph = make_separable_graph(num_nodes=GRAPH_NODES, seed=GRAPH_SEED)
    config = BSG4BotConfig(
        pretrain_epochs=10, hidden_dim=8, pretrain_hidden_dim=8,
        subgraph_k=3, max_epochs=3, min_epochs=1, patience=2, batch_size=16,
    )
    detector = BSG4Bot(config)
    detector.fit(graph)
    return api.save_detector(detector, tmp_path_factory.mktemp("obs") / "artifact")


def _raw_request(port, path, body=None, headers=None, method=None, timeout=30.0):
    """urllib round-trip that also returns the response headers and raw body."""
    url = f"http://127.0.0.1:{port}{path}"
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _span_index(trace_dict):
    return {item["span_id"]: item for item in trace_dict["spans"]}


def _assert_containment(trace_dict, epsilon=0.005):
    """Every child span must lie inside its parent's [offset, offset+duration]."""
    by_id = _span_index(trace_dict)
    for item in trace_dict["spans"]:
        parent_id = item["parent_id"]
        if parent_id is None:
            continue
        parent = by_id[parent_id]
        assert item["offset_s"] >= parent["offset_s"] - epsilon, item["name"]
        assert (
            item["offset_s"] + item["duration_s"]
            <= parent["offset_s"] + parent["duration_s"] + epsilon
        ), item["name"]


class TestClusterTracePropagation:
    def test_one_request_yields_one_trace_covering_every_shard(self, artifact):
        tracer = Tracer(1.0)
        registry = MetricsRegistry()
        router = ShardRouter.from_artifact(
            artifact,
            graph=make_separable_graph(num_nodes=GRAPH_NODES, seed=GRAPH_SEED),
            release_pool_on_close=False,
            tracer=tracer, registry=registry,
        )
        request_id = "feedc0de00000001"
        try:
            with _ServerThread(router) as server:
                status, headers, body = _raw_request(
                    server.port, "/score", body={"nodes": [0, 17, 42, 5]},
                    headers={"X-Repro-Request-Id": request_id},
                )
                assert status == 200
                assert headers.get("X-Repro-Request-Id") == request_id
                answer = json.loads(body)
                assert answer["request_id"] == request_id

                status, _headers, body = _raw_request(server.port, "/traces")
                assert status == 200
                listing = json.loads(body)
                assert listing["enabled"] is True
                assert listing["stats"]["kept"] == 1
                traces = [
                    trace for trace in listing["traces"]
                    if trace["request_id"] == request_id
                ]
                assert len(traces) == 1  # ONE trace covers the whole request
                trace = traces[0]

                names = [item["name"] for item in trace["spans"]]
                assert names[0] == "http_score"
                for required in ("admission", "queue_wait", "wave",
                                 "wave_collate", "model_forward"):
                    assert required in names, required
                _assert_containment(trace)
                # queue_wait/wave spans hang off the request's root span.
                for item in trace["spans"]:
                    if item["name"] in ("queue_wait", "wave"):
                        assert item["parent_id"] == ROOT_SPAN_ID

                # /traces honours ?limit= without erroring on junk.
                status, _headers, body = _raw_request(
                    server.port, "/traces?limit=0"
                )
                assert status == 200 and json.loads(body)["traces"] == []

                # Prometheus exposition via content negotiation, strictly parsed.
                status, headers, body = _raw_request(
                    server.port, "/metrics", headers={"Accept": "text/plain"},
                )
                assert status == 200
                assert headers.get("Content-Type", "").startswith("text/plain")
                text = body.decode("utf-8")
                kinds = validate_exposition(text)
                assert kinds["repro_serving_requests_total"] == "counter"
                assert kinds["repro_serving_request_latency_seconds"] == "histogram"
                assert 'service="' in text

                # JSON /metrics carries the service's totals.
                status, _headers, body = _raw_request(server.port, "/metrics")
                snapshot = json.loads(body)
                totals = snapshot["cluster_totals"]
                assert totals["requests"] >= 1
                assert totals["request_latency"]["count"] >= 1

            totals = router.snapshot()["cluster_totals"]
            service_count = router.service.metrics.request_latency.count
            assert totals["request_latency"]["count"] == service_count >= 1
        finally:
            router.close()

    def test_router_minted_trace_finishes_at_fan_in(self, artifact):
        tracer = Tracer(1.0)
        router = ShardRouter.from_artifact(
            artifact,
            graph=make_separable_graph(num_nodes=GRAPH_NODES, seed=GRAPH_SEED),
            release_pool_on_close=False,
            tracer=tracer, registry=MetricsRegistry(),
        )
        try:
            nodes = np.array([0, 40], dtype=np.int64)
            probabilities = router.submit(nodes).result()
            assert probabilities.shape == (nodes.size, 2)
        finally:
            router.close()
        # No HTTP front door: the service owned the trace and finished it
        # exactly once when the request resolved.
        assert tracer.stats()["kept"] == 1
        trace = tracer.recent()[0]
        names = [item["name"] for item in trace["spans"]]
        assert names[0] == "score"
        assert "queue_wait" in names and "wave" in names
        _assert_containment(trace)
