"""``repro.serving`` — the online scoring service layer.

Built on :mod:`repro.api`: a :class:`DetectionService` accepts concurrent
score requests and streaming graph updates, coalesces the requests into
collated micro-batches (:class:`MicroBatcher`), sequences the updates
through an ordered :class:`DeltaLog` with read-your-writes guarantees, and
exposes serving telemetry (:class:`ServingMetrics`).

.. code-block:: python

    from repro.serving import DetectionService

    with DetectionService(detector, graph) as service:
        probabilities = service.score([17, 42, 108])       # any thread
        service.submit_update(edges_added={"followers": ([17], [42])})
        probabilities = service.score([17])                # sees the edge
        print(service.snapshot()["request_latency"]["p99_s"])
"""

from repro.serving.batcher import BatcherClosed, MicroBatcher, ScoreRequest
from repro.serving.bench import (
    format_result,
    measure_tracing_overhead,
    run_serving_benchmark,
)
from repro.serving.cluster import ClusterHTTPServer, ClusterRequest, ShardRouter
from repro.serving.ingest import DeltaLog, GraphDelta
from repro.serving.metrics import LatencyHistogram, ServingMetrics
from repro.serving.service import DetectionService, ServiceClosed, ServiceFailed

__all__ = [
    "BatcherClosed",
    "ClusterHTTPServer",
    "ClusterRequest",
    "DeltaLog",
    "DetectionService",
    "GraphDelta",
    "LatencyHistogram",
    "MicroBatcher",
    "ScoreRequest",
    "ServiceClosed",
    "ServiceFailed",
    "ServingMetrics",
    "ShardRouter",
    "format_result",
    "measure_tracing_overhead",
    "run_serving_benchmark",
]
