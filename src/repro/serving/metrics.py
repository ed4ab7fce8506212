"""Serving telemetry: latency histograms and monotonic counters.

Everything here is deliberately boring — fixed-bucket histograms and a
lock-guarded counter map — because it sits on the request hot path of
:class:`repro.serving.DetectionService`.  Recording a sample is a bucket
index plus two adds; reading a snapshot never blocks recording for longer
than a dict copy.

The histogram buckets are geometric (factor ~1.26, 60 buckets from 10 µs to
~60 s), so p50/p99 estimates carry at most ~26% bucket-resolution error
across the whole range — plenty for dashboard-style serving telemetry, with
a fixed memory footprint regardless of traffic.
"""

from __future__ import annotations

import math

from repro.analysis.sanitizer import tracked_rlock
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import MetricFamily

#: Geometric bucket upper bounds in seconds: 60 buckets spanning 1e-5 .. ~60.
_BUCKET_BOUNDS = np.geomspace(1e-5, 60.0, 60)


def bucket_bounds() -> List[float]:
    """The shared geometric bucket upper bounds (seconds), ascending."""
    return [float(bound) for bound in _BUCKET_BOUNDS]


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates.

    Thread-safe: :meth:`observe` and :meth:`snapshot` may be called from any
    thread.  Percentiles are estimated as the upper bound of the bucket the
    requested quantile falls into (an overestimate of at most one bucket
    width).
    """

    def __init__(self) -> None:
        self._lock = tracked_rlock("LatencyHistogram._lock")
        self._counts = np.zeros(_BUCKET_BOUNDS.size + 1, dtype=np.int64)
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        # NaN would silently poison _min/_sum (and land in an arbitrary
        # bucket); negative durations mean a clock-domain bug upstream.
        if seconds != seconds or seconds < 0.0:
            raise ValueError(
                f"latency sample must be non-negative and not NaN, got {seconds!r}"
            )
        index = int(np.searchsorted(_BUCKET_BOUNDS, seconds))
        with self._lock:
            self._counts[index] += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return int(self._counts.sum())

    @property
    def sum_s(self) -> float:
        """Sum of every observed sample (the Prometheus ``_sum`` value)."""
        with self._lock:
            return float(self._sum)

    @property
    def max_s(self) -> float:
        with self._lock:
            return float(self._max)

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at ``+Inf``.

        The accessor the Prometheus exporter uses instead of reaching into
        ``_counts``; the final pair's count is the total observation count.
        """
        with self._lock:
            counts = self._counts.copy()
        cumulative = np.cumsum(counts)
        pairs = [
            (float(bound), int(cumulative[index]))
            for index, bound in enumerate(_BUCKET_BOUNDS)
        ]
        pairs.append((math.inf, int(cumulative[-1])))
        return pairs

    def percentile(self, quantile: float) -> float:
        """Upper-bound estimate of the ``quantile`` (in [0, 1]) latency."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = self._counts.copy()
            maximum = self._max
        total = int(counts.sum())
        if total == 0:
            return 0.0
        rank = quantile * total
        cumulative = np.cumsum(counts)
        index = int(np.searchsorted(cumulative, rank))
        if index >= _BUCKET_BOUNDS.size:
            return maximum
        return float(min(_BUCKET_BOUNDS[index], maximum))

    @property
    def min_s(self) -> float:
        """Smallest observed sample (``inf`` before the first one)."""
        with self._lock:
            return float(self._min)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            counts = self._counts.copy()
            total = int(counts.sum())
            observed_sum = self._sum
            minimum = self._min
            maximum = self._max
        if total == 0:
            return {"count": 0, "mean_s": 0.0, "min_s": 0.0, "max_s": 0.0,
                    "p50_s": 0.0, "p90_s": 0.0, "p99_s": 0.0}
        return {
            "count": total,
            "mean_s": observed_sum / total,
            "min_s": minimum,
            "max_s": maximum,
            "p50_s": self.percentile(0.50),
            "p90_s": self.percentile(0.90),
            "p99_s": self.percentile(0.99),
        }


class ServingMetrics:
    """The counter/histogram bundle one :class:`DetectionService` owns.

    Counters (monotonic):

    ``requests``            score requests accepted,
    ``nodes_scored``        node rows returned across all responses,
    ``waves``               micro-batches executed,
    ``wave_nodes``          node rows that went through a collated wave,
    ``deltas_enqueued``     graph deltas accepted by the ingester,
    ``deltas_applied``      graph deltas applied through ``update_graph``,
    ``subgraphs_invalidated`` stored subgraphs dropped by applied deltas,
    ``errors``              waves that raised (the error is re-raised to
                            every caller of the wave) and the delta
                            application that failed the service,
    ``replay_hits``         wave model forwards served by a compiled replay
                            schedule (``repro.tensor.replay``),
    ``replay_misses``       wave model forwards that ran eagerly and traced
                            a new schedule (cold shape bucket).

    Histograms: ``request_latency`` (submit → result available),
    ``queue_wait`` (submit → wave execution start), and ``model_time``
    (per-wave seconds inside the model forward — replayed or eager — the
    quantity the capture-and-replay engine exists to shrink).
    """

    def __init__(self) -> None:
        self._lock = tracked_rlock("ServingMetrics._lock")
        self._counters: Dict[str, int] = {
            "requests": 0,
            "nodes_scored": 0,
            "waves": 0,
            "wave_nodes": 0,
            "deltas_enqueued": 0,
            "deltas_applied": 0,
            "subgraphs_invalidated": 0,
            "errors": 0,
            "replay_hits": 0,
            "replay_misses": 0,
        }
        self.request_latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.model_time = LatencyHistogram()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += int(amount)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """One JSON-serializable dict of everything (CLI / benchmark food).

        ``batch_occupancy`` is the average number of node rows per executed
        wave — the quantity micro-batching exists to raise (N callers asking
        for 1 node each should cost ~1 wave, occupancy ~N, not N waves of
        occupancy 1).  ``requests_per_wave`` is the companion request-level
        view.
        """
        counters = self.counters()
        waves = counters["waves"]
        result: Dict[str, object] = {
            **counters,
            "batch_occupancy": counters["wave_nodes"] / waves if waves else 0.0,
            "requests_per_wave": counters["requests"] / waves if waves else 0.0,
            "request_latency": self.request_latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "model_time": self.model_time.snapshot(),
        }
        if extra:
            result.update(extra)
        return result

    def metric_families(
        self, labels: Optional[Dict[str, str]] = None
    ) -> List[MetricFamily]:
        """This bundle as Prometheus families for a registry collector.

        Counter names follow the ``repro_serving_<name>_total`` convention;
        histograms expose the shared geometric buckets as
        ``repro_serving_<name>_seconds``.  ``labels`` (e.g. ``{"service":
        "mgtab"}``) are stamped on every sample so one registry can expose
        many services side by side.
        """
        labels = dict(labels or {})
        families = [
            MetricFamily(
                f"repro_serving_{name}_total",
                "counter",
                _COUNTER_HELP.get(name, name.replace("_", " ")),
                [(dict(labels), float(value))],
            )
            for name, value in self.counters().items()
        ]
        for name, help_text in _HISTOGRAM_HELP.items():
            histogram = getattr(self, name)
            families.append(
                MetricFamily(
                    f"repro_serving_{name}_seconds",
                    "histogram",
                    help_text,
                    [(dict(labels), histogram.buckets(), histogram.sum_s)],
                )
            )
        return families


_COUNTER_HELP: Dict[str, str] = {
    "requests": "Score requests accepted.",
    "nodes_scored": "Node rows returned across all responses.",
    "waves": "Micro-batched waves executed.",
    "wave_nodes": "Node rows that went through a collated wave.",
    "deltas_enqueued": "Graph deltas accepted by the ingester.",
    "deltas_applied": "Graph deltas applied through update_graph.",
    "subgraphs_invalidated": "Stored subgraphs dropped by applied deltas.",
    "errors": "Waves or delta applications that raised.",
    "replay_hits": "Wave model forwards served by a compiled replay schedule.",
    "replay_misses": "Wave model forwards that ran eagerly and traced a schedule.",
}

_HISTOGRAM_HELP: Dict[str, str] = {
    "request_latency": "Submit-to-result latency per request (seconds).",
    "queue_wait": "Submit-to-wave-start wait per request (seconds).",
    "model_time": "Model forward time per wave (seconds).",
}

