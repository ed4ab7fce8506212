"""``DetectionService``: the online scoring facade over ``repro.api``.

One service binds a fitted detector and a live graph behind three concurrent
surfaces:

* :meth:`DetectionService.score` / :meth:`DetectionService.submit` — score
  requests from any thread.  Concurrent requests are coalesced by the
  :class:`repro.serving.MicroBatcher` into collated waves, so N callers
  asking for one node each cost ~one pass through the store's batch LRU and
  one model forward instead of N.
* :meth:`DetectionService.submit_update` — streaming graph mutations enter
  the :class:`repro.serving.DeltaLog` (validated, sequenced, coalesced) and
  are applied through ``DetectionSession.apply_delta`` *between* scoring
  waves.  Read-your-writes holds: a score submitted after delta ``k`` is
  served at a log prefix ≥ ``k``.
* :meth:`DetectionService.snapshot` — serving telemetry (latency
  histograms, batch occupancy, cache/build counters) as one JSON-friendly
  dict.

Lifecycle: construct from a live detector or :meth:`from_artifact` (warm
start from a ``repro fit`` artifact directory), optionally
:meth:`warmup`, then :meth:`drain` / :meth:`close` (or use it as a context
manager).  ``close`` stops the dispatcher thread, closes the underlying
session, and releases the shared construction pool and every shared-memory
segment — a closed service leaves nothing running and nothing in
``/dev/shm``.

.. code-block:: python

    from repro.serving import DetectionService

    with DetectionService.from_artifact("artifacts/bsg4bot-mgtab") as service:
        probabilities = service.score([17, 42, 108])
        service.submit_update(edges_added={"followers": ([17], [42])})
        probabilities = service.score([17])      # sees the new edge
        print(service.snapshot()["batch_occupancy"])
"""

from __future__ import annotations

import threading

from repro.analysis.sanitizer import tracked_condition
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api import DetectionSession, load_detector, read_manifest
from repro.core.base import BotDetector
from repro.graph import HeteroGraph
from repro.obs.registry import MetricsRegistry, global_registry
from repro.obs.trace import ROOT_SPAN_ID, Trace, Tracer
from repro.serving.batcher import MicroBatcher, ScoreRequest
from repro.serving.ingest import DeltaLog
from repro.serving.metrics import ServingMetrics


class ServiceClosed(RuntimeError):
    """Raised when submitting work to a closed :class:`DetectionService`."""


class ServiceFailed(RuntimeError):
    """Raised by a :class:`DetectionService` whose delta application failed.

    A failed service scores and applies nothing more: its graph no longer
    matches the delta log, so every later answer would be stale.
    """


class DetectionService:
    """Online scoring service: micro-batched scoring + ordered updates.

    A single daemon dispatcher thread owns the underlying
    :class:`repro.api.DetectionSession`: it pulls coalesced waves from the
    batcher, applies every pending delta before each wave, executes one
    ``score_nodes`` call per wave, and scatters result rows back to the
    per-request handles.  Callers only touch thread-safe queues.

    ``record_waves=True`` keeps a log of ``(wave_nodes, probabilities,
    delta_seq)`` tuples — the serving bit-identity contract is that each
    recorded wave replays exactly through a serial ``score_nodes`` call at
    the same graph state, which ``benchmarks/bench_serving.py`` asserts.
    """

    def __init__(
        self,
        detector: BotDetector,
        graph: HeteroGraph,
        *,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        adaptive_wait: bool = False,
        delta_max_pending: Optional[int] = None,
        delta_max_age_s: Optional[float] = None,
        release_pool_on_close: bool = True,
        record_waves: bool = False,
        autostart: bool = True,
        use_replay: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        # ``use_replay`` passes through to the session's capture-and-replay
        # inference engine (None = the REPRO_REPLAY environment default).
        # ``delta_max_pending`` / ``delta_max_age_s`` set the delta log's
        # application watermark (None/None = apply eagerly when idle);
        # ``adaptive_wait`` arms the batcher's per-wave linger adaptation.
        # ``tracer`` arms request tracing (None consults REPRO_TRACE_*);
        # ``registry`` receives this service's metrics (None: the global one).
        self.session = DetectionSession(detector, graph, use_replay=use_replay)
        self.tracer = tracer if tracer is not None else Tracer.from_env()
        self.detector = detector
        self.graph = graph
        self.delta_log = DeltaLog(
            graph, max_pending=delta_max_pending, max_age_s=delta_max_age_s
        )
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            adaptive_wait=adaptive_wait,
        )
        self.metrics = ServingMetrics()
        self.wave_log: Optional[List[Tuple[np.ndarray, np.ndarray, int]]] = (
            [] if record_waves else None
        )
        self._release_pool_on_close = release_pool_on_close
        self._closed = False
        self._stop = threading.Event()
        self._idle = tracked_condition("DetectionService._idle")
        self._in_flight = 0  # guarded-by: _idle — waves currently executing
        # Request ledger (guarded by _idle): drain() waits for served ==
        # accepted, which also covers the window where a wave has been
        # popped from the batcher queue but not yet marked in-flight.
        self._accepted = 0  # guarded-by: _idle
        self._served = 0  # guarded-by: _idle
        # The exception a delta application raised (should be impossible —
        # deltas are validated at append).  Once set the service is failed:
        # it scores and applies nothing more (see ServiceFailed).
        self._delta_error: Optional[BaseException] = None
        self._started_at = time.monotonic()
        # Pull-model exposition: the registry reads this service's metrics
        # at scrape time; nothing extra happens on the hot path.
        self.registry = registry if registry is not None else global_registry()
        self._registry_key = f"service:{graph.name}:{id(self):x}"
        self.registry.register(
            self._registry_key,
            lambda: self.metrics.metric_families({"service": graph.name}),
        )
        self._thread = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-serving-{graph.name}",
            daemon=True,
        )
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls,
        path,
        graph: Optional[HeteroGraph] = None,
        **kwargs,
    ) -> "DetectionService":
        """Warm-start a service from a ``repro fit`` artifact directory.

        Without ``graph``, the artifact's recorded dataset provenance is
        replayed through :func:`repro.datasets.load_benchmark` (exactly what
        ``repro score`` does); the loaded subgraph store then serves its
        first requests without rebuilding anything.
        """
        if graph is None:
            manifest = read_manifest(path)
            dataset = manifest.get("dataset")
            if not dataset:
                raise ValueError(
                    "artifact has no dataset provenance; pass the serving "
                    "graph explicitly: DetectionService.from_artifact(path, graph=...)"
                )
            from repro.datasets import resolve_dataset_graph

            graph = resolve_dataset_graph(dataset)
        detector = load_detector(path, graph=graph)
        return cls(detector, graph, **kwargs)

    def start(self) -> None:
        """Start the dispatcher thread (no-op when already running)."""
        if self._closed:
            raise ServiceClosed("service is closed")
        if not self._thread.is_alive() and not self._stop.is_set():
            try:
                self._thread.start()
            except RuntimeError:
                pass  # raced a concurrent start(); the thread is running

    def warmup(self, nodes: Optional[Sequence[int]] = None) -> float:
        """Prime the serving caches; returns the elapsed seconds.

        Scores one batch synchronously through the session (bypassing the
        batcher), which builds the store's collation pack, fills the batch
        LRU with the warmed membership, and pays the first model forward —
        so the first real request doesn't.  Defaults to the first
        ``max_batch_size`` stored centers (an artifact-loaded store), else
        the first ``max_batch_size`` graph nodes.
        """
        start = time.perf_counter()
        if nodes is None:
            store = self.session.store
            if store is not None and len(store) > 0:
                nodes = store.nodes()[: self.batcher.max_batch_size]
            else:
                nodes = range(min(self.batcher.max_batch_size, self.graph.num_nodes))
        self.session.score_nodes(nodes)
        # Warmup's model forward must not masquerade as the first wave's
        # model time — drain the session counters into the void.
        self.session.consume_replay_stats()
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def submit(
        self, nodes: Sequence[int], trace: Optional[Trace] = None
    ) -> ScoreRequest:
        """Enqueue a score request; returns a handle to block on.

        The handle's ``result(timeout)`` returns the probability rows in the
        requested node order; ``delta_seq`` on the resolved handle names the
        delta-log prefix the response was served at (read-your-writes: it is
        at least the log tail observed here at submit time).

        ``trace`` attaches this request to a caller-owned trace (the HTTP
        front door's); without one, an armed ``self.tracer`` starts a
        service-scoped trace that the dispatcher finishes when the request
        resolves.

        Node ids are validated here, at submit time — like the delta log,
        the bad producer fails immediately instead of poisoning the innocent
        requests coalesced into the same wave.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        self._raise_if_failed()
        nodes = np.asarray(
            nodes if isinstance(nodes, np.ndarray) else list(nodes)
        ).astype(np.int64).ravel()
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.graph.num_nodes):
            raise ValueError("node id out of range for the service graph")
        trace_owned = False
        if trace is None and self.tracer is not None:
            trace = self.tracer.start_trace(
                "score", attributes={"service": self.graph.name}
            )
            trace_owned = trace is not None
        # Enter the ledger before the queue: a request must never be
        # observable by the dispatcher without being counted as accepted,
        # or drain() could return between the pop and the execution.
        with self._idle:
            self._accepted += 1
        try:
            request = self.batcher.submit(
                nodes,
                barrier_seq=self.delta_log.tail_seq,
                trace=trace,
                trace_owned=trace_owned,
            )
        except BaseException:
            with self._idle:
                self._accepted -= 1
                self._idle.notify_all()
            raise
        self.metrics.increment("requests")
        return request

    def score(self, nodes: Sequence[int], timeout: Optional[float] = 60.0) -> np.ndarray:
        """Bot probabilities for ``nodes`` (blocking convenience wrapper)."""
        nodes = np.asarray(
            nodes if isinstance(nodes, np.ndarray) else list(nodes)
        ).astype(np.int64).ravel()
        if nodes.size == 0:
            return np.zeros((0, 2))
        return self.submit(nodes).result(timeout)

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def submit_update(
        self,
        edges_added: Optional[Mapping[str, Tuple[Iterable[int], Iterable[int]]]] = None,
        features_changed: Optional[Mapping[int, Iterable[float]]] = None,
    ) -> int:
        """Enqueue a validated graph delta; returns its sequence number.

        The delta is applied between scoring waves; any score submitted
        after this call returns is served at a log prefix that includes it.
        Validation failures raise here, immediately, with nothing enqueued.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        self._raise_if_failed()
        seq = self.delta_log.append(
            edges_added=edges_added, features_changed=features_changed
        )
        self.metrics.increment("deltas_enqueued")
        return seq

    def _apply_pending_deltas(self) -> int:
        """Drain and apply the pending delta prefix; returns deltas applied.

        While the dispatcher runs, **only the dispatcher thread** calls this
        (before each wave and from the idle loop) — single-writer discipline
        is what makes a wave's recorded ``delta_seq`` exact: nothing can
        apply a newer delta between the seq read and the wave's
        ``score_nodes`` call.  Other threads call it only when the
        dispatcher is not running (``drain``/``close`` on a stopped or
        never-started service).

        A failed application marks the service failed and counts one
        error; it never raises.  The drained delta is not marked applied,
        and a failed service applies nothing more, so ``applied_seq``
        never claims a delta that did not land.
        """
        # In-flight marker first, pop second: a drain() observer holding the
        # idle lock then either sees the delta still pending or sees this
        # application in flight — never the popped-but-unapplied gap.
        with self._idle:
            if self._delta_error is not None:
                return 0
            self._in_flight += 1
        try:
            delta = self.delta_log.drain()
            if delta is None:
                return 0
            try:
                invalidated = self.session.apply_delta(
                    edges_added=delta.edges_added or None,
                    features_changed=delta.features_changed or None,
                )
            except Exception as error:  # noqa: BLE001 — fails the service
                self.metrics.increment("errors")
                with self._idle:
                    self._delta_error = error
                return 0
            self.delta_log.mark_applied(delta.seq)
            self.metrics.increment("deltas_applied", delta.coalesced)
            self.metrics.increment("subgraphs_invalidated", invalidated)
            return int(delta.coalesced)
        finally:
            with self._idle:
                self._in_flight -= 1
                self._idle.notify_all()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            wave = self.batcher.next_wave(poll_timeout=0.05)
            if not wave:
                if self._stop.is_set() and self.batcher.pending == 0:
                    break
                # Idle: apply deltas that arrived with no score traffic
                # behind them, so pure-update workloads (and drain())
                # converge without waiting for the next wave.  With a
                # watermark configured, idle application defers until the
                # size/age bound (coalescing bursts into one update pass);
                # pre-wave application and drain()'s expedite still force
                # the full prefix.
                if self.delta_log.watermark_due:
                    self._apply_pending_deltas()
                with self._idle:
                    self._idle.notify_all()
                continue
            with self._idle:
                self._in_flight += 1
            try:
                self._execute_wave(wave)
            finally:
                with self._idle:
                    self._in_flight -= 1
                    self._served += len(wave)
                    self._idle.notify_all()

    def _execute_wave(self, wave: List[ScoreRequest]) -> None:
        traced = any(request.trace is not None for request in wave)
        wave_started = time.monotonic()
        delta_s = 0.0
        deltas_applied = 0
        build_s = 0.0
        try:
            # Apply every delta enqueued so far — a superset of every
            # request's barrier prefix, so read-your-writes holds for the
            # whole wave.  Only this thread applies deltas while the
            # dispatcher runs, so ``applied_seq`` is exactly the prefix the
            # wave is scored at.
            deltas_applied = self._apply_pending_deltas()
            self._raise_if_failed()
            delta_s = time.monotonic() - wave_started
            applied_seq = self.delta_log.applied_seq
            nodes = (
                np.concatenate([request.nodes for request in wave])
                if len(wave) > 1
                else wave[0].nodes
            )
            build_before = self._build_seconds() if traced else 0.0
            probabilities = self.session.score_nodes(nodes)
            replay_stats = self.session.consume_replay_stats()
            if traced:
                build_s = max(self._build_seconds() - build_before, 0.0)
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            if not isinstance(error, ServiceFailed):  # counted when it failed
                self.metrics.increment("errors")
            for request in wave:
                request._reject(error)
                self._finish_request_trace(request)
            return
        scored_at = time.monotonic()
        if self.wave_log is not None:
            self.wave_log.append((nodes.copy(), probabilities.copy(), applied_seq))
        offset = 0
        for request in wave:
            rows = probabilities[offset : offset + request.num_nodes]
            offset += request.num_nodes
            request.delta_seq = applied_seq
            request.wave_requests = len(wave)
            request.wave_nodes = int(nodes.size)
            if request.trace is not None:
                self._record_wave_spans(
                    request, wave_started, scored_at, delta_s, deltas_applied,
                    build_s, replay_stats, len(wave), int(nodes.size),
                )
            request._resolve(rows)
            self._finish_request_trace(request)
            self.metrics.increment("nodes_scored", request.num_nodes)
            self.metrics.request_latency.observe(request.latency_s)
            self.metrics.queue_wait.observe(request.queue_wait_s)
        self.metrics.increment("waves")
        self.metrics.increment("wave_nodes", int(nodes.size))
        # model_s is 0.0 for detectors whose subset path has no engine hook
        # (full-graph baselines) — no model_time sample then, rather than a
        # stream of zeros.
        if replay_stats["model_s"] > 0.0:
            self.metrics.model_time.observe(replay_stats["model_s"])
        if replay_stats["replay_hits"]:
            self.metrics.increment("replay_hits", int(replay_stats["replay_hits"]))
        if replay_stats["replay_misses"]:
            self.metrics.increment("replay_misses", int(replay_stats["replay_misses"]))

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _build_seconds(self) -> float:
        """Cumulative inference-time subgraph construction seconds so far."""
        phase_times = getattr(self.detector, "phase_times", None)
        if not phase_times:
            return 0.0
        return float(phase_times.get("inference_construction", 0.0))

    def _record_wave_spans(
        self,
        request: ScoreRequest,
        wave_started: float,
        scored_at: float,
        delta_s: float,
        deltas_applied: int,
        build_s: float,
        replay_stats: Dict[str, float],
        wave_requests: int,
        wave_nodes: int,
    ) -> None:
        """Attach this wave's timing decomposition to the request's trace.

        A wave serves requests from *different* traces, so each trace gets
        its own copy of the shared wave spans: queue wait (request-specific),
        the wave itself, and its children — delta application, subgraph
        build (top-ups), collation (the remainder), and the model forward
        tagged replay/eager.  Model time comes from the session's replay
        stats; build time from the detector's inference-construction phase
        accounting; collate is what's left of the wave after both.
        """
        trace = request.trace
        if request.started_at is not None:
            trace.add_span(
                "queue_wait",
                request.enqueued_at,
                max(request.started_at - request.enqueued_at, 0.0),
                parent_id=ROOT_SPAN_ID,
            )
        wave_span = trace.add_span(
            "wave",
            wave_started,
            max(scored_at - wave_started, 0.0),
            parent_id=ROOT_SPAN_ID,
            wave_requests=wave_requests,
            wave_nodes=wave_nodes,
        )
        cursor = wave_started
        if deltas_applied:
            trace.add_span(
                "delta_apply", cursor, delta_s, parent_id=wave_span,
                deltas=deltas_applied,
            )
        cursor += delta_s
        if build_s > 0.0:
            trace.add_span("subgraph_build", cursor, build_s, parent_id=wave_span)
        model_s = float(replay_stats.get("model_s", 0.0))
        collate_s = max(
            (scored_at - wave_started) - delta_s - build_s - model_s, 0.0
        )
        trace.add_span(
            "wave_collate", cursor + build_s, collate_s, parent_id=wave_span
        )
        if model_s > 0.0:
            hits = int(replay_stats.get("replay_hits", 0))
            misses = int(replay_stats.get("replay_misses", 0))
            if hits and not misses:
                mode = "replay"
            elif hits and misses:
                mode = "mixed"
            else:
                mode = "eager"
            trace.add_span(
                "model_forward", scored_at - model_s, model_s,
                parent_id=wave_span, mode=mode,
            )

    def _finish_request_trace(self, request: ScoreRequest) -> None:
        """Finish a service-owned trace once its request resolved."""
        if request.trace_owned and request.trace is not None:
            tracer = request.trace.tracer
            if tracer is not None:
                tracer.finish_trace(request.trace)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _raise_if_failed(self) -> None:
        error = self._delta_error
        if error is not None:
            raise ServiceFailed(f"delta application failed: {error!r}") from error

    def drain(self, timeout: Optional[float] = 60.0) -> None:
        """Block until every accepted request and delta has been served.

        Pending deltas are applied even when no score traffic follows them
        (by the dispatcher's idle loop — or directly here when the
        dispatcher is not running, where no wave can race the application).
        Raises :class:`TimeoutError` when the backlog outlives ``timeout``,
        and :class:`ServiceFailed` once a delta application failed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # A watermarked log must not make drain wait out max_age_s: force
        # the watermark due so the dispatcher's idle loop applies now.
        self.delta_log.expedite()
        if not self._thread.is_alive():
            self._apply_pending_deltas()
        with self._idle:
            while True:
                self._raise_if_failed()
                if (
                    self.batcher.pending == 0
                    and self._in_flight == 0
                    and self.delta_log.pending == 0
                    and self._served >= self._accepted
                ):
                    return
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"drain timed out with {self.batcher.pending} request(s), "
                        f"{self.delta_log.pending} delta(s) pending"
                    )
                self._idle.wait(0.01 if remaining is None else min(remaining, 0.01))

    def close(self, drain: bool = True, timeout: Optional[float] = 60.0) -> None:
        """Stop accepting work, optionally drain, and tear everything down.

        Idempotent.  After close: the dispatcher thread has exited, the
        session is closed, and (unless ``release_pool_on_close=False``) the
        shared construction pool is shut down with every shared-memory
        segment unlinked.
        """
        # Atomic test-and-set: two threads racing close() must not both
        # run the teardown below (double batcher.close / session.close).
        with self._idle:
            if self._closed:
                return
            self._closed = True
        self.registry.unregister(self._registry_key)
        # A never-started dispatcher can't serve the backlog: reject it so
        # no caller blocks forever on a handle nothing will resolve.
        dispatcher_alive = self._thread.is_alive()
        rejected = self.batcher.close(reject_pending=not (drain and dispatcher_alive))
        if rejected:
            with self._idle:
                self._served += rejected
                self._idle.notify_all()
        try:
            if drain and dispatcher_alive:
                self.drain(timeout)
        finally:
            # Teardown must survive a failed drain (timeout, stashed delta
            # error): _closed is already set, so a close() that raised would
            # otherwise leak the dispatcher thread, pool, and segments for
            # the process lifetime.
            self._stop.set()
            if self._thread.is_alive():
                self._thread.join(timeout=10.0)
            # Close the log before the final application below: a racing
            # submit_update either landed in pending (and is applied) or
            # fails its append — never acknowledged-then-dropped.
            self.delta_log.close()
            # Whatever the dispatcher didn't get to is now unservable.
            leftover = self.batcher.close(reject_pending=True)
            if leftover:
                with self._idle:
                    self._served += leftover
                    self._idle.notify_all()
            try:
                # Deltas that arrived with no scoring wave behind them still
                # need applying when draining (the log promised ordering,
                # not laziness); the dispatcher is gone, so this is safe.
                if drain:
                    self._apply_pending_deltas()
            finally:
                self.session.close(release_pool=self._release_pool_on_close)
        if drain:
            self._raise_if_failed()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DetectionService":
        if self._closed:
            raise ServiceClosed("service is closed")
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Liveness: ``ok``, ``closed``, or ``failed`` with its error."""
        health: Dict[str, object] = {
            "status": "closed" if self._closed else "ok",
            "uptime_s": time.monotonic() - self._started_at,
        }
        try:
            self._raise_if_failed()
        except ServiceFailed as failure:
            health.update(status="failed", error=str(failure))
        return health

    def snapshot(self) -> Dict[str, object]:
        """Serving telemetry as one JSON-serializable dict.

        Combines the request/wave/delta counters and latency histograms
        (:class:`repro.serving.ServingMetrics`) with live queue depths,
        delta-log positions, and the store's cache/build counters — the
        fields the CLI (``repro serve-bench``) and
        ``benchmarks/bench_serving.py`` consume.
        """
        store = self.session.store
        extra: Dict[str, object] = {
            "detector": type(self.detector).__name__,
            "graph": self.graph.name,
            "uptime_s": time.monotonic() - self._started_at,
            "closed": self._closed,
            "max_batch_size": self.batcher.max_batch_size,
            "max_wait_ms": self.batcher.max_wait_s * 1000.0,
            "current_wait_ms": self.batcher.current_wait_ms,
            "delta_max_pending": self.delta_log.max_pending,
            "delta_max_age_s": self.delta_log.max_age_s,
            "pending_requests": self.batcher.pending,
            "pending_deltas": self.delta_log.pending,
            "applied_delta_seq": self.delta_log.applied_seq,
            "tail_delta_seq": self.delta_log.tail_seq,
        }
        if store is not None:
            extra.update(
                store_size=len(store),
                store_cache_hits=int(store.cache_hits),
                store_cache_misses=int(store.cache_misses),
                subgraphs_built=int(store.build_count),
            )
        return self.metrics.snapshot(extra)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"DetectionService(detector={type(self.detector).__name__}, "
            f"graph={self.graph.name!r}, {state})"
        )
