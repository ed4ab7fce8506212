"""Request tracing: span trees, ambient propagation, bounded retention.

A :class:`Trace` is one request's tree of timed spans — monotonic-clock
start/duration, parent links, and flat ``key=value`` attributes.  A
:class:`Tracer` mints traces, decides retention (probabilistic sampling by
request-id hash plus always-keep-slow), and holds a bounded ring buffer of
completed traces for ``GET /traces`` / ``repro trace``.

Two propagation styles coexist, matching the two shapes of the serving
stack:

* **Ambient (contextvar)** — single-threaded phases (training, ingest) wrap
  work in :func:`span` / :func:`phase_span`; nesting follows the call stack.
* **Explicit** — the serving path crosses threads (HTTP executor →
  micro-batcher → dispatcher) and one collated wave serves requests from
  *different* traces, so spans cannot be ambient there.  The ``Trace``
  object rides on the request handle and hops record spans after the fact
  with explicit start/duration (:meth:`Trace.add_span`).  An ambient span
  reserves its id up front (:meth:`Trace.allocate_span`) so children can
  parent to it before its duration is known.

Cost discipline: a disabled tracer is ``None`` end to end (one ``is None``
check per request); an enabled tracer records spans for every started trace
and decides at finish whether to keep it (sampled OR slower than the
threshold), so the slow tail is always captured without keeping everything.
Everything here is stdlib-only — low-level modules may import it freely.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

from collections import deque

from repro.analysis.sanitizer import tracked_rlock

#: Span id of the implicit root span every trace owns (recorded at finish
#: with the trace's full duration).
ROOT_SPAN_ID = 0

#: Ambient state: ``(trace, parent_span_id)`` for the current context.
_CURRENT: ContextVar[Optional[Tuple["Trace", int]]] = ContextVar(
    "repro_obs_current_trace", default=None
)


def mint_request_id() -> str:
    """A fresh 16-hex request id (``X-Repro-Request-Id`` default)."""
    return uuid.uuid4().hex[:16]


class Trace:
    """One request's span tree.  Thread-safe: hops record concurrently."""

    def __init__(
        self,
        name: str,
        request_id: str,
        *,
        sampled: bool = True,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.request_id = request_id
        self.trace_id = uuid.uuid4().hex[:16]
        self.sampled = bool(sampled)
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.started_at = time.monotonic()
        self.started_unix = time.time()
        #: Set by :meth:`Tracer.start_trace` so whoever holds the trace can
        #: finish it without threading the tracer alongside.
        self.tracer: Optional["Tracer"] = None
        self._lock = tracked_rlock("Trace._lock")
        self._spans: List[Dict[str, Any]] = []  # guarded-by: _lock
        self._next_span_id = ROOT_SPAN_ID + 1  # guarded-by: _lock
        self._duration_s: Optional[float] = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def allocate_span(self) -> int:
        """Reserve a span id to record later (ambient spans)."""
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        return span_id

    def record_span(
        self,
        span_id: int,
        name: str,
        start_s: float,
        duration_s: float,
        parent_id: int = ROOT_SPAN_ID,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record a span under a previously allocated id.

        ``start_s`` is a ``time.monotonic()`` timestamp; it is stored as an
        offset from the trace start so serialized traces are
        self-contained.
        """
        span = {
            "span_id": int(span_id),
            "parent_id": int(parent_id),
            "name": str(name),
            "offset_s": float(start_s - self.started_at),
            "duration_s": float(max(duration_s, 0.0)),
            "attributes": dict(attributes or {}),
        }
        with self._lock:
            self._spans.append(span)
        return int(span_id)

    def add_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        parent_id: int = ROOT_SPAN_ID,
        **attributes: Any,
    ) -> int:
        """Allocate + record in one call; returns the new span id."""
        return self.record_span(
            self.allocate_span(), name, start_s, duration_s, parent_id, attributes
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self) -> float:
        """Stamp the trace duration (idempotent); returns it."""
        with self._lock:
            if self._duration_s is None:
                self._duration_s = time.monotonic() - self.started_at
            return self._duration_s

    @property
    def duration_s(self) -> float:
        with self._lock:
            if self._duration_s is not None:
                return self._duration_s
        return time.monotonic() - self.started_at

    @property
    def num_spans(self) -> int:
        with self._lock:
            return len(self._spans)

    def to_dict(self, slow: bool = False) -> Dict[str, Any]:
        """JSON-serializable form: the JSONL / ``GET /traces`` payload."""
        with self._lock:
            spans = [dict(span) for span in self._spans]
            duration = self._duration_s
        if duration is None:
            duration = time.monotonic() - self.started_at
        root = {
            "span_id": ROOT_SPAN_ID,
            "parent_id": None,
            "name": self.name,
            "offset_s": 0.0,
            "duration_s": float(duration),
            "attributes": dict(self.attributes),
        }
        spans.sort(key=lambda span: (span["offset_s"], span["span_id"]))
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "name": self.name,
            "sampled": self.sampled,
            "slow": bool(slow),
            "started_unix": self.started_unix,
            "duration_s": float(duration),
            "spans": [root] + spans,
        }

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, request_id={self.request_id!r}, "
            f"spans={self.num_spans})"
        )


class Tracer:
    """Mints traces, applies the retention policy, owns the ring buffer.

    ``sample_rate`` keeps that fraction of traces, decided
    *deterministically* from ``hash(seed, request_id)`` — the same request
    id is sampled identically across runs with the same seed.  ``slow_threshold_s`` keeps every trace at least that slow
    regardless of sampling (and appends it to ``dump_path`` as JSONL when
    configured).  The ring buffer holds the last ``capacity`` kept traces.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        *,
        slow_threshold_s: Optional[float] = None,
        capacity: int = 256,
        seed: int = 0,
        dump_path: Optional[str] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sample_rate = float(sample_rate)
        self.slow_threshold_s = (
            None if slow_threshold_s is None else float(slow_threshold_s)
        )
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.dump_path = dump_path
        self._lock = tracked_rlock("Tracer._lock")
        self._traces: deque = deque(maxlen=self.capacity)  # guarded-by: _lock
        self._started = 0  # guarded-by: _lock
        self._kept = 0  # guarded-by: _lock
        self._evicted = 0  # guarded-by: _lock
        self._dump_errors = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Construction from the environment (REPRO_TRACE_* variables)
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["Tracer"]:
        """A tracer armed by ``REPRO_TRACE_*``, or ``None`` when unset.

        ``REPRO_TRACE_SAMPLE`` (fraction), ``REPRO_TRACE_SLOW_MS``
        (threshold), ``REPRO_TRACE_DUMP`` (JSONL path),
        ``REPRO_TRACE_BUFFER`` (ring capacity), ``REPRO_TRACE_SEED``.
        Returning ``None`` keeps the disabled path at a single ``is None``
        check — how CI arms tracing across existing suites without any
        call-site changes.
        """
        env = os.environ if environ is None else environ
        sample = float(env.get("REPRO_TRACE_SAMPLE", "0") or "0")
        slow_ms = env.get("REPRO_TRACE_SLOW_MS")
        if sample <= 0.0 and slow_ms is None:
            return None
        return cls(
            sample_rate=min(max(sample, 0.0), 1.0),
            slow_threshold_s=None if slow_ms is None else float(slow_ms) / 1000.0,
            capacity=int(env.get("REPRO_TRACE_BUFFER", "256") or "256"),
            seed=int(env.get("REPRO_TRACE_SEED", "0") or "0"),
            dump_path=env.get("REPRO_TRACE_DUMP") or None,
        )

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0 or self.slow_threshold_s is not None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sampled(self, request_id: str) -> bool:
        """Deterministic sampling decision for ``request_id``."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        digest = hashlib.sha1(f"{self.seed}:{request_id}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < self.sample_rate

    # ------------------------------------------------------------------
    # Trace lifecycle
    # ------------------------------------------------------------------
    def start_trace(
        self,
        name: str,
        request_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Optional[Trace]:
        """Start a trace, or return ``None`` when tracing is disabled.

        The trace records spans whether or not it was sampled — the
        always-keep-slow policy needs the spans of traces whose slowness is
        only known at finish.
        """
        if not self.enabled:
            return None
        request_id = request_id or mint_request_id()
        trace = Trace(
            name,
            request_id,
            sampled=self.sampled(request_id),
            attributes=attributes,
        )
        trace.tracer = self
        with self._lock:
            self._started += 1
        return trace

    def finish_trace(self, trace: Optional[Trace]) -> bool:
        """Finish ``trace`` and apply retention; True when it was kept."""
        if trace is None:
            return False
        duration = trace.finish()
        slow = (
            self.slow_threshold_s is not None and duration >= self.slow_threshold_s
        )
        if not (trace.sampled or slow):
            return False
        payload = trace.to_dict(slow=slow)
        line = json.dumps(payload) if (slow and self.dump_path) else None
        with self._lock:
            if len(self._traces) == self._traces.maxlen:
                self._evicted += 1
            self._traces.append(payload)
            self._kept += 1
            if line is not None:
                try:
                    with open(self.dump_path, "a") as handle:
                        handle.write(line + "\n")
                except OSError as error:
                    self._dump_errors += 1
                    if self._dump_errors == 1:
                        print(
                            f"repro.obs: trace dump to {self.dump_path!r} "
                            f"failed: {error}",
                            file=sys.stderr,
                        )
        return True

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Kept traces, most recent first."""
        with self._lock:
            traces = list(self._traces)
        traces.reverse()
        if limit is not None:
            traces = traces[: max(int(limit), 0)]
        return traces

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "started": self._started,
                "kept": self._kept,
                "evicted": self._evicted,
                "buffered": len(self._traces),
                "sample_rate": self.sample_rate,
                "slow_threshold_s": self.slow_threshold_s,
                "capacity": self.capacity,
            }

    def __repr__(self) -> str:
        return (
            f"Tracer(sample_rate={self.sample_rate}, "
            f"slow_threshold_s={self.slow_threshold_s}, capacity={self.capacity})"
        )


# ----------------------------------------------------------------------
# Ambient (contextvar) propagation — single-threaded phases
# ----------------------------------------------------------------------
def current_trace() -> Optional[Trace]:
    """The ambient trace of this context, if any."""
    state = _CURRENT.get()
    return None if state is None else state[0]


@contextmanager
def activate_trace(
    trace: Optional[Trace], parent_id: int = ROOT_SPAN_ID
) -> Iterator[Optional[Trace]]:
    """Make ``trace`` ambient for the block (no-op on ``None``)."""
    if trace is None:
        yield None
        return
    token = _CURRENT.set((trace, parent_id))
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Optional[int]]:
    """Time a block as a span of the ambient trace (no-op without one).

    Nested :func:`span` blocks parent to this span — the contextvar carries
    the parent id down the call stack.
    """
    state = _CURRENT.get()
    if state is None:
        yield None
        return
    trace, parent_id = state
    started = time.monotonic()
    span_id = trace.allocate_span()
    token = _CURRENT.set((trace, span_id))
    try:
        yield span_id
    finally:
        _CURRENT.reset(token)
        trace.record_span(
            span_id, name, started, time.monotonic() - started, parent_id, attributes
        )


def add_ambient_span(
    name: str, start_s: float, duration_s: float, **attributes: Any
) -> None:
    """Record an after-the-fact span under the ambient parent.

    For blocks whose attributes are only known at the end (e.g. an ingest
    that turns out to be a cache hit): time with ``time.monotonic()``
    yourself, then record once.  No-op without an ambient trace.
    """
    state = _CURRENT.get()
    if state is None:
        return
    trace, parent_id = state
    trace.add_span(name, start_s, duration_s, parent_id=parent_id, **attributes)


@contextmanager
def phase_span(
    name: str,
    phase_times: Optional[Dict[str, float]] = None,
    **attributes: Any,
) -> Iterator[Optional[int]]:
    """:func:`span` that also accumulates into a ``phase_times`` dict.

    The bridge between the pipeline's historical ``phase_times`` accounting
    and tracing: one timing source feeds both, so ``repro fit --trace``
    waterfalls agree with ``history.extra["phase_times"]``.
    """
    started = time.perf_counter()
    try:
        with span(name, **attributes) as span_id:
            yield span_id
    finally:
        if phase_times is not None:
            phase_times[name] = (
                phase_times.get(name, 0.0) + time.perf_counter() - started
            )
