"""Micro-batching scheduler: coalesce concurrent score requests into waves.

BSG4Bot's serving cost is dominated by per-call overhead, not per-node work:
one ``score_nodes`` call pays a collation pass (or a batch-LRU hit) and a
model forward whatever the request size, and the flat collation engine makes
a 64-row batch barely more expensive than a 1-row one.  So N concurrent
callers asking for one node each should cost ~one collated wave, not N.

:class:`MicroBatcher` is the queue that makes this happen.  Callers
:meth:`submit` node arrays from any thread and block on the returned
:class:`ScoreRequest`; a single dispatcher thread (owned by
:class:`repro.serving.DetectionService`) pulls *waves* — FIFO runs of
requests coalesced under a ``max_batch_size`` / ``max_wait_ms`` policy —
executes each wave as one scoring call, and scatters the result rows back to
the per-request handles.

The policy is the classic latency/throughput dial:

* a wave closes as soon as its pending requests carry ``max_batch_size``
  node rows (throughput bound), or
* ``max_wait_ms`` after its *first* request was enqueued (latency bound),
  whichever comes first.  Under load the queue refills while a wave
  executes, so subsequent waves dispatch full without waiting.

Note on result semantics: BSG4Bot's semantic attention computes relation
weights over the whole collated batch, so a request's rows depend on its
wave's composition (at the ~1e-2 level).  A wave's concatenated output is
bit-identical to a serial ``score_nodes`` call over the same concatenated
nodes — that is the serving bit-identity contract, and what
``benchmarks/bench_serving.py`` replays and asserts.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis.sanitizer import tracked_condition


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after :meth:`MicroBatcher.close`."""


class ScoreRequest:
    """One caller's pending score request (a minimal future).

    Created by :meth:`MicroBatcher.submit`; the dispatcher fills in either
    ``probabilities`` (+ serving metadata) or an exception, then sets the
    event.  Callers block in :meth:`result`.
    """

    __slots__ = (
        "nodes", "barrier_seq", "enqueued_at", "started_at", "finished_at",
        "delta_seq", "wave_requests", "wave_nodes", "probabilities", "error",
        "trace", "trace_owned", "_done", "_clock",
    )

    def __init__(
        self,
        nodes: np.ndarray,
        barrier_seq: int,
        enqueued_at: float,
        clock: Callable[[], float] = time.monotonic,
        trace=None,
        trace_owned: bool = False,
    ) -> None:
        self.nodes = nodes
        #: Optional :class:`repro.obs.Trace` riding along so the dispatcher
        #: can record this request's queue-wait/wave spans after the fact
        #: (a trace the service itself started — ``trace_owned`` — is
        #: finished by the dispatcher when the request resolves).
        self.trace = trace
        self.trace_owned = bool(trace_owned)
        # All three timestamps must come from the same clock (the batcher's,
        # injectable for deterministic tests) or latency_s/queue_wait_s mix
        # clock domains.
        self._clock = clock
        #: Delta-log sequence the caller observed at submit time; the
        #: dispatcher must apply at least this prefix before scoring
        #: (read-your-writes).
        self.barrier_seq = barrier_seq
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Delta-log prefix actually applied when this request was scored.
        self.delta_seq: int = -1
        self.wave_requests: int = 0
        self.wave_nodes: int = 0
        self.probabilities: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    def done(self) -> bool:
        return self._done.is_set()

    def _resolve(self, probabilities: np.ndarray) -> None:
        self.probabilities = probabilities
        self.finished_at = self._clock()
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self.error = error
        self.finished_at = self._clock()
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the wave holding this request executed; return rows.

        Re-raises the wave's exception in the caller's thread when scoring
        failed.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"score request for {self.num_nodes} node(s) not served "
                f"within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.probabilities

    @property
    def latency_s(self) -> float:
        """Submit-to-result wall time (0.0 until the request resolved)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.enqueued_at

    @property
    def queue_wait_s(self) -> float:
        """Submit-to-wave-start wall time (0.0 until the wave started)."""
        if self.started_at is None:
            return 0.0
        return self.started_at - self.enqueued_at


class MicroBatcher:
    """Thread-safe request queue with max-batch-size / max-wait coalescing."""

    def __init__(
        self,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        adaptive_wait: bool = False,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        #: Adaptive linger policy: halve the effective wait after a wave
        #: dispatches full (under sustained load the queue refills by
        #: itself — lingering only adds latency), double it back toward the
        #: configured ``max_wait_ms`` cap after a half-empty wave (sparse
        #: traffic needs the linger to coalesce at all).  Only wave
        #: *boundaries* move; each realized wave's bit-identity contract is
        #: untouched.
        self.adaptive_wait = bool(adaptive_wait)
        self._clock = clock
        self._condition = tracked_condition("MicroBatcher._condition")
        self._queue: List[ScoreRequest] = []
        self._closed = False
        self._current_wait_s = self.max_wait_s  # guarded-by: _condition

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    def submit(
        self,
        nodes: Sequence[int],
        barrier_seq: int = -1,
        trace=None,
        trace_owned: bool = False,
    ) -> ScoreRequest:
        """Enqueue a score request; returns the caller's wait handle."""
        array = np.asarray(
            nodes if isinstance(nodes, np.ndarray) else list(nodes)
        ).astype(np.int64).ravel()
        request = ScoreRequest(
            array,
            barrier_seq,
            self._clock(),
            clock=self._clock,
            trace=trace,
            trace_owned=trace_owned,
        )
        with self._condition:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            self._queue.append(request)
            self._condition.notify_all()
        return request

    @property
    def pending(self) -> int:
        with self._condition:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def next_wave(self, poll_timeout: Optional[float] = None) -> List[ScoreRequest]:
        """Block for the next wave of coalesced requests (FIFO prefix).

        Returns an empty list when ``poll_timeout`` elapses with an empty
        queue, or when the batcher was closed and fully drained — dispatcher
        loops use the empty return to check for shutdown / idle work.

        The wave is the longest queue prefix whose node rows fit in
        ``max_batch_size`` (always at least one request, so an oversized
        single request still ships).  When the prefix is short of the limit,
        the call lingers to let stragglers coalesce — but dispatches early
        the moment the queue stops growing: ``max_wait_ms`` is the *worst
        case* added latency, paid only while requests keep trickling in, not
        a fixed tax on every wave.
        """
        with self._condition:
            if not self._queue:
                if self._closed:
                    return []
                self._condition.wait(poll_timeout)
                if not self._queue:
                    return []
            # Linger for stragglers until the head request's deadline, until
            # the prefix fills the wave, or until one stability window
            # passes with no new arrivals (a concurrent burst lands within
            # microseconds of itself; waiting out the full deadline after it
            # stopped would only add latency).
            wait_s = self._current_wait_s if self.adaptive_wait else self.max_wait_s
            deadline = self._queue[0].enqueued_at + wait_s
            stability_window = max(wait_s / 8.0, 1e-4)
            while not self._closed:
                if self._prefix_nodes() >= self.max_batch_size:
                    break
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                length_before = len(self._queue)
                self._condition.wait(min(remaining, stability_window))
                if len(self._queue) == length_before:
                    break
            length = self._wave_prefix_length()
            wave = self._queue[:length]
            del self._queue[:length]
            if self.adaptive_wait and wave:
                self._adapt_wait_locked(sum(r.num_nodes for r in wave))
            self._condition.notify_all()
        started = self._clock()
        for request in wave:
            request.started_at = started
        return wave

    def _adapt_wait_locked(self, wave_nodes: int) -> None:
        """Move the effective linger after one dispatched wave.

        Caller holds ``_condition``.  Full wave → halve (approaches 0 but
        never reaches it, so a traffic lull still gets a nonzero linger to
        recover from); at most half-full → double back toward the
        ``max_wait_s`` cap, restarting from ``max_wait_s / 64`` when the
        wait has decayed below that.  Waves in between leave it unchanged.
        """
        if wave_nodes >= self.max_batch_size:
            self._current_wait_s /= 2.0
        elif wave_nodes <= self.max_batch_size // 2:
            floor = self.max_wait_s / 64.0
            self._current_wait_s = min(
                self.max_wait_s, max(self._current_wait_s, floor) * 2.0
            )

    @property
    def current_wait_ms(self) -> float:
        """Effective linger in ms (== ``max_wait_ms`` when not adaptive)."""
        with self._condition:
            wait_s = self._current_wait_s if self.adaptive_wait else self.max_wait_s
        return wait_s * 1000.0

    def _prefix_nodes(self) -> int:
        """Node rows carried by the head prefix.  Caller holds ``_condition``."""
        total = 0
        for request in self._queue:
            total += request.num_nodes
            if total >= self.max_batch_size:
                break
        return total

    def _wave_prefix_length(self) -> int:
        """Number of head requests whose rows fit one wave (min. one).

        Caller holds ``_condition``.
        """
        total = 0
        length = 0
        for request in self._queue:
            if length > 0 and total + request.num_nodes > self.max_batch_size:
                break
            total += request.num_nodes
            length += 1
            if total >= self.max_batch_size:
                break
        return length

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, reject_pending: bool = False) -> int:
        """Refuse new submissions.  Pending requests are still dispatchable
        (the service drains them) unless ``reject_pending`` is set, in which
        case they fail immediately with :class:`BatcherClosed`.  Returns the
        number of rejected requests (0 when keeping them dispatchable)."""
        with self._condition:
            self._closed = True
            if reject_pending:
                pending, self._queue = self._queue, []
            else:
                pending = []
            self._condition.notify_all()
        for request in pending:
            request._reject(BatcherClosed("batcher closed before dispatch"))
        return len(pending)

    @property
    def closed(self) -> bool:
        with self._condition:
            return self._closed
