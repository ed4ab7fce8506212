"""``ShardRouter``: the HTTP front door's adapter over one detection service.

Serving runs one :class:`repro.serving.DetectionService` per process: each
BSG4Bot prediction is local to one biased subgraph, and in-process shards
(which had to score bit-identically to one session) never beat a single
service on throughput or memory.  The router keeps the front door's
score/update API over that service: ``delta_seqs`` and the update
acknowledgement are keyed by shard ``0``, and :meth:`snapshot` reports the
service's counters as ``cluster_totals``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph import HeteroGraph
from repro.obs.trace import ROOT_SPAN_ID, Trace
from repro.serving.batcher import ScoreRequest
from repro.serving.service import DetectionService


class ClusterRequest:
    """Handle on one pending score request."""

    __slots__ = ("_handle", "delta_seqs")

    def __init__(self, handle: ScoreRequest) -> None:
        self._handle = handle
        #: Shard id -> delta-log prefix the rows were served at (filled by
        #: :meth:`result`).
        self.delta_seqs: Dict[int, int] = {}

    def result(self, timeout: Optional[float] = 60.0) -> np.ndarray:
        """Block for the rows, in the caller's node order."""
        rows = self._handle.result(timeout)
        self.delta_seqs = {0: self._handle.delta_seq}
        return rows


class ShardRouter:
    """One :class:`DetectionService` behind the front door's score/update API."""

    def __init__(self, service: DetectionService) -> None:
        self.service = service
        #: The front door starts per-request traces with the service's tracer
        #: and renders the registry the service's metrics live in.
        self.tracer = service.tracer
        self.registry = service.registry

    @classmethod
    def from_artifact(
        cls, path, graph: Optional[HeteroGraph] = None, **service_kwargs
    ) -> "ShardRouter":
        """Load the artifact into one service (see
        :meth:`DetectionService.from_artifact`; ``service_kwargs`` pass
        through: batching, replay, tracer, registry, pool release)."""
        return cls(DetectionService.from_artifact(path, graph=graph, **service_kwargs))

    # ------------------------------------------------------------------
    # Scoring and updates
    # ------------------------------------------------------------------
    def submit(
        self, nodes: Sequence[int], trace: Optional[Trace] = None
    ) -> ClusterRequest:
        """Enqueue a score request on the service; returns the handle.

        A caller-owned ``trace`` (the HTTP front door's) receives the
        service's queue-wait and wave spans.
        """
        return ClusterRequest(self.service.submit(nodes, trace=trace))

    def score(
        self, nodes: Sequence[int], timeout: Optional[float] = 60.0
    ) -> np.ndarray:
        """Bot probabilities for ``nodes`` (blocking)."""
        return self.submit(nodes).result(timeout)

    def submit_update(
        self,
        edges_added: Optional[Mapping[str, Tuple[Iterable[int], Iterable[int]]]] = None,
        features_changed: Optional[Mapping[int, Iterable[float]]] = None,
        trace: Optional[Trace] = None,
    ) -> Dict[int, int]:
        """Validate and sequence a delta on the service; returns ``{0: seq}``.

        Scores submitted after this returns are served at a log prefix that
        includes the delta.  A caller-owned ``trace`` gets a
        ``delta_append`` span.
        """
        started = time.monotonic()
        seq = self.service.submit_update(
            edges_added=edges_added, features_changed=features_changed
        )
        if trace is not None:
            trace.add_span(
                "delta_append",
                started,
                time.monotonic() - started,
                parent_id=ROOT_SPAN_ID,
                seq=seq,
            )
        return {0: seq}

    # ------------------------------------------------------------------
    # Lifecycle and telemetry
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = 60.0) -> None:
        """Close the service (idempotent)."""
        self.service.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "ShardRouter":
        self.service.__enter__()  # raises ServiceClosed once closed
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def healthz(self) -> Dict[str, object]:
        return self.service.health()

    def snapshot(self) -> Dict[str, object]:
        """The service's telemetry as ``cluster_totals``."""
        return {"cluster_totals": self.service.snapshot()}
