"""The benchmark's metrics, and the per-layer ones from a traced run's spans.

The ledger splits the mean latency of a workload's operation into layer
self times, as shares of that mean, plus an unattributed remainder:

* ``fit``: one fit round (detector creation -> artifact written); every
  span of the round runs in the fitting thread.
* serving: one HTTP request.  Front door = client-observed latency minus
  the server's router call (``ShardRouter.submit`` + ``ClusterRequest.
  result``, or ``ShardRouter.submit_update``).  A score request then waits
  in the queue until ``MicroBatcher.next_wave`` picks it up, and its wave's
  spans (scoring, construction, collation, forward, delta application) run
  in the dispatcher thread; every request of a wave is charged the whole
  wave, since each waits for it.  ``serving.wave`` is the dispatcher's time
  in the wave outside every layer span (result scatter, resolving); the
  hand-off of the answer to the waiting thread stays unattributed.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from spans import self_times

#: Layers of the ledger, in the order a request meets them.
LAYERS = (
    "http.front_door",
    "cluster.route",
    "serving.queue_wait",
    "serving.wave",
    "serving.delta_append",
    "api.score",
    "api.apply_delta",
    "sampling.refresh",
    "sampling.invalidate",
    "core.pretrain",
    "sampling.construct",
    "ppr.push",
    "sampling.pack_build",
    "sampling.collate",
    "core.predict",
    "core.forward",
    "tensor.replay_forward",
    "tensor.backward",
    "tensor.optim",
    "api.save",
)

#: End-to-end metrics of every untraced run: name -> (unit, better).  Each
#: workload fills them with its own operations (README.md, "Metrics").
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "primary_ms": ("ms", "lower"),
    "secondary_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}

#: Per-layer metrics of every traced run: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}_pct": ("%", "lower") for layer in LAYERS},
    "unattributed_pct": ("%", "lower"),
    "traced.op_mean_ms": ("ms", "lower"),
    "traced.primary_ms": ("ms", "lower"),
    "traced.throughput_per_s": ("1/s", "higher"),
    "setup.generate_s": ("s", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "client.cpu_pct": ("%", "lower"),
    "sampling.subgraphs_built_per_op": ("count", "lower"),
    "sampling.normalizations_per_op": ("count", "lower"),
    "sampling.pack_builds_per_op": ("count", "lower"),
    "sampling.collate_calls_per_op": ("count", "lower"),
    "sampling.collate_hit_ratio": ("ratio", "higher"),
    "sampling.invalidated_per_update": ("count", "lower"),
    "sampling.store_size": ("count", "higher"),
    "tensor.replay_misses": ("count", "lower"),
    "cluster.connections_per_request": ("count", "lower"),
    "serving.requests_per_wave": ("count", "higher"),
    "train.epochs": ("count", "lower"),
    "train.batches": ("count", "lower"),
    "train.steady_epoch_ms": ("ms", "lower"),
}


def shares(layer_ms: Dict[str, float], op_mean_ms: float) -> Dict[str, float]:
    """Layer means as shares of the operation mean, plus the remainder."""
    result = {f"{layer}_pct": 100.0 * layer_ms.get(layer, 0.0) / op_mean_ms for layer in LAYERS}
    result["unattributed_pct"] = 100.0 - sum(result.values())
    return result


def counts_per_op(counts: Dict[str, int], ops: int) -> Dict[str, float]:
    calls = counts.get("sampling.collate_calls", 0)
    samples = counts.get("sampling.store_size_samples", 0)
    invalidations = counts.get("sampling.invalidations", 0)
    return {
        "sampling.subgraphs_built_per_op": counts.get("sampling.subgraphs_built", 0) / ops,
        "sampling.normalizations_per_op": counts.get("sampling.normalizations", 0) / ops,
        "sampling.pack_builds_per_op": counts.get("sampling.pack_builds", 0) / ops,
        "sampling.collate_calls_per_op": calls / ops,
        "sampling.collate_hit_ratio": counts.get("sampling.collate_hits", 0) / calls if calls else 0.0,
        "sampling.invalidated_per_update": (
            counts.get("sampling.invalidated", 0) / invalidations if invalidations else 0.0
        ),
        "sampling.store_size": counts.get("sampling.store_size_sum", 0) / samples if samples else 0.0,
        "tensor.replay_misses": float(counts.get("tensor.replay_misses", 0)),
    }


def fit_ledger(dump: dict, rounds: Sequence[dict]) -> Dict[str, float]:
    """Mean layer self time per fit round, from the fitting thread's spans."""
    spans = [tuple(span) for span in dump["spans"]]
    totals: Dict[str, float] = {}
    for record in rounds:
        window = (record["start"], record["end"])
        inside = [span for span in spans if window[0] <= span[2] and span[3] <= window[1]]
        for layer, seconds in self_times(inside).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    op_mean_ms = 1000.0 * sum(r["fit_s"] for r in rounds) / len(rounds)
    layer_ms = {layer: 1000.0 * seconds / len(rounds) for layer, seconds in totals.items()}
    result = shares(layer_ms, op_mean_ms)
    result["traced.op_mean_ms"] = op_mean_ms
    # Optimizer steps outside pre-training are training batches.
    parents = {span[0]: span for span in spans}

    def in_pretrain(span) -> bool:
        parent = parents.get(span[4])
        while parent is not None:
            if parent[1] == "core.pretrain":
                return True
            parent = parents.get(parent[4])
        return False

    steps = sum(
        1 for span in spans
        if span[1] == "tensor.optim" and not in_pretrain(span)
    )
    result["train.batches"] = steps / len(rounds)
    result["train.epochs"] = sum(r["epochs"] for r in rounds) / len(rounds)
    return result


def _threads(spans) -> Dict[int, Tuple[List[float], List[tuple]]]:
    by_thread: Dict[int, List[tuple]] = {}
    for span in spans:
        by_thread.setdefault(span[5], []).append(span)
    indexed = {}
    for thread, items in by_thread.items():
        items.sort(key=lambda span: span[2])
        indexed[thread] = ([span[2] for span in items], items)
    return indexed


def _spans_within(indexed, thread: int, start: float, end: float) -> List[tuple]:
    starts, items = indexed.get(thread, ([], []))
    lo = bisect.bisect_left(starts, start)
    hi = bisect.bisect_right(starts, end)
    return [span for span in items[lo:hi] if span[3] <= end]


def serve_ledger(dump: dict, window: Tuple[float, float], client_latency_ms: float,
                 client_ops: int) -> Dict[str, float]:
    """Mean layer time per request of the timed phase (see module doc)."""
    spans = [tuple(span) for span in dump["spans"]]
    indexed = _threads(spans)
    waves: List[list] = []  # [pickup, end, thread, request count]
    open_waves: Dict[int, int] = {}
    wave_of: Dict[int, int] = {}
    scored: List[tuple] = []
    updates: List[tuple] = []
    for event in dump["events"]:
        kind = event[0]
        if kind == "pickup":
            _, picked, thread, ids = event
            open_waves[thread] = len(waves)
            waves.append([picked, None, thread, len(ids)])
            for request_id in ids:
                wave_of[request_id] = len(waves) - 1
        elif kind == "wave_end":
            index = open_waves.pop(event[2], None)
            if index is not None:
                waves[index][1] = event[1]
        elif kind == "score":
            _, route0, route1, _wait0, wait1, handles = event
            if window[0] <= route0 <= window[1]:
                scored.append((route0, route1, wait1, [wave_of.get(h) for h in handles]))
        elif kind == "update":
            if window[0] <= event[1] <= window[1]:
                updates.append(event)

    wave_parts: Dict[int, Dict[str, float]] = {}
    totals: Dict[str, float] = {}
    router_calls = 0.0
    waves_seen = set()
    for route0, route1, wait1, wave_indices in scored:
        router_calls += wait1 - route0
        totals["cluster.route"] = totals.get("cluster.route", 0.0) + (route1 - route0)
        index = wave_indices[0] if wave_indices and wave_indices[0] is not None else None
        if index is None:
            continue
        waves_seen.add(index)
        picked, ended, thread, _count = waves[index]
        if index not in wave_parts:
            wave_parts[index] = self_times(
                _spans_within(indexed, thread, picked, ended if ended is not None else wait1)
            )
        parts = wave_parts[index]
        totals["serving.queue_wait"] = totals.get("serving.queue_wait", 0.0) + max(picked - route1, 0.0)
        for layer, seconds in parts.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        # The dispatcher's time in the wave outside every layer span (delta
        # drain, row scatter, resolving handles); the answer's hand-off to
        # the waiting thread (wait1 vs the wave's end) stays unattributed.
        wave_end = ended if ended is not None else wait1
        totals["serving.wave"] = totals.get("serving.wave", 0.0) + (
            (wave_end - picked) - sum(parts.values())
        )
    for _, started, finished, thread in updates:
        router_calls += finished - started
        parts = self_times(_spans_within(indexed, thread, started, finished))
        for layer, seconds in parts.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    server_ops = len(scored) + len(updates)
    if server_ops != client_ops:
        raise ValueError(
            f"traced server saw {server_ops} requests in the timed phase, "
            f"the client sent {client_ops}"
        )
    layer_ms = {layer: 1000.0 * seconds / server_ops for layer, seconds in totals.items()}
    layer_ms["http.front_door"] = client_latency_ms - 1000.0 * router_calls / server_ops
    result = shares(layer_ms, client_latency_ms)
    result["traced.op_mean_ms"] = client_latency_ms
    result["serving.requests_per_wave"] = (
        sum(waves[i][3] for i in waves_seen) / len(waves_seen) if waves_seen else 0.0
    )
    return result
