"""CI perf-regression gate: fixed-seed micro-benchmarks vs stored baselines.

Runs small, deterministic micro-benchmarks over the engine's hot paths —
flat collation, the PPR sweep (dense / column-sparse / sparse-frontier), a
batched subgraph build, the capture-and-replay model forward, dataset
adapter ingestion (chunked throughput + cache warm start), and the
serving path's tracing overhead — then gates two ways:

* **Absolute bounds** (always): compare against ``benchmarks/thresholds.json``.
  Wall-clock thresholds carry a tolerance multiplier (CI runners are slower
  and noisier than dev machines; override with ``PERF_GATE_TOLERANCE``);
  speedup *ratios* are machine-normalized and are compared directly.
* **Relative store-and-compare** (when a baseline exists): compare against
  the stored baseline — the file named by ``PERF_GATE_BASELINE`` (default
  ``benchmarks/results/BENCH_perfgate_baseline.json``; CI restores it from
  the actions cache).  Wall-clock metrics may grow at most
  ``relative_tolerance``x (override: ``PERF_GATE_RELATIVE_TOLERANCE``) over
  the baseline, ratios may shrink at most that factor — which catches the
  slow drift the generous absolute bounds cannot.  On success the baseline
  is updated as a **rolling best** per metric (improvements ratchet in,
  regressions-within-tolerance do not loosen it), so a sequence of small
  regressions accumulates against the best recorded run instead of sliding
  through one tolerance window at a time.

The gate also re-checks the bit-identity contracts, so a "fast but wrong"
optimization fails CI too.

Writes ``benchmarks/results/BENCH_perfgate.json``.  Run it directly::

    PYTHONPATH=src python benchmarks/perf_gate.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.model import BSG4BotModel
from repro.datasets import load_benchmark
from repro.ppr import multi_source_ppr
from repro.sampling import BiasedSubgraphBuilder, collate_many
from repro.tensor import softmax
from repro.tensor.replay import ReplayEngine

try:  # package import (pytest adds the repo root to sys.path)
    from benchmarks.bench_ingest import gate_metrics as ingest_gate_metrics
    from benchmarks.bench_training import block_diag_collate
except ImportError:  # script import (sys.path[0] is benchmarks/)
    from bench_ingest import gate_metrics as ingest_gate_metrics
    from bench_training import block_diag_collate

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_perfgate.json"
THRESHOLDS_PATH = Path(__file__).parent / "thresholds.json"
DEFAULT_BASELINE_PATH = Path(__file__).parent / "results" / "BENCH_perfgate_baseline.json"

NUM_USERS = 200
BATCH_SIZE = 64
SUBGRAPH_K = 8
PPR_NODES = 20_000
PPR_SOURCES = 128


def _best_of(repeats: int, func):
    """Best-of-N CPU time (stable on shared CI runners)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.process_time()
        result = func()
        best = min(best, time.process_time() - start)
    return best, result


def bench_collation(graph, store) -> dict:
    rng = np.random.default_rng(0)
    order = rng.permutation(graph.num_nodes)
    chunks = [order[start : start + BATCH_SIZE] for start in range(0, order.size, BATCH_SIZE)]
    # Normalize the reference's blocks and build the flat pack before timing,
    # so both paths are timed on assembly alone.
    reference_collate = block_diag_collate(store, graph)
    [collate_many(store, chunk) for chunk in chunks]
    reference_s, _ = _best_of(3, lambda: [reference_collate(c) for c in chunks])
    flat_s, _ = _best_of(3, lambda: [collate_many(store, c) for c in chunks])
    cached_s, _ = _best_of(3, lambda: [store.collate(c) for c in chunks])
    return {
        "collation_reference_epoch_s": reference_s,
        "collation_flat_epoch_s": flat_s,
        "collation_cached_epoch_s": cached_s,
        "collation_flat_speedup": reference_s / flat_s,
        "collation_cached_speedup": reference_s / cached_s,
    }


def bench_ppr() -> dict:
    rng = np.random.default_rng(7)
    src = rng.integers(0, PPR_NODES, PPR_NODES * 5)
    dst = rng.integers(0, PPR_NODES, PPR_NODES * 5)
    keep = src != dst
    adjacency = sp.coo_matrix(
        (np.ones(int(keep.sum())), (src[keep], dst[keep])),
        shape=(PPR_NODES, PPR_NODES),
    ).tocsr()
    adjacency.data[:] = 1.0
    sources = np.arange(PPR_SOURCES)
    dense_s, dense = _best_of(
        2, lambda: multi_source_ppr(adjacency, sources, frontier="dense", sparse_density=0.0)
    )
    column_s, column = _best_of(
        2, lambda: multi_source_ppr(adjacency, sources, frontier="dense")
    )
    frontier_stats: dict = {}
    frontier_s, frontier = _best_of(
        2,
        lambda: multi_source_ppr(
            adjacency, sources, frontier="sparse", stats=frontier_stats
        ),
    )
    # Correctness is part of the gate: a sweep that got faster by diverging
    # from the reference path must fail CI.
    assert (dense != column).nnz == 0, "column-sparse PPR diverged from dense"
    assert (dense != frontier).nnz == 0, "sparse-frontier PPR diverged from dense"
    return {
        "ppr_dense_sweep_s": dense_s,
        "ppr_column_sparse_sweep_s": column_s,
        "ppr_frontier_sweep_s": frontier_s,
        "ppr_frontier_speedup": dense_s / frontier_s,
        "ppr_frontier_peak_fraction": frontier_stats["peak_block_floats"]
        / (2 * PPR_SOURCES * PPR_NODES),
    }


def bench_model_forward(graph, store) -> dict:
    """Capture-and-replay inference vs the autograd eager forward.

    A random-initialized model (training time has no place in a perf gate)
    scored over a serving-shaped wave mix — mostly small waves with one
    batch-size-bound wave — through ``repro.tensor.replay``.  Bit-identity
    between the replayed and eager probabilities is asserted on every wave,
    cold and steady, so a schedule that got faster by diverging fails CI.
    """
    model = BSG4BotModel(
        graph.num_features,
        hidden_dim=8,
        relation_names=graph.relation_names,
        rng=np.random.default_rng(3),
    )
    rng = np.random.default_rng(11)
    batches = [
        store.collate(rng.integers(0, graph.num_nodes, size=size))
        for size in (1, 8, 8, 32)
    ]

    def eager_pass():
        model.eval()
        return [softmax(model(batch), axis=-1).numpy() for batch in batches]

    engine = ReplayEngine()

    def replay_pass():
        return [engine.forward_proba(model, batch) for batch in batches]

    reference = eager_pass()
    for left, right in zip(reference, replay_pass()):  # traces cold buckets
        assert np.array_equal(left, right), "replayed forward diverged from eager"
    for left, right in zip(reference, replay_pass()):  # steady state
        assert np.array_equal(left, right), "steady-state replay diverged from eager"
    assert not engine.disabled, "replay engine disabled itself during the gate"
    assert engine.consume_stats()["replay_misses"] <= len(batches), "replay cache thrashed"

    eager_s, _ = _best_of(5, eager_pass)
    replay_s, _ = _best_of(5, replay_pass)
    count = len(batches)
    return {
        "model_eager_wave_s": eager_s / count,
        "model_replay_wave_s": replay_s / count,
        "model_replay_speedup": eager_s / replay_s,
    }


def bench_tracing(graph, store) -> dict:
    """Per-request tracing overhead on the serving path.

    A hand-assembled detector — random-initialized model over the already
    built store; training has no place in a perf gate — behind a
    :class:`DetectionService`, driven with a fixed request mix per arm
    (tracer off vs ``sample_rate=1.0``), interleaved so machine noise hits
    both arms equally.  The ratio's floor keeps always-on tracing cheap
    enough to actually leave on.
    """
    from repro.core.config import BSG4BotConfig
    from repro.core.pipeline import BSG4Bot
    from repro.serving.bench import measure_tracing_overhead

    detector = BSG4Bot(BSG4BotConfig())
    detector.graph = graph
    detector.store = store
    detector.model = BSG4BotModel(
        graph.num_features,
        hidden_dim=8,
        relation_names=graph.relation_names,
        rng=np.random.default_rng(5),
    )
    metrics = measure_tracing_overhead(
        detector, graph, max_batch_size=BATCH_SIZE
    )
    return {
        "serving_trace_overhead_ratio": metrics["serving_trace_overhead_ratio"],
        "serving_untraced_rps": metrics["serving_untraced_rps"],
        "serving_traced_rps": metrics["serving_traced_rps"],
    }


def bench_build(graph):
    """Timed full-store build; returns (metrics, store) for reuse downstream."""
    builder = BiasedSubgraphBuilder(graph, graph.features, k=SUBGRAPH_K)
    start = time.process_time()
    store = builder.build_store(range(graph.num_nodes))
    build_s = time.process_time() - start
    return {"build_store_s": build_s, "build_subgraphs": len(store)}, store


def run(output_path: Path = RESULTS_PATH) -> dict:
    graph = load_benchmark("mgtab", num_users=NUM_USERS, tweets_per_user=8, seed=0).graph
    build_metrics, store = bench_build(graph)
    metrics = {
        **build_metrics,
        **bench_collation(graph, store),
        **bench_model_forward(graph, store),
        **bench_ppr(),
        # Chunked ingestion throughput + content-addressed cache warm start
        # (asserts synthetic regeneration determinism internally).
        **ingest_gate_metrics(),
        # Traced-vs-untraced serving throughput (observability must stay
        # cheap enough to leave armed).
        **bench_tracing(graph, store),
    }
    result = {
        "scale": {
            "num_users": NUM_USERS,
            "num_nodes": int(graph.num_nodes),
            "batch_size": BATCH_SIZE,
            "ppr_nodes": PPR_NODES,
            "ppr_sources": PPR_SOURCES,
        },
        "metrics": metrics,
    }
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w") as handle:
        json.dump(result, handle, indent=2)
    return result


def check(metrics: dict, thresholds: dict, tolerance: float) -> list:
    """Return a list of human-readable regression descriptions (empty = pass)."""
    failures = []
    for name, bounds in thresholds["metrics"].items():
        if name not in metrics:
            failures.append(f"{name}: thresholded metric missing from benchmark output")
            continue
        value = metrics[name]
        if "max" in bounds and value > bounds["max"] * tolerance:
            failures.append(
                f"{name}: {value:.4f} > {bounds['max']:.4f} * tolerance {tolerance:g}"
            )
        if "min" in bounds and value < bounds["min"]:
            failures.append(f"{name}: {value:.4f} < required minimum {bounds['min']:.4f}")
    return failures


def check_relative(
    metrics: dict, baseline: dict, thresholds: dict, tolerance: float
) -> list:
    """Compare against a previous run's metrics (empty list = pass).

    Direction comes from the thresholds entry: ``max``-bounded metrics
    (wall-clock, memory fractions) must not grow beyond ``baseline *
    tolerance``; ``min``-bounded metrics (speedup ratios) must not shrink
    below ``baseline / tolerance``.  Metrics absent from the baseline (e.g.
    newly added benchmarks) are skipped — the absolute bounds still cover
    them.
    """
    failures = []
    for name, bounds in thresholds["metrics"].items():
        if name not in metrics or name not in baseline:
            continue
        value, reference = metrics[name], baseline[name]
        if "max" in bounds and value > reference * tolerance:
            failures.append(
                f"{name}: {value:.4f} > baseline {reference:.4f} * "
                f"relative tolerance {tolerance:g}"
            )
        if "min" in bounds and value < reference / tolerance:
            failures.append(
                f"{name}: {value:.4f} < baseline {reference:.4f} / "
                f"relative tolerance {tolerance:g}"
            )
    return failures


def merge_baseline(metrics: dict, baseline: dict, thresholds: dict) -> dict:
    """Rolling-best baseline update after a passing run.

    Thresholded metrics keep their best recorded value (lowest for
    ``max``-bounded wall-clock/memory, highest for ``min``-bounded ratios);
    everything else takes the current run's value.  Without this, each run
    overwriting the baseline would let a slow drift pass one
    relative-tolerance window at a time.
    """
    merged = dict(metrics)
    for name, bounds in thresholds["metrics"].items():
        if name not in metrics or name not in baseline:
            continue
        if "max" in bounds:
            merged[name] = min(metrics[name], baseline[name])
        elif "min" in bounds:
            merged[name] = max(metrics[name], baseline[name])
    return merged


def load_baseline(path: Path) -> dict:
    """Previous run's metrics, or an empty dict when absent/unreadable.

    A corrupt or truncated baseline (an interrupted cache upload) must never
    block CI — the gate falls back to the absolute bounds.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
        metrics = payload.get("metrics", {})
        return metrics if isinstance(metrics, dict) else {}
    except (OSError, ValueError):
        return {}


def main() -> int:
    result = run()
    metrics = result["metrics"]
    with open(THRESHOLDS_PATH) as handle:
        thresholds = json.load(handle)
    tolerance = float(
        os.environ.get("PERF_GATE_TOLERANCE", thresholds.get("tolerance", 1.5))
    )
    relative_tolerance = float(
        os.environ.get(
            "PERF_GATE_RELATIVE_TOLERANCE", thresholds.get("relative_tolerance", 1.6)
        )
    )
    baseline_path = Path(
        os.environ.get("PERF_GATE_BASELINE", DEFAULT_BASELINE_PATH)
    )
    baseline = load_baseline(baseline_path)
    print(f"wrote {RESULTS_PATH}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<34} {value:.4f}")
    failures = check(metrics, thresholds, tolerance)
    if baseline:
        print(
            f"comparing against baseline {baseline_path} "
            f"(relative tolerance {relative_tolerance:g})"
        )
        failures += check_relative(metrics, baseline, thresholds, relative_tolerance)
    else:
        print(f"no baseline at {baseline_path}; absolute thresholds only")
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    # Store-and-compare: merge this passing run into the rolling-best
    # baseline (CI persists the file through the actions cache).
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    stored = dict(result)
    stored["metrics"] = merge_baseline(metrics, baseline, thresholds)
    with open(baseline_path, "w") as handle:
        json.dump(stored, handle, indent=2)
    print(f"\nperf gate OK (tolerance {tolerance:g}); rolling-best baseline updated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
