"""Dataset-adapter ingestion benchmark: chunked throughput + cache warm start.

Measures the three costs the adapter layer adds in front of training and
serving:

* **Synthetic generation + ingestion** — rows/s through the chunked
  assembly path for a seeded :class:`SyntheticBotnetAdapter` graph (the
  input the scale bench draws from).  Fingerprints of two
  independent ingests are asserted identical, so a generator that got
  faster by becoming nondeterministic fails the run.
* **CSV parse + ingestion** — rows/s for a generated on-disk CSV dataset
  (DictReader parse, typed feature columns, label file join, edge remap).
* **Cache warm start** — a cold ``ingest_spec`` (generate + fingerprint +
  store) vs a warm one (content-addressed hit through a *fresh*
  ``IngestCache``, so the in-process memo cannot flatter the number).

Writes ``benchmarks/results/BENCH_ingest.json``.  The perf gate imports
:func:`gate_metrics` for a reduced-size run ratcheted by
``thresholds.json``.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_ingest.py [--users 100000]
"""

from __future__ import annotations

import argparse
import csv
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.datasets.adapters import (
    CSVEdgeListAdapter,
    DatasetSpec,
    SyntheticBotnetAdapter,
    graph_fingerprint,
    ingest_spec,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_ingest.json"


def _synthetic(num_users: int, seed: int = 0) -> SyntheticBotnetAdapter:
    return SyntheticBotnetAdapter(
        num_users=num_users, avg_degree=6.0, num_relations=2,
        num_communities=max(4, num_users // 5000), seed=seed,
    )


def bench_synthetic(num_users: int) -> dict:
    start = time.process_time()
    graph = _synthetic(num_users).ingest()
    elapsed = time.process_time() - start
    # Determinism is part of the contract this bench exists to exercise.
    assert graph_fingerprint(graph) == graph_fingerprint(
        _synthetic(num_users).ingest()
    ), "synthetic regeneration diverged"
    return {
        "ingest_synthetic_users": num_users,
        "ingest_synthetic_edges": int(graph.num_edges),
        "ingest_synthetic_s": elapsed,
        "ingest_synthetic_rows_per_s": num_users / elapsed,
    }


def _write_csv_dataset(directory: Path, num_nodes: int, avg_degree: int, seed: int) -> dict:
    """Generate a medium CSV dataset on disk; returns adapter params."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(num_nodes) < 0.3).astype(int)
    features = rng.standard_normal((num_nodes, 8)).round(4)
    nodes_path = directory / "nodes.csv"
    with nodes_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "label"] + [f"f{j}" for j in range(8)])
        for i in range(num_nodes):
            writer.writerow([f"n{i}", labels[i]] + [f"{v}" for v in features[i]])
    num_edges = num_nodes * avg_degree
    src = rng.integers(0, num_nodes, num_edges)
    dst = rng.integers(0, num_nodes, num_edges)
    edges_path = directory / "edges.csv"
    with edges_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst"])
        for s, d in zip(src, dst):
            writer.writerow([f"n{s}", f"n{d}"])
    return {"nodes": str(nodes_path), "edges": str(edges_path)}


def bench_csv(num_nodes: int, avg_degree: int = 4) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        params = _write_csv_dataset(Path(tmp), num_nodes, avg_degree, seed=1)
        adapter = CSVEdgeListAdapter(**params)
        start = time.process_time()
        graph = adapter.ingest()
        elapsed = time.process_time() - start
    rows = num_nodes + num_nodes * avg_degree  # node rows + edge rows parsed
    return {
        "ingest_csv_nodes": num_nodes,
        "ingest_csv_edges": int(graph.num_edges),
        "ingest_csv_s": elapsed,
        "ingest_csv_rows_per_s": rows / elapsed,
    }


def bench_cache(num_users: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        spec = DatasetSpec(
            adapter="synthetic",
            params={"num_users": num_users, "avg_degree": 6.0,
                    "num_relations": 2, "seed": 3},
            cache_dir=tmp,
        )
        start = time.process_time()
        cold = ingest_spec(spec)
        cold_s = time.process_time() - start
        start = time.process_time()
        warm = ingest_spec(spec)  # fresh IngestCache inside: a true disk hit
        warm_s = time.process_time() - start
    assert not cold.cache_hit and warm.cache_hit, "cache did not behave as cold/warm"
    assert warm.fingerprint == cold.fingerprint, "warm graph diverged from cold"
    return {
        "ingest_cache_cold_s": cold_s,
        "ingest_cache_warm_s": warm_s,
        "ingest_cache_warm_speedup": cold_s / warm_s,
    }


def gate_metrics() -> dict:
    """Reduced-size subset for ``perf_gate.py`` (see thresholds.json)."""
    synthetic = bench_synthetic(num_users=20_000)
    cache = bench_cache(num_users=20_000)
    csv_metrics = bench_csv(num_nodes=4_000)
    return {
        "ingest_synthetic_s": synthetic["ingest_synthetic_s"],
        "ingest_csv_s": csv_metrics["ingest_csv_s"],
        "ingest_cache_warm_speedup": cache["ingest_cache_warm_speedup"],
    }


def run(num_users: int = 100_000, csv_nodes: int = 20_000, output_path: Path = RESULTS_PATH) -> dict:
    result = {
        "synthetic": bench_synthetic(num_users),
        "csv": bench_csv(csv_nodes),
        "cache": bench_cache(num_users // 2),
    }
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w") as handle:
        json.dump(result, handle, indent=2)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=100_000,
                        help="synthetic graph size (default: 100000)")
    parser.add_argument("--csv-nodes", type=int, default=20_000,
                        help="generated CSV dataset size (default: 20000)")
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args()
    result = run(args.users, args.csv_nodes, args.output)
    print(f"wrote {args.output}")
    synthetic = result["synthetic"]
    print(
        f"synthetic: {synthetic['ingest_synthetic_users']:,} users "
        f"({synthetic['ingest_synthetic_edges']:,} edges) in "
        f"{synthetic['ingest_synthetic_s']:.2f}s "
        f"({synthetic['ingest_synthetic_rows_per_s']:,.0f} rows/s)"
    )
    csv_metrics = result["csv"]
    print(
        f"csv: {csv_metrics['ingest_csv_nodes']:,} nodes "
        f"({csv_metrics['ingest_csv_edges']:,} edges) in "
        f"{csv_metrics['ingest_csv_s']:.2f}s "
        f"({csv_metrics['ingest_csv_rows_per_s']:,.0f} rows/s)"
    )
    cache = result["cache"]
    print(
        f"cache: cold {cache['ingest_cache_cold_s']:.3f}s, warm "
        f"{cache['ingest_cache_warm_s']:.3f}s "
        f"({cache['ingest_cache_warm_speedup']:.1f}x warm-start speedup)"
    )


if __name__ == "__main__":
    main()
