"""Dataset-adapter pipeline demo: spec -> ingest -> fit -> serve -> score.

Run with::

    python examples/adapter_demo.py

The script writes a declarative dataset spec for the seeded
:class:`SyntheticBotnetAdapter` (a homophily-structured botnet graph with
ground-truth labels), ingests it through the chunked adapter path twice —
once cold, once as a content-addressed cache hit with an identical graph
fingerprint — trains a small BSG4Bot on the result, and saves an artifact
whose manifest records the *spec* as dataset provenance.  It then stands
up the HTTP serving front door from the artifact alone (no graph
passed: the spec is replayed from provenance, hitting the ingest cache),
scores nodes over real HTTP, and compares the verdicts against the
generator's ground truth.  Shutdown is clean: no dispatcher threads, no
process pool, no shared-memory segments left behind.
"""

from __future__ import annotations

import json
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from cluster_demo import ServerThread

from repro import api
from repro.datasets.adapters import ingest_spec, load_dataset_spec
from repro.serving.cluster import ShardRouter


def write_spec(scratch: Path) -> Path:
    """A spec file is the whole dataset description: source + split + cache."""
    spec_path = scratch / "synthetic.json"
    spec_path.write_text(json.dumps({
        "name": "demo-botnet",
        "adapter": "synthetic",
        "source": {
            "num_users": 400,
            "bot_ratio": 0.3,
            "homophily": 0.75,      # humans prefer same-label neighbours...
            "bot_homophily": 0.15,  # ...bots burrow into the human crowd
            "burstiness": 0.6,
            "avg_degree": 6,
            "num_relations": 2,
            "num_communities": 4,
            "seed": 42,
        },
        "split": {"train_fraction": 0.6, "val_fraction": 0.2, "seed": 5},
        "cache": {"dir": str(scratch / "ingest-cache")},
    }, indent=2))
    return spec_path


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-adapter-demo-") as tmp:
        scratch = Path(tmp)
        spec_path = write_spec(scratch)
        spec = load_dataset_spec(spec_path)
        print(f"Spec {spec_path.name}: adapter={spec.adapter!r} name={spec.name!r}")

        print("\nIngesting (cold) through the chunked adapter path...")
        cold = ingest_spec(spec)
        graph = cold.graph
        bots = int(graph.labels.sum())
        print(
            f"  {graph.num_nodes} nodes ({bots} bots), {graph.num_edges} edges "
            f"across {graph.num_relations} relations in {cold.elapsed_s:.2f}s"
        )
        print(f"  fingerprint {cold.fingerprint[:16]}...")

        warm = ingest_spec(spec)
        assert warm.cache_hit and warm.fingerprint == cold.fingerprint
        print(
            f"Ingesting (warm): content-addressed cache hit in "
            f"{warm.elapsed_s:.3f}s, identical fingerprint"
        )

        print("\nTraining BSG4Bot (small serving configuration)...")
        detector = api.create_detector({
            "name": "bsg4bot",
            "scale": None,
            "seed": 0,
            "overrides": {
                "pretrain_epochs": 30, "hidden_dim": 16, "pretrain_hidden_dim": 16,
                "subgraph_k": 5, "max_epochs": 6, "patience": 3,
            },
        })
        history = detector.fit(graph)
        print(f"  converged after {history.num_epochs} epochs ({history.total_time:.1f}s)")

        artifact = api.save_detector(
            detector, scratch / "artifact",
            dataset={"spec": spec.to_dict(), "test": False},
        )
        print(f"  artifact saved to {artifact} (manifest records the spec)")

        print("\nServing from the artifact ALONE — provenance replays the spec")
        print("(a warm cache hit) into one detection service...")
        router = ShardRouter.from_artifact(
            artifact, max_batch_size=32, max_wait_ms=3.0,
        )
        try:
            with ServerThread(router) as server:
                health = server.request("/healthz")
                print(
                    f"  http://127.0.0.1:{server.port} — healthz: {health['status']}"
                )

                nodes = list(range(24))
                print(f"Scoring {len(nodes)} nodes over HTTP (concurrent requests)...")
                def score(node: int):
                    return node, server.request("/score", {"nodes": [node]})

                with ThreadPoolExecutor(max_workers=8) as pool:
                    verdicts = dict(pool.map(score, nodes))
                hits = sum(
                    (verdicts[n]["probabilities"][0][1] >= 0.5) == bool(graph.labels[n])
                    for n in nodes
                )
                print(
                    f"  {hits}/{len(nodes)} verdicts agree with the generator's "
                    f"ground-truth labels"
                )

                totals = server.request("/metrics")["cluster_totals"]
                print(
                    f"  /metrics: {totals['requests']} requests in "
                    f"{totals['waves']} waves"
                )
        finally:
            router.close()
        print("\nClean shutdown: service closed, pool released, shm empty.")


if __name__ == "__main__":
    main()
