"""The ``fit`` workload's working process: ``repro fit`` done through
``repro.api``, repeated in whole rounds within the measured seconds.

Started by ``run.py`` (never by hand).  Set-up is generating the mgtab graph;
one round creates BSG4Bot with the small-scale config, the training seed
``--seed`` and a pinned epoch count, trains, evaluates on the test split and
saves the artifact.  Every figure is timed here, on this process's
monotonic clock; the program's own epoch timer is only passed on for the
traced run.  After the timed rounds it writes the raw outputs the parent
checks (every round's test-split probabilities, a reload of the artifact, a
seeded sample of stored subgraphs with their per-node reference builds, the
raw relation edges).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.pin_threads()

common.require_program()

import numpy as np  # noqa: E402

#: Stored subgraphs sampled for the structural checks.
SUBGRAPH_SAMPLE = 12


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install_model_layers(recorder)

    from repro import api
    from repro.datasets import load_benchmark

    dataset = dict(common.FIT_DATASET)
    generate_started = time.monotonic()
    graph = load_benchmark(**dataset).graph
    ready = time.monotonic()

    spec = {
        "name": "bsg4bot",
        "scale": "small",
        "seed": args.seed,
        "overrides": {"min_epochs": common.EPOCHS, "max_epochs": common.EPOCHS},
    }
    rounds = []
    first_detector = None
    test_nodes = graph.test_indices()
    round_probabilities = []
    artifact = out / "artifact"
    # Whole rounds only: another round starts while one more of the last
    # round's length still ends within the measured seconds.
    deadline = ready + args.seconds
    while not rounds or time.monotonic() + rounds[-1]["fit_s"] <= deadline:
        cpu_started = time.process_time()
        started = time.monotonic()
        detector = api.create_detector(spec)
        train_started = time.monotonic()
        history = detector.fit(graph)
        trained = time.monotonic()
        report = detector.evaluate(graph)
        if recorder is not None:
            with recorder.span("api.save"):
                api.save_detector(detector, artifact, dataset=dataset)
        else:
            api.save_detector(detector, artifact, dataset=dataset)
        finished = time.monotonic()
        rounds.append(
            {
                "start": started,
                "end": finished,
                "fit_s": finished - started,
                "train_s": trained - train_started,
                "finish_s": finished - trained,
                "cpu_s": time.process_time() - cpu_started,
                "epoch_times": list(history.epoch_times),
                "epochs": history.num_epochs,
                "train_nodes": int(graph.train_indices().size),
                "accuracy": float(report["accuracy"]),
            }
        )
        # Outside the timed round: the probabilities the checks use.
        round_probabilities.append(detector.predict_proba_nodes(test_nodes))
        if first_detector is None:
            first_detector = detector
    peak_rss_mb = common.vm_hwm_mb("self")

    if recorder is not None:
        recorder.enabled = False
        recorder.dump(out / "spans.json")

    # Raw outputs for the parent's checks.
    reloaded = api.load_detector(artifact, graph=graph)
    reload_probabilities = reloaded.predict_proba_nodes(test_nodes)
    store = first_detector.store
    rng = np.random.default_rng(args.seed)
    centers = sorted(int(c) for c in rng.choice(store.nodes(), SUBGRAPH_SAMPLE, replace=False))
    builder = first_detector.builder
    payload = {
        "labels": graph.labels,
        "test_nodes": test_nodes,
        "round_probabilities": np.stack(round_probabilities),
        "reload_probabilities": reload_probabilities,
        "centers": np.array(centers, dtype=np.int64),
    }
    relations = list(graph.relation_names)
    for index, name in enumerate(relations):
        relation = graph.relation(name)
        payload[f"raw_src_{index}"] = relation.src
        payload[f"raw_dst_{index}"] = relation.dst
    for position, center in enumerate(centers):
        for tag, subgraph in (("stored", store.get(center)), ("reference", builder.build(center))):
            payload[f"{tag}_nodes_{position}"] = subgraph.nodes
            for index, name in enumerate(relations):
                src, dst = subgraph.relation_edges.get(
                    name, (np.empty(0, np.int64), np.empty(0, np.int64))
                )
                payload[f"{tag}_src_{position}_{index}"] = np.asarray(src, dtype=np.int64)
                payload[f"{tag}_dst_{position}_{index}"] = np.asarray(dst, dtype=np.int64)
    np.savez(out / "fit_outputs.npz", **payload)
    summary = {
        "generate_started": generate_started,
        "ready": ready,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "relations": relations,
        "subgraph_k": int(first_detector.config.subgraph_k),
    }
    with open(out / "fit_summary.json", "w") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
