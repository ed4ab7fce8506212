"""Training-epoch engine benchmark: collation, epoch and PPR sweep timings.

Runs the same workload three ways — the reference per-subgraph collation
loop (``collate_subgraphs``, timed over blocks normalized once up front by
:func:`block_diag_collate`), the flat vectorized path (``collate_many``)
and the cross-epoch batch cache (``SubgraphStore.collate``) — plus a
dense-vs-column-sparse PPR sweep, and writes the timings to
``benchmarks/results/BENCH_training.json`` so later PRs have a perf
trajectory to compare against.

Not collected by pytest (no ``test_`` prefix); run it directly::

    PYTHONPATH=src python benchmarks/bench_training.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.model import BSG4BotModel
from repro.datasets import load_benchmark
from repro.ppr import multi_source_ppr
from repro.sampling import BiasedSubgraphBuilder, SubgraphBatch, collate_many
from repro.tensor import Adam, cross_entropy

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_training.json"

#: Matches the benchmark suite's "bench" scale (see ``benchmarks/conftest.py``).
NUM_USERS = 400
TWEETS_PER_USER = 12
SUBGRAPH_K = 8
BATCH_SIZE = 64
HIDDEN_DIM = 32
TIMED_EPOCHS = 3


def _best_of(repeats: int, func):
    """Best-of-N CPU time of ``func()`` (stable on shared machines)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.process_time()
        result = func()
        best = min(best, time.process_time() - start)
    return best, result


def block_diag_collate(store, graph):
    """The reference ``collate_subgraphs`` over blocks normalized once, up front.

    Returns ``collate(centers) -> SubgraphBatch``, equal to
    ``collate_subgraphs(store.subgraphs(centers), graph)``: per batch, one
    feature gather per subgraph and one ``sp.block_diag`` per relation.
    Timing it times the reference's assembly without its normalization,
    the same work the flat paths are timed on.
    """
    names = graph.relation_names
    blocks = {
        sg.center: [sg.normalized_relation_adjacency(name) for name in names]
        for sg in store.subgraphs()
    }

    def collate(centers) -> SubgraphBatch:
        members = store.subgraphs(centers)
        sizes = np.array([sg.num_nodes for sg in members], dtype=np.int64)
        member_centers = np.array([sg.center for sg in members], dtype=np.int64)
        return SubgraphBatch(
            features=np.concatenate([graph.features[sg.nodes] for sg in members]),
            relation_adjacencies={
                name: sp.block_diag([blocks[sg.center][index] for sg in members], format="csr")
                for index, name in enumerate(names)
            },
            center_positions=np.cumsum(sizes) - sizes,
            center_nodes=member_centers,
            labels=np.asarray(graph.labels[member_centers], dtype=np.int64),
        )

    return collate


def _epoch_chunks(num_nodes: int, rng: np.random.Generator):
    order = rng.permutation(num_nodes)
    return [order[start : start + BATCH_SIZE] for start in range(0, num_nodes, BATCH_SIZE)]


def run(output_path: Path = RESULTS_PATH) -> dict:
    graph = load_benchmark(
        "mgtab", num_users=NUM_USERS, tweets_per_user=TWEETS_PER_USER, seed=0
    ).graph
    builder = BiasedSubgraphBuilder(graph, graph.features, k=SUBGRAPH_K)

    build_start = time.process_time()
    store = builder.build_store(range(graph.num_nodes))
    construction_s = time.process_time() - build_start

    rng = np.random.default_rng(0)
    chunks = _epoch_chunks(graph.num_nodes, rng)
    # Normalize the reference's blocks and build the flat pack before timing,
    # so both paths are timed on assembly alone.
    reference_collate = block_diag_collate(store, graph)
    [collate_many(store, chunk) for chunk in chunks]

    reference_s, _ = _best_of(3, lambda: [reference_collate(c) for c in chunks])
    flat_s, _ = _best_of(3, lambda: [collate_many(store, c) for c in chunks])
    cached_s, _ = _best_of(3, lambda: [store.collate(c) for c in chunks])

    # Full training epochs (forward + backward + optimizer step) through the
    # reference collation vs the cached epoch engine.
    def make_model():
        return BSG4BotModel(
            in_features=graph.num_features,
            hidden_dim=HIDDEN_DIM,
            relation_names=graph.relation_names,
            rng=np.random.default_rng(1),
        )

    def timed_epochs(collate):
        model = make_model()
        model.train()
        optimizer = Adam(model.parameters(), lr=0.01)
        start = time.process_time()
        for _ in range(TIMED_EPOCHS):
            for chunk in chunks:
                optimizer.zero_grad()
                loss = cross_entropy(model(collate(chunk)), graph.labels[np.sort(chunk)])
                loss.backward()
                optimizer.step()
        return (time.process_time() - start) / TIMED_EPOCHS

    epoch_reference_s = timed_epochs(lambda c: reference_collate(np.sort(c)))
    epoch_engine_s = timed_epochs(lambda c: store.collate(c))

    # PPR sweep over the merged graph: dense rounds only vs column-sparse.
    adjacency = graph.merged_adjacency()
    adjacency = (adjacency + adjacency.T).tocsr()
    sources = np.arange(graph.num_nodes)
    ppr_dense_s, dense_scores = _best_of(
        3, lambda: multi_source_ppr(adjacency, sources, sparse_density=0.0)
    )
    ppr_sparse_s, sparse_scores = _best_of(
        3, lambda: multi_source_ppr(adjacency, sources)
    )
    assert (dense_scores != sparse_scores).nnz == 0, "column-sparse PPR diverged"

    # The column-sparse rounds target large graphs, where push frontiers stay
    # local relative to the node count; measure that regime on a synthetic
    # sparse graph so the trajectory captures it too.
    big_n, big_sources = 20_000, 200
    big_rng = np.random.default_rng(7)
    big_src = big_rng.integers(0, big_n, big_n * 6)
    big_dst = big_rng.integers(0, big_n, big_n * 6)
    keep = big_src != big_dst
    import scipy.sparse as sp

    big = sp.coo_matrix(
        (np.ones(int(keep.sum())), (big_src[keep], big_dst[keep])), shape=(big_n, big_n)
    ).tocsr()
    big.data[:] = 1.0
    big_dense_s, big_dense = _best_of(
        2, lambda: multi_source_ppr(big, np.arange(big_sources), sparse_density=0.0)
    )
    big_sparse_s, big_sparse = _best_of(
        2, lambda: multi_source_ppr(big, np.arange(big_sources))
    )
    assert (big_dense != big_sparse).nnz == 0, "column-sparse PPR diverged (large)"

    result = {
        "scale": {
            "benchmark": "mgtab",
            "num_users": NUM_USERS,
            "num_nodes": int(graph.num_nodes),
            "subgraph_k": SUBGRAPH_K,
            "batch_size": BATCH_SIZE,
            "batches_per_epoch": len(chunks),
        },
        "construction": {"build_store_s": construction_s},
        "collation": {
            "reference_epoch_s": reference_s,
            "flat_epoch_s": flat_s,
            "cached_epoch_s": cached_s,
            "flat_speedup": reference_s / flat_s,
            "cached_speedup": reference_s / cached_s,
        },
        "epoch": {
            "reference_epoch_s": epoch_reference_s,
            "engine_epoch_s": epoch_engine_s,
            "speedup": epoch_reference_s / epoch_engine_s,
        },
        "ppr": {
            "dense_sweep_s": ppr_dense_s,
            "column_sparse_sweep_s": ppr_sparse_s,
            "speedup": ppr_dense_s / ppr_sparse_s,
        },
        "ppr_large_graph": {
            "num_nodes": big_n,
            "num_sources": big_sources,
            "dense_sweep_s": big_dense_s,
            "column_sparse_sweep_s": big_sparse_s,
            "speedup": big_dense_s / big_sparse_s,
        },
        "cache": {
            "hits": int(store.cache_hits),
            "misses": int(store.cache_misses),
        },
    }
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w") as handle:
        json.dump(result, handle, indent=2)
    return result


def main() -> None:
    result = run()
    collation = result["collation"]
    epoch = result["epoch"]
    ppr = result["ppr"]
    print(f"wrote {RESULTS_PATH}")
    print(
        f"collation: reference {collation['reference_epoch_s'] * 1e3:.2f} ms/epoch, "
        f"flat {collation['flat_epoch_s'] * 1e3:.2f} ms "
        f"({collation['flat_speedup']:.1f}x), "
        f"cached {collation['cached_epoch_s'] * 1e3:.3f} ms "
        f"({collation['cached_speedup']:.0f}x)"
    )
    print(
        f"epoch: reference {epoch['reference_epoch_s']:.3f} s, "
        f"engine {epoch['engine_epoch_s']:.3f} s ({epoch['speedup']:.2f}x)"
    )
    print(
        f"ppr sweep: dense {ppr['dense_sweep_s']:.3f} s, "
        f"column-sparse {ppr['column_sparse_sweep_s']:.3f} s ({ppr['speedup']:.2f}x)"
    )
    large = result["ppr_large_graph"]
    print(
        f"ppr sweep ({large['num_nodes']} nodes): dense {large['dense_sweep_s']:.3f} s, "
        f"column-sparse {large['column_sparse_sweep_s']:.3f} s ({large['speedup']:.2f}x)"
    )


if __name__ == "__main__":
    main()
