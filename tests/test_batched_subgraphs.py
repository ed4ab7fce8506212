"""Equivalence, regression and serialization tests for the batched
subgraph-construction engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling import (
    BiasedSubgraphBuilder,
    PPRSubgraphBuilder,
    Subgraph,
    SubgraphStore,
)
from tests.conftest import assert_same_batch, make_separable_graph


@pytest.fixture(scope="module")
def hetero_graph():
    """Seeded random heterogeneous graph (3 relations, mixed homophily)."""
    return make_separable_graph(num_nodes=120, num_relations=3, homophily=0.7, seed=17)


@pytest.fixture(scope="module")
def builder(hetero_graph):
    return BiasedSubgraphBuilder(hetero_graph, hetero_graph.features, k=6)


def assert_same_subgraph(a: Subgraph, b: Subgraph) -> None:
    assert a.center == b.center
    np.testing.assert_array_equal(a.nodes, b.nodes)
    assert set(a.relation_edges) == set(b.relation_edges)
    for relation in a.relation_edges:
        left = a.relation_adjacency(relation)
        right = b.relation_adjacency(relation)
        assert (left != right).nnz == 0


class TestBatchedEquivalence:
    def test_batched_matches_per_node_build(self, hetero_graph, builder):
        """The batched engine selects the same per-relation node sets (and
        therefore the same edges) as the per-node ``build`` path."""
        nodes = np.arange(hetero_graph.num_nodes)
        batched = builder.build_batch(nodes)
        for node, subgraph in zip(nodes, batched):
            assert_same_subgraph(builder.build(int(node)), subgraph)

    def test_ppr_only_variant_matches(self, hetero_graph):
        ppr_builder = PPRSubgraphBuilder(hetero_graph, k=5)
        nodes = np.arange(0, hetero_graph.num_nodes, 3)
        for node, subgraph in zip(nodes, ppr_builder.build_batch(nodes)):
            assert_same_subgraph(ppr_builder.build(int(node)), subgraph)

    def test_batch_of_one(self, builder):
        assert_same_subgraph(builder.build(4), builder.build_batch([4])[0])

    def test_empty_batch(self, builder):
        assert builder.build_batch([]) == []

    def test_duplicate_frontier_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.build_batch([1, 2, 1])

    def test_store_methods_agree(self, hetero_graph, builder):
        nodes = list(range(0, 40))
        sequential = builder.build_store(nodes, method="sequential")
        batched = builder.build_store(nodes, method="batched")
        assert sorted(sequential.nodes()) == sorted(batched.nodes())
        for node in nodes:
            assert_same_subgraph(sequential.get(node), batched.get(node))

    def test_process_pool_path_agrees(self, hetero_graph, builder):
        nodes = list(range(0, 30))
        serial = builder.build_store(nodes)
        parallel = builder.build_store(nodes, workers=2)
        for node in nodes:
            assert_same_subgraph(serial.get(node), parallel.get(node))

    def test_invalid_method_rejected(self, builder):
        with pytest.raises(ValueError):
            builder.build_store([0], method="magic")


class TestBuildStoreRegression:
    def test_passed_empty_store_is_extended_not_discarded(self, hetero_graph, builder):
        """Regression: an *empty* passed-in store is falsy (``__len__``) and
        used to be silently replaced by a fresh store."""
        store = SubgraphStore(hetero_graph)
        result = builder.build_store([0, 1, 2], store=store)
        assert result is store
        assert len(store) == 3

    def test_existing_entries_are_not_rebuilt(self, hetero_graph, builder):
        store = SubgraphStore(hetero_graph)
        sentinel = builder.build(0)
        store.add(sentinel)
        result = builder.build_store([0, 1], store=store)
        assert result.get(0) is sentinel
        assert 1 in result

    def test_duplicate_nodes_deduplicated(self, hetero_graph, builder):
        store = builder.build_store([3, 3, 4, 4, 3])
        assert sorted(store.nodes()) == [3, 4]


class TestStoreSerialization:
    def test_roundtrip(self, tmp_path, hetero_graph, builder):
        store = builder.build_store(range(25))
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = SubgraphStore.load(path, hetero_graph)
        assert sorted(loaded.nodes()) == sorted(store.nodes())
        for node in store.nodes():
            assert_same_subgraph(store.get(node), loaded.get(node))

    def test_roundtrip_empty_store(self, tmp_path, hetero_graph):
        store = SubgraphStore(hetero_graph)
        path = tmp_path / "empty.npz"
        store.save(path)
        loaded = SubgraphStore.load(path, hetero_graph)
        assert len(loaded) == 0

    def test_loaded_store_batches_like_original(self, tmp_path, hetero_graph, builder):
        store = builder.build_store(range(12))
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = SubgraphStore.load(path, hetero_graph)
        original = next(iter(store.batches(range(12), batch_size=12)))
        restored = next(iter(loaded.batches(range(12), batch_size=12)))
        np.testing.assert_allclose(original.features, restored.features)
        for relation in original.relation_adjacencies:
            delta = (
                original.relation_adjacencies[relation]
                - restored.relation_adjacencies[relation]
            )
            assert abs(delta).max() < 1e-12

    def test_roundtrip_writes_raw_edges_only(
        self, tmp_path, hetero_graph, builder, monkeypatch
    ):
        """``save`` writes no ``norm_*`` arrays but keeps ``centers`` and
        ``node_offsets``; the loaded store rebuilds its pack in one pass and
        collates bit-identically without any per-subgraph normalization."""
        store = builder.build_store(range(15))
        expected = store.collate(range(15))
        path = tmp_path / "store.npz"
        store.save(path)
        with np.load(path) as payload:
            assert not [key for key in payload.files if key.startswith("norm_")]
            np.testing.assert_array_equal(payload["centers"], store.nodes())
            np.testing.assert_array_equal(
                np.diff(payload["node_offsets"]),
                [subgraph.num_nodes for subgraph in store.subgraphs()],
            )
        loaded = SubgraphStore.load(path, hetero_graph)
        assert not loaded.has_collation_pack(normalize=True)

        def fail(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("collation re-normalized a single subgraph")

        monkeypatch.setattr(Subgraph, "normalized_relation_adjacency", fail)
        assert_same_batch(expected, loaded.collate(range(15)))


class TestSharedWorkerPool:
    def test_pool_reused_across_build_store_calls(self, hetero_graph, builder):
        from repro.sampling import biased

        biased.shutdown_shared_pool()
        builder.build_store(range(0, 12), workers=2)
        first = biased._shared_pool
        assert first is not None
        builder.build_store(range(12, 24), workers=2)
        assert biased._shared_pool is first

    def test_pool_grows_for_more_workers(self, hetero_graph, builder):
        from repro.sampling import biased

        biased.shutdown_shared_pool()
        pool = biased.shared_process_pool(1)
        grown = biased.shared_process_pool(2)
        assert grown is not pool
        assert biased.shared_process_pool(1) is grown  # never shrinks
        biased.shutdown_shared_pool()
        assert biased._shared_pool is None

    def test_invalid_worker_count_rejected(self):
        from repro.sampling import biased

        with pytest.raises(ValueError):
            biased.shared_process_pool(0)


class TestBatchedSpeed:
    def test_batched_engine_is_faster_at_benchmark_scale(self):
        """Acceptance check: >= 5x over the per-node path, same selections.

        CPU time and best-of-3 keep the measurement stable when the suite
        shares the machine with other work.
        """
        import time

        graph = make_separable_graph(num_nodes=450, num_relations=2, seed=23)
        builder = BiasedSubgraphBuilder(graph, graph.features, k=8)
        nodes = np.arange(graph.num_nodes)

        def cpu_time(func):
            best = float("inf")
            result = None
            for _ in range(3):
                start = time.process_time()
                result = func()
                best = min(best, time.process_time() - start)
            return best, result

        per_node_time, per_node = cpu_time(
            lambda: [builder.build(int(node)) for node in nodes]
        )
        batched_time, batched = cpu_time(lambda: builder.build_batch(nodes))

        for left, right in zip(per_node, batched):
            assert_same_subgraph(left, right)
        speedup = per_node_time / batched_time
        assert speedup >= 5.0, f"batched engine only {speedup:.1f}x faster"
