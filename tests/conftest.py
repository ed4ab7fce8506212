"""Shared fixtures: tiny benchmarks and toy graphs used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_benchmark
from repro.experiments.settings import ExperimentScale
from repro.graph import HeteroGraph


@pytest.fixture(scope="session")
def tiny_scale() -> ExperimentScale:
    """Very small experiment scale used by experiment-harness tests."""
    return ExperimentScale(
        name="tiny",
        benchmark_users={"twibot-20": 150, "twibot-22": 200, "mgtab": 150},
        tweets_per_user=6,
        max_epochs=8,
        patience=4,
        pretrain_epochs=15,
        hidden_dim=16,
        subgraph_k=4,
        batch_size=32,
        seeds=1,
    )


@pytest.fixture(scope="session")
def tiny_mgtab():
    """A small MGTAB-style benchmark shared across tests (read-only)."""
    return load_benchmark("mgtab", num_users=150, tweets_per_user=6, seed=0)


@pytest.fixture(scope="session")
def tiny_twibot22():
    """A small TwiBot-22-style benchmark with communities (read-only)."""
    return load_benchmark("twibot-22", num_users=220, tweets_per_user=6, seed=0, num_communities=4)


def make_separable_graph(
    num_nodes: int = 120,
    num_features: int = 8,
    num_relations: int = 2,
    homophily: float = 0.9,
    seed: int = 0,
    feature_gap: float = 2.0,
) -> HeteroGraph:
    """A synthetic graph whose labels are easy to learn.

    Half the nodes are bots; bot features are shifted by ``feature_gap``; each
    node connects mostly to same-label nodes with probability ``homophily``.
    """
    rng = np.random.default_rng(seed)
    labels = np.zeros(num_nodes, dtype=np.int64)
    labels[num_nodes // 2 :] = 1
    features = rng.normal(size=(num_nodes, num_features))
    features[labels == 1] += feature_gap

    relations = {}
    nodes = np.arange(num_nodes)
    for relation_index in range(num_relations):
        src_list, dst_list = [], []
        for node in range(num_nodes):
            for _ in range(4):
                if rng.random() < homophily:
                    pool = nodes[labels == labels[node]]
                else:
                    pool = nodes[labels != labels[node]]
                target = int(rng.choice(pool))
                if target != node:
                    src_list.append(node)
                    dst_list.append(target)
        relations[f"rel{relation_index}"] = (np.array(src_list), np.array(dst_list))

    order = rng.permutation(num_nodes)
    train = np.zeros(num_nodes, dtype=bool)
    val = np.zeros(num_nodes, dtype=bool)
    test = np.zeros(num_nodes, dtype=bool)
    train[order[: int(0.6 * num_nodes)]] = True
    val[order[int(0.6 * num_nodes) : int(0.8 * num_nodes)]] = True
    test[order[int(0.8 * num_nodes) :]] = True
    return HeteroGraph(
        num_nodes=num_nodes,
        features=features,
        labels=labels,
        relations=relations,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        name="separable-toy",
    )


@pytest.fixture(scope="session")
def separable_graph() -> HeteroGraph:
    return make_separable_graph()


@pytest.fixture(scope="session")
def heterophilic_graph() -> HeteroGraph:
    """Separable features but heterophilic structure (GNN-unfriendly)."""
    return make_separable_graph(homophily=0.2, seed=1)


# ----------------------------------------------------------------------
# Runtime sanitizer wiring (REPRO_SANITIZE=1): every test asserts it added
# no lock-order inversion, and the whole session asserts no shared-memory
# segment outlived its owner.  Both fixtures are no-ops without the flag.
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _sanitize_lock_order():
    from repro.analysis import sanitizer

    if not sanitizer.enabled():
        yield
        return
    before = len(sanitizer.lock_order_violations())
    yield
    new = sanitizer.lock_order_violations()[before:]
    assert not new, "lock-order inversions detected:\n" + "\n".join(new)


@pytest.fixture(autouse=True, scope="session")
def _sanitize_shm_census():
    from repro.analysis import sanitizer

    if not sanitizer.enabled():
        yield
        return
    yield
    # Session fixtures (shared pools, module-scoped services) are torn down
    # before this session-scoped teardown runs, so anything still tracked
    # here really leaked.
    from repro.sampling.biased import shutdown_shared_pool

    shutdown_shared_pool()
    leaks = sanitizer.shm_leaks()
    assert not leaks, "shared-memory segments leaked:\n" + "\n".join(leaks)


def assert_same_batch(reference, flat) -> None:
    """Bit-identical SubgraphBatch contents (the acceptance contract)."""
    np.testing.assert_array_equal(reference.features, flat.features)
    np.testing.assert_array_equal(reference.center_positions, flat.center_positions)
    np.testing.assert_array_equal(reference.center_nodes, flat.center_nodes)
    np.testing.assert_array_equal(reference.labels, flat.labels)
    assert set(reference.relation_adjacencies) == set(flat.relation_adjacencies)
    for name, left in reference.relation_adjacencies.items():
        right = flat.relation_adjacencies[name]
        assert left.shape == right.shape
        for field in ("indptr", "indices", "data"):
            assert getattr(left, field).dtype == getattr(right, field).dtype, field
            np.testing.assert_array_equal(getattr(left, field), getattr(right, field))
