"""Shard planner: partition a graph into halo-padded serving shards.

The cluster serving layer (:class:`repro.serving.cluster.ShardRouter`) runs
one :class:`repro.serving.DetectionService` per shard.  Each shard *owns* a
subset of centers (the nodes it may be asked to score) and carries a local
copy of the graph whose edges are restricted to its **closure** — the owned
nodes plus a halo of boundary neighbors — so subgraph construction never
reads edges the shard doesn't have.

The contract the planner guarantees is the serving bit-identity invariant,
extended to shards: scoring an owned center against the shard-local graph
must produce *exactly* the rows a single full-graph session would, at the
same batching.  Three properties make that hold, and :func:`plan_shards`
verifies the data-dependent ones instead of assuming a fixed halo depth is
enough:

1. **Embeddings** — shard graphs keep the full node space and a full copy
   of the feature matrix, so the preclassifier's hidden representations are
   computed from bitwise-identical input (no row slicing, no remapping).
2. **PPR equality** — for every relation, the push-PPR rows of every owned
   center on the shard-local symmetrized adjacency must equal the rows on
   the full symmetrized adjacency bit-for-bit.  A boundary node with a
   truncated neighbor list has a smaller local degree, which perturbs both
   the push threshold and the transition row; the halo exists to push that
   truncation beyond the reach of any owned center's push.
3. **Support containment** — the union of nonzero PPR columns of owned
   centers must lie inside the closure, so every top-k member set is a
   closure subset and the induced adjacency blocks
   (``adjacency[members][:, members]``) are identical locally and globally
   (the local graph keeps *every* edge incident to the closure).

When verification fails for a shard, the planner widens that shard's halo
by one BFS hop and retries — terminating in the worst case when the closure
covers the component and the local graph degenerates to the full one.

Ownership itself comes from :func:`repro.sampling.clustering.greedy_partition`
(the ClusterGCN-style BFS partitioner), which keeps most edges inside parts
so halos stay thin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.graph import HeteroGraph, to_symmetric
from repro.ppr.batch import multi_source_ppr
from repro.sampling.clustering import greedy_partition


@dataclass
class ShardSpec:
    """One shard: owned centers, halo closure, and the local graph."""

    shard_id: int
    #: Sorted global ids of the centers this shard scores.
    owned: np.ndarray
    #: Sorted global ids of owned ∪ halo; the local graph keeps every edge
    #: incident to this set.
    closure: np.ndarray
    #: BFS hops of halo this shard needed to pass verification.
    halo_hops: int
    #: Full-node-space graph whose relations hold only closure-incident
    #: edges.  Node ids are global everywhere — no remapping.
    graph: HeteroGraph
    #: Membership mask over the full node space (``mask[closure] == True``).
    closure_mask: np.ndarray = field(repr=False, default=None)

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def halo_size(self) -> int:
        return int(self.closure.size - self.owned.size)


@dataclass
class ShardPlan:
    """Partition of a graph into verified serving shards."""

    num_shards: int
    #: ``ownership[node]`` is the shard id that scores ``node``.
    ownership: np.ndarray
    shards: List[ShardSpec]
    seed: int
    #: Planner parameters the verification ran with (from the detector
    #: config at routing time) — kept for re-verification after deltas.
    ppr_alpha: float = 0.15
    ppr_epsilon: float = 1e-4
    verified: bool = False

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        return self.ownership[nodes]

    def stats(self) -> Dict[str, object]:
        """JSON-friendly partition summary (sizes, halo widths, locality)."""
        return {
            "num_shards": self.num_shards,
            "seed": self.seed,
            "verified": self.verified,
            "owned_sizes": [spec.num_owned for spec in self.shards],
            "halo_sizes": [spec.halo_size for spec in self.shards],
            "halo_hops": [spec.halo_hops for spec in self.shards],
            "local_edge_fractions": [
                round(
                    spec.graph.num_edges
                    / max(int(spec.graph.metadata.get("full_num_edges", 0)), 1),
                    4,
                )
                for spec in self.shards
            ],
        }

    def verify(self, graph: HeteroGraph) -> None:
        """Re-check the bit-identity contract of every shard against ``graph``.

        Raises :class:`ShardPlanError` on the first violated shard.  Used at
        plan time (via :func:`plan_shards`) and re-callable after streaming
        deltas to assert the halo still contains every owned center's push
        reach.
        """
        full_sym = _symmetrized_relations(graph)
        for spec in self.shards:
            failure = _verify_shard(
                spec, graph, full_sym, self.ppr_alpha, self.ppr_epsilon
            )
            if failure is not None:
                raise ShardPlanError(
                    f"shard {spec.shard_id} violates the halo contract: {failure}"
                )


class ShardPlanError(RuntimeError):
    """A shard plan failed the bit-identity verification."""


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _symmetrized_relations(graph: HeteroGraph) -> Dict[str, sp.csr_matrix]:
    """Per-relation symmetrized adjacency — exactly what the builders push on."""
    return {name: to_symmetric(graph.relation(name).adjacency()) for name in graph.relation_names}


def _expand_closure(
    merged: sp.csr_matrix, owned_mask: np.ndarray, hops: int
) -> np.ndarray:
    """Boolean mask of nodes within ``hops`` BFS steps of ``owned_mask``."""
    closure = owned_mask.copy()
    frontier = owned_mask.copy()
    for _ in range(hops):
        rows = np.flatnonzero(frontier)
        if rows.size == 0:
            break
        reached = np.asarray(merged[rows].sum(axis=0)).ravel() > 0
        frontier = reached & ~closure
        closure |= reached
        if not frontier.any():
            break
    return closure


def _local_graph(
    graph: HeteroGraph, closure_mask: np.ndarray, shard_id: int
) -> HeteroGraph:
    """Full-node-space copy of ``graph`` keeping closure-incident edges only.

    Features/labels/masks are *copies*: each shard's session owns its
    feature matrix, so streaming feature deltas applied by one shard's
    dispatcher never race another shard's reads.
    """
    relations: Dict[str, tuple] = {}
    for name in graph.relation_names:
        rel = graph.relation(name)
        keep = closure_mask[rel.src] | closure_mask[rel.dst]
        relations[name] = (rel.src[keep].copy(), rel.dst[keep].copy())
    return HeteroGraph(
        num_nodes=graph.num_nodes,
        features=graph.features.copy(),
        labels=graph.labels.copy(),
        relations=relations,
        train_mask=graph.train_mask.copy(),
        val_mask=graph.val_mask.copy(),
        test_mask=graph.test_mask.copy(),
        name=f"{graph.name}-shard{shard_id}",
        metadata={
            **graph.metadata,
            "shard_id": shard_id,
            "full_num_edges": graph.num_edges,
        },
    )


def _verify_shard(
    spec: ShardSpec,
    graph: HeteroGraph,
    full_sym: Dict[str, sp.csr_matrix],
    alpha: float,
    epsilon: float,
) -> Optional[str]:
    """One shard's bit-identity check; returns a failure description or None.

    Per relation: (a) push-PPR rows of every owned center must be exactly
    equal on the local and the full symmetrized adjacency, and (b) the
    nonzero-column support of those rows must lie inside the closure.
    Equal rows + contained support imply equal candidate sets, equal top-k
    member sets, and equal induced adjacency blocks — the whole per-center
    subgraph pipeline, hence (with identical embeddings and weights) equal
    scores at equal batching.

    A shard whose closure is the whole node set skips the sweeps: equal
    edge lists mean both would push on the same adjacency.
    """
    sources = spec.owned
    if sources.size == 0:
        return None
    if spec.closure_mask.all():
        for name in graph.relation_names:
            full, local = graph.relation(name), spec.graph.relation(name)
            if not (np.array_equal(full.src, local.src) and np.array_equal(full.dst, local.dst)):
                return f"local edges differ from the full graph on relation {name!r}"
        return None
    local_sym = _symmetrized_relations(spec.graph)
    for name, full in full_sym.items():
        reference = multi_source_ppr(full, sources, alpha=alpha, epsilon=epsilon)
        local = multi_source_ppr(local_sym[name], sources, alpha=alpha, epsilon=epsilon)
        if (reference != local).nnz != 0:
            return f"PPR rows diverge on relation {name!r}"
        support = np.unique(reference.indices)
        if support.size and not spec.closure_mask[support].all():
            outside = int((~spec.closure_mask[support]).sum())
            return (
                f"PPR support escapes the closure on relation {name!r} "
                f"({outside} node(s) outside)"
            )
    return None


def plan_shards(
    graph: HeteroGraph,
    num_shards: int,
    *,
    halo_hops: int = 1,
    ppr_alpha: float = 0.15,
    ppr_epsilon: float = 1e-4,
    seed: int = 0,
    verify: bool = True,
    max_halo_hops: int = 16,
) -> ShardPlan:
    """Partition ``graph`` into ``num_shards`` verified serving shards.

    ``ppr_alpha`` / ``ppr_epsilon`` must match the detector config the
    shards will serve with (:class:`ShardRouter` reads them from the
    artifact manifest) — the verification pushes with exactly those
    parameters.  ``halo_hops`` is the *starting* halo width; shards that
    fail verification widen their own halo hop by hop up to
    ``max_halo_hops`` before the closure saturates to the full node set.

    With ``verify=False`` the plan is built structurally only (useful for
    very large graphs where the operator has verified a representative
    sample); the bit-identity contract then rests on the chosen
    ``halo_hops`` alone and :meth:`ShardPlan.verify` can be run later.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if halo_hops < 0:
        raise ValueError("halo_hops must be non-negative")
    merged = graph.merged_adjacency(symmetric=True)
    ownership = greedy_partition(merged, num_shards, seed=seed)
    full_sym = _symmetrized_relations(graph) if verify else {}
    shards: List[ShardSpec] = []
    for shard_id in range(num_shards):
        owned = np.flatnonzero(ownership == shard_id)
        owned_mask = ownership == shard_id
        hops = halo_hops
        while True:
            closure_mask = _expand_closure(merged, owned_mask, hops)
            spec = ShardSpec(
                shard_id=shard_id,
                owned=owned,
                closure=np.flatnonzero(closure_mask),
                halo_hops=hops,
                graph=_local_graph(graph, closure_mask, shard_id),
                closure_mask=closure_mask,
            )
            if not verify:
                break
            failure = _verify_shard(spec, graph, full_sym, ppr_alpha, ppr_epsilon)
            if failure is None:
                break
            if hops >= max_halo_hops or closure_mask.all():
                raise ShardPlanError(
                    f"shard {shard_id} still fails at halo_hops={hops}: {failure}"
                )
            hops += 1
        shards.append(spec)
    return ShardPlan(
        num_shards=num_shards,
        ownership=ownership,
        shards=shards,
        seed=seed,
        ppr_alpha=ppr_alpha,
        ppr_epsilon=ppr_epsilon,
        verified=bool(verify),
    )
