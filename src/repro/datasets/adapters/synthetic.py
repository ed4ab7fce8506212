"""Seeded synthetic botnet graphs with known ground truth.

:class:`SyntheticBotnetAdapter` generates graphs that mimic the statistical
structure the paper's mechanisms rely on — humans interconnect while bots
attach mostly to humans (Figure 1 homophily), bots post with regular
temporal activity while humans are bursty (Section II-B) — but at **any**
size, from a single integer seed, bit-identically on regeneration.  That
makes it simultaneously:

* the third leg of the CI dataset matrix (the seed-determinism leg),
* the scale input for ``benchmarks/bench_scale.py`` at node counts the
  bundled benchmarks can't reach,
* a controllable testbed: ``homophily``, ``bot_ratio`` and ``burstiness``
  knobs move the detection difficulty in known directions.

Everything is materialized once (vectorized numpy from a single
``default_rng(seed)`` stream) and the chunk iterators yield views — so the
stream is identical for every chunk size by construction, and the
chunked-vs-one-shot oracle holds trivially.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets.adapters.base import (
    AdapterError,
    DatasetAdapter,
    EdgeChunk,
    NodeChunk,
    SplitPolicy,
    _pop_common,
    _reject_unknown,
    register_adapter,
)

#: Relation names assigned in order; generators past the list get ``relN``.
_RELATION_NAMES = ("following", "follower", "mention", "reply", "quote")


class SyntheticBotnetAdapter(DatasetAdapter):
    """Parametric bot/human graph generator with ground-truth labels."""

    name = "synthetic"

    def __init__(
        self,
        num_users: int = 1000,
        bot_ratio: float = 0.3,
        homophily: float = 0.7,
        bot_homophily: float = 0.15,
        burstiness: float = 0.5,
        avg_degree: float = 8.0,
        num_relations: int = 2,
        num_communities: int = 4,
        feature_dim: int = 12,
        temporal_dim: int = 8,
        separation: float = 1.0,
        cross_community: float = 0.05,
        seed: int = 0,
        split: Optional[SplitPolicy] = None,
        max_nodes: Optional[int] = None,
        drop_dangling: Optional[bool] = None,
    ) -> None:
        super().__init__(split=split, max_nodes=max_nodes, drop_dangling=drop_dangling)
        if num_users < 4:
            raise AdapterError("num_users must be at least 4")
        if not 0.0 < bot_ratio < 1.0:
            raise AdapterError("bot_ratio must be in (0, 1)")
        for key, value in (
            ("homophily", homophily),
            ("bot_homophily", bot_homophily),
            ("burstiness", burstiness),
            ("cross_community", cross_community),
        ):
            if not 0.0 <= value <= 1.0:
                raise AdapterError(f"{key} must be in [0, 1], got {value}")
        if avg_degree <= 0:
            raise AdapterError("avg_degree must be positive")
        if num_relations < 1 or num_communities < 1:
            raise AdapterError("num_relations and num_communities must be >= 1")
        if feature_dim < 1 or temporal_dim < 1:
            raise AdapterError("feature_dim and temporal_dim must be >= 1")
        self.num_users = int(num_users)
        self.bot_ratio = float(bot_ratio)
        self.homophily = float(homophily)
        self.bot_homophily = float(bot_homophily)
        self.burstiness = float(burstiness)
        self.avg_degree = float(avg_degree)
        self.num_relations = int(num_relations)
        self.num_communities = int(num_communities)
        self.feature_dim = int(feature_dim)
        self.temporal_dim = int(temporal_dim)
        self.separation = float(separation)
        self.cross_community = float(cross_community)
        self.seed = int(seed)
        self._materialized: Optional[
            Tuple[np.ndarray, np.ndarray, Dict[str, Tuple[np.ndarray, np.ndarray]]]
        ] = None

    # -- generation -----------------------------------------------------
    def _materialize(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Tuple[np.ndarray, np.ndarray]]]:
        """Generate all arrays once; chunk iterators slice views of these."""
        if self._materialized is not None:
            return self._materialized
        rng = np.random.default_rng(self.seed)
        n = self.num_users

        labels = (rng.random(n) < self.bot_ratio).astype(np.int64)
        # Degenerate draws at tiny sizes: guarantee both classes exist so
        # stratified splits and binary training stay well-defined.
        if labels.sum() == 0:
            labels[0] = 1
        elif labels.sum() == n:
            labels[0] = 0
        communities = rng.integers(0, self.num_communities, size=n)

        features = self._draw_features(rng, labels, communities)
        relations: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for index in range(self.num_relations):
            if index < len(_RELATION_NAMES):
                rel_name = _RELATION_NAMES[index]
            else:
                rel_name = f"rel{index}"
            relations[rel_name] = self._draw_edges(rng, labels, communities)
        self._materialized = (features, labels, relations)
        return self._materialized

    def _draw_features(
        self, rng: np.random.Generator, labels: np.ndarray, communities: np.ndarray
    ) -> np.ndarray:
        n = labels.shape[0]
        bots = labels == 1
        # Static block: Gaussian noise + a class mean shift (detection
        # difficulty scales inversely with `separation`) + a small
        # community offset so communities are distinguishable structure.
        static = rng.standard_normal((n, self.feature_dim))
        direction = rng.standard_normal(self.feature_dim)
        direction /= np.linalg.norm(direction)
        static[bots] += self.separation * direction
        static += 0.25 * (communities[:, None] / max(1, self.num_communities - 1))
        # Temporal block: normalized activity histograms.  Humans get a
        # small gamma shape (spiky — a few bins dominate) that shrinks as
        # `burstiness` grows; bots get a large, flat shape (regular
        # activity, Section II-B).
        human_alpha = max(0.08, 1.5 * (1.0 - self.burstiness) + 0.05)
        bot_alpha = 6.0
        alphas = np.where(bots, bot_alpha, human_alpha)[:, None]
        temporal = rng.gamma(alphas, 1.0, size=(n, self.temporal_dim))
        temporal /= temporal.sum(axis=1, keepdims=True) + 1e-12
        return np.concatenate([static, temporal], axis=1)

    def _draw_edges(
        self, rng: np.random.Generator, labels: np.ndarray, communities: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One relation's edge lists via grouped vectorized sampling."""
        n = labels.shape[0]
        degrees = rng.poisson(self.avg_degree, size=n)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        num_edges = src.shape[0]
        if num_edges == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

        # Target label: same as source with the class's homophily.
        src_labels = labels[src]
        same_label_prob = np.where(src_labels == 1, self.bot_homophily, self.homophily)
        same_label = rng.random(num_edges) < same_label_prob
        dst_labels = np.where(same_label, src_labels, 1 - src_labels)
        # Target community: own community unless the edge escapes.
        escapes = rng.random(num_edges) < self.cross_community
        dst_comms = np.where(
            escapes, rng.integers(0, self.num_communities, size=num_edges), communities[src]
        )

        # Node pools per (community, label); empty pools fall back to the
        # global pool for that label (both classes are guaranteed above).
        label_pools = {c: np.flatnonzero(labels == c) for c in (0, 1)}
        dst = np.empty(num_edges, dtype=np.int64)
        for community in range(self.num_communities):
            for label in (0, 1):
                members = (dst_comms == community) & (dst_labels == label)
                count = int(members.sum())
                if count == 0:
                    continue
                pool = np.flatnonzero((communities == community) & (labels == label))
                if pool.shape[0] == 0:
                    pool = label_pools[label]
                dst[members] = pool[rng.integers(0, pool.shape[0], size=count)]
        keep = src != dst
        return (src[keep], dst[keep])

    # -- adapter contract -----------------------------------------------
    def iter_node_chunks(self, chunk_size: int) -> Iterator[NodeChunk]:
        features, labels, _ = self._materialize()
        for start in range(0, self.num_users, chunk_size):
            stop = min(start + chunk_size, self.num_users)
            yield NodeChunk(
                ids=list(range(start, stop)),
                features=features[start:stop],
                labels=labels[start:stop],
            )

    def iter_edge_chunks(self, chunk_size: int) -> Iterator[EdgeChunk]:
        _, _, relations = self._materialize()
        for rel_name, (src, dst) in relations.items():
            for start in range(0, src.shape[0], chunk_size):
                stop = min(start + chunk_size, src.shape[0])
                yield EdgeChunk(
                    relation=rel_name,
                    src=src[start:stop],
                    dst=dst[start:stop],
                )

    def graph_name(self) -> str:
        return f"synthetic-{self.num_users}-{self.seed}"

    def metadata(self) -> Dict[str, object]:
        return {
            "adapter": self.name,
            "num_users": self.num_users,
            "bot_ratio": self.bot_ratio,
            "homophily": self.homophily,
            "bot_homophily": self.bot_homophily,
            "burstiness": self.burstiness,
            "avg_degree": self.avg_degree,
            "num_relations": self.num_relations,
            "num_communities": self.num_communities,
            "seed": self.seed,
        }

    def source_files(self) -> List[Path]:
        return []


@register_adapter("synthetic")
def _build_synthetic(params: dict) -> SyntheticBotnetAdapter:
    common = _pop_common(params)
    _reject_unknown(
        params,
        (
            "num_users",
            "bot_ratio",
            "homophily",
            "bot_homophily",
            "burstiness",
            "avg_degree",
            "num_relations",
            "num_communities",
            "feature_dim",
            "temporal_dim",
            "separation",
            "cross_community",
            "seed",
        ),
    )
    return SyntheticBotnetAdapter(**params, **common)


def synthetic_graph(**params):
    """Convenience: materialize a synthetic graph in one call.

    Used by ``benchmarks/bench_scale.py`` to get million-node-capable
    inputs with ground-truth labels.
    """
    return SyntheticBotnetAdapter(**params).ingest()
