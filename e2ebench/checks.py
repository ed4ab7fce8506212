"""Correctness checks on the program's outputs.

Every check compares against a computation made apart from the program
(plain NumPy on the raw inputs, the client's own tallies) or against a
property the method must have.  Each returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

#: Accuracy must beat the majority-class rate by this many points.  Ten
#: pinned epochs reach 95-100% against a 77.5% majority rate on the fit
#: graph (training seeds 0-19), and the serving artifact 95% against 76.25%.
ACCURACY_MARGIN = 0.10
#: A probability row sums to 1 within this (softmax in float64).
ROW_SUM_TOLERANCE = 1e-9


def accuracy_margin(probabilities, labels, nodes, margin: float = ACCURACY_MARGIN) -> List[str]:
    """Verdicts (argmax) on ``nodes`` beat the majority rate by ``margin``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    truth = np.asarray(labels)[nodes]
    if nodes.size == 0:
        return ["no labelled nodes to score"]
    accuracy = float(np.mean(np.asarray(probabilities).argmax(axis=1) == truth))
    majority = float(np.bincount(truth).max()) / truth.size
    if accuracy < majority + margin:
        return [
            f"accuracy {accuracy:.4f} on {nodes.size} nodes does not beat the "
            f"majority rate {majority:.4f} by {margin:.2f}"
        ]
    return []


def bit_equal(actual, expected, what: str) -> List[str]:
    """Same shape and the same float64 bits."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != {expected.shape}"]
    differ = actual.view(np.int64) != expected.view(np.int64)
    if differ.any():
        row = int(np.argwhere(differ)[0][0])
        return [f"{what}: {int(differ.sum())} value(s) differ, first in row {row}"]
    return []


def same_rounds(rounds) -> List[str]:
    """Every fit round's probabilities equal the first round's bit for bit."""
    first, *later = rounds
    errors: List[str] = []
    for number, probabilities in enumerate(later, start=2):
        errors += bit_equal(probabilities, first, f"round {number} vs round 1")
    return errors


def probability_rows(probabilities, requested: int, what: str) -> List[str]:
    """One row per requested node, each non-negative and summing to 1."""
    rows = np.asarray(probabilities, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != requested:
        return [f"{what}: {rows.shape} rows for {requested} requested node(s)"]
    errors = []
    if (rows < 0).any():
        errors.append(f"{what}: negative probability")
    sums = rows.sum(axis=1)
    if np.abs(sums - 1.0).max(initial=0.0) > ROW_SUM_TOLERANCE:
        errors.append(f"{what}: a row sums to {sums[np.argmax(np.abs(sums - 1.0))]!r}")
    return errors


def counters_match(server: Mapping[str, int], client: Mapping[str, int]) -> List[str]:
    """The server's counters equal the client's own totals."""
    return [
        f"server {name} = {server.get(name)} but the client counted {value}"
        for name, value in client.items()
        if server.get(name) != value
    ]


def read_your_writes(delta_seqs: Mapping[str, int], update_seqs: Mapping[str, int]) -> List[str]:
    """A read after an update is served at or past the update's sequence."""
    errors = []
    for shard, seq in update_seqs.items():
        served = delta_seqs.get(shard)
        if served is None or served < seq:
            errors.append(f"shard {shard}: read served at {served}, update was {seq}")
    return errors


def subgraph_structure(
    center: int,
    nodes: np.ndarray,
    relation_edges: Sequence[tuple],
    raw_edges: Sequence[tuple],
    k: int,
) -> List[str]:
    """Recompute a stored subgraph's edges from the raw relation edge lists.

    ``relation_edges[r]`` is the subgraph's local ``(src, dst)`` for
    relation ``r`` and ``raw_edges[r]`` the graph's global ``(src, dst)``.
    The selected neighbours of a relation are the sources of its star edges
    (``-> local 0``).  The expected edge list is the graph's edges among the
    center and those neighbours plus one star edge per neighbour.
    """
    errors = []
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0 or nodes[0] != center:
        return [f"center {center}: not at local position 0"]
    if np.unique(nodes).size != nodes.size:
        errors.append(f"center {center}: duplicate member nodes")
    covered = np.zeros(nodes.size, dtype=bool)
    covered[0] = True
    for relation, ((src, dst), (raw_src, raw_dst)) in enumerate(zip(relation_edges, raw_edges)):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size and (src.max() >= nodes.size or dst.max() >= nodes.size or min(src.min(), dst.min()) < 0):
            errors.append(f"center {center} relation {relation}: local index out of range")
            continue
        selected = np.unique(src[(dst == 0) & (src != 0)])
        if selected.size > k:
            errors.append(
                f"center {center} relation {relation}: {selected.size} neighbours > k={k}"
            )
        covered[selected] = True
        members = np.concatenate(([0], selected))
        member_ids = nodes[members]
        raw_src = np.asarray(raw_src, dtype=np.int64)
        raw_dst = np.asarray(raw_dst, dtype=np.int64)
        inside = np.isin(raw_src, member_ids) & np.isin(raw_dst, member_ids)
        global_pairs = np.unique(np.stack([raw_src[inside], raw_dst[inside]], axis=1), axis=0)
        to_local = dict(zip(member_ids.tolist(), members.tolist()))
        induced = [(to_local[a], to_local[b]) for a, b in global_pairs.tolist()]
        star = [(int(s), 0) for s in selected]
        expected = sorted(induced + star)
        actual = sorted(zip(src.tolist(), dst.tolist()))
        if actual != expected:
            errors.append(
                f"center {center} relation {relation}: {len(actual)} edges, "
                f"expected {len(expected)} from the raw edge list"
            )
    if not covered.all():
        errors.append(f"center {center}: member nodes selected by no relation")
    return errors


def same_subgraph(stored: Dict[str, object], reference: Dict[str, object], center: int) -> List[str]:
    """The stored (batched) subgraph equals the per-node reference build."""
    if not np.array_equal(stored["nodes"], reference["nodes"]):
        return [f"center {center}: members differ from the per-node reference build"]
    for relation, (a, b) in enumerate(zip(stored["edges"], reference["edges"])):
        if not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])):
            return [f"center {center} relation {relation}: edges differ from the reference build"]
    return []
