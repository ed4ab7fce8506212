"""The end-to-end benchmark's own tests: every correctness check fails on a
deliberately corrupted output, the percentile helper refuses unsupported
tails, and the runner refuses a directory without the program.  No server
is started; everything finishes in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import ledger  # noqa: E402
import spans  # noqa: E402
from common import Percentiles, trimmed_mean  # noqa: E402


def softmax_rows(count: int, seed: int = 0) -> np.ndarray:
    logits = np.random.default_rng(seed).normal(size=(count, 2))
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


class TestProbabilityRows:
    def test_valid_rows_pass(self):
        assert checks.probability_rows(softmax_rows(8), 8, "rows") == []

    def test_row_not_summing_to_one_fails(self):
        rows = softmax_rows(8)
        rows[3, 0] += 1e-6
        assert checks.probability_rows(rows, 8, "rows")

    def test_negative_probability_fails(self):
        rows = softmax_rows(4)
        rows[1] = [-0.25, 1.25]
        assert checks.probability_rows(rows, 4, "rows")

    def test_missing_row_fails(self):
        assert checks.probability_rows(softmax_rows(3), 4, "rows")


class TestBitEqual:
    def test_identical_passes(self):
        rows = softmax_rows(6)
        assert checks.bit_equal(rows.copy(), rows, "rows") == []

    def test_two_swapped_rows_fail(self):
        rows = softmax_rows(6)
        swapped = rows.copy()
        swapped[[1, 4]] = swapped[[4, 1]]
        assert checks.bit_equal(swapped, rows, "rows")

    def test_one_ulp_fails(self):
        rows = softmax_rows(6)
        nudged = rows.copy()
        nudged[2, 1] = np.nextafter(nudged[2, 1], 1.0)
        assert checks.bit_equal(nudged, rows, "rows")


class TestSameRounds:
    def test_identical_rounds_pass(self):
        rows = softmax_rows(6)
        assert checks.same_rounds(np.stack([rows, rows, rows, rows])) == []

    def test_corrupted_middle_round_fails(self):
        rows = softmax_rows(6)
        middle = rows.copy()
        middle[[0, 5]] = middle[[5, 0]]
        errors = checks.same_rounds(np.stack([rows, middle, rows, rows]))
        assert len(errors) == 1 and errors[0].startswith("round 2")


class TestReadYourWrites:
    def test_at_or_past_the_update_passes(self):
        assert checks.read_your_writes({"0": 7}, {"0": 7}) == []
        assert checks.read_your_writes({"0": 9}, {"0": 7}) == []

    def test_below_the_update_fails(self):
        assert checks.read_your_writes({"0": 6}, {"0": 7})

    def test_missing_shard_fails(self):
        assert checks.read_your_writes({}, {"0": 1})


class TestCounters:
    def test_equal_counters_pass(self):
        assert checks.counters_match({"requests": 10, "nodes_scored": 40},
                                     {"requests": 10, "nodes_scored": 40}) == []

    def test_counter_off_by_one_fails(self):
        assert checks.counters_match({"requests": 11, "nodes_scored": 40},
                                     {"requests": 10, "nodes_scored": 40})


class TestAccuracy:
    labels = np.array([0] * 30 + [1] * 10)

    def test_good_verdicts_pass(self):
        rows = np.eye(2)[self.labels]
        assert checks.accuracy_margin(rows, self.labels, np.arange(40)) == []

    def test_majority_rate_fails(self):
        rows = np.tile([0.9, 0.1], (40, 1))  # everything is a human: 75%
        assert checks.accuracy_margin(rows, self.labels, np.arange(40))


@pytest.fixture(scope="module")
def built():
    """A small mgtab graph and two subgraphs built by the program."""
    from repro.datasets import load_benchmark
    from repro.sampling import BiasedSubgraphBuilder

    graph = load_benchmark("mgtab", num_users=80, tweets_per_user=4, seed=3).graph
    builder = BiasedSubgraphBuilder(graph, graph.features, k=4)
    relations = list(graph.relation_names)
    raw = [(graph.relation(r).src, graph.relation(r).dst) for r in relations]
    subgraphs = builder.build_batch([5, 17])
    return graph, builder, relations, raw, subgraphs


def edges_of(subgraph, relations):
    return [subgraph.relation_edges[r] for r in relations]


class TestSubgraphStructure:
    def test_program_subgraphs_pass(self, built):
        _graph, builder, relations, raw, subgraphs = built
        for subgraph in subgraphs:
            assert checks.subgraph_structure(
                subgraph.center, subgraph.nodes, edges_of(subgraph, relations), raw, 4
            ) == []
            reference = builder.build(subgraph.center)
            assert checks.same_subgraph(
                {"nodes": subgraph.nodes, "edges": edges_of(subgraph, relations)},
                {"nodes": reference.nodes, "edges": edges_of(reference, relations)},
                subgraph.center,
            ) == []

    def test_one_extra_edge_fails(self, built):
        _graph, _builder, relations, raw, subgraphs = built
        subgraph = subgraphs[0]
        edges = edges_of(subgraph, relations)
        relation = next(i for i, (src, _dst) in enumerate(edges) if src.size)
        src, dst = edges[relation]
        # An edge between two members that the raw edge list does not hold.
        present = set(zip(src.tolist(), dst.tolist()))
        extra = next(
            (a, b)
            for a in range(subgraph.num_nodes)
            for b in range(1, subgraph.num_nodes)
            if a != b and (a, b) not in present
        )
        edges[relation] = (np.append(src, extra[0]), np.append(dst, extra[1]))
        assert checks.subgraph_structure(subgraph.center, subgraph.nodes, edges, raw, 4)

    def test_too_many_neighbours_fails(self, built):
        _graph, _builder, relations, raw, subgraphs = built
        subgraph = subgraphs[1]
        edges = edges_of(subgraph, relations)
        assert checks.subgraph_structure(subgraph.center, subgraph.nodes, edges, raw, 1)

    def test_center_not_first_fails(self, built):
        _graph, _builder, relations, raw, subgraphs = built
        subgraph = subgraphs[0]
        nodes = subgraph.nodes[::-1].copy()
        assert checks.subgraph_structure(
            subgraph.center, nodes, edges_of(subgraph, relations), raw, 4
        )

    def test_selection_differing_from_reference_fails(self, built):
        _graph, _builder, relations, _raw, subgraphs = built
        a, b = subgraphs
        assert checks.same_subgraph(
            {"nodes": a.nodes, "edges": edges_of(a, relations)},
            {"nodes": b.nodes, "edges": edges_of(b, relations)},
            a.center,
        )


class TestPercentiles:
    def test_reports_sample_count(self):
        assert Percentiles([3.0, 1.0, 2.0]).count == 3
        assert "(n=3)" in Percentiles([3.0, 1.0, 2.0]).describe("ms")

    def test_median_of_few_samples(self):
        assert Percentiles([5.0]).median() == 5.0
        assert Percentiles([1.0, 2.0, 3.0]).median() == 2.0

    def test_refuses_tail_with_fewer_than_ten_beyond(self):
        values = Percentiles(range(100))
        with pytest.raises(ValueError):
            values.at(99.0)  # one sample beyond it
        assert values.at(90.0) == 89.0  # ten beyond it

    def test_tail_needs_forty_samples(self):
        assert Percentiles(range(39)).tail() is None
        assert Percentiles(range(1000)).tail() == 99.0
        assert Percentiles(range(200)).tail() == 95.0


def test_trimmed_mean_drops_both_tails():
    values = [1.0] * 9 + [100.0]  # one stall among ten samples
    assert trimmed_mean(values, 0.1) == pytest.approx(1.0)
    assert trimmed_mean([4.0, 1.0, 2.0, 3.0], 0.1) == pytest.approx(2.5)  # trims nothing
    with pytest.raises(ValueError):
        trimmed_mean([], 0.1)


class TestLedger:
    def test_self_time_subtracts_children(self):
        span_list = [
            (1, "outer", 0.0, 10.0, 0, 7),
            (2, "inner", 2.0, 5.0, 1, 7),
            (3, "inner", 6.0, 7.0, 1, 7),
        ]
        assert spans.self_times(span_list) == {"outer": 6.0, "inner": 4.0}
        assert spans.self_times(span_list, window=(4.0, 10.0)) == {"outer": 4.0, "inner": 2.0}

    def test_shares_add_up_with_the_remainder(self):
        result = ledger.shares({"sampling.collate": 2.0, "core.forward": 5.0}, 10.0)
        assert result["sampling.collate_pct"] == pytest.approx(20.0)
        assert result["unattributed_pct"] == pytest.approx(30.0)
        assert sum(result.values()) == pytest.approx(100.0)

    def test_missing_target_is_skipped(self):
        assert not spans.patch("repro.no_such_module:Thing.call", lambda f: f)

    def test_declared_metrics_match_the_benchmark_file(self):
        with open(BENCH.parent / "BENCHMARK.json") as handle:
            declared = json.load(handle)
        assert {m["name"] for m in declared["per_layer"]} == set(ledger.PER_LAYER)
        assert {m["name"] for m in declared["end_to_end"]} == set(ledger.END_TO_END)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "fit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
