"""Tests for persistent detector artifacts (save -> load -> serve)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import api
from repro.core import BSG4Bot, BSG4BotConfig
from repro.core.serialization import ArtifactError, MANIFEST_NAME
from repro.sampling import collate_subgraphs
from tests.conftest import assert_same_batch, make_separable_graph


@pytest.fixture(scope="module")
def trained():
    """A fitted tiny BSG4Bot plus its graph (shared, treated as read-only)."""
    graph = make_separable_graph(num_nodes=70, seed=21)
    config = BSG4BotConfig(
        pretrain_epochs=10, hidden_dim=8, pretrain_hidden_dim=8,
        subgraph_k=3, max_epochs=4, min_epochs=1, patience=2, batch_size=16,
    )
    detector = BSG4Bot(config)
    detector.fit(graph)
    return detector, graph


class TestRoundTrip:
    def test_predict_proba_bit_identical(self, trained, tmp_path):
        detector, graph = trained
        expected = detector.predict_proba(graph)

        path = detector.save(tmp_path / "artifact")
        loaded = api.load_detector(path, graph=graph)

        # The loaded pipeline is a fresh object graph (the process-restart
        # path): nothing is shared with the original detector.
        assert loaded is not detector
        assert loaded.model is not detector.model
        np.testing.assert_array_equal(loaded.predict_proba(graph), expected)

    def test_loaded_store_is_attached_not_rebuilt(self, trained, tmp_path):
        detector, graph = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        loaded = api.load_detector(path, graph=graph)
        assert len(loaded.store) == len(detector.store)
        before = loaded.store.build_count
        loaded.predict_proba_nodes(graph.train_indices()[:5])
        assert loaded.store.build_count == before  # served from the store

    def test_loaded_detector_scores_unseen_nodes(self, trained, tmp_path):
        detector, graph = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        loaded = api.load_detector(path, graph=graph)
        # Simulate centers the artifact never covered: drop a few and let the
        # serving path top the store back up via incremental construction.
        targets = loaded.store.nodes()[:3]
        loaded.store.discard(targets)
        assert all(node not in loaded.store for node in targets)
        probabilities = loaded.predict_proba_nodes(np.asarray(targets))
        assert probabilities.shape == (len(targets), 2)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert all(node in loaded.store for node in targets)

    def test_manifest_contents(self, trained, tmp_path):
        detector, graph = trained
        path = api.save_detector(
            detector, tmp_path / "artifact", dataset={"name": "mgtab", "seed": 0}
        )
        manifest = api.read_manifest(path)
        assert manifest["format_version"] == 1
        assert manifest["detector"] == "bsg4bot"
        assert manifest["config"]["subgraph_k"] == detector.config.subgraph_k
        assert manifest["graph"]["num_nodes"] == graph.num_nodes
        assert manifest["dataset"] == {"name": "mgtab", "seed": 0}

    def test_load_without_graph_carries_weights_only(self, trained, tmp_path):
        detector, graph = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        loaded = api.load_detector(path)
        assert loaded.graph is None and loaded.store is None
        # Predicting attaches the graph and rebuilds subgraphs from scratch.
        probabilities = loaded.predict_proba(graph)
        assert probabilities.shape == (graph.num_nodes, 2)


class TestLegacyAndErrors:
    def test_store_archive_with_normalized_pack_loads(self, trained, tmp_path):
        """Artifacts and store caches written before ``store.npz`` dropped
        the normalized pack still carry it as ``norm_*`` arrays: ``load``
        ignores them and collates and scores bit-identically."""
        detector, graph = trained
        expected = detector.predict_proba(graph)
        path = api.save_detector(detector, tmp_path / "artifact")
        # Add the pack the way older saves wrote it.
        with np.load(path / "store.npz") as payload:
            arrays = dict(payload)
        pack = detector.store._collation_pack(True)
        arrays["norm_relation_names"] = np.array(list(pack.relations), dtype=np.str_)
        for index, (rowcounts, indices, data, offsets) in enumerate(pack.relations.values()):
            arrays[f"norm_rowcounts_{index}"] = rowcounts
            arrays[f"norm_indices_{index}"] = indices
            arrays[f"norm_data_{index}"] = data
            arrays[f"norm_offsets_{index}"] = offsets
        np.savez_compressed(path / "store.npz", **arrays)

        loaded = api.load_detector(path, graph=graph)
        assert not loaded.store.has_collation_pack(normalize=True)
        centers = np.sort(loaded.store.nodes())
        reference = collate_subgraphs(loaded.store.subgraphs(centers), graph)
        assert_same_batch(reference, loaded.store.collate(centers))
        np.testing.assert_array_equal(loaded.predict_proba(graph), expected)

    def test_corrupted_manifest_rejected(self, trained, tmp_path):
        detector, graph = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        (path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupted"):
            api.load_detector(path, graph=graph)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing"):
            api.load_detector(tmp_path / "nothing-here")

    def test_future_version_rejected(self, trained, tmp_path):
        detector, _ = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format_version"] = 999
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="version"):
            api.load_detector(path)

    def test_wrong_format_tag_rejected(self, trained, tmp_path):
        detector, _ = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="manifest"):
            api.load_detector(path)

    def test_manifest_stamp_cannot_be_overridden(self, tmp_path):
        from repro.core.serialization import write_manifest

        write_manifest(tmp_path, {"format_version": 999, "format": "bogus", "x": 1})
        manifest = api.read_manifest(tmp_path)  # would raise if 999 survived
        assert manifest["format_version"] == 1
        assert manifest["x"] == 1

    def test_mismatched_graph_rejected(self, trained, tmp_path):
        detector, _ = trained
        path = api.save_detector(detector, tmp_path / "artifact")
        other = make_separable_graph(num_nodes=40, seed=5)
        with pytest.raises(ArtifactError, match="does not match"):
            api.load_detector(path, graph=other)

    def test_unfitted_detector_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="fitted"):
            api.save_detector(BSG4Bot(), tmp_path / "artifact")

    def test_unsupported_detector_rejected(self, tmp_path):
        detector = api.create_detector("mlp")
        with pytest.raises(ArtifactError, match="BSG4Bot"):
            api.save_detector(detector, tmp_path / "artifact")

    def test_store_loads_against_rebuilt_graph(self, trained, tmp_path):
        """The CLI path: provenance rebuilds a *new* but identical graph."""
        detector, graph = trained
        expected = detector.predict_proba(graph)
        path = api.save_detector(detector, tmp_path / "artifact")
        rebuilt = make_separable_graph(num_nodes=70, seed=21)
        loaded = api.load_detector(path, graph=rebuilt)
        np.testing.assert_array_equal(loaded.predict_proba(rebuilt), expected)
