"""Persistent detector artifacts: train once, serve from disk forever.

An artifact is a directory tying together everything a trained
:class:`repro.core.BSG4Bot` needs to answer ``predict_proba`` queries
without retraining:

* ``manifest.json`` — versioned manifest (config, graph shape, file map,
  optional dataset provenance) written through
  :mod:`repro.core.serialization`;
* ``model.npz`` — the subgraph GNN weights;
* ``preclassifier.npz`` — the pre-trained MLP classifier weights (needed to
  construct biased subgraphs for nodes the store has not seen yet);
* ``store.npz`` — the constructed :class:`repro.sampling.SubgraphStore`
  (raw subgraph edges only; the normalized collation pack is rebuilt in one
  pass on the first collation), so a loaded detector reproduces
  ``predict_proba`` bit-identically without rebuilding any subgraph.

.. code-block:: python

    detector.fit(graph)
    path = save_detector(detector, "artifacts/bsg4bot-mgtab")
    ...
    detector = load_detector("artifacts/bsg4bot-mgtab", graph=graph)
    probabilities = detector.predict_proba(graph)   # bit-identical, no refit
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.config import BSG4BotConfig
from repro.core.pipeline import BSG4Bot
from repro.core.serialization import (
    ArtifactError,
    PathLike,
    load_module_state,
    read_manifest,
    save_module_state,
    write_manifest,
)
from repro.graph import HeteroGraph
from repro.sampling import SubgraphStore

_MODEL_FILE = "model.npz"
_PRECLASSIFIER_FILE = "preclassifier.npz"
_STORE_FILE = "store.npz"


def save_detector(
    detector: BSG4Bot,
    path: PathLike,
    dataset: Optional[Dict[str, Any]] = None,
) -> Path:
    """Persist a fitted BSG4Bot to the artifact directory ``path``.

    ``dataset`` is optional provenance (e.g. the ``load_benchmark`` keyword
    arguments) recorded verbatim in the manifest; ``repro score`` uses it to
    rebuild the graph an artifact was trained on.  Raises
    :class:`ArtifactError` for unfitted or unsupported detectors.
    """
    if not isinstance(detector, BSG4Bot):
        raise ArtifactError(
            f"artifact saving is implemented for BSG4Bot, not {type(detector).__name__}; "
            "baselines persist their weights via repro.core.serialization.save_module_state"
        )
    if detector.model is None or detector.preclassifier is None or detector.graph is None:
        raise ArtifactError("detector must be fitted (or loaded) before saving")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    save_module_state(detector.model, path / _MODEL_FILE)
    save_module_state(detector.preclassifier.model, path / _PRECLASSIFIER_FILE)
    files = {"model": _MODEL_FILE, "preclassifier": _PRECLASSIFIER_FILE}
    if detector.store is not None and len(detector.store) > 0:
        detector.store.save(path / _STORE_FILE)
        files["store"] = _STORE_FILE
    graph = detector.graph
    write_manifest(
        path,
        {
            "detector": "bsg4bot",
            "detector_class": type(detector).__name__,
            "config": detector.config.to_dict(),
            "graph": {
                "name": graph.name,
                "num_nodes": graph.num_nodes,
                "num_features": graph.num_features,
                "relation_names": graph.relation_names,
            },
            "dataset": dataset,
            "files": files,
        },
    )
    return path


def _check_graph(manifest: Dict[str, Any], graph: HeteroGraph, path: Path) -> None:
    meta = manifest["graph"]
    mismatches = []
    if graph.num_nodes != meta["num_nodes"]:
        mismatches.append(f"num_nodes {graph.num_nodes} != {meta['num_nodes']}")
    if graph.num_features != meta["num_features"]:
        mismatches.append(f"num_features {graph.num_features} != {meta['num_features']}")
    if graph.relation_names != list(meta["relation_names"]):
        mismatches.append(
            f"relations {graph.relation_names} != {list(meta['relation_names'])}"
        )
    if mismatches:
        raise ArtifactError(
            f"graph does not match the artifact at {path}: " + "; ".join(mismatches)
        )


def load_detector(path: PathLike, graph: Optional[HeteroGraph] = None) -> BSG4Bot:
    """Rebuild a detector saved by :func:`save_detector` — no retraining.

    With ``graph`` given (the graph the detector was trained on, or a
    structurally identical rebuild), the saved subgraph store is attached and
    ``predict_proba`` reproduces the original outputs bit-identically;
    scoring nodes the store has never seen tops the store up incrementally.
    Without a graph the detector carries weights only, and the first
    ``predict_proba(graph)`` call constructs subgraphs for that graph from
    scratch.
    """
    path = Path(path)
    manifest = read_manifest(path)
    if manifest.get("detector") != "bsg4bot":
        raise ArtifactError(
            f"artifact at {path} holds detector {manifest.get('detector')!r}; "
            "only 'bsg4bot' artifacts are loadable"
        )
    try:
        config = BSG4BotConfig.from_dict(manifest["config"])
        meta = manifest["graph"]
        files = manifest["files"]
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactError(f"invalid artifact manifest at {path}: {error}") from error

    detector = BSG4Bot(config)
    detector.build_preclassifier(int(meta["num_features"]))
    load_module_state(detector.preclassifier.model, path / files["preclassifier"])
    detector.build_model(int(meta["num_features"]), list(meta["relation_names"]))
    load_module_state(detector.model, path / files["model"])

    if graph is not None:
        _check_graph(manifest, graph, path)
        detector.graph = graph
        if "store" in files and (path / files["store"]).exists():
            store = SubgraphStore.load(path / files["store"], graph)
            store.cache_capacity = config.batch_cache_size
            detector.store = store
        else:
            detector.store = SubgraphStore(graph, cache_capacity=config.batch_cache_size)
    return detector
