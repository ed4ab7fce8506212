"""Span timers the benchmark wraps around the public entry points of each
layer of the program, from its own files.

Each span records its layer name, start, end (``time.monotonic``, one
clock across processes), its parent span and its thread.  Spans stay in
memory and are written once, at the end of the run.  Counters ride along
at the same boundaries (subgraphs built, normalizations, replay misses).

Targets that do not exist in the program under test are skipped, so the
benchmark keeps running when internals move; the layer then reads zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic


class Recorder:
    """In-memory span store: ``(id, name, start, end, parent, thread)``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: ``(key, time, amount)`` counter increments.
        self.counts: List[Tuple[str, float, int]] = []
        #: Free-form per-event records (wave pickups, request handles).
        self.events: List[tuple] = []
        self.enabled = True
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[int, int, float]:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, clock()

    def end(self, name: str, span_id: int, parent: int, start: float) -> tuple:
        finish = clock()
        self._stack().pop()
        span = (span_id, name, start, finish, parent, threading.get_ident())
        self.spans.append(span)
        return span

    def count(self, key: str, amount: int = 1) -> None:
        self.counts.append((key, clock(), amount))

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.begin()
        try:
            yield
        finally:
            self.end(name, *token)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "events": self.events},
                handle,
            )


def _resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def patch(target: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``target`` by ``make(original)``; False when it is missing."""
    try:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        return False
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)
    return True


def timed(recorder: Recorder, name: str, before: Optional[Callable] = None,
          after: Optional[Callable] = None):
    """Wrapper factory: one span per call; ``before(args, kwargs)`` may
    rename it, ``after(args, kwargs, result, span)`` may record what the
    call did."""

    def make(original):
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            label = name
            if before is not None:
                label = before(args, kwargs) or name
            token = recorder.begin()
            try:
                result = original(*args, **kwargs)
            finally:
                span = recorder.end(label, *token)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return wrapper

    return make


def counted(recorder: Recorder, key: str, when: Optional[Callable] = None):
    """Wrapper factory: count calls (those where ``when(args)`` holds)."""

    def make(original):
        def wrapper(*args, **kwargs):
            if recorder.enabled and (when is None or when(args, kwargs)):
                recorder.count(key)
            return original(*args, **kwargs)

        return wrapper

    return make


def install_model_layers(recorder: Recorder) -> List[str]:
    """Timers shared by fit and serving: construction, PPR, collation,
    the model forward (eager and replayed), training steps.  Returns the
    targets that could not be found."""
    missing = []

    def pack_or_collate(args, kwargs):
        store = args[0]
        normalize = kwargs.get("normalize", args[2] if len(args) > 2 else True)
        has_pack = getattr(store, "has_collation_pack", None)
        if has_pack is not None and not has_pack(normalize):
            recorder.count("sampling.pack_builds")
            return "sampling.pack_build"
        return "sampling.collate"

    def collate_before(args, kwargs):
        label = pack_or_collate(args, kwargs)
        recorder.count("sampling.collate_calls")
        recorder._local.hits = getattr(args[0], "cache_hits", 0)
        return label

    def collate_after(args, kwargs, result, span):
        hits = getattr(args[0], "cache_hits", 0)
        recorder.count("sampling.collate_hits", hits - recorder._local.hits)

    def built(args, kwargs, result, span):
        recorder.count("sampling.subgraphs_built", len(result))

    def store_size(args, kwargs):
        store = getattr(args[0], "store", None)
        recorder.count("sampling.store_size_sum", len(store) if store is not None else 0)
        recorder.count("sampling.store_size_samples")
        return None

    def invalidated(args, kwargs, result, span):
        recorder.count("sampling.invalidated", int(result))
        recorder.count("sampling.invalidations")

    def uncached_normalization(args, kwargs):
        cache = getattr(args[0], "_norm_cache", None)
        relation = args[1] if len(args) > 1 else kwargs.get("relation")
        return cache is None or relation not in cache

    table = [
        ("repro.sampling.biased:BiasedSubgraphBuilder.__init__",
         timed(recorder, "sampling.construct")),
        ("repro.sampling.biased:BiasedSubgraphBuilder.build_store",
         timed(recorder, "sampling.construct")),
        ("repro.sampling.biased:BiasedSubgraphBuilder.build_batch",
         timed(recorder, "sampling.construct", after=built)),
        ("repro.sampling.biased:multi_source_ppr", timed(recorder, "ppr.push")),
        ("repro.sampling.biased:BiasedSubgraphBuilder.refresh_relations",
         timed(recorder, "sampling.refresh")),
        ("repro.sampling.subgraph:SubgraphStore.invalidate_nodes",
         timed(recorder, "sampling.invalidate", after=invalidated)),
        ("repro.sampling.subgraph:SubgraphStore.collate",
         timed(recorder, "sampling.collate", before=collate_before, after=collate_after)),
        ("repro.sampling.subgraph:Subgraph.normalized_relation_adjacency",
         counted(recorder, "sampling.normalizations", when=uncached_normalization)),
        ("repro.core.pipeline:BSG4Bot.predict_proba_nodes",
         timed(recorder, "core.predict", before=store_size)),
        ("repro.core.model:BSG4BotModel.forward", timed(recorder, "core.forward")),
        ("repro.tensor.replay:ReplayEngine.forward_proba",
         timed(recorder, "tensor.replay_forward")),
        ("repro.tensor.replay:trace_forward_proba",
         counted(recorder, "tensor.replay_misses")),
        ("repro.tensor.tensor:Tensor.backward", timed(recorder, "tensor.backward")),
        ("repro.tensor.optim:Adam.step", timed(recorder, "tensor.optim")),
        ("repro.core.preclassifier:PretrainedClassifier.fit_graph",
         timed(recorder, "core.pretrain")),
    ]
    for target, make in table:
        if not patch(target, make):
            missing.append(target)
    return missing


def install_serving_layers(recorder: Recorder) -> List[str]:
    """Timers of the serving path inside a ``repro serve`` process.

    Per score request the executor thread runs ``ShardRouter.submit`` (the
    route, which enqueues through ``DetectionService.submit``) and then
    blocks in ``ClusterRequest.result``; the dispatcher thread picks the
    request up in ``MicroBatcher.next_wave`` and scores the wave through
    ``DetectionSession.score_nodes``.  Events tie a request to its wave.
    """
    missing = install_model_layers(recorder)
    local = threading.local()
    events = recorder.events

    def route_after(args, kwargs, result, span):
        local.route = (span, getattr(local, "handles", []))
        local.handles = []

    def submitted(args, kwargs, result, span):
        if not hasattr(local, "handles"):
            local.handles = []
        local.handles.append(id(result))
        events.append(("submit", id(result), span[3]))

    def waited(args, kwargs, result, span):
        route = getattr(local, "route", None)
        local.route = None
        if route is not None:
            events.append(("score", route[0][2], route[0][3], span[2], span[3], route[1]))

    def wave_picked(original):
        def wrapper(*args, **kwargs):
            started = clock()
            if getattr(local, "in_wave", False):
                local.in_wave = False
                events.append(("wave_end", started, threading.get_ident()))
            wave = original(*args, **kwargs)
            if wave and recorder.enabled:
                local.in_wave = True
                events.append(
                    ("pickup", clock(), threading.get_ident(), [id(r) for r in wave])
                )
            return wave

        return wrapper

    def update_after(args, kwargs, result, span):
        events.append(("update", span[2], span[3], span[5]))

    table = [
        ("repro.serving.cluster.router:ShardRouter.submit",
         timed(recorder, "cluster.route", after=route_after)),
        ("repro.serving.cluster.router:ClusterRequest.result",
         timed(recorder, "serving.wait", after=waited)),
        ("repro.serving.cluster.router:ShardRouter.submit_update",
         timed(recorder, "cluster.route", after=update_after)),
        ("repro.serving.service:DetectionService.submit",
         timed(recorder, "cluster.route", after=submitted)),
        ("repro.serving.service:DetectionService.submit_update",
         timed(recorder, "serving.delta_append")),
        ("repro.serving.batcher:MicroBatcher.next_wave", wave_picked),
        ("repro.api.session:DetectionSession.score_nodes", timed(recorder, "api.score")),
        ("repro.api.session:DetectionSession.apply_delta",
         timed(recorder, "api.apply_delta")),
        ("repro.datasets.benchmarks:load_benchmark",
         timed(recorder, "datasets.generate")),
    ]
    for target, make in table:
        if not patch(target, make):
            missing.append(target)
    return missing


def counts_within(dump: dict, window: Optional[Tuple[float, float]] = None) -> Counter:
    """Counter totals, limited to increments inside ``window``."""
    totals: Counter = Counter()
    for key, when, amount in dump["counts"]:
        if window is None or window[0] <= when <= window[1]:
            totals[key] += amount
    return totals


def self_times(spans, window: Optional[Tuple[float, float]] = None,
               thread: Optional[int] = None) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's,
    clipped to ``window`` and limited to ``thread`` when given."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    def clipped(start: float, end: float) -> float:
        if window is not None:
            start, end = max(start, window[0]), min(end, window[1])
        return max(end - start, 0.0)

    totals: Dict[str, float] = {}
    for span in spans:
        if thread is not None and span[5] != thread:
            continue
        own = clipped(span[2], span[3])
        for child in children.get(span[0], ()):
            own -= clipped(child[2], child[3])
        totals[span[1]] = totals.get(span[1], 0.0) + own
    return totals
