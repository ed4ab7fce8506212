"""Lock-discipline checker: guarded attributes only under their lock.

The concurrency added in PRs 4-5 rests on a convention the type system
cannot see: certain attributes (the subgraph store's dict and caches, the
micro-batcher's queue, the delta log's pending list) must only be touched
inside ``with self.<lock>:`` — or from a method whose *caller* holds the
lock.  This checker makes the convention machine-checked:

* Guarded attributes come from two sources: the built-in
  :data:`GUARDED_CLASSES` registry (the known concurrent classes of this
  repo) and ``# guarded-by: <lock>`` comments on attribute assignments
  (which extend the set for any class, registered or not).
* An access to a guarded attribute is legal when it is lexically inside a
  ``with self.<lock>:`` block for the declared lock, or when the enclosing
  method is *documented lock-held* — its name ends in ``_locked`` or its
  docstring contains "lock-held" (or "caller holds").
* Calling a lock-held method without holding the class lock is itself a
  finding: the documentation contract flows to call sites.
* ``__init__`` (and the pickle/construction dunders) are exempt —
  construction happens-before publication to other threads.

Nested functions defined inside a method are analyzed as if the lock were
**not** held: a closure can escape the ``with`` block that created it, so
assuming the lock would be unsound.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import LintContext, ModuleSource, register_checker

#: Known concurrent classes: class name -> (primary lock attr, guarded attrs).
GUARDED_CLASSES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "SubgraphStore": ("_lock", ("_store", "_packs", "_batch_cache", "_center_index")),
    "DetectionSession": (
        "_lock",
        (
            "_closed",
            "_fallback_probabilities",
            "_invalidate_takes_relations",
            "_replay_engine",
            "_subset_takes_engine",
            "_replay_stats",
            "_use_replay",
        ),
    ),
    "MicroBatcher": ("_condition", ("_queue", "_closed", "_current_wait_s")),
    "DeltaLog": (
        "_lock",
        (
            "_pending",
            "_next_seq",
            "_applied_seq",
            "_closed",
            "_oldest_pending_at",
            "_expedited",
        ),
    ),
    "ClusterHTTPServer": ("_lock", ("_inflight", "_rejected")),
    "IngestCache": ("_lock", ("_memo",)),
    "ServingMetrics": ("_lock", ("_counters",)),
    "LatencyHistogram": ("_lock", ("_counts", "_sum", "_min", "_max")),
    "Trace": ("_lock", ("_spans", "_next_span_id", "_duration_s")),
    "Tracer": (
        "_lock",
        ("_traces", "_started", "_kept", "_evicted", "_dump_errors"),
    ),
    "MetricsRegistry": ("_lock", ("_collectors", "_owned")),
    "Counter": ("_lock", ("_value",)),
    "Gauge": ("_lock", ("_value",)),
}

#: Methods where unguarded access is always legal: construction and pickling
#: happen-before the object is visible to any other thread.
_EXEMPT_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__getstate__", "__setstate__", "__del__"}
)

_LOCK_HELD_TOKENS = ("lock-held", "lock held", "caller holds")


def _is_lock_held_method(node: ast.FunctionDef) -> bool:
    """Documented lock-held: ``*_locked`` name or a docstring declaration."""
    if node.name.endswith("_locked"):
        return True
    docstring = ast.get_docstring(node) or ""
    lowered = docstring.lower()
    return any(token in lowered for token in _LOCK_HELD_TOKENS)


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.attr``; otherwise None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_locks(node: ast.AST) -> Set[str]:
    """Lock names newly held by one ``with`` statement (``self.X`` items)."""
    held: Set[str] = set()
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            attr = _self_attribute(item.context_expr)
            if attr is not None:
                held.add(attr)
    return held


def _guarded_attrs_for_class(
    module: ModuleSource, class_node: ast.ClassDef
) -> Tuple[Optional[str], Dict[str, str]]:
    """(primary lock, attr -> lock) for one class: registry + annotations."""
    guarded: Dict[str, str] = {}
    primary: Optional[str] = None
    registered = GUARDED_CLASSES.get(class_node.name)
    if registered is not None:
        primary = registered[0]
        for attr in registered[1]:
            guarded[attr] = registered[0]
    # ``# guarded-by:`` comments on self-attribute assignments in any method.
    for statement in ast.walk(class_node):
        if not isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        lock = module.guarded_by_lines.get(statement.lineno)
        if lock is None:
            continue
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        for target in targets:
            attr = _self_attribute(target)
            if attr is not None:
                guarded[attr] = lock
    if primary is None and guarded:
        locks = set(guarded.values())
        primary = locks.pop() if len(locks) == 1 else None
    return primary, guarded


class _MethodScanner:
    """Walks one method body tracking the lexically-held lock set."""

    def __init__(
        self,
        module: ModuleSource,
        class_name: str,
        method: ast.FunctionDef,
        guarded: Dict[str, str],
        lock_held_methods: Set[str],
        primary_lock: Optional[str],
    ) -> None:
        self.module = module
        self.class_name = class_name
        self.method = method
        self.guarded = guarded
        self.lock_held_methods = lock_held_methods
        self.primary_lock = primary_lock
        self.findings: List[Finding] = []
        self._reported: Set[str] = set()

    def scan(self) -> List[Finding]:
        for statement in self.method.body:
            self._visit(statement, frozenset())
        return self.findings

    def _report(self, node: ast.AST, detail: str, message: str, hint: str) -> None:
        if detail in self._reported:  # one finding per (method, attr)
            return
        self._reported.add(detail)
        self.findings.append(
            Finding(
                checker="lock-discipline",
                path=self.module.relpath,
                line=getattr(node, "lineno", self.method.lineno),
                scope=f"{self.class_name}.{self.method.name}",
                detail=detail,
                message=message,
                hint=hint,
            )
        )

    def _visit(self, node: ast.AST, held: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A closure may outlive the ``with`` block that defined it; the
            # held set is reset to empty rather than inherited.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                self._visit(child, frozenset())
            return
        attr = _self_attribute(node)
        if attr is not None and attr in self.guarded:
            lock = self.guarded[attr]
            if lock not in held:
                self._report(
                    node,
                    attr,
                    f"guarded attribute 'self.{attr}' accessed outside "
                    f"'with self.{lock}:' in {self.class_name}.{self.method.name}",
                    f"wrap the access in 'with self.{lock}:', or document the "
                    "method lock-held (suffix '_locked' or 'lock-held' in the docstring)",
                )
        if (
            isinstance(node, ast.Call)
            and (callee := _self_attribute(node.func)) is not None
            and callee in self.lock_held_methods
        ):
            required = self.primary_lock
            if required is not None and required not in held:
                self._report(
                    node,
                    f"call:{callee}",
                    f"lock-held method 'self.{callee}()' called without "
                    f"'self.{required}' in {self.class_name}.{self.method.name}",
                    f"acquire 'with self.{required}:' around the call (the callee "
                    "documents that its caller holds the lock)",
                )
        new_locks = _with_locks(node)
        child_held = held | new_locks if new_locks else held
        for child in ast.iter_child_nodes(node):
            self._visit(child, child_held)


@register_checker("lock-discipline")
def check_lock_discipline(module: ModuleSource, context: LintContext) -> Iterator[Finding]:
    """Guarded attributes must be accessed under their declared lock."""
    for class_node in module.tree.body:
        if not isinstance(class_node, ast.ClassDef):
            continue
        primary, guarded = _guarded_attrs_for_class(module, class_node)
        if not guarded:
            continue
        methods = [
            statement
            for statement in class_node.body
            if isinstance(statement, ast.FunctionDef)
        ]
        lock_held_methods = {
            method.name for method in methods if _is_lock_held_method(method)
        }
        for method in methods:
            if method.name in _EXEMPT_METHODS or _is_lock_held_method(method):
                continue
            scanner = _MethodScanner(
                module, class_node.name, method, guarded, lock_held_methods, primary
            )
            yield from scanner.scan()
