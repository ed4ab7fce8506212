"""Trace serialization and terminal rendering (``repro trace``).

Traces are serialized one-JSON-object-per-line (the dict shape of
:meth:`repro.obs.Trace.to_dict`) — the slow-trace sink appends to such a
file while serving, and ``repro trace <file>`` reads it back and renders a
waterfall: spans indented by tree depth, with a bar positioned and scaled
by offset/duration relative to the whole trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "read_traces",
    "write_trace",
    "render_waterfall",
    "summarize_traces",
]


def write_trace(path: str, trace: Dict[str, Any]) -> None:
    """Append one trace dict as a JSONL line."""
    with open(path, "a") as handle:
        handle.write(json.dumps(trace) + "\n")


def read_traces(path: str) -> List[Dict[str, Any]]:
    """All traces of a JSONL dump (blank lines skipped)."""
    traces: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON trace line ({error})"
                ) from None
            if not isinstance(payload, dict) or "spans" not in payload:
                raise ValueError(f"{path}:{line_no}: not a trace object")
            traces.append(payload)
    return traces


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attributes(attributes: Dict[str, Any]) -> str:
    if not attributes:
        return ""
    inner = " ".join(f"{key}={value}" for key, value in sorted(attributes.items()))
    return f"  {inner}"


def render_waterfall(trace: Dict[str, Any], width: int = 40) -> str:
    """One trace as an indented waterfall (children under their parents).

    Spans whose parent never got recorded (a span still open when the
    trace finished) attach to the root rather than disappearing.
    """
    spans = list(trace.get("spans", []))
    total = max(float(trace.get("duration_s", 0.0)), 1e-9)
    by_id = {span["span_id"]: span for span in spans}
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is None or parent not in by_id or parent == span["span_id"]:
            roots.append(span)
        else:
            children.setdefault(parent, []).append(span)

    name_width = max(
        (len(span["name"]) + 2 * _depth(span, by_id) for span in spans), default=10
    )
    header = (
        f"trace {trace.get('trace_id', '?')}  request_id={trace.get('request_id', '?')}"
        f"  {_format_duration(total)}"
        + ("  [slow]" if trace.get("slow") else "")
        + ("" if trace.get("sampled", True) else "  [unsampled]")
    )
    lines = [header]

    def _emit(span: Dict[str, Any], depth: int) -> None:
        offset = max(float(span.get("offset_s", 0.0)), 0.0)
        duration = max(float(span.get("duration_s", 0.0)), 0.0)
        start_col = min(int(round(offset / total * width)), width - 1)
        bar_len = max(int(round(duration / total * width)), 1)
        bar_len = min(bar_len, width - start_col)
        bar = " " * start_col + "#" * bar_len + " " * (width - start_col - bar_len)
        label = "  " * depth + span["name"]
        lines.append(
            f"  {label:<{name_width}} |{bar}| {_format_duration(duration):>9}"
            f"{_format_attributes(span.get('attributes', {}))}"
        )
        for child in sorted(
            children.get(span["span_id"], []),
            key=lambda s: (s.get("offset_s", 0.0), s["span_id"]),
        ):
            _emit(child, depth + 1)

    for root in sorted(roots, key=lambda s: (s.get("offset_s", 0.0), s["span_id"])):
        _emit(root, 0)
    return "\n".join(lines)


def _depth(span: Dict[str, Any], by_id: Dict[int, Dict[str, Any]]) -> int:
    depth = 0
    seen = {span["span_id"]}
    parent = span.get("parent_id")
    while parent is not None and parent in by_id and parent not in seen:
        depth += 1
        seen.add(parent)
        parent = by_id[parent].get("parent_id")
    return depth


def summarize_traces(traces: List[Dict[str, Any]]) -> str:
    """A one-line-per-trace listing, slowest first."""
    ordered = sorted(
        traces, key=lambda t: float(t.get("duration_s", 0.0)), reverse=True
    )
    lines = [f"{'trace_id':<18} {'request_id':<18} {'duration':>10} {'spans':>6}  name"]
    for trace in ordered:
        lines.append(
            f"{trace.get('trace_id', '?'):<18} {trace.get('request_id', '?'):<18} "
            f"{_format_duration(float(trace.get('duration_s', 0.0))):>10} "
            f"{len(trace.get('spans', [])):>6}  {trace.get('name', '?')}"
        )
    return "\n".join(lines)
