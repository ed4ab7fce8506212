"""Unified metrics registry with Prometheus text-format exposition.

A :class:`MetricsRegistry` is a lock-guarded map of named *collectors* —
callables returning :class:`MetricFamily` objects at scrape time.  The
pull model keeps hot paths untouched: ``ServingMetrics`` stays the single
source of truth for its counters and histograms, and a registered
collector merely reads them when ``GET /metrics`` is scraped.
Owned :class:`Counter`/:class:`Gauge` primitives exist for code with no
metrics object of its own (the ingest cache, the shared builder pool).

Exposition follows the Prometheus text format: ``# HELP``/``# TYPE``
comments, ``name{label="value"} value`` samples, histogram
``_bucket``/``_sum``/``_count`` lines with cumulative ``le`` buckets ending
at ``+Inf``.  :func:`validate_exposition` is the strict parser the tests
and the CI smoke step run over the server's output.

Duplicate samples — two collectors emitting the same ``(name, labels)``
(e.g. two services on one graph in one process) — are merged at scrape
time: sums for counters and histograms, last-write for gauges.
Stdlib-only.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import tracked_rlock

_KINDS = ("counter", "gauge", "histogram")

#: ``(labels, value)`` for counters/gauges; ``(labels, buckets, sum)`` for
#: histograms, where ``buckets`` is cumulative ``(upper_bound, count)``
#: pairs ending with ``(math.inf, total)``.
Sample = Tuple[Dict[str, str], Any]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricFamily:
    """One named metric with its kind, help text, and samples."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(
        self, name: str, kind: str, help: str = "", samples: Optional[List] = None
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in _KINDS:
            raise ValueError(f"metric kind must be one of {_KINDS}, got {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.samples: List = list(samples or [])


class Counter:
    """A monotonic counter owned by the registry (thread-safe)."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = tracked_rlock("Counter._lock")
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def collect(self) -> List[MetricFamily]:
        return [MetricFamily(self.name, "counter", self.help, [({}, self.value)])]


class Gauge:
    """A set-or-callback gauge owned by the registry (thread-safe)."""

    def __init__(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.fn = fn
        self._lock = tracked_rlock("Gauge._lock")
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        with self._lock:
            return self._value

    def collect(self) -> List[MetricFamily]:
        return [MetricFamily(self.name, "gauge", self.help, [({}, self.value)])]


class MetricsRegistry:
    """Named collectors behind one scrape surface (thread-safe)."""

    def __init__(self) -> None:
        self._lock = tracked_rlock("MetricsRegistry._lock")
        #: collector key -> callable returning an iterable of families.
        self._collectors: Dict[str, Callable[[], Iterable[MetricFamily]]] = (
            {}
        )  # guarded-by: _lock
        #: metric name -> owned Counter/Gauge (get-or-create dedupe).
        self._owned: Dict[str, object] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, key: str, collector: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Register ``collector`` under ``key`` (replaces a previous one)."""
        with self._lock:
            self._collectors[key] = collector

    def unregister(self, key: str) -> bool:
        """Drop a collector; False when it was not registered (idempotent)."""
        with self._lock:
            return self._collectors.pop(key, None) is not None

    def counter(self, name: str, help: str = "") -> Counter:
        """Get-or-create an owned counter registered under its own name."""
        with self._lock:
            existing = self._owned.get(name)
            if existing is not None:
                if not isinstance(existing, Counter):
                    raise ValueError(f"metric {name!r} exists with a different kind")
                return existing
            counter = Counter(name, help)
            self._owned[name] = counter
            self._collectors[f"owned:{name}"] = counter.collect
            return counter

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        """Get-or-create an owned gauge (``fn`` makes it a callback gauge)."""
        with self._lock:
            existing = self._owned.get(name)
            if existing is not None:
                if not isinstance(existing, Gauge):
                    raise ValueError(f"metric {name!r} exists with a different kind")
                if fn is not None:
                    existing.fn = fn
                return existing
            gauge = Gauge(name, help, fn=fn)
            self._owned[name] = gauge
            self._collectors[f"owned:{name}"] = gauge.collect
            return gauge

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def collect(self) -> List[MetricFamily]:
        """All families, merged by name, duplicate samples resolved.

        Collectors run *outside* the registry lock — they take their own
        locks (``ServingMetrics``, the ingest cache) and holding ours across
        them would build a cross-registry lock order for no benefit.
        """
        with self._lock:
            collectors = list(self._collectors.items())
        merged: Dict[str, MetricFamily] = {}
        for _key, collector in sorted(collectors):
            for family in collector():
                existing = merged.get(family.name)
                if existing is None:
                    merged[family.name] = MetricFamily(
                        family.name, family.kind, family.help, family.samples
                    )
                elif existing.kind != family.kind:
                    raise ValueError(
                        f"metric {family.name!r} collected with conflicting kinds "
                        f"{existing.kind!r} and {family.kind!r}"
                    )
                else:
                    existing.samples.extend(family.samples)
        return [_dedupe_family(family) for family in merged.values()]

    def prometheus_text(self) -> str:
        """The full Prometheus text-format exposition of this registry."""
        return render_prometheus(self.collect())


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _dedupe_family(family: MetricFamily) -> MetricFamily:
    """Merge duplicate ``(name, labels)`` samples within one family."""
    out: Dict[Tuple, Any] = {}
    for sample in family.samples:
        labels = sample[0]
        key = _labels_key(labels)
        if key not in out:
            out[key] = sample
        elif family.kind == "histogram":
            _labels, buckets, total = out[key]
            merged = merge_buckets([buckets, sample[1]])
            out[key] = (labels, merged, total + sample[2])
        elif family.kind == "counter":
            out[key] = (labels, out[key][1] + sample[1])
        else:  # gauge: last write wins
            out[key] = sample
    return MetricFamily(family.name, family.kind, family.help, list(out.values()))


def merge_buckets(
    bucket_lists: Sequence[Sequence[Tuple[float, int]]]
) -> List[Tuple[float, int]]:
    """Element-wise sum of cumulative bucket lists sharing one bound set."""
    merged: Optional[List[Tuple[float, int]]] = None
    for buckets in bucket_lists:
        if merged is None:
            merged = [(float(bound), int(count)) for bound, count in buckets]
            continue
        if len(buckets) != len(merged) or any(
            b[0] != m[0] for b, m in zip(buckets, merged)
        ):
            raise ValueError("histogram bucket bounds differ; cannot merge")
        merged = [
            (bound, count + int(other[1]))
            for (bound, count), other in zip(merged, buckets)
        ]
    return merged or []


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(float(bound))


def render_prometheus(families: Iterable[MetricFamily]) -> str:
    """Render families as Prometheus text format (trailing newline)."""
    lines: List[str] = []
    for family in sorted(families, key=lambda f: f.name):
        help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {family.name} {help_text}".rstrip())
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.kind == "histogram":
            for labels, buckets, total in family.samples:
                count = buckets[-1][1] if buckets else 0
                for bound, cumulative in buckets:
                    with_le = dict(labels)
                    with_le["le"] = _format_bound(bound)
                    lines.append(
                        f"{family.name}_bucket{_format_labels(with_le)} "
                        f"{_format_value(cumulative)}"
                    )
                lines.append(
                    f"{family.name}_sum{_format_labels(dict(labels))} "
                    f"{_format_value(total)}"
                )
                lines.append(
                    f"{family.name}_count{_format_labels(dict(labels))} "
                    f"{_format_value(count)}"
                )
        else:
            for labels, value in family.samples:
                lines.append(
                    f"{family.name}{_format_labels(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Strict validation (tests + CI smoke)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_labels(raw: Optional[str], line_no: int) -> Dict[str, str]:
    if not raw:
        return {}
    labels: Dict[str, str] = {}
    rest = raw
    while rest:
        match = _LABEL_PAIR_RE.match(rest)
        if not match:
            raise ValueError(f"line {line_no}: malformed label set {raw!r}")
        name = match.group("name")
        if name in labels:
            raise ValueError(f"line {line_no}: duplicate label {name!r}")
        labels[name] = match.group("value")
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise ValueError(f"line {line_no}: malformed label set {raw!r}")
    return labels


def _parse_value(raw: str, line_no: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {line_no}: unparseable value {raw!r}") from None


def validate_exposition(text: str) -> Dict[str, str]:
    """Strictly parse a Prometheus text exposition; raises ``ValueError``.

    Checks: every line is ``# HELP``, ``# TYPE``, blank, or a well-formed
    sample; ``# TYPE`` precedes its family's samples and names a known
    kind; sample names resolve to a declared family (histogram samples via
    ``_bucket``/``_sum``/``_count`` suffixes, ``_bucket`` carrying an
    ``le`` label); no duplicate ``(name, labels)``; per labelset, histogram
    buckets are cumulative, non-decreasing, end at ``le="+Inf"``, and agree
    with ``_count``.  Returns ``{family: kind}`` for convenience.
    """
    types: Dict[str, str] = {}
    seen: set = set()
    # (family, labels-without-le) -> {"buckets": [(le, v)], "count": v}
    histograms: Dict[Tuple, Dict[str, Any]] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_no}: malformed HELP line {line!r}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_no}: malformed TYPE line {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in _KINDS:
                raise ValueError(f"line {line_no}: unknown metric kind {kind!r}")
            if name in types:
                raise ValueError(f"line {line_no}: duplicate TYPE for {name!r}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_no}: malformed sample line {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"), line_no)
        value = _parse_value(match.group("value"), line_no)
        family, suffix = name, ""
        if name not in types:
            for candidate in ("_bucket", "_sum", "_count"):
                if name.endswith(candidate) and name[: -len(candidate)] in types:
                    family, suffix = name[: -len(candidate)], candidate
                    break
        kind = types.get(family)
        if kind is None:
            raise ValueError(
                f"line {line_no}: sample {name!r} has no preceding # TYPE"
            )
        if kind == "histogram":
            if suffix not in ("_bucket", "_sum", "_count"):
                raise ValueError(
                    f"line {line_no}: histogram {family!r} sample must use "
                    "_bucket/_sum/_count"
                )
            if suffix == "_bucket" and "le" not in labels:
                raise ValueError(
                    f"line {line_no}: histogram bucket missing 'le' label"
                )
        elif suffix:
            raise ValueError(
                f"line {line_no}: suffix sample {name!r} on non-histogram family"
            )
        sample_key = (name, _labels_key(labels))
        if sample_key in seen:
            raise ValueError(
                f"line {line_no}: duplicate sample {name!r} {labels!r}"
            )
        seen.add(sample_key)
        if kind == "histogram":
            base_labels = {k: v for k, v in labels.items() if k != "le"}
            entry = histograms.setdefault(
                (family, _labels_key(base_labels)), {"buckets": [], "count": None}
            )
            if suffix == "_bucket":
                entry["buckets"].append((_parse_value(labels["le"], line_no), value))
            elif suffix == "_count":
                entry["count"] = value
    for (family, labels_key), entry in histograms.items():
        buckets = entry["buckets"]
        if not buckets or not math.isinf(buckets[-1][0]):
            raise ValueError(
                f"histogram {family!r} {dict(labels_key)!r} must end at le=\"+Inf\""
            )
        for (lo_bound, lo_count), (hi_bound, hi_count) in zip(buckets, buckets[1:]):
            if hi_bound <= lo_bound:
                raise ValueError(f"histogram {family!r} buckets not sorted by le")
            if hi_count < lo_count:
                raise ValueError(f"histogram {family!r} buckets not cumulative")
        if entry["count"] is None:
            raise ValueError(f"histogram {family!r} missing _count")
        if entry["count"] != buckets[-1][1]:
            raise ValueError(
                f"histogram {family!r} _count {entry['count']} != "
                f"+Inf bucket {buckets[-1][1]}"
            )
    return types


#: The process-global registry — what ``GET /metrics`` scrapes by default
#: and what module-level instruments (ingest cache, builder pool) join.
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL_REGISTRY
