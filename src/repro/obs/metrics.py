"""Process-wide metrics registry: counters, gauges and histograms.

The registry is the accumulation side of the observability layer (the
tracer in :mod:`repro.obs.trace` is the event side). Metrics follow the
Prometheus data model — monotonic counters, point-in-time gauges, and
histograms with *fixed* bucket boundaries so two runs of the same workload
produce directly comparable distributions — and render to the Prometheus
text exposition format via :meth:`MetricsRegistry.to_prometheus`.

Families support labels (``registry.counter("x", labels=("phase",))``)
with children materialized on first use, mirroring ``prometheus_client``
without the dependency. A module-level registry (:func:`get_registry`)
serves as the process default; engine runs publish their
:class:`~repro.engine.metrics.RunMetrics` totals into it, making the
per-run dataclass a view over the same counters the registry accumulates
process-wide.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Fixed boundaries for second-valued histograms (spans, phase timings).
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Fixed boundaries for byte-valued histograms (spill slabs).
BYTES_BUCKETS: Tuple[float, ...] = (
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
    4194304.0, 16777216.0, 67108864.0,
)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(names: Sequence[str], values: Sequence[Any],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(n, v) for n, v in zip(names, values)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{n}="{v}"' for n, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative histogram over fixed bucket boundaries."""

    __slots__ = ("boundaries", "bucket_counts", "count", "sum")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(boundaries)
        if list(bounds) != sorted(bounds):
            raise ReproError("histogram boundaries must be sorted")
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last bucket is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> List[int]:
        """Cumulative counts per boundary (plus +Inf), Prometheus-style."""
        out: List[int] = []
        running = 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out


class MetricFamily:
    """One named metric with zero or more label dimensions."""

    def __init__(self, kind: str, name: str, help_text: str,
                 label_names: Tuple[str, ...],
                 boundaries: Optional[Sequence[float]] = None) -> None:
        self.kind = kind
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.boundaries = boundaries
        self._children: Dict[Tuple[Any, ...], Any] = {}

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.boundaries or SECONDS_BUCKETS)

    def labels(self, *values: Any, **kv: Any) -> Any:
        if kv:
            if values:
                raise ReproError("pass label values positionally or by name")
            try:
                values = tuple(kv[n] for n in self.label_names)
            except KeyError as exc:
                raise ReproError(
                    f"metric {self.name} missing label {exc}"
                ) from None
        if len(values) != len(self.label_names):
            raise ReproError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child()
        return child

    # unlabeled convenience: the family proxies its single child
    def _solo(self) -> Any:
        if self.label_names:
            raise ReproError(
                f"metric {self.name} has labels {self.label_names}; "
                "call .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    def children(self) -> Iterable[Tuple[Tuple[Any, ...], Any]]:
        return sorted(self._children.items(), key=lambda kv: repr(kv[0]))


class MetricsRegistry:
    """Registry of metric families; the process-wide metrics substrate."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(self, kind: str, name: str, help_text: str,
                  labels: Sequence[str],
                  boundaries: Optional[Sequence[float]] = None
                  ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise ReproError(
                        f"metric {name} already registered as {family.kind}"
                        f"{family.label_names}"
                    )
                return family
            family = MetricFamily(kind, name, help_text, tuple(labels),
                                  boundaries)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._register("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._register("gauge", name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  boundaries: Sequence[float] = SECONDS_BUCKETS
                  ) -> MetricFamily:
        return self._register("histogram", name, help_text, labels,
                              boundaries)

    def families(self) -> List[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every metric (tests, ``repro stats``)."""
        out: Dict[str, Any] = {}
        for family in self.families():
            for values, child in family.children():
                key = family.name
                if family.label_names:
                    key += _format_labels(family.label_names, values)
                if family.kind == "histogram":
                    out[key] = {"count": child.count, "sum": child.sum}
                else:
                    out[key] = child.value
        return out

    def to_prometheus(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            if not family._children:
                continue
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                labels = _format_labels(family.label_names, values)
                if family.kind == "histogram":
                    cumulative = child.cumulative()
                    bounds = list(child.boundaries) + [math.inf]
                    for bound, count in zip(bounds, cumulative):
                        le = _format_labels(
                            family.label_names, values,
                            extra=("le", _format_value(bound)),
                        )
                        lines.append(
                            f"{family.name}_bucket{le} {count}"
                        )
                    lines.append(
                        f"{family.name}_sum{labels} {child.sum!r}"
                    )
                    lines.append(
                        f"{family.name}_count{labels} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{labels} "
                        f"{_format_value(float(child.value))}"
                    )
        return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
