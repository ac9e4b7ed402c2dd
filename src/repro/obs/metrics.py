"""Metrics primitives: counters, gauges and histograms with labels.

A small, dependency-free registry in the Prometheus data model.  Three
design points matter for this codebase:

- **Callback-backed samples.**  The vids hot path already maintains plain
  ``int`` fields (:class:`~repro.vids.metrics.VidsMetrics`); forcing every
  increment through a metric object would tax the packet loop.  Instead any
  counter/gauge child can be bound to a zero-argument callable with
  :meth:`_Child.set_function`; exposition reads the live value at collect
  time, so the hot path keeps its bare attribute increments.

- **Bounded label cardinality.**  Attack traffic controls label values
  (source IPs, call ids) and must not be able to grow a metric family
  without bound.  Each family caps its distinct label sets
  (``max_label_sets``); past the cap, new label sets collapse into a single
  overflow child whose labels all read ``"_overflow"``, and the fold is
  counted in :attr:`MetricFamily.dropped_label_sets`.

- **Round-trippable exposition.**  :meth:`MetricsRegistry.to_prometheus`
  emits Prometheus text exposition format and :func:`parse_prometheus`
  parses it back; tests and the CI obs-smoke step assert the round trip.
"""

from __future__ import annotations

import math
import re
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "PromSample",
    "parse_prometheus",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_LABEL",
]

#: Histogram bucket upper bounds (seconds) tuned for per-packet stage
#: latencies: 10 µs .. 100 ms, plus the implicit +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
)

#: Distinct label sets one family accepts before folding into overflow.
DEFAULT_MAX_LABEL_SETS = 256

#: Label value every overflow child reports.
OVERFLOW_LABEL = "_overflow"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\")
            .replace("\n", r"\n")
            .replace('"', r'\"'))


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for char in it:
        if char != "\\":
            out.append(char)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
    return "".join(out)


# -- children -----------------------------------------------------------------


class _Child:
    """One label set's sample holder."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Bind the sample to a live callable, read at collect time."""
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        return float(fn()) if fn is not None else self._value


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        self._value += amount


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


class _HistogramChild:
    """Cumulative-bucket histogram sample."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        buckets = self.buckets
        # Linear scan: bucket lists are short (len(DEFAULT_BUCKETS) == 13)
        # and observations cluster in the low buckets.
        for index, bound in enumerate(buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[len(buckets)] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


# -- families -----------------------------------------------------------------


class MetricFamily:
    """A named metric with a fixed label schema and one child per label set."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Tuple[str, ...] = (),
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        self.name = _check_name(name)
        self.help = help_text
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.max_label_sets = max_label_sets
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._overflow_key = tuple(OVERFLOW_LABEL for _ in self.labelnames)
        #: Label sets folded into the overflow child because of the cap.
        self.dropped_label_sets = 0

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, **labels: Any) -> Any:
        """The child for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if (len(self._children) >= self.max_label_sets
                    and key != self._overflow_key):
                self.dropped_label_sets += 1
                key = self._overflow_key
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
                return child
            child = self._make_child()
            self._children[key] = child
        return child

    def _default_child(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; use .labels()")
        return self.labels()

    def collect(self) -> Iterable[Tuple[Tuple[str, ...], Any]]:
        """(label_values, child) pairs in insertion order."""
        return list(self._children.items())


class Counter(MetricFamily):
    """A monotonically increasing value."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(MetricFamily):
    """A value that can go up and down (or track a live callable)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(MetricFamily):
    """An observation distribution over fixed cumulative buckets."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labelnames: Tuple[str, ...] = (),
                 buckets: Optional[Tuple[float, ...]] = None,
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        super().__init__(name, help_text, labelnames, max_label_sets)
        bounds = tuple(sorted(buckets if buckets is not None
                              else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        if "le" in self.labelnames:
            raise ValueError(f"{name}: 'le' is reserved for histogram buckets")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


# -- registry -----------------------------------------------------------------


class MetricsRegistry:
    """Owns metric families; get-or-create accessors and exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, MetricFamily] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._metrics.get(name)

    def register(self, metric: MetricFamily) -> MetricFamily:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            raise ValueError(f"duplicate metric: {metric.name}")
        self._metrics[metric.name] = metric
        return metric

    def _get_or_create(self, cls, name: str, help_text: str,
                       labelnames: Tuple[str, ...], **kwargs) -> Any:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"{name} already registered as {metric.kind}, "
                    f"not {cls.kind}")
            if metric.labelnames != tuple(labelnames):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{metric.labelnames}, not {tuple(labelnames)}")
            return metric
        metric = cls(name, help_text, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Tuple[str, ...] = (), **kwargs) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames,
                                   **kwargs)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Tuple[str, ...] = (), **kwargs) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames,
                                   **kwargs)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Tuple[str, ...] = (), **kwargs) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labelnames,
                                   **kwargs)

    # -- exposition -----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, child in metric.collect():
                base = list(zip(metric.labelnames, key))
                if isinstance(child, _HistogramChild):
                    for bound, cumulative in child.cumulative():
                        labels = base + [("le", _format_value(bound))]
                        lines.append(f"{metric.name}_bucket"
                                     f"{_render_labels(labels)}"
                                     f" {cumulative}")
                    lines.append(f"{metric.name}_sum{_render_labels(base)} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{metric.name}_count{_render_labels(base)} "
                                 f"{child.count}")
                else:
                    lines.append(f"{metric.name}{_render_labels(base)} "
                                 f"{_format_value(child.value)}")
        return "\n".join(lines) + "\n"


def _render_labels(labels: List[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                     for name, value in labels)
    return "{" + inner + "}"


# -- parsing ------------------------------------------------------------------


class PromSample:
    """One parsed exposition sample."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PromSample({self.name}, {self.labels}, {self.value})"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+\d+)?$")           # optional timestamp, ignored
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"'
    r'(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus(text: str) -> List[PromSample]:
    """Parse text exposition back into samples; raises on malformed lines.

    Returns every sample line (histograms appear as their ``_bucket`` /
    ``_sum`` / ``_count`` series).  ``# HELP`` / ``# TYPE`` comment lines
    are validated for shape and skipped.
    """
    samples: List[PromSample] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not re.match(r"^#\s+(HELP|TYPE)\s+\S+", line):
                raise ValueError(f"line {lineno}: malformed comment: {raw!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        labels: Dict[str, str] = {}
        label_blob = match.group("labels")
        if label_blob:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_blob):
                labels[pair.group("name")] = _unescape_label_value(
                    pair.group("value"))
                consumed = pair.end()
            if consumed != len(label_blob):
                raise ValueError(
                    f"line {lineno}: malformed labels: {label_blob!r}")
        try:
            value = _parse_value(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value: {raw!r}") from exc
        samples.append(PromSample(match.group("name"), labels, value))
    return samples
