"""Thread-safe metrics instruments with Prometheus text exposition.

Three instrument kinds — :class:`Counter`, :class:`Gauge`, and a
log-bucketed :class:`Histogram` — are *declared* on a
:class:`MetricsRegistry` and updated on the hot path with a single
fine-grained lock per instrument.  Everything derived (cache hit rates,
MVCC snapshot counts, pool stats) is registered as a **callback
collector**: a function evaluated only when ``render()`` is called, so
an unscraped metric costs nothing in steady state.

Every number an owner reports is declared once, as a :class:`Figure` in its
:class:`Reported` table: its ``stats()`` key, and the series, kind, help and
label it is exported as.  The owner's ``stats()`` section and its collectors
are both read off that table, so the two cannot drift apart.

``render()`` produces the Prometheus text exposition format
(``text/plain; version=0.0.4``) and :func:`validate_exposition` is a
line-syntax validator shared by the tests and the CI metrics-smoke
step.  ``snapshot()`` returns a flat ``{series: value}`` dict the
benchmarks use to record before/after metric deltas.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "Counter",
    "ABSENT",
    "Figure",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reported",
    "exponential_buckets",
    "validate_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: content type the door sends for ``GET /v1/metrics``
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced bucket upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: default latency buckets: 0.5 ms .. ~262 s, doubling
DEFAULT_BUCKETS = exponential_buckets(0.0005, 2.0, 20)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: tuple[str, ...]) -> tuple[str, ...]:
    for label in labelnames:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
    return labelnames


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


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


class _Instrument:
    """One named instrument; labeled instruments hold per-labelset children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(tuple(labelnames))
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, **labelvalues: str):
        """The child instrument for one label combination (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _child_items(self) -> list[tuple[Mapping[str, str], Any]]:
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), child)
                for key, child in sorted(self._children.items())
            ]


class Counter(_Instrument):
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def per_label(self) -> dict[str, float]:
        """``{first-label-value: count}`` for single-label counters."""
        return {labels[self.labelnames[0]]: child.value for labels, child in self._child_items()}

    def samples(self) -> Iterator[tuple[str, Mapping[str, str], float]]:
        if self.labelnames:
            for labels, child in self._child_items():
                yield self.name, labels, child.value
        else:
            yield self.name, {}, self.value


class Gauge(_Instrument):
    """A value that can go up and down; tracks its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0
        self._peak = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._peak:
                self._peak = self._value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if self._value > self._peak:
                self._peak = self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def peak(self) -> float:
        with self._lock:
            return self._peak

    def samples(self) -> Iterator[tuple[str, Mapping[str, str], float]]:
        if self.labelnames:
            for labels, child in self._child_items():
                yield self.name, labels, child.value
        else:
            yield self.name, {}, self.value


class Histogram(_Instrument):
    """A log-bucketed histogram of observations (seconds by convention)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.bounds)

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def per_label(self) -> dict[str, "Histogram"]:
        """``{first-label-value: child}`` for single-label histograms."""
        return {labels[self.labelnames[0]]: child for labels, child in self._child_items()}

    def samples(self) -> Iterator[tuple[str, Mapping[str, str], float]]:
        if self.labelnames:
            items = self._child_items()
        else:
            items = [({}, self)]
        for labels, child in items:
            with child._lock:
                counts = list(child._counts)
                total, summed = child._count, child._sum
            cumulative = 0
            for bound, count in zip(child.bounds, counts):
                cumulative += count
                yield (
                    f"{self.name}_bucket",
                    {**labels, "le": _format_value(bound)},
                    float(cumulative),
                )
            yield f"{self.name}_bucket", {**labels, "le": "+Inf"}, float(total)
            yield f"{self.name}_sum", dict(labels), summed
            yield f"{self.name}_count", dict(labels), float(total)


class _Collector:
    """A scrape-time callback: ``fn()`` returns a value or (labels, value) pairs."""

    def __init__(self, name: str, help: str, kind: str, fn: Callable[[], Any]):
        self.name = _check_name(name)
        self.help = help
        self.kind = kind
        self.fn = fn

    def samples(self) -> Iterator[tuple[str, Mapping[str, str], float]]:
        try:
            produced = self.fn()
        except Exception:  # a broken collector must not take down the scrape
            return
        if produced is None:
            return
        if isinstance(produced, (int, float)):
            yield self.name, {}, float(produced)
            return
        for labels, value in produced:
            yield self.name, dict(labels), float(value)


class MetricsRegistry:
    """A named set of instruments plus scrape-time collectors.

    Redeclaring a name returns the existing instrument if the kind
    matches (so modules can declare idempotently) and raises otherwise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Any] = {}

    def _declare(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames=labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames=labelnames, buckets=buckets)

    def register_callback(
        self, name: str, help: str, fn: Callable[[], Any], *, kind: str = "gauge"
    ) -> None:
        """Register a scrape-time collector; replaces a previous callback of
        the same name."""
        if kind not in ("gauge", "counter"):
            raise ValueError(f"callback kind must be gauge or counter, not {kind!r}")
        collector = _Collector(name, help, kind, fn)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None and not isinstance(existing, _Collector):
                raise ValueError(f"metric {name!r} already registered as {existing.kind}")
            self._metrics[name] = collector

    def _ordered(self) -> list[Any]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render(self) -> str:
        """Prometheus text exposition format for every instrument."""
        lines: list[str] = []
        for metric in self._ordered():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labels, value in metric.samples():
                lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, float]:
        """Flat ``{'name{label="v"}': value}`` map (benchmark deltas)."""
        flat: dict[str, float] = {}
        for metric in self._ordered():
            for name, labels, value in metric.samples():
                flat[f"{name}{_format_labels(labels)}"] = value
        return flat


#: what a figure reads to leave its key out of ``stats()`` (an optional section)
ABSENT = object()


class Figure(NamedTuple):
    """One number an owner reports: ``read(owner)`` at the dotted ``key`` of its
    ``stats()`` (``None``: a series only) and, when ``metric`` is set, as that
    ``/v1/metrics`` series; a ``label``-ed figure reads ``{label value: number}``."""

    key: str | None
    read: Callable[[Any], Any]
    metric: str | None = None
    help: str = ""
    kind: str = "gauge"
    label: str | None = None


class Reported:
    """An owner whose ``stats()`` and collectors are both read off :attr:`FIGURES`."""

    FIGURES: ClassVar[tuple[Figure, ...]] = ()
    #: held while figures are read (the lock of the state they read, if shared)
    _figures_lock: Any = nullcontext()

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        with self._figures_lock:
            for figure in self.FIGURES:
                if figure.key is None or (value := figure.read(self)) is ABSENT:
                    continue
                *sections, leaf = figure.key.split(".")
                node = out
                for section in sections:
                    node = node.setdefault(section, {})
                node[leaf] = value
        return out

    def _live(self) -> bool:
        """Whether the owner's series are rendered now (absent while ``False``)."""
        return True

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """A scrape-time collector on ``registry`` per figure with a ``metric``."""
        for figure in self.FIGURES:
            if figure.metric is not None:
                registry.register_callback(
                    figure.metric, figure.help, partial(self._sample, figure), kind=figure.kind
                )

    def _sample(self, figure: Figure) -> Any:
        if not self._live():
            return None
        with self._figures_lock:
            value = figure.read(self)
        if figure.label is None:
            return value
        return [({figure.label: key}, number) for key, number in value.items()]


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\")*,?\})?"  # more labels
    r" [-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)"  # value
    r"( [-+]?[0-9]+)?$"  # optional timestamp
)
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$"
)


def validate_exposition(text: str) -> int:
    """Check Prometheus text exposition line syntax; returns the sample count.

    Raises ``ValueError`` naming every malformed line.  This is the
    validator behind the tests and the CI ``metrics-smoke`` step.
    """
    bad: list[str] = []
    n_samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not (_HELP_RE.match(line) or _TYPE_RE.match(line) or line.startswith("# ")):
                bad.append(f"line {lineno}: malformed comment {line!r}")
            continue
        if _SAMPLE_RE.match(line):
            n_samples += 1
        else:
            bad.append(f"line {lineno}: malformed sample {line!r}")
    if bad:
        raise ValueError("invalid exposition format:\n" + "\n".join(bad))
    if n_samples == 0:
        raise ValueError("exposition contains no samples")
    return n_samples
