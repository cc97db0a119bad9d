"""The metrics registry: counters, gauges, and exact-merge histograms.

Three instrument kinds, all label-aware and all safe to update from any
thread (one registry-wide lock serializes every mutation, so a snapshot
is a *consistent* cut across every instrument):

- :class:`Counter` — a monotone integer.  Increments are integers only,
  so worker-side counts merge by plain addition: exact, commutative,
  associative — the same algebra discipline as
  :class:`~repro.core.complementing.PartialKnowledge` merges.
- :class:`Gauge` — a point-in-time float (queue depth, retained epochs).
  Snapshot merges take the **maximum**, the only order-independent
  combination that makes sense for a point-in-time reading.
- :class:`Histogram` — fixed, explicit bucket bounds (never adaptive, so
  two workers' buckets always align), integer per-bucket counts, and a
  running total kept in an :class:`~repro.core.complementing.ExactSum`
  Shewchuk expansion — merging snapshots in any order or grouping yields
  bit-for-bit identical sums, proven by the hypothesis suite in
  ``tests/test_telemetry.py``.

Process-safe aggregation works through :meth:`MetricsRegistry.snapshot`
(full fidelity, including the exact-sum partials) and
:meth:`MetricsRegistry.merge_snapshot`: a ``processes`` backend worker
snapshots its local registry, ships the plain-dict snapshot back, and
the coordinator folds it in — deterministically, independent of worker
count and arrival order.

:class:`NullRegistry` is the disabled path: every lookup returns a
shared no-op instrument and ``enabled`` is ``False``, so instrumentation
sites can guard their hot paths with one attribute check and the
telemetry-off translation path stays near-free
(``benchmarks/bench_telemetry.py`` gates the enabled overhead too).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator, Mapping

from ..core.complementing import ExactSum
from ..errors import ConfigError
from .spans import Span, SpanTracer, _NULL_SPAN_CONTEXT

#: Default histogram bucket upper bounds (seconds-flavoured: the common
#: instrument is a latency).  Fixed and explicit so every worker's
#: buckets align and merges are exact; override per histogram for
#: size-flavoured metrics.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default bound of the recent-spans ring.
DEFAULT_SPAN_RING = 256

LabelSet = "tuple[tuple[str, str], ...]"


def _label_key(labels: Mapping[str, object]) -> LabelSet:
    """Canonical (sorted, stringified) label tuple — the instrument key."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotone integer counter; increments must be integers (exact)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet, lock: threading.RLock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (a non-negative integer) to the counter."""
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise ConfigError(
                f"counter {self.name!r} increments must be integers, got "
                f"{amount!r}; integer addition is what keeps cross-worker "
                "merges exact"
            )
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} is monotone; cannot add {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time float value (set/inc/dec)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet, lock: threading.RLock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= float(amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bound histogram with an exact (Shewchuk) running sum.

    ``bounds`` are the inclusive upper bucket bounds; one implicit
    ``+Inf`` bucket catches the rest.  Observations bisect into their
    bucket, so an observe is O(log #buckets); ``max`` is tracked so a
    snapshot can answer "worst window latency so far" without a scrape
    history.
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_sum",
                 "_count", "_max")

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        lock: threading.RLock,
        bounds: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ):
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError(
                f"histogram {self.__class__.__name__} {name!r} bucket "
                f"bounds must be non-empty and strictly increasing, got "
                f"{bounds!r}"
            )
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = lock
        self._counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self._sum = ExactSum()
        self._count = 0
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum.add(value)
            self._count += 1
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum.value

    @property
    def max(self) -> "float | None":
        with self._lock:
            return self._max

    def bucket_counts(self) -> "list[int]":
        """Per-bucket counts (last entry is the +Inf bucket)."""
        with self._lock:
            return list(self._counts)


class MetricsRegistry:
    """One process's telemetry state: instruments plus the span tracer.

    Instruments are created on first lookup and cached per
    ``(name, labels)``; lookups and updates share one re-entrant lock,
    which is also what makes :meth:`snapshot` a consistent cut — the
    exposition layer renders from the snapshot, never from live state
    (snapshot isolation).
    """

    enabled = True

    def __init__(self, *, span_ring: int = DEFAULT_SPAN_RING):
        self._lock = threading.RLock()
        self._counters: "dict[tuple[str, LabelSet], Counter]" = {}
        self._gauges: "dict[tuple[str, LabelSet], Gauge]" = {}
        self._histograms: "dict[tuple[str, LabelSet], Histogram]" = {}
        self._buckets: "dict[str, tuple[float, ...]]" = {}
        self._tracer = SpanTracer(ring=span_ring, registry=self)

    # ------------------------------------------------------------------
    # Instrument lookup
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                self._check_kind(name, self._counters)
                instrument = Counter(name, key[1], self._lock)
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                self._check_kind(name, self._gauges)
                instrument = Gauge(name, key[1], self._lock)
                self._gauges[key] = instrument
            return instrument

    def histogram(
        self,
        name: str,
        buckets: "tuple[float, ...] | None" = None,
        **labels,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                self._check_kind(name, self._histograms)
                bounds = self._buckets.get(name)
                if bounds is None:
                    bounds = (
                        tuple(buckets)
                        if buckets is not None
                        else DEFAULT_BUCKETS
                    )
                    # Every label-series of one histogram shares one set
                    # of bounds: that alignment is what keeps merges and
                    # cross-series comparison exact.
                    self._buckets[name] = bounds
                instrument = Histogram(name, key[1], self._lock, bounds)
                self._histograms[key] = instrument
            elif buckets is not None and tuple(buckets) != instrument.bounds:
                raise ConfigError(
                    f"histogram {name!r} already exists with bounds "
                    f"{instrument.bounds!r}; bounds are fixed at creation"
                )
            return instrument

    def _check_kind(self, name: str, own: dict) -> None:
        """A metric name may belong to exactly one instrument kind."""
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is own:
                continue
            if any(key[0] == name for key in table):
                raise ConfigError(
                    f"metric {name!r} is already registered as a {kind}"
                )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def trace(self, name: str, **labels):
        """Context manager timing one span (monotonic clock).

        Nested ``trace`` calls on the same thread record parent/child
        links; completed spans land on a bounded ring
        (:meth:`recent_spans`) and feed the ``trips_span_seconds``
        histogram, labelled by span name.
        """
        return self._tracer.trace(name, labels)

    def recent_spans(self) -> "list[Span]":
        """The most recently completed spans, oldest first (bounded)."""
        return self._tracer.recent()

    # ------------------------------------------------------------------
    # Snapshots, merging, iteration
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A consistent, full-fidelity copy of every instrument.

        Plain dicts/lists only (picklable, JSON-encodable): counters as
        integers, gauges as floats, histograms as bucket counts plus the
        exact-sum **partials** (not just the rounded value), so a
        snapshot can be merged into another registry without losing the
        bit-for-bit merge guarantee.  Spans ride along for the JSON
        exposition but never merge.
        """
        with self._lock:
            counters = [
                {
                    "name": c.name,
                    "labels": [list(pair) for pair in c.labels],
                    "value": c._value,
                }
                for c in self._counters.values()
            ]
            gauges = [
                {
                    "name": g.name,
                    "labels": [list(pair) for pair in g.labels],
                    "value": g._value,
                }
                for g in self._gauges.values()
            ]
            histograms = [
                {
                    "name": h.name,
                    "labels": [list(pair) for pair in h.labels],
                    "bounds": list(h.bounds),
                    "counts": list(h._counts),
                    "count": h._count,
                    "sum": h._sum.value,
                    "sum_partials": h._sum.expansion(),
                    "max": h._max,
                }
                for h in self._histograms.values()
            ]
            spans = [span.to_dict() for span in self._tracer.recent()]
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one, exactly.

        Counters add (integers), histogram bucket counts add and sums
        merge through their exact-sum partials — order- and
        grouping-independent, bit for bit — and gauges take the maximum
        (the one order-independent combination for a point-in-time
        reading).  Spans are per-process and are not merged.
        """
        with self._lock:
            for entry in snapshot.get("counters", ()):
                labels = dict(entry["labels"])
                self.counter(entry["name"], **labels).inc(entry["value"])
            for entry in snapshot.get("gauges", ()):
                labels = dict(entry["labels"])
                gauge = self.gauge(entry["name"], **labels)
                if entry["value"] > gauge._value:
                    gauge._value = float(entry["value"])
            for entry in snapshot.get("histograms", ()):
                labels = dict(entry["labels"])
                histogram = self.histogram(
                    entry["name"], buckets=tuple(entry["bounds"]), **labels
                )
                for index, count in enumerate(entry["counts"]):
                    histogram._counts[index] += count
                histogram._count += entry["count"]
                histogram._sum.merge(ExactSum(entry["sum_partials"]))
                if entry["max"] is not None and (
                    histogram._max is None or entry["max"] > histogram._max
                ):
                    histogram._max = float(entry["max"])

    def instruments(self) -> "Iterator[Counter | Gauge | Histogram]":
        """Every registered instrument (stable name/label order)."""
        with self._lock:
            everything = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        return iter(
            sorted(everything, key=lambda i: (i.name, i.labels))
        )

    def __str__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry({len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms)"
            )


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled path."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1.0) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    value = 0
    count = 0
    sum = 0.0
    max = None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every operation is a cheap no-op.

    Shares the :class:`MetricsRegistry` surface so instrumentation sites
    never branch on registry type — only, optionally, on
    :attr:`enabled` to skip building label kwargs on hot paths.
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def trace(self, name: str, **labels):
        return _NULL_SPAN_CONTEXT

    def recent_spans(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": [], "spans": []}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass

    def instruments(self) -> Iterator:
        return iter(())

    def __str__(self) -> str:
        return "NullRegistry()"
