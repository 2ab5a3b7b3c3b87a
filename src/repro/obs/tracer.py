"""Span tracing and lightweight metrics for the batch/study stack.

A :class:`Tracer` records **spans** — named, timed regions with
attributes — plus :class:`Counter`/:class:`Gauge` metrics.  All clocks
are :func:`time.perf_counter` (monotonic; wall clocks drift and jump),
expressed relative to the tracer's construction epoch so recorded
timelines are portable across processes and serializable.

The layer is strictly opt-in: every instrumented call site takes
``tracer=None`` and guards with a single ``is not None`` check, so an
uninstrumented run pays one null-check per phase and nothing else.
:func:`maybe_span` packages that idiom for ``with``-statement sites.

Spans nest naturally through the context-manager API; rendering (the
Chrome trace exporter in :mod:`repro.obs.export`) recovers nesting
from time containment per ``tid`` track, so no parent pointers are
stored.  Worker processes run their own tracer and ship their finished
spans back as wire dicts (see
:func:`repro.io.serialization.trace_event_to_dict`); :meth:`Tracer.absorb`
rebases those onto the parent's timeline.  Shards evaluated inline
skip the wire round-trip entirely: they record straight into the
parent tracer through a :meth:`Tracer.track` view, which pins their
spans to the shard's timeline track.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "SpanRecord",
    "Tracer",
    "maybe_span",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named, timed region of the run.

    ``start_s`` is seconds since the recording tracer's epoch (a
    :func:`~time.perf_counter` origin, not a wall-clock date);
    ``tid`` is the logical track the span lives on (0 = the driver,
    ``shard_index + 1`` = that shard's worker timeline).
    """

    name: str
    start_s: float
    duration_s: float
    tid: int = 0
    attributes: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class Counter:
    """A monotonically increasing metric (events, rows, cache hits)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time metric (rows/sec, queue depth, bytes pinned)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class _Span:
    """An open span; finishes (records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "tid", "attributes", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, tid: int, attributes: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.tid = tid
        self.attributes = attributes
        self._start = 0.0

    def set(self, **attributes: Any) -> "_Span":
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter()
        tracer = self._tracer
        # The span owns its attribute dict (``span()`` copied the
        # kwargs), so it is handed over without another copy — span
        # exits sit on instrumented hot paths.
        tracer._append(
            SpanRecord(
                name=self.name,
                start_s=max(0.0, self._start - tracer._epoch),
                duration_s=max(0.0, end - self._start),
                tid=self.tid,
                attributes=self.attributes,
            )
        )


class _NullSpan:
    """The shared do-nothing span :func:`maybe_span` hands out."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _TrackView:
    """A recording view of a :class:`Tracer` pinned to one ``tid`` track.

    Handed to inline shards (a one-worker executor, a distributed
    worker) by the executor: the shard shares the parent's process and
    therefore its ``perf_counter`` epoch, so spans can land directly in
    the parent tracer — exact times, no wire round-trip, no rebasing —
    just on the shard's own timeline track.  Exposes the recording surface the
    instrumented call sites use (``span``/``record_clock``/``counter``/
    ``gauge``); explicit ``tid`` arguments are overridden by the view's.
    """

    __slots__ = ("_tracer", "tid")

    def __init__(self, tracer: "Tracer", tid: int) -> None:
        self._tracer = tracer
        self.tid = tid

    def span(self, name: str, tid: int = 0, **attributes: Any) -> _Span:
        return _Span(self._tracer, name, self.tid, attributes)

    def record_clock(
        self,
        name: str,
        start_clock: float,
        end_clock: float,
        tid: int = 0,
        **attributes: Any,
    ) -> SpanRecord:
        return self._tracer.record_clock(
            name, start_clock, end_clock, tid=self.tid, **attributes
        )

    def counter(self, name: str) -> Counter:
        return self._tracer.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self._tracer.gauge(name)


def maybe_span(
    tracer: Optional["Tracer"], name: str, **attributes: Any
) -> "_Span | _NullSpan":
    """``tracer.span(...)`` when tracing, a shared no-op otherwise.

    The hot-path idiom: ``with maybe_span(tracer, "phase"): ...`` costs
    exactly one ``is None`` check (plus a no-op context manager) when
    tracing is off.
    """
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


class Tracer:
    """Collects spans and metrics for one run.  Thread-safe.

    Spans are appended under a lock (worker threads of a
    :class:`~repro.batch.executor.ParallelExecutor` may finish spans
    concurrently); counters and gauges carry their own locks.  A tracer
    is *not* shared across processes — workers build their own and the
    parent merges the serialized spans back via :meth:`absorb`.
    """

    def __init__(self) -> None:
        self._epoch = perf_counter()
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    # -- clocks ---------------------------------------------------------
    @property
    def epoch(self) -> float:
        """The :func:`~time.perf_counter` origin of this tracer's times."""
        return self._epoch

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return perf_counter() - self._epoch

    # -- spans ----------------------------------------------------------
    def span(self, name: str, tid: int = 0, **attributes: Any) -> _Span:
        """An open span as a context manager; records on exit."""
        # ``attributes`` is a fresh dict per call (keyword unpacking),
        # so the span takes ownership without copying.
        return _Span(self, name, tid, attributes)

    def track(self, tid: int) -> _TrackView:
        """A recording view that pins every span to the ``tid`` track.

        The in-process worker idiom: a serial or thread shard records
        through ``tracer.track(shard_index + 1)`` so its spans land on
        the shard's timeline directly (same process, same epoch) with
        no serialize/absorb round-trip.
        """
        return _TrackView(self, tid)

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def record_clock(
        self,
        name: str,
        start_clock: float,
        end_clock: float,
        tid: int = 0,
        **attributes: Any,
    ) -> SpanRecord:
        """Record a finished span from raw ``perf_counter`` readings."""
        record = SpanRecord(
            name=name,
            start_s=max(0.0, start_clock - self._epoch),
            duration_s=max(0.0, end_clock - start_clock),
            tid=tid,
            attributes=attributes,
        )
        self._append(record)
        return record

    def absorb(
        self,
        events: List[Dict[str, Any]],
        tid: int,
        end_clock: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        """Merge another tracer's serialized spans onto this timeline.

        ``events`` are wire dicts
        (:func:`repro.io.serialization.trace_event_to_dict`) from a
        tracer with an unrelated epoch — ``perf_counter`` origins are
        per-process — so they are rebased: shifted so the latest event
        ends at ``end_clock`` (default: now), which anchors a shard's
        worker spans at the moment its result reached the parent while
        preserving their relative structure.  ``attributes`` (e.g. the
        shard index) are stamped onto every absorbed span.
        """
        if not events:
            return
        try:
            # Events come from our own ``to_events`` on the worker
            # side, so they are unpacked directly; full wire validation
            # here would tax every traced shard result.
            parsed = [
                (
                    event["name"],
                    event["start_us"] * 1e-6,
                    event["dur_us"] * 1e-6,
                    {**event["args"], **attributes},
                )
                for event in events
            ]
        except (TypeError, KeyError):
            # Structurally malformed input: re-run the validating
            # parser so the error names the offending field.
            from ..io.serialization import trace_event_from_dict

            for event in events:
                trace_event_from_dict(event)
            raise
        anchor = (
            self.now()
            if end_clock is None
            else max(0.0, end_clock - self._epoch)
        )
        shift = anchor - max(start + dur for _, start, dur, _ in parsed)
        rebased = [
            SpanRecord(
                name=name,
                start_s=max(0.0, start + shift),
                duration_s=dur,
                tid=tid,
                attributes=attrs,
            )
            for name, start, dur, attrs in parsed
        ]
        with self._lock:
            self._spans.extend(rebased)

    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        """Every finished span, in completion order."""
        with self._lock:
            return tuple(self._spans)

    def span_names(self) -> Tuple[str, ...]:
        """The distinct span names recorded so far (sorted)."""
        return tuple(sorted({span.name for span in self.spans}))

    # -- metrics --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Fold a worker's counter snapshot into this tracer's."""
        for name, value in counters.items():
            self.counter(name).add(int(value))

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            counters = list(self._counters.values())
        return {c.name: c.value for c in counters}

    def gauges_snapshot(self) -> Dict[str, float]:
        with self._lock:
            gauges = list(self._gauges.values())
        return {g.name: g.value for g in gauges}

    # -- serialization --------------------------------------------------
    def to_events(self) -> List[Dict[str, Any]]:
        """Every span in the versioned trace-event wire format."""
        from ..io.serialization import trace_event_to_dict

        return [trace_event_to_dict(span) for span in self.spans]

    def to_telemetry(self) -> Dict[str, Any]:
        """The run's full telemetry as one JSON-compatible document.

        The format :attr:`repro.study.result.StudyResult.telemetry`
        round-trips (:data:`repro.io.serialization.TELEMETRY_TABLE`).
        """
        from ..io.serialization import TELEMETRY_TABLE

        return TELEMETRY_TABLE.emit(
            self,
            events=self.to_events(),
            counters=self.counters_snapshot(),
            gauges=self.gauges_snapshot(),
        )
