"""Tests for repro.obs — tracing, metrics, progress, exporters."""

from __future__ import annotations

import io
import json
import threading
from time import perf_counter

import pytest

from repro.errors import SimulationError
from repro.obs import (
    Progress,
    ProgressPrinter,
    Tracer,
    chrome_trace,
    maybe_span,
    metrics_report,
    write_chrome_trace,
)
from repro.obs.tracer import _NULL_SPAN


class TestTracerSpans:
    def test_span_records_name_timing_and_attributes(self):
        tracer = Tracer()
        with tracer.span("phase", rows=10) as span:
            span.set(selected=3)
        (record,) = tracer.spans
        assert record.name == "phase"
        assert record.tid == 0
        assert record.duration_s >= 0.0
        assert record.start_s >= 0.0
        assert record.attributes == {"rows": 10, "selected": 3}
        assert record.end_s == record.start_s + record.duration_s

    def test_spans_nest_by_time_containment(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # completion order: inner first
        assert inner.name == "inner"
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_record_clock_is_epoch_relative_and_clamped(self):
        tracer = Tracer()
        start = perf_counter()
        record = tracer.record_clock("x", start, start + 0.5)
        assert record.duration_s == pytest.approx(0.5)
        # A clock predating the epoch clamps to zero, never negative.
        early = tracer.record_clock("y", tracer.epoch - 10.0, tracer.epoch)
        assert early.start_s == 0.0

    def test_span_names_are_sorted_and_distinct(self):
        tracer = Tracer()
        for name in ("b", "a", "b"):
            with tracer.span(name):
                pass
        assert tracer.span_names() == ("a", "b")

    def test_span_still_records_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(SimulationError):
            with tracer.span("doomed"):
                raise SimulationError("boom")
        assert tracer.span_names() == ("doomed",)

    def test_concurrent_spans_all_recorded(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def work(i: int) -> None:
            barrier.wait()
            for _ in range(50):
                with tracer.span(f"t{i}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans) == 200


class TestMaybeSpan:
    def test_none_tracer_yields_shared_null_span(self):
        span = maybe_span(None, "anything", rows=1)
        assert span is _NULL_SPAN
        with span as inner:
            assert inner.set(more=2) is inner  # chainable, stateless

    def test_real_tracer_records(self):
        tracer = Tracer()
        with maybe_span(tracer, "real", rows=5):
            pass
        assert tracer.span_names() == ("real",)


class TestMetrics:
    def test_counters_accumulate_and_snapshot(self):
        tracer = Tracer()
        tracer.counter("rows").add(3)
        tracer.counter("rows").add()
        assert tracer.counter("rows").value == 4
        assert tracer.counters_snapshot() == {"rows": 4}

    def test_gauge_holds_latest(self):
        tracer = Tracer()
        tracer.gauge("rate").set(10.0)
        tracer.gauge("rate").set(2.5)
        assert tracer.gauges_snapshot() == {"rate": 2.5}

    def test_merge_counters_folds_worker_snapshots(self):
        tracer = Tracer()
        tracer.counter("cache.hits").add(1)
        tracer.merge_counters({"cache.hits": 2, "cache.misses": 5})
        snapshot = tracer.counters_snapshot()
        assert snapshot == {"cache.hits": 3, "cache.misses": 5}

    def test_counter_thread_safety(self):
        tracer = Tracer()
        counter = tracer.counter("n")
        barrier = threading.Barrier(8)

        def bump() -> None:
            barrier.wait()
            for _ in range(1000):
                counter.add()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestAbsorb:
    def test_rebases_worker_events_onto_parent_timeline(self):
        # The parent exists before the worker span starts, as it does
        # when it dispatches a shard; a parent epoch inside the span
        # would leave less time before the anchor than the span lasted,
        # and absorb clamps such a span's start to 0.
        parent = Tracer()
        worker = Tracer()
        with worker.span("shard.evaluate", rows=7):
            pass
        anchor = perf_counter()
        parent.absorb(worker.to_events(), tid=3, end_clock=anchor, shard=2)
        (span,) = parent.spans
        assert span.tid == 3
        assert span.name == "shard.evaluate"
        assert span.attributes["rows"] == 7
        assert span.attributes["shard"] == 2
        # The latest absorbed event ends exactly at the anchor.
        assert span.end_s == pytest.approx(anchor - parent.epoch, abs=1e-6)

    def test_relative_structure_preserved(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        parent = Tracer()
        parent.absorb(worker.to_events(), tid=1)
        inner, outer = parent.spans
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s + 1e-9

    def test_empty_events_are_a_no_op(self):
        parent = Tracer()
        parent.absorb([], tid=1)
        assert parent.spans == ()


class TestTelemetryDocument:
    def test_to_telemetry_shape(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        tracer.counter("rows").add(2)
        tracer.gauge("rate").set(1.5)
        doc = tracer.to_telemetry()
        assert doc["version"] == 1
        assert len(doc["events"]) == 1
        assert doc["counters"] == {"rows": 2}
        assert doc["gauges"] == {"rate": 1.5}
        json.dumps(doc)  # JSON-compatible throughout


class TestChromeTrace:
    def test_structure_and_units(self):
        tracer = Tracer()
        start = tracer.epoch
        tracer.record_clock("phase", start + 0.001, start + 0.003, rows=2)
        tracer.record_clock("w", start + 0.002, start + 0.004, tid=2)
        tracer.counter("rows").add(2)
        doc = chrome_trace(tracer)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["counters"] == {"rows": 2}
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {(m["tid"], m["args"]["name"]) for m in meta} == {
            (0, "driver"),
            (2, "shard 1"),
        }
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        phase = next(e for e in complete if e["name"] == "phase")
        assert phase["ts"] == 1000  # microseconds
        assert phase["dur"] == 2000
        assert phase["args"] == {"rows": 2}

    def test_write_is_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        doc = json.loads(path.read_text())
        assert any(e["name"] == "x" for e in doc["traceEvents"])


class TestMetricsReport:
    def test_aggregates_per_span_name(self):
        tracer = Tracer()
        start = tracer.epoch
        tracer.record_clock("phase", start, start + 0.010)
        tracer.record_clock("phase", start, start + 0.030)
        tracer.counter("rows").add(5)
        tracer.gauge("rate").set(1.25)
        report = metrics_report(tracer)
        assert "phase" in report
        assert "rows" in report and "counter" in report
        assert "rate" in report and "gauge" in report
        # phase row: count 2, total 40 ms, mean 20 ms, max 30 ms.
        phase_line = next(
            line for line in report.splitlines() if "phase" in line
        )
        assert " 2 " in phase_line
        assert "40.000" in phase_line
        assert "20.000" in phase_line
        assert "30.000" in phase_line

    def test_empty_tracer_reports_nothing_recorded(self):
        assert metrics_report(Tracer()) == "(no spans or metrics recorded)"


class TestProgress:
    def test_derived_quantities(self):
        p = Progress(
            done=2, total=4, rows_done=50, rows_total=100, elapsed_s=5.0
        )
        assert p.fraction == 0.5
        assert p.rows_per_s == 10.0
        assert p.eta_s == pytest.approx(5.0)

    def test_no_signal_yet(self):
        p = Progress(
            done=0, total=4, rows_done=0, rows_total=100, elapsed_s=0.0
        )
        assert p.rows_per_s == 0.0
        assert p.eta_s is None
        assert "eta --" in p.describe()

    def test_empty_grid_has_zero_fraction(self):
        p = Progress(
            done=0, total=0, rows_done=0, rows_total=0, elapsed_s=1.0
        )
        assert p.fraction == 0.0

    def test_describe_and_to_dict(self):
        p = Progress(
            done=3, total=16, rows_done=300, rows_total=1600, elapsed_s=2.0
        )
        line = p.describe()
        assert "shards 3/16" in line
        assert "rows 300/1600" in line
        assert "150 rows/s" in line
        d = p.to_dict()
        assert d["rows_per_s"] == 150.0
        json.dumps(d)


class TestProgressPrinter:
    def _snapshot(self, done: int, elapsed: float) -> Progress:
        return Progress(
            done=done,
            total=4,
            rows_done=done * 10,
            rows_total=40,
            elapsed_s=elapsed,
        )

    def test_prints_labelled_lines(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream, label="study")
        printer(self._snapshot(1, 1.0))
        printer(self._snapshot(2, 2.0))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("study: shards 1/4")

    def test_throttles_but_always_prints_final(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream, min_interval_s=10.0)
        printer(self._snapshot(1, 0.1))
        printer(self._snapshot(2, 0.2))  # throttled
        printer(self._snapshot(3, 0.3))  # throttled
        printer(self._snapshot(4, 0.4))  # final: always printed
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "shards 4/4" in lines[-1]

    def test_defaults_to_stderr(self, capsys):
        printer = ProgressPrinter()
        printer(self._snapshot(4, 1.0))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shards 4/4" in captured.err

    def test_drops_out_of_order_snapshots(self):
        # A parallel executor can deliver shard 2's callback after
        # shard 3's; the printed sequence must stay monotone in rows.
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer(self._snapshot(3, 0.3))
        printer(self._snapshot(2, 0.4))  # stale: fewer rows done
        printer(self._snapshot(4, 0.5))  # final
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "shards 3/4" in lines[0]
        assert "shards 4/4" in lines[1]


class _ChunkRecordingStream(io.StringIO):
    """Records every raw ``write`` chunk (the tearing witness)."""

    def __init__(self) -> None:
        super().__init__()
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return super().write(text)


class TestProgressPrinterThreadSafety:
    """The serving layer drives one printer from many worker threads;
    updates must land atomically, throttled, and monotone."""

    def _snapshot(self, done: int, elapsed: float) -> Progress:
        return Progress(
            done=done,
            total=1000,
            rows_done=done,
            rows_total=1000,
            elapsed_s=elapsed,
        )

    def test_each_update_is_a_single_write(self):
        # The atomicity contract concurrent writers rely on: one
        # update == one stream.write of one whole line.  (The old
        # print()-based implementation wrote text and newline as two
        # chunks, so two threads could interleave mid-line.)
        stream = _ChunkRecordingStream()
        printer = ProgressPrinter(stream=stream)
        printer(self._snapshot(1, 1.0))
        printer(self._snapshot(2, 2.0))
        assert len(stream.chunks) == 2
        for chunk in stream.chunks:
            assert chunk.endswith("\n")
            assert chunk.count("\n") == 1

    def test_concurrent_updates_never_tear_lines(self):
        stream = _ChunkRecordingStream()
        printer = ProgressPrinter(stream=stream, label="svc")
        barrier = threading.Barrier(8)

        def work(thread_index: int) -> None:
            barrier.wait()
            for step in range(50):
                printer(self._snapshot(thread_index * 50 + step, 1.0))

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every chunk is one complete line; nothing interleaved.
        assert stream.chunks
        for chunk in stream.chunks:
            assert chunk.startswith("svc: shards ")
            assert chunk.endswith("\n")
            assert chunk.count("\n") == 1
        # And the printed row counts are monotone non-decreasing.
        rows = [
            int(chunk.split("shards ")[1].split("/")[0])
            for chunk in stream.chunks
        ]
        assert rows == sorted(rows)

    def test_throttle_is_atomic_under_concurrency(self):
        # All 8 threads deliver at the same elapsed time; the
        # check-then-set throttle must admit exactly one line (the
        # unlocked version let every thread observe 'no line yet').
        stream = _ChunkRecordingStream()
        printer = ProgressPrinter(stream=stream, min_interval_s=60.0)
        barrier = threading.Barrier(8)

        def work() -> None:
            barrier.wait()
            printer(self._snapshot(1, 0.0))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(stream.chunks) == 1
