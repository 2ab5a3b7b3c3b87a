"""Exporters: Chrome traces and metrics summaries.

Two views of one :class:`~repro.obs.tracer.Tracer` (the third, the
telemetry document a :class:`~repro.study.StudyResult` carries, is
:data:`repro.io.serialization.TELEMETRY_TABLE`):

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON consumed by ``chrome://tracing`` / Perfetto.  Every
  span becomes a complete ("ph": "X") event; worker spans sit on their
  shard's ``tid`` track so a sharded study renders as one lane per
  shard under the driver lane.
* :func:`metrics_report` — the human summary: per-span-name timing
  aggregates plus every counter and gauge, rendered with
  :func:`repro.io.tables.format_table`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from ..io.tables import format_table
from .tracer import SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "metrics_report",
    "write_chrome_trace",
]


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------
def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event document.

    The JSON-object flavour of the trace-event format: spans become
    complete events (``"ph": "X"``, microsecond ``ts``/``dur``), the
    counters/gauges ride along under ``otherData``, and ``tid`` tracks
    are labelled via ``thread_name`` metadata so shard lanes read as
    ``shard 3`` rather than bare ints.  Load the written file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events: List[Dict[str, Any]] = []
    tids = sorted({span.tid for span in tracer.spans})
    for tid in tids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {
                    "name": "driver" if tid == 0 else f"shard {tid - 1}"
                },
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start_s * 1e6),
                "dur": round(span.duration_s * 1e6),
                "pid": 0,
                "tid": span.tid,
                "args": dict(span.attributes),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": tracer.counters_snapshot(),
            "gauges": tracer.gauges_snapshot(),
        },
    }


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> None:
    """Write :func:`chrome_trace` output to ``path`` as JSON."""
    Path(path).write_text(
        json.dumps(chrome_trace(tracer), indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Human summary
# ---------------------------------------------------------------------------
def metrics_report(tracer: Tracer) -> str:
    """An aligned text summary of the tracer's spans and metrics.

    One row per span *name* (count, total/mean/max milliseconds), then
    one per counter and gauge — the ``--metrics`` pane of the CLI.
    """
    by_name: Dict[str, List[SpanRecord]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    span_rows = []
    for name in sorted(by_name):
        durations = [span.duration_s for span in by_name[name]]
        span_rows.append(
            (
                name,
                len(durations),
                sum(durations) * 1e3,
                sum(durations) / len(durations) * 1e3,
                max(durations) * 1e3,
            )
        )
    sections = []
    if span_rows:
        sections.append(
            format_table(
                ("span", "count", "total_ms", "mean_ms", "max_ms"),
                span_rows,
            )
        )
    counters = tracer.counters_snapshot()
    gauges = tracer.gauges_snapshot()
    metric_rows = [
        (name, "counter", float(value)) for name, value in sorted(counters.items())
    ] + [
        (name, "gauge", value) for name, value in sorted(gauges.items())
    ]
    if metric_rows:
        sections.append(
            format_table(("metric", "kind", "value"), metric_rows)
        )
    if not sections:
        return "(no spans or metrics recorded)"
    return "\n\n".join(sections)
