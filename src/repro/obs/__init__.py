"""repro.obs — opt-in tracing, metrics, and progress instrumentation.

The paper's whole argument is about *measuring* where pipelines
bottleneck; this package applies the same discipline to the repo's own
evaluation machinery.  A :class:`Tracer` records nestable,
attribute-carrying spans on monotonic :func:`~time.perf_counter`
clocks plus :class:`Counter`/:class:`Gauge` metrics; the batch engine,
the sharded executor, and the study runner all take an optional
``tracer=`` (and the executor layer a ``progress=`` callback) and pay
only a null-check when neither is given.

Exporters turn one traced run into a ``chrome://tracing``
/-Perfetto-ready trace (:func:`write_chrome_trace`) or a human metrics
table (:func:`metrics_report`); a study result carries the same spans
and metrics as its telemetry document, whose wire format is
version-pinned in :mod:`repro.io.serialization`.

Quickstart::

    from repro.obs import Tracer, metrics_report, write_chrome_trace
    from repro.study import run_study

    tracer = Tracer()
    result = run_study(spec, chunk_rows=4096, tracer=tracer)
    write_chrome_trace("study-trace.json", tracer)   # open in Perfetto
    print(metrics_report(tracer))
    result.telemetry  # the same spans/metrics, inside the result JSON
"""

from .export import (
    chrome_trace,
    metrics_report,
    write_chrome_trace,
)
from .progress import Progress, ProgressCallback, ProgressPrinter
from .tracer import Counter, Gauge, SpanRecord, Tracer, maybe_span

__all__ = [
    "Counter",
    "Gauge",
    "Progress",
    "ProgressCallback",
    "ProgressPrinter",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "maybe_span",
    "metrics_report",
    "write_chrome_trace",
]
