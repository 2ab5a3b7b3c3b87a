"""Skyline-as-a-service: the asyncio HTTP front door.

``repro-skyline serve`` turns the closed-form analyzer and the
declarative study engine into a long-lived service:

* ``POST /v1/analyze`` — one closed-form design-point analysis,
  answered inline;
* ``POST /v1/studies`` — enqueue a
  :class:`~repro.study.spec.StudySpec`; identical specs coalesce onto
  one execution (keyed by the spec's content digest);
* ``GET /v1/studies/{id}`` / ``.../result`` / ``.../progress`` —
  status, the finished result (bitwise-identical for every waiter),
  and a streaming progress feed backed by :mod:`repro.obs`;
* ``GET /health`` and ``GET /v1/stats`` — readiness and the service's
  observability counters.

Wire formats are version-pinned in :mod:`repro.io.serialization`
(``SERVE_PROTOCOL_VERSION``); failures map the :mod:`repro.errors`
taxonomy onto HTTP status codes.  Everything is stdlib-only.
"""

from .client import ServeClient
from .protocol import (
    ErrorEnvelope,
    ProgressEvent,
    ServeStats,
    StudyAck,
    StudyStatus,
    envelope_for_exception,
    parse_analyze_request,
    parse_study_request,
    run_analyze,
)
from .scheduler import StudyScheduler
from .server import ReproServer, ServeConfig, ServerHandle
from .state import StudyRecord, StudyStore, study_id_for_digest

__all__ = [
    "ErrorEnvelope",
    "ProgressEvent",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeStats",
    "ServerHandle",
    "StudyAck",
    "StudyRecord",
    "StudyScheduler",
    "StudyStatus",
    "StudyStore",
    "envelope_for_exception",
    "parse_analyze_request",
    "parse_study_request",
    "run_analyze",
    "study_id_for_digest",
]
