"""The serve wire protocol: envelopes, error mapping, request parsing.

Every HTTP body :mod:`repro.serve` emits is one of five envelope
kinds — ``ack``, ``status``, ``progress``, ``error``, ``stats`` —
version-pinned through :mod:`repro.io.serialization` exactly like the
shard-checkpoint and telemetry formats
(:data:`~repro.io.serialization.SERVE_PROTOCOL_VERSION`); their field
tables live there, pinned by the same golden documents and table
digests as every other wire format.
This module holds the dataclasses those tables emit, the mapping
from the :mod:`repro.errors` taxonomy onto HTTP status codes, and the
request-side parsers (which reject malformed bodies with
:class:`~repro.errors.ConfigurationError` messages naming the
offending field, so a 400 always says *what* was wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import (
    ConfigurationError,
    ReproError,
    ServiceUnavailableError,
    StudyQueueFullError,
    UnknownStudyError,
)
from ..io.serialization import (
    SERVE_PROTOCOL_VERSION,
    STUDY_STATES,
    SERVE_ACK_TABLE,
    SERVE_ERROR_TABLE,
    SERVE_PROGRESS_TABLE,
    SERVE_STATS_TABLE,
    SERVE_STATUS_TABLE,
)

__all__ = [
    "SERVE_PROTOCOL_VERSION",
    "STUDY_STATES",
    "ErrorEnvelope",
    "ProgressEvent",
    "ServeStats",
    "StudyAck",
    "StudyStatus",
    "envelope_for_exception",
    "parse_analyze_request",
    "parse_study_request",
]

#: HTTP status code each taxonomy error maps to.  Anything not listed
#: (including non-:class:`ReproError` crashes) becomes a 500.
STATUS_FOR_ERROR: Tuple[Tuple[type, int], ...] = (
    (StudyQueueFullError, 429),
    (UnknownStudyError, 404),
    (ServiceUnavailableError, 503),
    (ConfigurationError, 400),
    (ReproError, 400),
)


@dataclass(frozen=True)
class StudyAck:
    """The response body of ``POST /v1/studies``."""

    study_id: str
    state: str
    coalesced: bool
    queue_depth: int

    def to_dict(self) -> Dict[str, Any]:
        return SERVE_ACK_TABLE.emit(self)


@dataclass(frozen=True)
class StudyStatus:
    """The response body of ``GET /v1/studies/{id}``."""

    study_id: str
    state: str
    spec_digest: str
    queue_position: Optional[int]
    progress: Optional[Dict[str, Any]]
    error: Optional[str]
    result_ready: bool

    def to_dict(self) -> Dict[str, Any]:
        return SERVE_STATUS_TABLE.emit(self)


@dataclass(frozen=True)
class ProgressEvent:
    """One line of the ``GET /v1/studies/{id}/progress`` stream."""

    study_id: str
    seq: int
    state: str
    progress: Optional[Dict[str, Any]]
    final: bool

    def to_dict(self) -> Dict[str, Any]:
        return SERVE_PROGRESS_TABLE.emit(self)


@dataclass(frozen=True)
class ErrorEnvelope:
    """The body of every non-2xx serve response."""

    status: int
    error: str
    message: str
    retry_after_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return SERVE_ERROR_TABLE.emit(self)


@dataclass(frozen=True)
class ServeStats:
    """The body of ``GET /v1/stats``: obs counter/gauge snapshots."""

    counters: Dict[str, int]
    gauges: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return SERVE_STATS_TABLE.emit(self)


def envelope_for_exception(exc: BaseException) -> ErrorEnvelope:
    """Map an exception onto its HTTP status + error envelope.

    The taxonomy contract: malformed requests (any
    :class:`ConfigurationError`, with its field-naming message) are
    400s, unknown study ids are 404s, a saturated queue is a 429
    carrying the scheduler's ``Retry-After`` estimate, a
    shutting-down server is a 503, and anything unrecognized is a 500
    that names only the exception type (internal details stay out of
    responses).
    """
    for error_type, status in STATUS_FOR_ERROR:
        if isinstance(exc, error_type):
            retry_after_s = None
            if isinstance(exc, StudyQueueFullError):
                retry_after_s = exc.retry_after_s
            elif isinstance(exc, ServiceUnavailableError):
                retry_after_s = 1.0
            return ErrorEnvelope(
                status=status,
                error=type(exc).__name__,
                message=str(exc),
                retry_after_s=retry_after_s,
            )
    return ErrorEnvelope(
        status=500,
        error=type(exc).__name__,
        message="internal error; see server logs",
        retry_after_s=None,
    )


def _request_error(field: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"request field {field!r}: {message}")


def _optional_number(body: Mapping[str, Any], field: str) -> Optional[float]:
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _request_error(
            field, f"must be a number, got {type(value).__name__}"
        )
    return float(value)


#: Keys a ``POST /v1/analyze`` body may carry.
ANALYZE_FIELDS = (
    "uav",
    "compute",
    "algorithm",
    "runtime_s",
    "sensor_range_m",
    "sensor_framerate_hz",
)


def parse_analyze_request(body: Any) -> Dict[str, Any]:
    """Validate a ``POST /v1/analyze`` body into normalized kwargs.

    The request mirrors ``repro-skyline analyze``: a ``uav`` preset
    name, optional ``compute`` platform and sensor overrides, and
    exactly one of ``algorithm`` (a registered autonomy algorithm) or
    ``runtime_s`` (the closed-form compute-runtime knob).
    """
    if not isinstance(body, dict):
        raise _request_error(
            "<root>", f"must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(set(body) - set(ANALYZE_FIELDS))
    if unknown:
        raise _request_error(
            unknown[0],
            f"unknown field; known fields: {', '.join(ANALYZE_FIELDS)}",
        )
    uav = body.get("uav")
    if not isinstance(uav, str) or not uav:
        raise _request_error("uav", "must name a UAV preset")
    algorithm = body.get("algorithm")
    runtime_s = _optional_number(body, "runtime_s")
    if (algorithm is None) == (runtime_s is None):
        raise _request_error(
            "algorithm",
            "exactly one of 'algorithm' or 'runtime_s' is required",
        )
    if algorithm is not None and not isinstance(algorithm, str):
        raise _request_error(
            "algorithm",
            f"must be a string, got {type(algorithm).__name__}",
        )
    if runtime_s is not None and runtime_s <= 0:
        raise _request_error(
            "runtime_s", f"must be > 0 seconds, got {runtime_s!r}"
        )
    compute = body.get("compute")
    if compute is not None and not isinstance(compute, str):
        raise _request_error(
            "compute", f"must be a string, got {type(compute).__name__}"
        )
    return {
        "uav": uav,
        "compute": compute,
        "algorithm": algorithm,
        "runtime_s": runtime_s,
        "sensor_range_m": _optional_number(body, "sensor_range_m"),
        "sensor_framerate_hz": _optional_number(
            body, "sensor_framerate_hz"
        ),
    }


def run_analyze(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Execute one parsed analyze request (closed-form, inline).

    Returns the same report document as ``repro-skyline analyze
    --json`` (:meth:`repro.skyline.tool.SkylineReport.to_dict`).
    """
    from ..skyline.tool import Skyline

    session = Skyline.from_preset(
        request["uav"],
        compute_name=request["compute"],
        sensor_range_m=request["sensor_range_m"],
        sensor_framerate_hz=request["sensor_framerate_hz"],
    )
    if request["algorithm"] is not None:
        report = session.evaluate_algorithm(request["algorithm"])
    else:
        runtime_s = request["runtime_s"]
        report = session.evaluate_throughput(
            1.0 / runtime_s, label=f"runtime={runtime_s:g}s"
        )
    return report.to_dict()


def parse_study_request(body: Any) -> "Any":
    """Validate a ``POST /v1/studies`` body into a ``StudySpec``.

    The body is the :class:`~repro.study.spec.StudySpec` document
    itself (the exact JSON ``StudySpec.to_dict`` emits); spec-level
    validation errors pass through with their field-naming messages.
    """
    from ..study.spec import StudySpec

    if not isinstance(body, dict):
        raise _request_error(
            "<root>",
            f"must be a StudySpec JSON object, got {type(body).__name__}",
        )
    return StudySpec.from_dict(body)
