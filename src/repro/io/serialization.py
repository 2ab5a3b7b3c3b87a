"""JSON-friendly (de)serialization of UAV configurations and results.

Round-trips every component dataclass through plain dicts so Skyline
sessions and DSE sweeps can be saved, diffed and re-loaded, and
round-trips the batch-engine result types
(:class:`~repro.batch.matrix.DesignMatrix`,
:class:`~repro.batch.result.BatchResult`) so whole studies can cross
process boundaries, plus the shard-checkpoint wire format
(:func:`shard_manifest_to_dict` / :func:`shard_record_to_dict`) the
sharded executor uses to make interrupted studies resumable.

Every per-row array travels as a *column object* — the base64 of its
little-endian bytes under a pinned dtype tag (:func:`encode_column`) —
so encoding costs a memory copy, not a float-to-text conversion, and
every float64 bit pattern survives.  Bound and verdict columns are
int8 codes that carry their names list, so a document never depends
on the in-process integer encoding the kernels are free to reorder:
:data:`BOUND_CODE_TO_NAME` / :data:`STATUS_CODE_TO_NAME` below are
pinned for all serialized documents (a consistency test asserts they
agree with the live kernel tables).
"""

from __future__ import annotations

import base64
import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

import numpy as np

from ..errors import ConfigurationError
from ..uav.components import (
    Battery,
    ComputePlatform,
    FlightControllerBoard,
    Frame,
    Motor,
    Sensor,
)
from ..uav.configuration import UAVConfiguration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..batch.executor import ShardManifest, ShardResult
    from ..batch.matrix import DesignMatrix
    from ..batch.result import BatchResult
    from ..distrib.lease import LeaseRecord
    from ..obs.tracer import SpanRecord
    from ..serve.protocol import (
        ErrorEnvelope,
        ProgressEvent,
        ServeStats,
        StudyAck,
        StudyStatus,
    )

#: Version-stable bound-code wire mapping (Sec. III-B classifications).
BOUND_CODE_TO_NAME = {
    0: "physics",
    1: "sensor",
    2: "compute",
    3: "control",
}
BOUND_NAME_TO_CODE = {name: code for code, name in BOUND_CODE_TO_NAME.items()}

#: Version-stable verdict-code wire mapping (Sec. III-C statuses).
STATUS_CODE_TO_NAME = {
    0: "optimal",
    1: "over-provisioned",
    2: "under-provisioned",
}
STATUS_NAME_TO_CODE = {
    name: code for code, name in STATUS_CODE_TO_NAME.items()
}

_COMPONENT_TYPES = {
    "frame": Frame,
    "motor": Motor,
    "battery": Battery,
    "sensor": Sensor,
    "compute": ComputePlatform,
    "flight_controller": FlightControllerBoard,
}

_SCALAR_FIELDS = (
    "name",
    "compute_redundancy",
    "extra_payload_g",
    "payload_override_g",
    "braking_pitch_deg",
)


def _dataclass_to_dict(obj: Any) -> Dict[str, Any]:
    return {
        field_name: getattr(obj, field_name)
        for field_name in obj.__dataclass_fields__  # type: ignore[attr-defined]
    }


def configuration_to_dict(uav: UAVConfiguration) -> Dict[str, Any]:
    """Serialize a configuration to a JSON-compatible dict."""
    data: Dict[str, Any] = {
        key: _dataclass_to_dict(getattr(uav, key))
        for key in _COMPONENT_TYPES
    }
    for field_name in _SCALAR_FIELDS:
        data[field_name] = getattr(uav, field_name)
    return data


def _component_from_section(key: str, cls: type, section: Any) -> Any:
    """Build one component, mapping malformed sections to clear errors.

    A bad field used to surface as a raw ``TypeError`` from the
    dataclass constructor; unknown and missing fields are now reported
    as :class:`ConfigurationError` naming the section and the field.
    """
    if not isinstance(section, dict):
        raise ConfigurationError(
            f"component section {key!r} must be a mapping, got "
            f"{type(section).__name__}"
        )
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - field_names)
    if unknown:
        raise ConfigurationError(
            f"component section {key!r} has unknown field(s) "
            f"{', '.join(map(repr, unknown))}; known fields: "
            f"{', '.join(sorted(field_names))}"
        )
    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    missing = sorted(required - set(section))
    if missing:
        raise ConfigurationError(
            f"component section {key!r} is missing required field(s) "
            f"{', '.join(map(repr, missing))}"
        )
    try:
        return cls(**section)
    except TypeError as exc:  # e.g. non-string keys the checks can't name
        raise ConfigurationError(
            f"component section {key!r} could not be constructed: {exc}"
        ) from exc


def configuration_from_dict(data: Dict[str, Any]) -> UAVConfiguration:
    """Rebuild a configuration from :func:`configuration_to_dict` output."""
    kwargs: Dict[str, Any] = {}
    for key, cls in _COMPONENT_TYPES.items():
        if key not in data:
            raise ConfigurationError(f"missing component section {key!r}")
        kwargs[key] = _component_from_section(key, cls, data[key])
    for field_name in _SCALAR_FIELDS:
        if field_name in data:
            kwargs[field_name] = data[field_name]
    return UAVConfiguration(**kwargs)


# ---------------------------------------------------------------------------
# Batch result types (the wire format of the study layer)
# ---------------------------------------------------------------------------
_MATRIX_COLUMNS = (
    "sensing_range_m",
    "a_max",
    "f_sensor_hz",
    "f_compute_hz",
    "f_control_hz",
)
_RESULT_COLUMNS = (
    "roof_velocity",
    "knee_hz",
    "knee_velocity",
    "action_throughput_hz",
    "safe_velocity",
)


def _result_error(field: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"result field {field!r}: {message}")


# ---------------------------------------------------------------------------
# The column codec: one per-row array as little-endian bytes in base64
# ---------------------------------------------------------------------------
#: Pinned dtype tags of the three column kinds: float64 values, int64
#: row indices and int8 bound/verdict codes.
FLOAT_COLUMN = "<f8"
INDEX_COLUMN = "<i8"
CODE_COLUMN = "<i1"

#: In-process dtype each wire tag decodes to.
_NATIVE_DTYPES = {
    FLOAT_COLUMN: np.float64,
    INDEX_COLUMN: np.intp,
    CODE_COLUMN: np.int8,
}


def encode_column(values: Any, dtype: str) -> Dict[str, Any]:
    """One per-row array as a ``{"dtype", "b64"}`` column object.

    ``b64`` is the standard base64 of the array's little-endian bytes
    under the pinned ``dtype`` tag, so every bit pattern — ``-0.0``,
    subnormals, NaN payloads — round-trips exactly.
    """
    payload = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(payload).decode("ascii")}


def decode_column(
    field: str,
    column: Any,
    dtype: str,
    rows: Optional[int] = None,
    stop: Optional[int] = None,
) -> np.ndarray:
    """Rebuild a fresh native array from an :func:`encode_column` object.

    The one validation point of every column: the tag must be the pinned
    ``dtype`` for ``field``, ``b64`` strict base64 of a whole number of
    items, the item count exactly ``rows`` (any count when ``None``) and,
    for columns that index something, every item in ``[0, stop)``.
    Every failure is a :class:`ConfigurationError` naming ``field``.
    """
    if column is None:
        raise _result_error(field, "missing")
    if not isinstance(column, dict):
        raise _result_error(
            field, f"must be a column object, got {type(column).__name__}"
        )
    if column.get("dtype") != dtype:
        raise _result_error(
            field, f"dtype must be {dtype!r}, got {column.get('dtype')!r}"
        )
    payload = column.get("b64")
    if not isinstance(payload, str):
        raise _result_error(
            field, f"b64 must be a string, got {type(payload).__name__}"
        )
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise _result_error(field, f"invalid base64: {exc}") from exc
    items, remainder = divmod(len(raw), np.dtype(dtype).itemsize)
    if remainder:
        raise _result_error(
            field, f"{len(raw)} bytes is not a whole number of {dtype} items"
        )
    if rows is not None and items != rows:
        raise _result_error(field, f"{items} items for {rows} rows")
    values = np.frombuffer(raw, dtype=dtype).astype(_NATIVE_DTYPES[dtype])
    if stop is not None:
        outside = values[(values < 0) | (values >= stop)]
        if outside.size:
            raise _result_error(
                field, f"{int(outside[0])} is outside [0, {stop})"
            )
    return values


def _encode_codes(codes: Any, code_to_name: Mapping[int, str]) -> Dict[str, Any]:
    """An int8 code column carrying its pinned names (code *i* is
    ``names[i]``)."""
    column = encode_column(codes, CODE_COLUMN)
    column["names"] = [code_to_name[code] for code in sorted(code_to_name)]
    return column


def _decode_codes(
    field: str, column: Any, name_to_code: Mapping[str, int], rows: int
) -> np.ndarray:
    """In-process codes from an :func:`_encode_codes` object.

    Codes index the document's own ``names`` list, and every name must be
    a pinned one, so a reader maps through names, never raw integers.
    """
    # A column that is not a mapping fails in decode_column below.
    names = column.get("names") if isinstance(column, dict) else []
    if not isinstance(names, list):
        raise _result_error(
            f"{field}.names",
            f"must be a list of names, got {type(names).__name__}",
        )
    for name in names:
        if not isinstance(name, str) or name not in name_to_code:
            raise _result_error(
                f"{field}.names",
                f"unknown name {name!r}; known: "
                f"{', '.join(sorted(name_to_code))}",
            )
    lookup = np.asarray([name_to_code[name] for name in names], dtype=np.int8)
    return lookup[decode_column(field, column, CODE_COLUMN, rows, stop=len(names))]


def _rows_of(field: str, data: Dict[str, Any]) -> int:
    rows = data.get("rows")
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 0:
        raise _result_error(
            f"{field}.rows", f"must be a non-negative integer, got {rows!r}"
        )
    return rows


def _number(field: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _result_error(field, f"must be a number, got {value!r}")
    return value


def design_matrix_to_dict(matrix: "DesignMatrix") -> Dict[str, Any]:
    """Serialize a design matrix to a JSON-compatible dict.

    ``{"rows": n, <column>: {"dtype": "<f8", "b64": ...}, ...}`` plus
    the optional ``labels`` list and ``knee_fraction``.
    """
    data: Dict[str, Any] = {"rows": len(matrix)}
    for name in _MATRIX_COLUMNS:
        data[name] = encode_column(getattr(matrix, name), FLOAT_COLUMN)
    if matrix.labels is not None:
        data["labels"] = list(matrix.labels)
    if matrix.knee_fraction is not None:
        data["knee_fraction"] = matrix.knee_fraction
    return data


def design_matrix_from_dict(data: Any) -> "DesignMatrix":
    """Rebuild a matrix from :func:`design_matrix_to_dict` output."""
    from ..batch.matrix import DesignMatrix

    if not isinstance(data, dict):
        raise _result_error(
            "matrix", f"must be a mapping, got {type(data).__name__}"
        )
    rows = _rows_of("matrix", data)
    columns = {
        name: decode_column(
            f"matrix.{name}", data.get(name), FLOAT_COLUMN, rows
        )
        for name in _MATRIX_COLUMNS
    }
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise _result_error(
            "matrix.labels",
            f"must be a list or null, got {type(labels).__name__}",
        )
    return DesignMatrix.from_arrays(
        **columns,
        labels=tuple(labels) if labels is not None else None,
        knee_fraction=data.get("knee_fraction"),
    )


def batch_result_to_dict(result: "BatchResult") -> Dict[str, Any]:
    """Serialize a batch result (and its matrix) to a plain dict.

    Result columns are ``<f8`` column objects; ``bounds``/``statuses``
    are ``<i1`` code columns carrying the pinned code↔name lists, keeping
    documents stable even if the in-process encoding ever changes.
    """
    data: Dict[str, Any] = {
        "rows": len(result),
        "matrix": design_matrix_to_dict(result.matrix),
    }
    for name in _RESULT_COLUMNS:
        data[name] = encode_column(getattr(result, name), FLOAT_COLUMN)
    data["bounds"] = _encode_codes(result.bound_codes, BOUND_CODE_TO_NAME)
    data["statuses"] = _encode_codes(result.status_codes, STATUS_CODE_TO_NAME)
    data["knee_fraction"] = result.knee_fraction
    data["tolerance"] = result.tolerance
    return data


def batch_result_from_dict(data: Any) -> "BatchResult":
    """Rebuild a batch result from :func:`batch_result_to_dict` output."""
    from ..batch.result import BatchResult

    if not isinstance(data, dict):
        raise _result_error(
            "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    for key in ("matrix", "bounds", "statuses", "knee_fraction", "tolerance"):
        if key not in data:
            raise _result_error(key, "missing")
    rows = _rows_of("batch", data)
    matrix = design_matrix_from_dict(data["matrix"])
    if len(matrix) != rows:
        raise _result_error("matrix.rows", f"{len(matrix)} for {rows} rows")
    columns = {
        name: decode_column(name, data.get(name), FLOAT_COLUMN, rows)
        for name in _RESULT_COLUMNS
    }
    return BatchResult(
        matrix=matrix,
        bound_codes=_decode_codes(
            "bounds", data["bounds"], BOUND_NAME_TO_CODE, rows
        ),
        status_codes=_decode_codes(
            "statuses", data["statuses"], STATUS_NAME_TO_CODE, rows
        ),
        knee_fraction=_number("knee_fraction", data["knee_fraction"]),
        tolerance=_number("tolerance", data["tolerance"]),
        **columns,
    )


# ---------------------------------------------------------------------------
# Shard checkpoints (the wire format of the sharded executor)
# ---------------------------------------------------------------------------
#: Version stamped on every shard manifest document.
MANIFEST_VERSION = 2

#: Manifest kinds a checkpoint directory may hold.
MANIFEST_KINDS = ("study", "matrix")

_MANIFEST_FIELDS = (
    "kind",
    "digest",
    "total_rows",
    "chunk_rows",
    "n_shards",
    "knee_fraction",
    "tolerance",
    "reduce",
)


def shard_manifest_to_dict(manifest: "ShardManifest") -> Dict[str, Any]:
    """Serialize a shard manifest to its JSON wire format.

    ``manifest.json`` pins a checkpoint directory to one sharded run::

        {
          "version": 2,
          "kind": "study",             // or "matrix"
          "digest": "9f2c...",         // content digest of the source
          "total_rows": 1000000,       // rows in the full grid
          "chunk_rows": 65536,         // rows per shard
          "n_shards": 16,
          "knee_fraction": null,       // evaluation contract ...
          "tolerance": 0.05,
          "reduce": null               // or {"k", "by", "descending"}
        }

    Each completed shard sits next to it as ``shard-<index>.jsonl``,
    one :func:`shard_record_to_dict` object per (single-line) file.
    Resume compares every manifest field; any mismatch rejects the
    directory rather than mixing rows from different runs.
    """
    data: Dict[str, Any] = {"version": MANIFEST_VERSION}
    for name in _MANIFEST_FIELDS:
        data[name] = getattr(manifest, name)
    return data


def _manifest_error(field: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"shard manifest field {field!r}: {message}")


def shard_manifest_from_dict(data: Any) -> "ShardManifest":
    """Rebuild a manifest from :func:`shard_manifest_to_dict` output."""
    from ..batch.executor import ShardManifest

    if not isinstance(data, dict):
        raise _manifest_error(
            "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    version = data.get("version")
    if version != MANIFEST_VERSION:
        raise _manifest_error(
            "version",
            f"unsupported version {version!r}; this build reads "
            f"version {MANIFEST_VERSION}",
        )
    missing = [name for name in _MANIFEST_FIELDS if name not in data]
    if missing:
        raise _manifest_error(missing[0], "missing")
    if data["kind"] not in MANIFEST_KINDS:
        raise _manifest_error(
            "kind",
            f"unknown kind {data['kind']!r}; known: "
            f"{', '.join(MANIFEST_KINDS)}",
        )
    for name in ("total_rows", "chunk_rows", "n_shards"):
        if not isinstance(data[name], int) or data[name] < 0:
            raise _manifest_error(
                name, f"must be a non-negative integer, got {data[name]!r}"
            )
    reduce = data["reduce"]
    if reduce is not None and (
        not isinstance(reduce, dict)
        or set(reduce) != {"k", "by", "descending"}
    ):
        raise _manifest_error(
            "reduce",
            "must be null or a {'k', 'by', 'descending'} mapping, got "
            f"{reduce!r}",
        )
    return ShardManifest(**{name: data[name] for name in _MANIFEST_FIELDS})


def shard_record_to_dict(result: "ShardResult") -> Dict[str, Any]:
    """Serialize one completed shard to its JSONL wire format.

    One object per shard file, on a single line::

        {"index": 3, "start": 196608, "stop": 262144,
         "local_indices": null,          // or a "<i8" column object
         "extras": {"total_mass_g": {"dtype": "<f8", "b64": ...}, ...},
         "batch": { ...batch_result_to_dict... }}

    ``local_indices`` is ``null`` for a full shard (its batch covers
    exactly ``[start, stop)``) and the shard-local winner indices for a
    reduced (top-k) shard.  Every column holds exactly the batch's rows.
    """
    return {
        "index": result.index,
        "start": result.start,
        "stop": result.stop,
        "local_indices": (
            None
            if result.local_indices is None
            else encode_column(result.local_indices, INDEX_COLUMN)
        ),
        "extras": {
            name: encode_column(column, FLOAT_COLUMN)
            for name, column in (result.extras or {}).items()
        },
        "batch": batch_result_to_dict(result.batch),
    }


def shard_record_from_dict(data: Any) -> "ShardResult":
    """Rebuild a shard record from :func:`shard_record_to_dict` output."""
    from ..batch.executor import ShardResult

    if not isinstance(data, dict):
        raise _result_error(
            "shard", f"must be a mapping, got {type(data).__name__}"
        )
    for key in ("index", "start", "stop", "extras", "batch"):
        if key not in data:
            raise _result_error(f"shard.{key}", "missing")
    for key in ("index", "start", "stop"):
        if not isinstance(data[key], int):
            raise _result_error(
                f"shard.{key}",
                f"must be an integer, got {data[key]!r}",
            )
    batch = batch_result_from_dict(data["batch"])
    rows = len(batch)
    local_indices = data.get("local_indices")
    if local_indices is not None:
        local_indices = decode_column(
            "shard.local_indices", local_indices, INDEX_COLUMN, rows,
            stop=data["stop"] - data["start"],
        )
    elif rows != data["stop"] - data["start"]:
        raise _result_error(
            "shard.batch",
            f"{rows} rows for range [{data['start']}, {data['stop']})",
        )
    extras = data["extras"]
    if not isinstance(extras, dict):
        raise _result_error(
            "shard.extras",
            f"must be a mapping, got {type(extras).__name__}",
        )
    return ShardResult(
        index=data["index"],
        start=data["start"],
        stop=data["stop"],
        batch=batch,
        local_indices=local_indices,
        extras={
            name: decode_column(
                f"shard.extras.{name}", column, FLOAT_COLUMN, rows
            )
            for name, column in extras.items()
        },
    )


# ---------------------------------------------------------------------------
# Distributed lease files (the wire format of repro.distrib)
# ---------------------------------------------------------------------------
#: Version stamped on every lease document.  Bump on any shape change,
#: exactly like :data:`MANIFEST_VERSION` above; workers refuse leases
#: from a different protocol generation rather than guessing.
DISTRIB_PROTOCOL_VERSION = 1

_LEASE_FIELDS = (
    "spec_digest",
    "shard_index",
    "owner",
    "lease_ttl_s",
    "heartbeats",
)


def _lease_error(field: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"lease record field {field!r}: {message}")


def lease_record_to_dict(record: "LeaseRecord") -> Dict[str, Any]:
    """Serialize one shard lease to its JSON wire format.

    ``leases/shard-<index>.lease.json`` marks a shard as claimed by one
    worker; liveness is the *file's mtime* (refreshed atomically on
    every heartbeat), never a wall-clock timestamp in the body::

        {"version": 1, "kind": "lease",
         "spec_digest": "9f2c...",    // study the shard belongs to
         "shard_index": 3,
         "owner": "host-a-12041",     // claiming worker's id
         "lease_ttl_s": 30.0,         // holder's declared ttl
         "heartbeats": 7}             // refresh count (diagnostics)

    The file's presence is the claim, its creation (``O_EXCL``) is the
    arbitration, and staleness is judged by comparing its mtime against
    a freshly-written probe file on the *same* filesystem, so hosts
    need no synchronized clocks.
    """
    data: Dict[str, Any] = {
        "version": DISTRIB_PROTOCOL_VERSION,
        "kind": "lease",
    }
    for name in _LEASE_FIELDS:
        data[name] = getattr(record, name)
    return data


def lease_record_from_dict(data: Any) -> "LeaseRecord":
    """Rebuild a lease from :func:`lease_record_to_dict` output.

    Strict by design: any malformed lease raises
    :class:`~repro.errors.ConfigurationError`, which the lease store
    maps to "treat as expired, warn, re-claim" — a torn or corrupt
    lease must never wedge a shard forever.
    """
    from ..distrib.lease import LeaseRecord

    if not isinstance(data, dict):
        raise _lease_error(
            "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    version = data.get("version")
    if version != DISTRIB_PROTOCOL_VERSION:
        raise _lease_error(
            "version",
            f"unsupported version {version!r}; this build reads "
            f"version {DISTRIB_PROTOCOL_VERSION}",
        )
    if data.get("kind") != "lease":
        raise _lease_error(
            "kind", f"must be 'lease', got {data.get('kind')!r}"
        )
    missing = [name for name in _LEASE_FIELDS if name not in data]
    if missing:
        raise _lease_error(missing[0], "missing")
    if not isinstance(data["spec_digest"], str) or not data["spec_digest"]:
        raise _lease_error(
            "spec_digest",
            f"must be a non-empty string, got {data['spec_digest']!r}",
        )
    if not isinstance(data["shard_index"], int) or data["shard_index"] < 0:
        raise _lease_error(
            "shard_index",
            f"must be a non-negative integer, got {data['shard_index']!r}",
        )
    if not isinstance(data["owner"], str) or not data["owner"]:
        raise _lease_error(
            "owner", f"must be a non-empty string, got {data['owner']!r}"
        )
    ttl = data["lease_ttl_s"]
    if isinstance(ttl, bool) or not isinstance(ttl, (int, float)) or ttl <= 0:
        raise _lease_error(
            "lease_ttl_s", f"must be a positive number, got {ttl!r}"
        )
    if not isinstance(data["heartbeats"], int) or data["heartbeats"] < 0:
        raise _lease_error(
            "heartbeats",
            f"must be a non-negative integer, got {data['heartbeats']!r}",
        )
    return LeaseRecord(
        spec_digest=data["spec_digest"],
        shard_index=data["shard_index"],
        owner=data["owner"],
        lease_ttl_s=float(ttl),
        heartbeats=data["heartbeats"],
    )


# ---------------------------------------------------------------------------
# Trace events and telemetry (the wire format of repro.obs)
# ---------------------------------------------------------------------------
#: Version of the trace-event wire format (JSONL log lines, telemetry
#: event lists).  Bump on any shape change, exactly like
#: :data:`MANIFEST_VERSION` above.
TRACE_EVENT_VERSION = 1

#: Version stamped on :attr:`repro.study.result.StudyResult.telemetry`
#: documents (``{"version", "events", "counters", "gauges"}``).
TELEMETRY_VERSION = 1


def trace_event_to_dict(span: "SpanRecord") -> Dict[str, Any]:
    """Serialize one finished span to the trace-event wire format.

    One object per span::

        {"name": "shard.evaluate",   // span name
         "start_us": 18234,          // microseconds since tracer epoch
         "dur_us": 912,              // span duration, microseconds
         "tid": 4,                   // track: 0 = driver, i+1 = shard i
         "args": {"rows": 4096}}     // attributes (JSON scalars)

    Times are integer microseconds on a *monotonic* clock
    (:func:`time.perf_counter` relative to the recording tracer's
    epoch) — never wall-clock dates, so events from one run always
    order correctly and diff cleanly.  The same objects appear as the
    body lines of the JSONL event log
    (:func:`repro.obs.export.write_trace_jsonl`, behind a
    ``{"version", "kind": "trace", "counters", "gauges"}`` header
    line) and, converted to Chrome's ``ph``/``ts``/``dur`` spelling,
    in the ``chrome://tracing`` export.
    """
    return {
        "name": span.name,
        "start_us": round(span.start_s * 1e6),
        "dur_us": round(span.duration_s * 1e6),
        "tid": span.tid,
        "args": dict(span.attributes),
    }


def _trace_error(field: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"trace event field {field!r}: {message}")


def trace_event_from_dict(data: Any) -> "SpanRecord":
    """Rebuild a span from :func:`trace_event_to_dict` output."""
    from ..obs.tracer import SpanRecord

    if not isinstance(data, dict):
        raise _trace_error(
            "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    for key in ("name", "start_us", "dur_us", "tid", "args"):
        if key not in data:
            raise _trace_error(key, "missing")
    if not isinstance(data["name"], str) or not data["name"]:
        raise _trace_error(
            "name", f"must be a non-empty string, got {data['name']!r}"
        )
    for key in ("start_us", "dur_us"):
        if not isinstance(data[key], int) or data[key] < 0:
            raise _trace_error(
                key,
                f"must be a non-negative integer of microseconds, got "
                f"{data[key]!r}",
            )
    if not isinstance(data["tid"], int) or data["tid"] < 0:
        raise _trace_error(
            "tid", f"must be a non-negative integer, got {data['tid']!r}"
        )
    if not isinstance(data["args"], dict):
        raise _trace_error(
            "args",
            f"must be a mapping, got {type(data['args']).__name__}",
        )
    return SpanRecord(
        name=data["name"],
        start_s=data["start_us"] / 1e6,
        duration_s=data["dur_us"] / 1e6,
        tid=data["tid"],
        attributes=dict(data["args"]),
    )


def telemetry_from_dict(data: Any) -> Dict[str, Any]:
    """Validate a :meth:`repro.obs.Tracer.to_telemetry` document.

    Returns the document unchanged (telemetry stays plain data on the
    result; spans rebuild on demand via :func:`trace_event_from_dict`),
    after checking the version pin and the events' wire shape.
    """
    if data is None:
        return data
    if not isinstance(data, dict):
        raise ConfigurationError(
            "telemetry field '<root>': must be a mapping or null, got "
            f"{type(data).__name__}"
        )
    version = data.get("version")
    if version != TELEMETRY_VERSION:
        raise ConfigurationError(
            f"telemetry field 'version': unsupported version {version!r}; "
            f"this build reads version {TELEMETRY_VERSION}"
        )
    for event in data.get("events", ()):
        trace_event_from_dict(event)
    for key in ("counters", "gauges"):
        if key in data and not isinstance(data[key], dict):
            raise ConfigurationError(
                f"telemetry field {key!r}: must be a mapping, got "
                f"{type(data[key]).__name__}"
            )
    return data


# ---------------------------------------------------------------------------
# Serve envelopes (the wire format of repro.serve)
# ---------------------------------------------------------------------------
#: Version stamped on every HTTP envelope :mod:`repro.serve` emits
#: (acks, statuses, progress events, errors, stats).  Bump on any
#: shape change, exactly like :data:`MANIFEST_VERSION` above.
SERVE_PROTOCOL_VERSION = 1

#: Envelope kinds a serve document may carry.
SERVE_ENVELOPE_KINDS = ("ack", "status", "progress", "error", "stats")

#: Lifecycle states a served study moves through (in order; terminal
#: states are the last two).
STUDY_STATES = ("queued", "running", "done", "failed")

#: Required keys per envelope kind (beyond ``version``/``kind``),
#: shared by the builders below and :func:`serve_envelope_from_dict`.
_SERVE_ENVELOPE_FIELDS = {
    "ack": ("study_id", "state", "coalesced", "queue_depth"),
    "status": (
        "study_id",
        "state",
        "spec_digest",
        "queue_position",
        "progress",
        "error",
        "result_ready",
    ),
    "progress": ("study_id", "seq", "state", "progress", "final"),
    "error": ("status", "error", "message", "retry_after_s"),
    "stats": ("counters", "gauges"),
}


def _serve_envelope(kind: str, obj: Any) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "version": SERVE_PROTOCOL_VERSION,
        "kind": kind,
    }
    for name in _SERVE_ENVELOPE_FIELDS[kind]:
        data[name] = getattr(obj, name)
    return data


def serve_ack_to_dict(ack: "StudyAck") -> Dict[str, Any]:
    """Serialize a study-submission ack to its JSON wire format.

    The body of ``202 Accepted`` (and of the ``200 OK`` a coalesced
    resubmission gets)::

        {"version": 1, "kind": "ack",
         "study_id": "study-9f2c...",   // digest-derived, idempotent
         "state": "queued",             // lifecycle state at submit
         "coalesced": false,            // true: joined an existing run
         "queue_depth": 3}              // queued studies after this one
    """
    return _serve_envelope("ack", ack)


def serve_status_to_dict(status: "StudyStatus") -> Dict[str, Any]:
    """Serialize a study status to its JSON wire format.

    The body of ``GET /v1/studies/{id}``::

        {"version": 1, "kind": "status",
         "study_id": "study-9f2c...",
         "state": "running",            // queued|running|done|failed
         "spec_digest": "9f2c...",
         "queue_position": null,        // 0-based while queued
         "progress": { ... },           // Progress.to_dict(), or null
         "error": null,                 // failure message when failed
         "result_ready": false}         // GET ?result=1 will succeed

    The finished :class:`~repro.study.result.StudyResult` document
    itself is *not* re-pinned here — it already carries its own
    ``RESULT_VERSION``.
    """
    return _serve_envelope("status", status)


def serve_progress_to_dict(event: "ProgressEvent") -> Dict[str, Any]:
    """Serialize one progress-stream event to its JSON wire format.

    ``GET /v1/studies/{id}/progress`` streams one such object per
    line; ``seq`` increases monotonically and the ``final`` event
    carries the terminal state::

        {"version": 1, "kind": "progress",
         "study_id": "study-9f2c...",
         "seq": 4,
         "state": "running",
         "progress": {"rows_done": 4096, ...},   // or null pre-start
         "final": false}
    """
    return _serve_envelope("progress", event)


def serve_error_to_dict(error: "ErrorEnvelope") -> Dict[str, Any]:
    """Serialize an error envelope to its JSON wire format.

    Every non-2xx serve response carries one, mapping the
    :mod:`repro.errors` taxonomy onto HTTP::

        {"version": 1, "kind": "error",
         "status": 429,                       // HTTP status code
         "error": "StudyQueueFullError",      // taxonomy class name
         "message": "study queue is full ...",
         "retry_after_s": 2.0}                // null unless 429/503
    """
    return _serve_envelope("error", error)


def serve_stats_to_dict(stats: "ServeStats") -> Dict[str, Any]:
    """Serialize a server stats snapshot to its JSON wire format.

    The body of ``GET /v1/stats``: the serving layer's observability
    counters and gauges (:mod:`repro.obs` snapshots)::

        {"version": 1, "kind": "stats",
         "counters": {"serve.studies.coalesced": 7, ...},
         "gauges": {"serve.queue_depth": 0.0, ...}}
    """
    return _serve_envelope("stats", stats)


def _serve_error(field: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"serve envelope field {field!r}: {message}")


def serve_envelope_from_dict(data: Any) -> Dict[str, Any]:
    """Validate any serve envelope; returns the document unchanged.

    The client-side guard: checks the version pin, the ``kind``
    discriminator, and the kind's required keys, then hands the plain
    dict back (envelopes stay data end to end; no dataclass rebuild is
    needed to act on them).
    """
    if not isinstance(data, dict):
        raise _serve_error(
            "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    version = data.get("version")
    if version != SERVE_PROTOCOL_VERSION:
        raise _serve_error(
            "version",
            f"unsupported version {version!r}; this build reads "
            f"version {SERVE_PROTOCOL_VERSION}",
        )
    kind = data.get("kind")
    if kind not in _SERVE_ENVELOPE_FIELDS:
        raise _serve_error(
            "kind",
            f"unknown kind {kind!r}; known: "
            f"{', '.join(SERVE_ENVELOPE_KINDS)}",
        )
    missing = [
        name for name in _SERVE_ENVELOPE_FIELDS[kind] if name not in data
    ]
    if missing:
        raise _serve_error(missing[0], "missing")
    if "state" in data and data["state"] not in STUDY_STATES:
        raise _serve_error(
            "state",
            f"unknown study state {data['state']!r}; known: "
            f"{', '.join(STUDY_STATES)}",
        )
    return data


def design_matrices_equal(a: "DesignMatrix", b: "DesignMatrix") -> bool:
    """Bitwise column equality plus labels and knee rule."""
    return (
        len(a) == len(b)
        and all(
            np.array_equal(left, right)
            for left, right in zip(a.columns(), b.columns())
        )
        and a.labels == b.labels
        and a.knee_fraction == b.knee_fraction
    )


def batch_results_equal(a: "BatchResult", b: "BatchResult") -> bool:
    """Bitwise equality of two batch results, matrices included."""
    return (
        design_matrices_equal(a.matrix, b.matrix)
        and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in _RESULT_COLUMNS
        )
        and np.array_equal(a.bound_codes, b.bound_codes)
        and np.array_equal(a.status_codes, b.status_codes)
        and a.knee_fraction == b.knee_fraction
        and a.tolerance == b.tolerance
    )
