"""JSON-friendly (de)serialization of UAV configurations and results.

Round-trips every component dataclass through plain dicts so Skyline
sessions and DSE sweeps can be saved, diffed and re-loaded, and
declares every wire document the system reads or writes — study specs,
design matrices, batch results, shard records and manifests, leases,
telemetry and its trace events, serve envelopes and saved study
results — once, as a :class:`WireTable`.  A table's rows of ``(name,
type, required, doc)`` drive its emitter, its reader and the
field-naming errors, the field tables in ``docs/`` and the table digest
pinned beside the golden documents in ``tests/data/wire_golden/``.
Readers refuse a missing required field, a value outside its type
(``null`` included, unless the type allows it) and any key the table
does not declare.

Every per-row array travels as a *column object* — the base64 of its
little-endian bytes under a pinned dtype tag (:func:`encode_column`) —
so encoding costs a memory copy, not a float-to-text conversion, and
every float64 bit pattern survives.  Bound and verdict columns are
int8 codes that carry their names list, so a document never depends
on the in-process integer encoding the kernels are free to reorder:
:data:`BOUND_CODE_TO_NAME` / :data:`STATUS_CODE_TO_NAME` below are
pinned for all serialized documents (a consistency test asserts they
agree with the live kernel tables).

Editing a table, a type tag's predicate, the shared emitter and reader
or the column codec changes a wire format: bump the family's
``*_VERSION`` constant, then write the new version's golden documents
and table digests with ``PYTHONPATH=src python tests/test_wire_golden.py``.
"""

from __future__ import annotations

import base64
import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

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

#: A configuration's scalar fields and the :data:`WIRE_TYPES` tag each
#: value must pass; ``name`` is required.
_SCALAR_FIELDS = {
    "name": "str",
    "compute_redundancy": "int >= 1",
    "extra_payload_g": "float",
    "payload_override_g": "float | null",
    "braking_pitch_deg": "float",
}


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
    """Rebuild a configuration from :func:`configuration_to_dict` output.

    Every malformed document is a :class:`ConfigurationError` naming the
    key: a missing section or ``name``, an unknown key, or a scalar
    outside its type.
    """
    if not isinstance(data, dict):
        raise _field_error(
            "configuration", "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    known = [*_COMPONENT_TYPES, *_SCALAR_FIELDS]
    unknown = sorted(map(repr, set(data) - set(known)))
    if unknown:
        raise _field_error(
            "configuration", "<root>",
            f"unknown key(s) {', '.join(unknown)}; known: {', '.join(known)}",
        )
    kwargs: Dict[str, Any] = {}
    for key, cls in _COMPONENT_TYPES.items():
        if key not in data:
            raise ConfigurationError(f"missing component section {key!r}")
        kwargs[key] = _component_from_section(key, cls, data[key])
    if "name" not in data:
        raise _field_error("configuration", "name", "missing")
    for field_name, tag in _SCALAR_FIELDS.items():
        if field_name in data:
            value = data[field_name]
            if not WIRE_TYPES[tag](value):
                raise _field_error(
                    "configuration", field_name, f"expected {tag}, got {_shown(value)}"
                )
            kwargs[field_name] = value
    return UAVConfiguration(**kwargs)


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


def _field_error(title: str, where: str, message: str) -> ConfigurationError:
    """The one shape of every wire reader error."""
    return ConfigurationError(f"{title} field {where!r}: {message}")


def check_indices(title: str, where: str, values: np.ndarray, stop: int) -> None:
    """Require every index in ``values`` to lie in ``[0, stop)``."""
    outside = values[(values < 0) | (values >= stop)]
    if outside.size:
        raise _field_error(
            title, where, f"{int(outside[0])} is outside [0, {stop})"
        )


def encode_column(values: Any, dtype: str) -> Dict[str, Any]:
    """One per-row array as a ``{"dtype", "b64"}`` column object.

    ``b64`` is the standard base64 of the array's little-endian bytes
    under the pinned ``dtype`` tag, so every bit pattern — ``-0.0``,
    subnormals, NaN payloads — round-trips exactly.
    """
    payload = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(payload).decode("ascii")}


def decode_column(
    title: str,
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
    Every failure is a :class:`ConfigurationError` naming ``field`` of
    the ``title`` document.
    """
    if not isinstance(column, dict):
        raise _field_error(
            title, field,
            f"must be a column object, got {type(column).__name__}",
        )
    if column.get("dtype") != dtype:
        raise _field_error(
            title, field,
            f"dtype must be {dtype!r}, got {column.get('dtype')!r}",
        )
    payload = column.get("b64")
    if not isinstance(payload, str):
        raise _field_error(
            title, field,
            f"b64 must be a string, got {type(payload).__name__}",
        )
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise _field_error(title, field, f"invalid base64: {exc}") from exc
    items, remainder = divmod(len(raw), np.dtype(dtype).itemsize)
    if remainder:
        raise _field_error(
            title, field,
            f"{len(raw)} bytes is not a whole number of {dtype} items",
        )
    if rows is not None and items != rows:
        raise _field_error(title, field, f"{items} items for {rows} rows")
    values = np.frombuffer(raw, dtype=dtype).astype(_NATIVE_DTYPES[dtype])
    if stop is not None:
        check_indices(title, field, values, stop)
    return values


class _Column:
    """A column field type: an array as an :func:`encode_column` object.

    ``codes`` makes it a code column that carries its code↔name table
    as ``names`` (code *i* is ``names[i]``), so a reader maps through
    names, never raw integers.  ``per_row=False`` lets it hold any
    number of items, ``nullable`` lets the field be ``null``, and
    ``mapped`` makes it a ``{name: column}`` object of such columns.
    """

    def __init__(
        self,
        dtype: str,
        codes: Optional[Mapping[int, str]] = None,
        per_row: bool = True,
        nullable: bool = False,
        mapped: bool = False,
    ) -> None:
        self.dtype = dtype
        self.codes = codes
        self.per_row = per_row
        self.nullable = nullable
        self.mapped = mapped

    def encode(self, values: Any) -> Any:
        if self.mapped:
            return {
                name: encode_column(column, self.dtype)
                for name, column in (values or {}).items()
            }
        if values is None:
            return None
        column = encode_column(values, self.dtype)
        if self.codes is not None:
            column["names"] = [self.codes[code] for code in sorted(self.codes)]
        return column

    def decode(self, title: str, where: str, column: Any, rows: Optional[int]) -> Any:
        if self.mapped:
            if not isinstance(column, dict):
                raise _field_error(
                    title, where, f"must be a mapping, got {type(column).__name__}"
                )
            return {
                name: decode_column(title, f"{where}.{name}", item, self.dtype, rows)
                for name, item in column.items()
            }
        if column is None and self.nullable:
            return None
        count = rows if self.per_row else None
        if self.codes is None:
            return decode_column(title, where, column, self.dtype, count)
        name_to_code = {name: code for code, name in self.codes.items()}
        # A column that is not a mapping fails in decode_column below.
        names = column.get("names") if isinstance(column, dict) else []
        if not isinstance(names, list):
            raise _field_error(
                title, f"{where}.names",
                f"must be a list of names, got {type(names).__name__}",
            )
        for name in names:
            if not isinstance(name, str) or name not in name_to_code:
                raise _field_error(
                    title, f"{where}.names",
                    f"unknown name {name!r}; known: {', '.join(sorted(name_to_code))}",
                )
        lookup = np.asarray([name_to_code[name] for name in names], dtype=np.int8)
        return lookup[decode_column(title, where, column, self.dtype, count, len(names))]


# ---------------------------------------------------------------------------
# Versions and enumerations of the wire documents
# ---------------------------------------------------------------------------
#: Version of the shard-checkpoint family: manifests, shard records and
#: the batch-result and design-matrix documents embedded in them.
MANIFEST_VERSION = 2

#: Version of the saved :class:`~repro.study.result.StudyResult`
#: document (and the study axes embedded in it).
RESULT_VERSION = 2

#: Version stamped on every lease document.  Workers refuse leases
#: from a different protocol generation rather than guessing.
DISTRIB_PROTOCOL_VERSION = 2

#: Version stamped on :attr:`repro.study.result.StudyResult.telemetry`
#: documents, and of the trace events they list.
TELEMETRY_VERSION = 1

#: Version stamped on every HTTP envelope :mod:`repro.serve` emits
#: (acks, statuses, progress events, errors, stats).
SERVE_PROTOCOL_VERSION = 1

#: Version of the study spec document: the body of ``POST /v1/studies``,
#: ``repro-skyline study --spec`` files and a work dir's ``spec.json``.
SPEC_VERSION = 1

#: Manifest kinds a checkpoint directory may hold.  The package writes
#: only ``"study"``; ``"matrix"``, the retired design-matrix source,
#: still reads until the next ``MANIFEST_VERSION``.
MANIFEST_KINDS = ("study", "matrix")

#: Lifecycle states a served study moves through (in order; terminal
#: states are the last two).
STUDY_STATES = ("queued", "running", "done", "failed")

#: Design kinds a study spec's ``design`` may declare.
DESIGN_KINDS = ("knobs", "presets", "fleet")

#: Comparison operators a study spec's filter clause accepts.
FILTER_OPS = ("<", "<=", ">", ">=", "==", "!=")


# ---------------------------------------------------------------------------
# Wire tables: each document's fields, declared once
# ---------------------------------------------------------------------------
def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, list) and all(map(item, value))


#: The closed set of field types.  Each tag is the text the docs' type
#: column shows; each maps to its one predicate, or to the column type
#: that encodes and decodes it.  Integer tags reject ``bool``, and
#: ``float > 0`` is a positive test, so NaN fails it.
WIRE_TYPES: Dict[str, Any] = {
    "int": _is_int,
    "int >= 0": lambda value: _is_int(value) and value >= 0,
    "int >= 1": lambda value: _is_int(value) and value >= 1,
    "int >= 0 | null": lambda value: value is None or (_is_int(value) and value >= 0),
    "int >= 1 | null": lambda value: value is None or (_is_int(value) and value >= 1),
    "float": _is_number,
    "float > 0": lambda value: _is_number(value) and value > 0,
    "float | null": lambda value: value is None or _is_number(value),
    "float | str": lambda value: _is_number(value) or isinstance(value, str),
    "str": lambda value: isinstance(value, str),
    "str, non-empty": lambda value: isinstance(value, str) and value != "",
    "str | null": lambda value: value is None or isinstance(value, str),
    "bool": lambda value: isinstance(value, bool),
    "object": lambda value: isinstance(value, dict),
    "object | null": lambda value: value is None or isinstance(value, dict),
    "list": lambda value: isinstance(value, list),
    "[str]": _list_of(lambda value: isinstance(value, str)),
    "[float]": _list_of(_is_number),
    "[int >= 1]": _list_of(lambda value: _is_int(value) and value >= 1),
    "[object]": _list_of(lambda value: isinstance(value, dict)),
    "manifest kind": lambda value: value in MANIFEST_KINDS,
    "study state": lambda value: value in STUDY_STATES,
    "design kind": lambda value: value in DESIGN_KINDS,
    "filter op": lambda value: value in FILTER_OPS,
    "<f8 column": _Column(FLOAT_COLUMN),
    "<i8 column | null": _Column(INDEX_COLUMN, nullable=True),
    "<i8 column, any length": _Column(INDEX_COLUMN, per_row=False),
    "<i1 bound codes": _Column(CODE_COLUMN, codes=BOUND_CODE_TO_NAME),
    "<i1 verdict codes": _Column(CODE_COLUMN, codes=STATUS_CODE_TO_NAME),
    "{str: <f8 column}": _Column(FLOAT_COLUMN, mapped=True),
}

REQUIRED = True
OPTIONAL = False


def _shown(value: Any) -> str:
    """A value as errors quote it: scalars and short lists or mappings
    in full, anything else by its type."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    text = repr(value) if isinstance(value, (list, dict)) else ""
    return text if 0 < len(text) <= 40 else type(value).__name__


@dataclass(frozen=True, eq=False)
class WireTable:
    """One wire document, declared once.

    Each of ``fields`` is ``(name, type, required, doc)``: ``type`` is a
    :data:`WIRE_TYPES` tag, another table (an embedded document) or a
    one-item list holding a table (a list of such documents).  The
    emitter, the reader, the field-naming errors, the docs rows and the
    table digest the wire guard pins all come from this table.

    ``version`` is the document family's ``*_VERSION`` value.  A
    ``versioned`` document carries it, and ``kind`` when set, as its
    leading keys; an unversioned one rides inside a versioned document
    or file.  Errors quote a field as ``path + name``, unless ``quote``
    renames it.  ``build``, when set, turns an embedded document's field
    values into its object as soon as they are read, so each decoded
    column is copied while it is still in cache; it is not part of the
    format.
    """

    title: str
    version: int
    fields: Tuple[Tuple[str, Any, bool, str], ...]
    kind: Optional[str] = None
    versioned: bool = True
    path: str = ""
    quote: Mapping[str, str] = dataclasses.field(default_factory=dict)
    build: Optional[Callable[[Dict[str, Any]], Any]] = None

    @staticmethod
    def type_text(kind: Any) -> str:
        """A field type as the docs' type column shows it."""
        if isinstance(kind, list):
            return f"[{kind[0].title}]"
        return kind.title if isinstance(kind, WireTable) else str(kind)

    @cached_property
    def _plan(self) -> Tuple[Tuple[str, Any, bool, Any, bool], ...]:
        """Per field: name, type, required, its :data:`WIRE_TYPES` entry
        (None for embedded documents) and whether that is a column."""
        plan = []
        for name, kind, required, _doc in self.fields:
            entry = WIRE_TYPES[kind] if isinstance(kind, str) else None
            plan.append((name, kind, required, entry, hasattr(entry, "decode")))
        return tuple(plan)

    @cached_property
    def _keys(self) -> FrozenSet[str]:
        """Every key the document may hold: its rows, plus ``version``
        and ``kind`` when it carries them."""
        keys = {name for name, _kind, _required, _doc in self.fields}
        if self.versioned:
            keys.add("version")
        if self.kind is not None:
            keys.add("kind")
        return frozenset(keys)

    def where(self, name: str, prefix: Optional[str] = None) -> str:
        """The name errors quote for field ``name``."""
        return self.quote.get(name, (self.path if prefix is None else prefix) + name)

    def error(self, where: str, message: str) -> ConfigurationError:
        return _field_error(self.title, where, message)

    def emit(self, source: Any, **computed: Any) -> Dict[str, Any]:
        """The document for ``source``, keys in table order.

        Each field's value is ``computed[name]`` when given, else the
        ``name`` attribute of ``source``.  Optional fields are left out
        when ``None``; column fields are encoded, and embedded documents
        are passed in already emitted.
        """
        data: Dict[str, Any] = {}
        if self.versioned:
            data["version"] = self.version
        if self.kind is not None:
            data["kind"] = self.kind
        for name, _kind, required, entry, column in self._plan:
            value = computed[name] if name in computed else getattr(source, name)
            if value is not None or required:
                data[name] = entry.encode(value) if column else value
        return data

    def read(self, data: Any, prefix: Optional[str] = None) -> Dict[str, Any]:
        """Validate ``data`` against the table; returns its field values.

        Columns come back decoded, each holding the document's row
        count: its own ``rows``, or the length of the ``batch`` it
        embeds.  Embedded documents come back built, or as their own
        value mappings when their table has no ``build``.
        Every failure is a :class:`ConfigurationError` quoting the
        field, or the document for a key the table does not declare;
        ``prefix`` replaces :attr:`path` for list items.
        """
        prefix = self.path if prefix is None else prefix
        document = prefix.rstrip(".") or "<root>"
        if not isinstance(data, dict):
            raise self.error(document, f"must be a mapping, got {type(data).__name__}")
        if self.versioned and data.get("version") != self.version:
            raise self.error(
                "version",
                f"unsupported version {_shown(data.get('version'))}; "
                f"this build reads version {self.version}",
            )
        if self.kind is not None and data.get("kind") != self.kind:
            raise self.error("kind", f"must be {self.kind!r}, got {_shown(data.get('kind'))}")
        unknown = data.keys() - self._keys
        if unknown:
            raise self.error(
                document,
                f"unknown key(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"known: {', '.join(sorted(self._keys))}",
            )
        values: Dict[str, Any] = {}
        columns = []
        for name, kind, required, entry, column in self._plan:
            if name not in data:
                if required:
                    raise self.error(self.where(name, prefix), "missing")
                continue
            value = data[name]
            if column:
                columns.append((name, entry))
            elif isinstance(kind, list) and isinstance(value, list):
                where = self.where(name, prefix)
                values[name] = [
                    kind[0].read(item, f"{where}[{i}].") for i, item in enumerate(value)
                ]
            elif isinstance(kind, WireTable) and isinstance(value, dict):
                embedded = kind.read(value)
                values[name] = embedded if kind.build is None else kind.build(embedded)
            elif entry is not None and entry(value):
                values[name] = value
            else:
                raise self.error(
                    self.where(name, prefix),
                    f"expected {self.type_text(kind)}, got {_shown(value)}",
                )
        if columns:
            rows = values["rows"] if "rows" in values else len(values["batch"])
            for name, column_type in columns:
                where = self.where(name, prefix)
                values[name] = column_type.decode(self.title, where, data[name], rows)
        return values


# ---------------------------------------------------------------------------
# Batch result types (the wire format of the study layer)
# ---------------------------------------------------------------------------
def _design_matrix(values: Dict[str, Any]) -> "DesignMatrix":
    from ..batch.matrix import DesignMatrix

    columns = {key: value for key, value in values.items() if key != "rows"}
    if "labels" in columns:
        columns["labels"] = tuple(columns["labels"])
    return DesignMatrix.from_arrays(**columns)


def _batch_result(values: Dict[str, Any]) -> "BatchResult":
    from ..batch.result import BatchResult

    matrix = values["matrix"]
    if len(matrix) != values["rows"]:
        raise BATCH_RESULT_TABLE.error(
            "matrix.rows", f"{len(matrix)} for {values['rows']} rows"
        )
    return BatchResult(
        matrix=matrix,
        bound_codes=values["bounds"],
        status_codes=values["statuses"],
        knee_fraction=values["knee_fraction"],
        tolerance=values["tolerance"],
        **{name: values[name] for name in _RESULT_COLUMNS},
    )


DESIGN_MATRIX_TABLE = WireTable(
    "design matrix", MANIFEST_VERSION, versioned=False, path="matrix.",
    build=_design_matrix, fields=(
        ("rows", "int >= 0", REQUIRED, "design rows; each column holds this many"),
        ("sensing_range_m", "<f8 column", REQUIRED, "sensing range, m"),
        ("a_max", "<f8 column", REQUIRED, "maximum braking deceleration, m/s²"),
        ("f_sensor_hz", "<f8 column", REQUIRED, "sensor frame rate, Hz"),
        ("f_compute_hz", "<f8 column", REQUIRED, "compute throughput, Hz"),
        ("f_control_hz", "<f8 column", REQUIRED, "control-loop rate, Hz"),
        ("labels", "list", OPTIONAL, "one name per row; absent when unlabelled"),
        ("knee_fraction", "float", OPTIONAL, "the matrix's knee rule; absent for the default"),
    ),
)

BATCH_RESULT_TABLE = WireTable(
    # A batch embeds a matrix with a row count of its own.
    "batch result", MANIFEST_VERSION, versioned=False, quote={"rows": "batch.rows"},
    build=_batch_result, fields=(
        ("rows", "int >= 0", REQUIRED, "evaluated rows; each column holds this many"),
        ("matrix", DESIGN_MATRIX_TABLE, REQUIRED, "the evaluated rows; same `rows`"),
        ("roof_velocity", "<f8 column", REQUIRED, "roofline velocity bound, m/s"),
        ("knee_hz", "<f8 column", REQUIRED, "knee action throughput, Hz"),
        ("knee_velocity", "<f8 column", REQUIRED, "velocity at the knee, m/s"),
        ("action_throughput_hz", "<f8 column", REQUIRED, "the slowest stage's rate, Hz"),
        ("safe_velocity", "<f8 column", REQUIRED, "safe velocity, m/s"),
        ("bounds", "<i1 bound codes", REQUIRED, "which stage bounds the row"),
        ("statuses", "<i1 verdict codes", REQUIRED, "the row's provisioning verdict"),
        ("knee_fraction", "float", REQUIRED, "knee rule the rows were evaluated with"),
        ("tolerance", "float", REQUIRED, "the optimal verdict's tolerance band"),
    ),
)

_RESULT_COLUMNS = tuple(
    name for name, kind, _required, _doc in BATCH_RESULT_TABLE.fields
    if kind == "<f8 column"
)


def design_matrix_to_dict(matrix: "DesignMatrix") -> Dict[str, Any]:
    """Serialize a design matrix to a JSON-compatible dict."""
    return DESIGN_MATRIX_TABLE.emit(
        matrix,
        rows=len(matrix),
        labels=None if matrix.labels is None else list(matrix.labels),
    )


def design_matrix_from_dict(data: Any) -> "DesignMatrix":
    """Rebuild a matrix from :func:`design_matrix_to_dict` output."""
    return _design_matrix(DESIGN_MATRIX_TABLE.read(data))


def batch_result_to_dict(result: "BatchResult") -> Dict[str, Any]:
    """Serialize a batch result (and its matrix) to a plain dict.

    ``bounds``/``statuses`` are code columns carrying the pinned
    code↔name lists, keeping documents stable even if the in-process
    encoding ever changes.
    """
    return BATCH_RESULT_TABLE.emit(
        result,
        rows=len(result),
        matrix=design_matrix_to_dict(result.matrix),
        bounds=result.bound_codes,
        statuses=result.status_codes,
    )


def batch_result_from_dict(data: Any) -> "BatchResult":
    """Rebuild a batch result from :func:`batch_result_to_dict` output."""
    return _batch_result(BATCH_RESULT_TABLE.read(data))


# ---------------------------------------------------------------------------
# Shard checkpoints (the wire format of the sharded executor)
# ---------------------------------------------------------------------------
SHARD_MANIFEST_TABLE = WireTable(
    "shard manifest", MANIFEST_VERSION, fields=(
        ("kind", "manifest kind", REQUIRED, 'always `"study"`; `"matrix"` still reads until the next `MANIFEST_VERSION`'),
        ("digest", "str, non-empty", REQUIRED, "content digest of the source"),
        ("total_rows", "int >= 0", REQUIRED, "rows in the full design grid"),
        ("chunk_rows", "int >= 1", REQUIRED, "rows per shard"),
        ("n_shards", "int >= 0", REQUIRED, "`ceil(total_rows / chunk_rows)`"),
        ("knee_fraction", "float | null", REQUIRED, "evaluation contract, fixed for the run"),
        ("tolerance", "float", REQUIRED, "evaluation contract, fixed for the run"),
        ("reduce", "object | null", REQUIRED, 'top-k `{"k", "by", "descending"}`, or null'),
    ),
)

SHARD_RECORD_TABLE = WireTable(
    "shard record", MANIFEST_VERSION, versioned=False, path="shard.", fields=(
        ("index", "int >= 0", REQUIRED, "shard index, as in the file name"),
        ("start", "int >= 0", REQUIRED, "first row of the shard"),
        ("stop", "int >= 0", REQUIRED, "end of the shard's rows, exclusive"),
        ("local_indices", "<i8 column | null", REQUIRED, "a top-k shard's winners; null if full"),
        ("extras", "{str: <f8 column}", REQUIRED, "accounting columns, e.g. `total_mass_g`"),
        ("batch", BATCH_RESULT_TABLE, REQUIRED, "the shard's evaluated rows"),
    ),
)


def shard_manifest_to_dict(manifest: "ShardManifest") -> Dict[str, Any]:
    """Serialize a shard manifest: ``manifest.json`` pins a checkpoint
    directory to one sharded run.

    Each completed shard sits next to it as ``shard-<index>.jsonl``,
    one :func:`shard_record_to_dict` object per (single-line) file.
    Resume compares every manifest field; any mismatch rejects the
    directory rather than mixing rows from different runs.
    """
    return SHARD_MANIFEST_TABLE.emit(manifest)


def shard_manifest_from_dict(data: Any) -> "ShardManifest":
    """Rebuild a manifest from :func:`shard_manifest_to_dict` output."""
    from ..batch.executor import ShardManifest
    from ..batch.result import SORTABLE_COLUMNS

    values = SHARD_MANIFEST_TABLE.read(data)
    reduce = values["reduce"]
    if reduce is not None and not (
        set(reduce) == {"k", "by", "descending"}
        and _is_int(reduce["k"])
        and reduce["k"] >= 1
        and reduce["by"] in SORTABLE_COLUMNS
        and isinstance(reduce["descending"], bool)
    ):
        raise SHARD_MANIFEST_TABLE.error(
            "reduce",
            "must be null or a {'k': int >= 1, 'by': sortable column, "
            f"'descending': bool}} mapping, got {reduce!r}",
        )
    return ShardManifest(**values)


def shard_record_to_dict(result: "ShardResult") -> Dict[str, Any]:
    """Serialize one completed shard to its single-line JSONL record."""
    return SHARD_RECORD_TABLE.emit(
        result, batch=batch_result_to_dict(result.batch)
    )


def shard_record_from_dict(data: Any) -> "ShardResult":
    """Rebuild a shard record from :func:`shard_record_to_dict` output."""
    from ..batch.executor import ShardResult

    values = SHARD_RECORD_TABLE.read(data)
    batch = values["batch"]
    span = values["stop"] - values["start"]
    if values["local_indices"] is not None:
        check_indices(
            SHARD_RECORD_TABLE.title, "shard.local_indices",
            values["local_indices"], span,
        )
    elif len(batch) != span:
        raise SHARD_RECORD_TABLE.error(
            "shard.batch",
            f"{len(batch)} rows for range [{values['start']}, "
            f"{values['stop']})",
        )
    return ShardResult(**values)


# ---------------------------------------------------------------------------
# Distributed lease files (the wire format of repro.distrib)
# ---------------------------------------------------------------------------
LEASE_RECORD_TABLE = WireTable(
    "lease record", DISTRIB_PROTOCOL_VERSION, kind="lease", fields=(
        ("spec_digest", "str, non-empty", REQUIRED, "the manifest digest of the study"),
        ("shard_index", "int >= 0", REQUIRED, "the claimed shard"),
        ("owner", "str, non-empty", REQUIRED, "the claiming worker's id"),
        ("lease_ttl_s", "float > 0", REQUIRED, "the *holder's* declared TTL"),
    ),
)


def lease_record_to_dict(record: "LeaseRecord") -> Dict[str, Any]:
    """Serialize one shard lease
    (``leases/shard-<index>.<generation>.lease.json``).

    Liveness is the *file's mtime*, bumped by every heartbeat, never a
    wall-clock timestamp in the body.
    """
    return LEASE_RECORD_TABLE.emit(record)


def lease_record_from_dict(data: Any) -> "LeaseRecord":
    """Rebuild a lease from :func:`lease_record_to_dict` output.

    Strict by design: any malformed lease raises
    :class:`~repro.errors.ConfigurationError`, which the lease store
    maps to "treat as expired, warn, re-claim" — a torn or corrupt
    lease must never wedge a shard forever.
    """
    from ..distrib.lease import LeaseRecord

    values = LEASE_RECORD_TABLE.read(data)
    return LeaseRecord(**dict(values, lease_ttl_s=float(values["lease_ttl_s"])))


# ---------------------------------------------------------------------------
# Trace events and telemetry (the wire format of repro.obs)
# ---------------------------------------------------------------------------
TRACE_EVENT_TABLE = WireTable(
    "trace event", TELEMETRY_VERSION, versioned=False, fields=(
        ("name", "str, non-empty", REQUIRED, "span name, e.g. `shard.evaluate`"),
        ("start_us", "int >= 0", REQUIRED, "start, µs since the tracer's monotonic epoch"),
        ("dur_us", "int >= 0", REQUIRED, "span duration, µs"),
        ("tid", "int >= 0", REQUIRED, "track: 0 is the driver, *i*+1 is shard *i*"),
        ("args", "object", REQUIRED, "span attributes (JSON scalars)"),
    ),
)

TELEMETRY_TABLE = WireTable(
    "telemetry", TELEMETRY_VERSION, fields=(
        ("events", [TRACE_EVENT_TABLE], OPTIONAL, "every finished span; may be absent"),
        ("counters", "object", OPTIONAL, "counter name to total; may be absent"),
        ("gauges", "object", OPTIONAL, "gauge name to last value; may be absent"),
    ),
)


def trace_event_to_dict(span: "SpanRecord") -> Dict[str, Any]:
    """Serialize one finished span to the trace-event wire format.

    Times are integer microseconds on a *monotonic* clock — never
    wall-clock dates, so events from one run always order correctly
    and diff cleanly.
    """
    return TRACE_EVENT_TABLE.emit(
        span,
        start_us=round(span.start_s * 1e6),
        dur_us=round(span.duration_s * 1e6),
        args=dict(span.attributes),
    )


def trace_event_from_dict(data: Any) -> "SpanRecord":
    """Rebuild a span from :func:`trace_event_to_dict` output."""
    from ..obs.tracer import SpanRecord

    values = TRACE_EVENT_TABLE.read(data)
    return SpanRecord(
        name=values["name"],
        start_s=values["start_us"] / 1e6,
        duration_s=values["dur_us"] / 1e6,
        tid=values["tid"],
        attributes=dict(values["args"]),
    )


def telemetry_from_dict(data: Any) -> Optional[Dict[str, Any]]:
    """Validate a :meth:`repro.obs.Tracer.to_telemetry` document.

    Returns the document unchanged (telemetry stays plain data on the
    result; spans rebuild on demand via :func:`trace_event_from_dict`).
    """
    if data is not None:
        TELEMETRY_TABLE.read(data)
    return data


# ---------------------------------------------------------------------------
# Serve envelopes (the wire format of repro.serve)
# ---------------------------------------------------------------------------
_STUDY_ID_DOC = "digest-derived study id; same spec, same id"

SERVE_ACK_TABLE = WireTable(
    "serve ack", SERVE_PROTOCOL_VERSION, kind="ack", fields=(
        ("study_id", "str, non-empty", REQUIRED, _STUDY_ID_DOC),
        ("state", "study state", REQUIRED, "lifecycle state at submit"),
        ("coalesced", "bool", REQUIRED, "true: joined an existing run"),
        ("queue_depth", "int >= 0", REQUIRED, "queued studies after this one"),
    ),
)

SERVE_STATUS_TABLE = WireTable(
    "serve status", SERVE_PROTOCOL_VERSION, kind="status", fields=(
        ("study_id", "str, non-empty", REQUIRED, _STUDY_ID_DOC),
        ("state", "study state", REQUIRED, "`queued`, `running`, `done` or `failed`"),
        ("spec_digest", "str, non-empty", REQUIRED, "content digest of the study spec"),
        ("queue_position", "int >= 0 | null", REQUIRED, "0-based while queued, else null"),
        ("progress", "object | null", REQUIRED, "progress counters; null before start"),
        ("error", "str | null", REQUIRED, "failure message when failed"),
        ("result_ready", "bool", REQUIRED, "true once `GET /v1/studies/{id}/result` succeeds"),
    ),
)

SERVE_PROGRESS_TABLE = WireTable(
    "serve progress event", SERVE_PROTOCOL_VERSION, kind="progress", fields=(
        ("study_id", "str, non-empty", REQUIRED, _STUDY_ID_DOC),
        ("seq", "int >= 0", REQUIRED, "event number, increasing"),
        ("state", "study state", REQUIRED, "lifecycle state at this event"),
        ("progress", "object | null", REQUIRED, "progress counters; null before start"),
        ("final", "bool", REQUIRED, "true on the last event (terminal state)"),
    ),
)

SERVE_ERROR_TABLE = WireTable(
    "serve error", SERVE_PROTOCOL_VERSION, kind="error", fields=(
        ("status", "int", REQUIRED, "the HTTP status code"),
        ("error", "str, non-empty", REQUIRED, "the `repro.errors` class name"),
        ("message", "str", REQUIRED, "what went wrong, naming the field"),
        ("retry_after_s", "float | null", REQUIRED, "seconds to wait; null unless 429/503"),
    ),
)

SERVE_STATS_TABLE = WireTable(
    "serve stats", SERVE_PROTOCOL_VERSION, kind="stats", fields=(
        ("counters", "object", REQUIRED, "serving counters"),
        ("gauges", "object", REQUIRED, "serving gauges"),
    ),
)

#: Every serve envelope table, one per ``kind``.
SERVE_ENVELOPES = (
    SERVE_ACK_TABLE,
    SERVE_STATUS_TABLE,
    SERVE_PROGRESS_TABLE,
    SERVE_ERROR_TABLE,
    SERVE_STATS_TABLE,
)


def serve_envelope_from_dict(data: Any) -> Dict[str, Any]:
    """Validate any serve envelope; returns the document unchanged.

    The client-side guard: the ``kind`` discriminator picks the table,
    which checks the version pin and every field, then the plain dict
    is handed back (envelopes stay data end to end).
    """
    if not isinstance(data, dict):
        raise _field_error(
            "serve envelope", "<root>", f"must be a mapping, got {type(data).__name__}"
        )
    for table in SERVE_ENVELOPES:
        if table.kind == data.get("kind"):
            table.read(data)
            return data
    known = ", ".join(str(table.kind) for table in SERVE_ENVELOPES)
    raise _field_error(
        "serve envelope", "kind", f"unknown kind {_shown(data.get('kind'))}; known: {known}"
    )


# ---------------------------------------------------------------------------
# Study specs (the request document of repro.study, serve and distrib)
# ---------------------------------------------------------------------------
DESIGN_SPEC_TABLE = WireTable(
    # Every kind's fields are optional rows; the spec checks which of
    # them its kind uses.
    "design spec", SPEC_VERSION, versioned=False, path="design.", fields=(
        ("kind", "design kind", REQUIRED, '`"knobs"`, `"presets"` or `"fleet"`'),
        ("base", "object", OPTIONAL, "knobs: `Knobs` field values; absent for the defaults"),
        ("axes", "object", OPTIONAL, "knobs: knob name to the values it sweeps"),
        ("uav_names", "[str]", OPTIONAL, "presets: registered UAV preset names"),
        ("compute_names", "[str]", OPTIONAL, "presets: registered compute platform names"),
        ("algorithm_names", "[str]", OPTIONAL, "presets: registered autonomy algorithm names"),
        ("uavs", "[object]", OPTIONAL, "fleet: one `UAVConfiguration` document each"),
        ("f_compute_hz", "[float]", OPTIONAL, "fleet: compute rate per configuration (or one), Hz"),
        ("labels", "[str]", OPTIONAL, "fleet: one name per configuration"),
    ),
)

SCENARIO_SPEC_TABLE = WireTable(
    "scenario spec", SPEC_VERSION, versioned=False, path="scenarios.", fields=(
        ("extra_payload_g", "[float]", OPTIONAL, "payload deltas, g"),
        ("a_max_scale", "[float]", OPTIONAL, "acceleration derating factors, each > 0"),
        ("compute_redundancy", "[int >= 1]", OPTIONAL, "onboard-computer counts; not for knobs"),
    ),
)

FILTER_CLAUSE_TABLE = WireTable(
    "filter clause", SPEC_VERSION, versioned=False, fields=(
        ("column", "str", REQUIRED, "a result column; `bound` and `status` hold names"),
        ("op", "filter op", REQUIRED, "`<`, `<=`, `>`, `>=`, `==` or `!=`"),
        ("value", "float | str", REQUIRED, "a number, or a bound or verdict name"),
    ),
)

RANK_CLAUSE_TABLE = WireTable(
    "rank clause", SPEC_VERSION, versioned=False, path="rank.", fields=(
        ("by", "str", OPTIONAL, "a numeric column; `safe_velocity` when absent"),
        ("descending", "bool", OPTIONAL, "`true` when absent"),
        ("top_k", "int >= 1 | null", OPTIONAL, "rows to keep; absent or null keeps all"),
    ),
)

STUDY_SPEC_TABLE = WireTable(
    "study spec", SPEC_VERSION, fields=(
        ("design", DESIGN_SPEC_TABLE, REQUIRED, "the design points to evaluate"),
        ("scenarios", SCENARIO_SPEC_TABLE, OPTIONAL, "axes crossed with every design"),
        ("metrics", "[str]", OPTIONAL, "columns to report; absent reports every numeric one"),
        ("filters", [FILTER_CLAUSE_TABLE], OPTIONAL, "row filters; a row must pass all"),
        ("rank", RANK_CLAUSE_TABLE, OPTIONAL, "order and truncation of the kept rows"),
        ("knee_fraction", "float | null", OPTIONAL, "knee rule in (0, 1); absent or null: default"),
        ("tolerance", "float", OPTIONAL, "the optimal verdict's tolerance band; 0.05 when absent"),
    ),
)


# ---------------------------------------------------------------------------
# Saved study results (the wire format of repro.study and serve results)
# ---------------------------------------------------------------------------
STUDY_AXIS_TABLE = WireTable(
    "study axis", RESULT_VERSION, versioned=False, fields=(
        ("name", "str", REQUIRED, "axis name, e.g. a knob or `scenario`"),
        ("values", "list", REQUIRED, "the axis points, in order"),
    ),
)

STUDY_RESULT_TABLE = WireTable(
    "study result", RESULT_VERSION, fields=(
        ("spec", "object", REQUIRED, "the `StudySpec` document that ran"),
        ("axes", [STUDY_AXIS_TABLE], REQUIRED, "the grid's axes, row-major"),
        ("batch", BATCH_RESULT_TABLE, REQUIRED, "every evaluated row, before filters"),
        ("selected_indices", "<i8 column, any length", REQUIRED, "chosen rows, in rank order"),
        ("total_mass_g", "<f8 column", REQUIRED, "total vehicle mass, g"),
        ("compute_tdp_w", "<f8 column", REQUIRED, "compute platform TDP, W"),
        ("telemetry", TELEMETRY_TABLE, OPTIONAL, "absent for an untraced run"),
    ),
)


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
