"""Wire-format fingerprints: the data behind RPL003 and its snapshot.

The serialization layer pins every wire format to a version constant
(:data:`repro.io.serialization.MANIFEST_VERSION` et al.).  The guard
has two halves sharing one committed snapshot
(``tests/data/wire_fingerprints.json``):

* **static** (RPL003): a SHA-256 fingerprint of each dict-builder's
  normalized AST (docstrings stripped, no line numbers), so *any*
  structural edit to a builder is visible to the linter without
  importing the code;
* **runtime** (``tests/test_wire_schema.py``): the recursive key/type
  *shape* of sample documents each builder actually produces, so edits
  that change the emitted JSON are caught even when routed around the
  builder's own source.

Either half failing means: bump the matching ``*_VERSION`` constant
and regenerate the snapshot with ``reprolint --update-wire-snapshot``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError

#: Version of the snapshot document itself.
SNAPSHOT_VERSION = 1

#: Default snapshot location, relative to the repo root (the first
#: ancestor directory of the analyzed file holding ``pyproject.toml``).
DEFAULT_SNAPSHOT_RELPATH = Path("tests") / "data" / "wire_fingerprints.json"


@dataclass(frozen=True)
class WireBuilder:
    """One guarded dict builder in :mod:`repro.io.serialization`."""

    #: Function whose AST is fingerprinted.
    name: str
    #: Module-level version constant that must bump with the shape.
    version_const: str
    #: Module-level constants and helper functions folded into the
    #: fingerprint (field tuples the builder iterates, helpers it calls,
    #: so editing them is a structural change even though the builder's
    #: own body is untouched).
    includes: Tuple[str, ...] = ()


#: The column codec the per-row builders call: its helpers and dtype
#: tags.  Switching base64 for hex inside it moves no builder's own AST
#: and no runtime shape (both stay ``str``), so each caller folds it in.
_COLUMN_CODEC = (
    "encode_column",
    "_encode_codes",
    "FLOAT_COLUMN",
    "INDEX_COLUMN",
    "CODE_COLUMN",
)

#: The guarded builders: manifest / shard-record (and the batch-result
#: and design-matrix documents embedded in shard records), trace events
#: and telemetry documents, and the serve HTTP envelopes.
BUILDER_SPECS: Tuple[WireBuilder, ...] = (
    WireBuilder("shard_manifest_to_dict", "MANIFEST_VERSION", ("_MANIFEST_FIELDS",)),
    WireBuilder("shard_record_to_dict", "MANIFEST_VERSION", _COLUMN_CODEC),
    WireBuilder(
        "design_matrix_to_dict", "MANIFEST_VERSION",
        ("_MATRIX_COLUMNS", *_COLUMN_CODEC),
    ),
    WireBuilder(
        "batch_result_to_dict", "MANIFEST_VERSION",
        ("_RESULT_COLUMNS", *_COLUMN_CODEC),
    ),
    WireBuilder(
        "lease_record_to_dict", "DISTRIB_PROTOCOL_VERSION",
        ("_LEASE_FIELDS",),
    ),
    WireBuilder(
        "lease_record_from_dict", "DISTRIB_PROTOCOL_VERSION",
        ("_LEASE_FIELDS",),
    ),
    WireBuilder("trace_event_to_dict", "TRACE_EVENT_VERSION"),
    WireBuilder("telemetry_from_dict", "TELEMETRY_VERSION"),
    # Serve envelopes all share one generic emitter + field table, so
    # each builder folds both into its fingerprint: reshaping any
    # envelope is a structural change wherever it happens.
    WireBuilder(
        "serve_ack_to_dict", "SERVE_PROTOCOL_VERSION",
        ("_serve_envelope", "_SERVE_ENVELOPE_FIELDS"),
    ),
    WireBuilder(
        "serve_status_to_dict", "SERVE_PROTOCOL_VERSION",
        ("_serve_envelope", "_SERVE_ENVELOPE_FIELDS"),
    ),
    WireBuilder(
        "serve_progress_to_dict", "SERVE_PROTOCOL_VERSION",
        ("_serve_envelope", "_SERVE_ENVELOPE_FIELDS"),
    ),
    WireBuilder(
        "serve_error_to_dict", "SERVE_PROTOCOL_VERSION",
        ("_serve_envelope", "_SERVE_ENVELOPE_FIELDS"),
    ),
    WireBuilder(
        "serve_stats_to_dict", "SERVE_PROTOCOL_VERSION",
        ("_serve_envelope", "_SERVE_ENVELOPE_FIELDS"),
    ),
    WireBuilder(
        "serve_envelope_from_dict", "SERVE_PROTOCOL_VERSION",
        ("_SERVE_ENVELOPE_FIELDS", "STUDY_STATES"),
    ),
)


def _strip_docstring(node: ast.AST) -> ast.AST:
    body = getattr(node, "body", None)
    if (
        isinstance(body, list)
        and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        node.body = body[1:] or [ast.Pass()]  # type: ignore[attr-defined]
    return node


def _find_definition(tree: ast.Module, name: str) -> Optional[ast.AST]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
        elif isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if name in targets:
                return node
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return node
    return None


def function_fingerprint(
    tree: ast.Module, builder: WireBuilder
) -> Optional[str]:
    """SHA-256 of the builder's normalized AST, or None if absent.

    Docstrings are stripped (prose edits never force version bumps) and
    ``ast.dump`` omits line/column attributes by default, so the hash
    moves only when the *structure* of the builder (or one of its
    ``includes`` constants or helpers) changes.
    """
    definition = _find_definition(tree, builder.name)
    if definition is None:
        return None
    parts = [ast.dump(_strip_docstring(definition))]
    for const in builder.includes:
        node = _find_definition(tree, const)
        parts.append(
            "<missing>" if node is None else ast.dump(_strip_docstring(node))
        )
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


def module_version_value(tree: ast.Module, const: str) -> Optional[int]:
    """The integer value of a module-level ``X_VERSION = n`` constant."""
    node = _find_definition(tree, const)
    value = getattr(node, "value", None)
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        return value.value
    return None


def ast_snapshot_of_source(source: str) -> Dict[str, Dict[str, Any]]:
    """The ``builders`` section of the snapshot, from module source."""
    tree = ast.parse(source)
    builders: Dict[str, Dict[str, Any]] = {}
    for builder in BUILDER_SPECS:
        fingerprint = function_fingerprint(tree, builder)
        if fingerprint is None:
            continue
        builders[builder.name] = {
            "version_const": builder.version_const,
            "version": module_version_value(tree, builder.version_const),
            "ast_sha256": fingerprint,
        }
    return builders


# ---------------------------------------------------------------------------
# Runtime shapes (the dynamic half; used by tests and --update)
# ---------------------------------------------------------------------------
def shape_of(value: Any) -> Any:
    """A JSON-stable structural descriptor of a wire document.

    Dicts map sorted keys to element shapes, lists collapse to the
    shape of their first element (wire lists are homogeneous columns),
    scalars become their type name.  Two documents with the same keys
    and scalar types anywhere in the tree have equal shapes.
    """
    if isinstance(value, dict):
        return {str(key): shape_of(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return ["empty"] if not value else [shape_of(value[0])]
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "null"
    return type(value).__name__


def runtime_shapes() -> Dict[str, Any]:
    """Shapes of sample documents from every live builder.

    Imports the serialization layer and builds one representative
    document per wire format (manifest, shard record, trace event,
    telemetry), shaping each with :func:`shape_of`.  Optional branches
    are exercised (top-k ``local_indices``, extras columns, span
    attributes) so the shapes cover the full key set.
    """
    import numpy as np

    from ..batch.engine import evaluate_matrix
    from ..batch.executor import ShardManifest, ShardResult
    from ..batch.matrix import DesignMatrix
    from ..io import serialization as ser
    from ..obs.tracer import SpanRecord, Tracer

    matrix = DesignMatrix.from_arrays(
        sensing_range_m=(10.0, 12.0),
        a_max=(5.0, 6.0),
        f_sensor_hz=(60.0, 60.0),
        f_compute_hz=(30.0, 45.0),
    )
    batch = evaluate_matrix(matrix, cache=None)
    manifest = ShardManifest(
        kind="study",
        digest="0" * 16,
        total_rows=2,
        chunk_rows=1,
        n_shards=2,
        knee_fraction=None,
        tolerance=0.05,
        reduce={"k": 1, "by": "safe_velocity", "descending": True},
    )
    record = ShardResult(
        index=0,
        start=0,
        stop=4,
        batch=batch,
        local_indices=np.asarray([0, 1], dtype=np.intp),
        extras={"total_mass_g": np.asarray([100.0, 101.0])},
    )
    from ..distrib.lease import LeaseRecord

    lease = LeaseRecord(
        spec_digest="0" * 32,
        shard_index=3,
        owner="host-a-12041",
        lease_ttl_s=30.0,
        heartbeats=7,
    )
    span = SpanRecord(
        name="study.execute",
        start_s=0.0,
        duration_s=0.25,
        tid=1,
        attributes={"rows": 2},
    )
    tracer = Tracer()
    with tracer.span("sample", rows=2):
        pass
    tracer.counter("rows.evaluated").add(2)
    tracer.gauge("rows_per_s").set(8.0)

    from ..serve.protocol import (
        ErrorEnvelope,
        ProgressEvent,
        ServeStats,
        StudyAck,
        StudyStatus,
    )

    progress_doc = {
        "done": 1,
        "total": 2,
        "rows_done": 1,
        "rows_total": 2,
        "elapsed_s": 0.5,
        "rows_per_s": 2.0,
        "eta_s": 0.5,
    }
    ack = StudyAck(
        study_id="study-" + "0" * 16,
        state="queued",
        coalesced=False,
        queue_depth=1,
    )
    status = StudyStatus(
        study_id="study-" + "0" * 16,
        state="running",
        spec_digest="0" * 64,
        queue_position=0,
        progress=progress_doc,
        error=None,
        result_ready=False,
    )
    event = ProgressEvent(
        study_id="study-" + "0" * 16,
        seq=1,
        state="running",
        progress=progress_doc,
        final=False,
    )
    error = ErrorEnvelope(
        status=429,
        error="StudyQueueFullError",
        message="study queue is full",
        retry_after_s=2.0,
    )
    stats = ServeStats(
        counters={"serve.studies.coalesced": 7},
        gauges={"serve.queue_depth": 0.0},
    )
    return {
        "shard_manifest": shape_of(ser.shard_manifest_to_dict(manifest)),
        "shard_record": shape_of(ser.shard_record_to_dict(record)),
        "lease_record": shape_of(ser.lease_record_to_dict(lease)),
        "trace_event": shape_of(ser.trace_event_to_dict(span)),
        "telemetry": shape_of(tracer.to_telemetry()),
        "serve_ack": shape_of(ser.serve_ack_to_dict(ack)),
        "serve_status": shape_of(ser.serve_status_to_dict(status)),
        "serve_progress": shape_of(ser.serve_progress_to_dict(event)),
        "serve_error": shape_of(ser.serve_error_to_dict(error)),
        "serve_stats": shape_of(ser.serve_stats_to_dict(stats)),
    }


# ---------------------------------------------------------------------------
# Snapshot IO
# ---------------------------------------------------------------------------
def find_repo_root(start: Path) -> Optional[Path]:
    """The first ancestor of ``start`` containing ``pyproject.toml``."""
    current = start if start.is_dir() else start.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def default_snapshot_path(near: Path) -> Optional[Path]:
    """The committed snapshot next to the repo root owning ``near``."""
    root = find_repo_root(near.resolve())
    if root is None:
        return None
    path = root / DEFAULT_SNAPSHOT_RELPATH
    return path if path.is_file() else None


def load_snapshot(path: Path) -> Dict[str, Any]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"wire snapshot {str(path)!r}: cannot read: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"wire snapshot field '<root>': must be a mapping, got "
            f"{type(data).__name__}"
        )
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"wire snapshot field 'version': unsupported version "
            f"{version!r}; this build reads version {SNAPSHOT_VERSION}"
        )
    for key in ("builders", "shapes"):
        if not isinstance(data.get(key), dict):
            raise ConfigurationError(
                f"wire snapshot field {key!r}: must be a mapping, got "
                f"{type(data.get(key)).__name__}"
            )
    return data


def build_snapshot(serialization_source: str) -> Dict[str, Any]:
    """A fresh snapshot document from live code + given module source."""
    return {
        "version": SNAPSHOT_VERSION,
        "builders": ast_snapshot_of_source(serialization_source),
        "shapes": runtime_shapes(),
    }


def write_snapshot(path: Path, snapshot: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
