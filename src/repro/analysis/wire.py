"""Wire-format fingerprints: the data behind RPL003 and its snapshot.

Every wire document is declared once, as a ``WireTable`` in
:mod:`repro.io.serialization`, pinned to a version constant
(:data:`repro.io.serialization.MANIFEST_VERSION` et al.).  The guard
has two halves sharing one committed snapshot
(``tests/data/wire_fingerprints.json``):

* **static** (RPL003): a SHA-256 fingerprint of each table, found in
  the module source without importing it.  It covers the table's AST
  (without its doc column and ``build`` hook) and every module-level
  definition the table reaches by name — the constants it names, the
  tables it embeds and the ``WireTable`` class (the shared emitter and
  reader) — plus,
  for each type tag it uses, that tag's ``WIRE_TYPES`` entry: its
  predicate, or the column codec.  Version constants and the registry
  as a whole are never followed, so an edit is a finding for exactly
  the tables that use the edited piece;
* **runtime** (``tests/test_wire_schema.py``): the recursive key/type
  *shape* of sample documents each table actually produces, so edits
  that change the emitted JSON are caught even when routed around the
  tables.

Either half failing means: bump the matching ``*_VERSION`` constant
and regenerate the snapshot with ``reprolint --update-wire-snapshot``.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..errors import ConfigurationError

#: Version of the snapshot document itself.
SNAPSHOT_VERSION = 2

#: Default snapshot location, relative to the repo root (the first
#: ancestor directory of the analyzed file holding ``pyproject.toml``).
DEFAULT_SNAPSHOT_RELPATH = Path("tests") / "data" / "wire_fingerprints.json"

#: The class every wire table instantiates, and the type-tag registry.
_TABLE_CLASS = "WireTable"
_TYPE_REGISTRY = "WIRE_TYPES"
_VERSION_CONST = re.compile(r"^[A-Z][A-Z0-9_]*_VERSION$")


@dataclass(frozen=True)
class TableFingerprint:
    """One wire table found in the module source."""

    #: The ``*_VERSION`` constant its ``version`` argument names.
    version_const: str
    sha256: str
    node: ast.AST


def snapshot_key(name: str) -> str:
    """A table's snapshot key: ``SHARD_MANIFEST_TABLE`` -> ``shard_manifest``."""
    return name[: -len("_TABLE")].lower() if name.endswith("_TABLE") else name.lower()


def _definitions(tree: ast.Module) -> Dict[str, ast.AST]:
    definitions: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            definitions[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    definitions[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            definitions[node.target.id] = node
    return definitions


def _table_call(node: ast.AST) -> Optional[ast.Call]:
    value = getattr(node, "value", None)
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == _TABLE_CLASS
    ):
        return value
    return None


def _argument(call: ast.Call, keyword: str, position: int) -> Optional[ast.AST]:
    for item in call.keywords:
        if item.arg == keyword:
            return item.value
    return call.args[position] if len(call.args) > position else None


def _field_rows(call: ast.Call) -> List[ast.Tuple]:
    fields = _argument(call, "fields", 2)
    if not isinstance(fields, (ast.Tuple, ast.List)):
        return []
    return [
        row
        for row in fields.elts
        if isinstance(row, ast.Tuple) and len(row.elts) == 4
    ]


def _normalized(node: ast.AST) -> ast.AST:
    """A copy without docstrings, doc-column entries or build hooks.

    Prose edits — a docstring anywhere in the node, or a table row's
    doc — never move a fingerprint, and neither does how a reader
    builds objects from a table's values.
    """
    node = copy.deepcopy(node)
    for sub in ast.walk(node):
        body = getattr(sub, "body", None)
        if (
            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            sub.body = body[1:] or [ast.Pass()]
        call = _table_call(sub)
        if call is not None:
            for row in _field_rows(call):
                row.elts[3] = ast.Constant(value=None)
            call.keywords = [k for k in call.keywords if k.arg != "build"]
    return node


def _type_tags(node: ast.AST) -> Iterator[str]:
    call = _table_call(node)
    if call is None:
        return
    for row in _field_rows(call):
        tag = row.elts[1]
        if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
            yield tag.value


def _registry(definitions: Dict[str, ast.AST]) -> Dict[str, ast.AST]:
    """The ``WIRE_TYPES`` dict literal: type tag -> its entry."""
    value = getattr(definitions.get(_TYPE_REGISTRY), "value", None)
    if not isinstance(value, ast.Dict):
        return {}
    return {
        key.value: entry
        for key, entry in zip(value.keys, value.values)
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _fingerprint(definitions: Dict[str, ast.AST], name: str) -> str:
    """SHA-256 over everything table ``name`` reaches (see module doc)."""
    registry = _registry(definitions)
    parts: Dict[str, str] = {}
    pending: List[str] = [name]
    while pending:
        current = pending.pop()
        if current in parts:
            continue
        if current.startswith(f"{_TYPE_REGISTRY}["):
            node = registry.get(current[len(_TYPE_REGISTRY) + 1 : -1])
        else:
            node = definitions.get(current)
        if node is None:
            parts[current] = "<missing>"
            continue
        normalized = _normalized(node)
        parts[current] = ast.dump(normalized)
        pending.extend(
            f"{_TYPE_REGISTRY}[{tag}]" for tag in _type_tags(normalized)
        )
        pending.extend(
            sub.id
            for sub in ast.walk(normalized)
            if isinstance(sub, ast.Name)
            and sub.id in definitions
            and sub.id != _TYPE_REGISTRY
            and not _VERSION_CONST.match(sub.id)
        )
    text = "\n".join(f"{key}: {parts[key]}" for key in sorted(parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_fingerprints(tree: ast.Module) -> Dict[str, TableFingerprint]:
    """Every module-level wire table, by snapshot key."""
    definitions = _definitions(tree)
    tables: Dict[str, TableFingerprint] = {}
    for name, node in definitions.items():
        call = _table_call(node)
        if call is not None:
            version = _argument(call, "version", 1)
            tables[snapshot_key(name)] = TableFingerprint(
                version_const=version.id if isinstance(version, ast.Name) else "",
                sha256=_fingerprint(definitions, name),
                node=node,
            )
    return tables


def module_version_value(tree: ast.Module, const: str) -> Optional[int]:
    """The integer value of a module-level ``X_VERSION = n`` constant."""
    value = getattr(_definitions(tree).get(const), "value", None)
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        return value.value
    return None


def ast_snapshot_of_source(source: str) -> Dict[str, Dict[str, Any]]:
    """The ``tables`` section of the snapshot, from module source."""
    tree = ast.parse(source)
    return {
        key: {
            "version_const": table.version_const,
            "version": module_version_value(tree, table.version_const),
            "ast_sha256": table.sha256,
        }
        for key, table in table_fingerprints(tree).items()
    }


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
    """Shapes of sample documents from every live emitter.

    Imports the serialization layer and builds one representative
    document per wire format, shaping each with :func:`shape_of`.
    Optional branches are exercised (top-k ``local_indices``, extras
    columns, span attributes, a result's telemetry) so the shapes
    cover the full key set.
    """
    import tempfile

    import numpy as np

    from ..batch.engine import evaluate_matrix
    from ..batch.executor import ShardManifest, ShardResult
    from ..batch.matrix import DesignMatrix
    from ..distrib.lease import LeaseRecord
    from ..io import serialization as ser
    from ..obs.export import write_trace_jsonl
    from ..obs.tracer import Tracer
    from ..serve.protocol import (
        ErrorEnvelope,
        ProgressEvent,
        ServeStats,
        StudyAck,
        StudyStatus,
    )
    from ..study import DesignSpec, StudyAxis, StudyResult, StudySpec

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
    lease = LeaseRecord(
        spec_digest="0" * 32,
        shard_index=3,
        owner="host-a-12041",
        lease_ttl_s=30.0,
        heartbeats=7,
    )
    tracer = Tracer()
    with tracer.span("sample", rows=2):
        pass
    tracer.counter("rows.evaluated").add(2)
    tracer.gauge("rows_per_s").set(8.0)
    with tempfile.TemporaryDirectory() as scratch:
        log = Path(scratch) / "trace.jsonl"
        write_trace_jsonl(log, tracer)
        header = json.loads(log.read_text(encoding="utf-8").splitlines()[0])
    study = StudyResult(
        spec=StudySpec(design=DesignSpec.knob_axes(axes={"compute_tdp_w": (1.0, 5.0)})),
        axes=(StudyAxis(name="compute_tdp_w", values=(1.0, 5.0)),),
        batch=batch,
        selected_indices=np.asarray([1], dtype=np.intp),
        total_mass_g=np.asarray([100.0, 101.0]),
        compute_tdp_w=np.asarray([1.0, 5.0]),
        telemetry=tracer.to_telemetry(),
    )
    progress = {
        "done": 1,
        "total": 2,
        "rows_done": 1,
        "rows_total": 2,
        "elapsed_s": 0.5,
        "rows_per_s": 2.0,
        "eta_s": 0.5,
    }
    study_id = "study-" + "0" * 16
    envelopes = {
        "serve_ack": StudyAck(
            study_id=study_id, state="queued", coalesced=False, queue_depth=1
        ),
        "serve_status": StudyStatus(
            study_id=study_id,
            state="running",
            spec_digest="0" * 64,
            queue_position=0,
            progress=progress,
            error=None,
            result_ready=False,
        ),
        "serve_progress": ProgressEvent(
            study_id=study_id,
            seq=1,
            state="running",
            progress=progress,
            final=False,
        ),
        "serve_error": ErrorEnvelope(
            status=429,
            error="StudyQueueFullError",
            message="study queue is full",
            retry_after_s=2.0,
        ),
        "serve_stats": ServeStats(
            counters={"serve.studies.coalesced": 7},
            gauges={"serve.queue_depth": 0.0},
        ),
    }
    return {
        "shard_manifest": shape_of(ser.shard_manifest_to_dict(manifest)),
        "shard_record": shape_of(ser.shard_record_to_dict(record)),
        "lease_record": shape_of(ser.lease_record_to_dict(lease)),
        "trace_event": shape_of(tracer.to_events()[0]),
        "trace_header": shape_of(header),
        "telemetry": shape_of(tracer.to_telemetry()),
        "study_result": shape_of(study.to_dict()),
        **{key: shape_of(envelope.to_dict()) for key, envelope in envelopes.items()},
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
    for key in ("tables", "shapes"):
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
        "tables": ast_snapshot_of_source(serialization_source),
        "shapes": runtime_shapes(),
    }


def write_snapshot(path: Path, snapshot: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
