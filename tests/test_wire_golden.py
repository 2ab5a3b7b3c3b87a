"""The wire guard: golden documents and table digests, keyed by version.

Every wire document is one ``WireTable`` in ``repro/io/serialization.py``,
pinned to a ``*_VERSION`` constant.  This module pins each format twice,
both times under the version it was written at:

* ``tests/data/wire_golden/<document>-v<N>.<ext>`` is one sample of each
  top-level document, written from the fixed inputs below (no live
  timings) at version ``N`` of its table; shard records and the saved
  result are framed files (a JSON header line, then raw column bytes).  The live reader must accept
  the file for the live version, and the live emitter must rebuild it
  byte for byte.  Files of older versions stay as history, unread.
* ``tests/data/wire_golden/tables.json`` maps ``"<table>-v<N>"`` to the
  :func:`table_digest` of each table: its version, kind and rows, with
  every type standing for what it accepts.  Prose, error wording and
  the ``build`` hook are left out, so a refactor moves no digest.
* :data:`SPEC_DIGESTS` pins the ``content_digest()`` of each golden
  study spec: its study id, checkpoint key and serve coalescing key.
* ``run-<kind>-v<N>.json`` is the compact result document of running
  the golden ``spec-<kind>`` study (``repro-skyline study --spec ...
  --json``), so a change of the planner, the kernels or the selection
  that moves a result byte fails here too, across commits.

A failure means a wire format moved: bump the ``*_VERSION`` constant the
message names, then write the new version's files with::

    PYTHONPATH=src python tests/test_wire_golden.py

The command only adds missing files and digest keys.  It refuses to
overwrite a committed one, exiting 1, which is what forces the bump.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator, List

import numpy as np
import pytest

from repro.io import serialization as ser
from repro.study import run_study

GOLDEN_DIR = Path(__file__).parent / "data" / "wire_golden"
DIGESTS_NAME = "tables.json"
GENERATE = "PYTHONPATH=src python tests/test_wire_golden.py"

#: Each golden document, by its name without the version, and the table
#: at its top level, whose version the file name carries.
DOCUMENTS: Dict[str, ser.WireTable] = {
    "manifest.json": ser.SHARD_MANIFEST_TABLE,
    "shard-full.jsonl": ser.SHARD_RECORD_TABLE,
    "shard-topk.jsonl": ser.SHARD_RECORD_TABLE,
    "lease.json": ser.LEASE_RECORD_TABLE,
    "result.json": ser.STUDY_RESULT_TABLE,
    **{f"serve-{table.kind}.json": table for table in ser.SERVE_ENVELOPES},
    **{f"spec-{kind}.json": ser.STUDY_SPEC_TABLE for kind in ser.DESIGN_KINDS},
    **{f"run-{kind}.json": ser.STUDY_RESULT_TABLE for kind in ser.DESIGN_KINDS},
}


def live_tables() -> Dict[str, ser.WireTable]:
    """Every table the serialization module declares, by key:
    ``SHARD_MANIFEST_TABLE`` is ``shard_manifest``."""
    return {
        name[: -len("_TABLE")].lower(): table
        for name, table in vars(ser).items()
        if isinstance(table, ser.WireTable)
    }


def golden_path(document: str, golden_dir: Path = GOLDEN_DIR) -> Path:
    """``manifest.json`` -> ``<golden_dir>/manifest-v2.json``: the file
    of ``document`` at the live version of its table."""
    stem, ext = document.split(".", 1)
    return golden_dir / f"{stem}-v{DOCUMENTS[document].version}.{ext}"


def _version_constants() -> Dict[int, str]:
    """``id(table)`` -> the ``*_VERSION`` constant it is declared with."""
    tree = ast.parse(inspect.getsource(ser))
    constants = {}
    for node in tree.body:
        call = getattr(node, "value", None)
        if (
            isinstance(node, ast.Assign)
            and isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "WireTable"
        ):
            table = getattr(ser, node.targets[0].id)
            constants[id(table)] = call.args[1].id
    return constants


def _bump_hint(table: ser.WireTable) -> str:
    const = _version_constants()[id(table)]
    return (
        f"bump {const} (now {table.version}) in repro/io/serialization.py, "
        f"then run '{GENERATE}'"
    )


# ---------------------------------------------------------------------------
# Table digests
# ---------------------------------------------------------------------------
#: The values every type tag's predicate is asked about: the boundaries
#: of the tags, NaN and the infinities, every manifest kind and study
#: state, and the empty containers.
PROBES = (
    None, True, -1, 0, -0.0, 1, 0.5,
    float("nan"), float("inf"), float("-inf"),
    "", "x", "study", "matrix", "queued", "running", "done", "failed",
    [], {},
)


def _type_token(kind: Any) -> Any:
    """What a field type contributes to a digest: a tag its predicate's
    verdicts on :data:`PROBES`, a column type its constructor
    parameters, an embedded table its own digest."""
    if isinstance(kind, list):
        return ["list", table_digest(kind[0])]
    if isinstance(kind, ser.WireTable):
        return ["table", table_digest(kind)]
    entry = ser.WIRE_TYPES[kind]
    if hasattr(entry, "decode"):
        parameters = inspect.signature(type(entry)).parameters
        return ["column", {name: getattr(entry, name) for name in parameters}]
    return ["tag", [bool(entry(probe)) for probe in PROBES]]


def table_digest(table: ser.WireTable) -> str:
    """SHA-256 of what a table accepts and emits: its version, kind,
    ``versioned`` flag and each row's name, type and ``required``."""
    document = {
        "version": table.version,
        "kind": table.kind,
        "versioned": table.versioned,
        "rows": [
            [name, _type_token(kind), required]
            for name, kind, required, _doc in table.fields
        ],
    }
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def live_digests() -> Dict[str, str]:
    """``"<table>-v<N>"`` -> digest, for every live table."""
    return {
        f"{key}-v{table.version}": table_digest(table)
        for key, table in live_tables().items()
    }


def _embedded(table: ser.WireTable) -> Iterator[ser.WireTable]:
    """``table`` and every table embedded in it, at any depth."""
    yield table
    for _name, kind, _required, _doc in table.fields:
        if isinstance(kind, list):
            yield from _embedded(kind[0])
        elif isinstance(kind, ser.WireTable):
            yield from _embedded(kind)


# ---------------------------------------------------------------------------
# The fixed inputs of the golden documents
# ---------------------------------------------------------------------------
def _tracer():
    """A tracer holding fixed spans and metrics (no live timings)."""
    from repro.obs import Tracer

    tracer = Tracer()
    epoch = tracer.epoch
    tracer.record_clock("study.compile", epoch + 0.001, epoch + 0.004, rows=4)
    tracer.record_clock(
        "shard.evaluate", epoch + 0.005, epoch + 0.012, tid=1, shard=0
    )
    tracer.counter("rows.evaluated").add(4)
    tracer.gauge("rows_per_s").set(512.0)
    return tracer


def _study():
    from repro.study import DesignSpec, RankClause, StudySpec, run_study

    spec = StudySpec(
        design=DesignSpec.knob_axes(
            axes={"compute_tdp_w": (1.0, 30.0), "payload_weight_g": (0.0, 250.0)}
        ),
        rank=RankClause(top_k=2),
    )
    return replace(
        run_study(spec, cache=None), telemetry=_tracer().to_telemetry()
    )


def _records():
    from repro.batch.executor import ShardResult

    study = _study()
    full = ShardResult(
        index=1,
        start=2,
        stop=4,
        batch=study.batch.take([2, 3]),
        local_indices=None,
        extras={
            "total_mass_g": study.total_mass_g[2:4],
            "compute_tdp_w": study.compute_tdp_w[2:4],
        },
    )
    top_k = ShardResult(
        index=0,
        start=0,
        stop=2,
        batch=study.batch.take([1]),
        local_indices=np.asarray([1], dtype=np.intp),
        extras={"total_mass_g": study.total_mass_g[1:2]},
    )
    return full, top_k


def _manifest():
    from repro.batch.executor import ShardManifest

    return ShardManifest(
        kind="study",
        digest="9f2c" * 8,
        total_rows=4,
        chunk_rows=2,
        n_shards=2,
        knee_fraction=None,
        tolerance=0.05,
        reduce={"k": 2, "by": "safe_velocity", "descending": True},
    )


def _lease():
    from repro.distrib.lease import LeaseRecord

    return LeaseRecord(
        spec_digest="9f2c" * 8,
        shard_index=3,
        owner="host-a-12041",
        lease_ttl_s=30.0,
    )


_PROGRESS = {
    "done": 1,
    "total": 2,
    "rows_done": 2,
    "rows_total": 4,
    "elapsed_s": 0.5,
    "rows_per_s": 4.0,
    "eta_s": 0.5,
}


def _envelopes():
    from repro.serve.protocol import (
        ErrorEnvelope,
        ProgressEvent,
        ServeStats,
        StudyAck,
        StudyStatus,
    )

    study_id = "study-" + "9f2c" * 4
    return {
        "serve-ack.json": StudyAck(
            study_id=study_id, state="queued", coalesced=False, queue_depth=1
        ),
        "serve-status.json": StudyStatus(
            study_id=study_id,
            state="running",
            spec_digest="9f2c" * 16,
            queue_position=None,
            progress=_PROGRESS,
            error=None,
            result_ready=False,
        ),
        "serve-progress.json": ProgressEvent(
            study_id=study_id,
            seq=4,
            state="running",
            progress=_PROGRESS,
            final=False,
        ),
        "serve-error.json": ErrorEnvelope(
            status=429,
            error="StudyQueueFullError",
            message="study queue is full",
            retry_after_s=2.0,
        ),
        "serve-stats.json": ServeStats(
            counters={"serve.studies.coalesced": 7},
            gauges={"serve.queue_depth": 0.0},
        ),
    }


def _specs():
    """One study spec per design kind; together they use every
    optional field of the spec document."""
    from repro.skyline.knobs import Knobs
    from repro.study import (
        DesignSpec,
        FilterClause,
        RankClause,
        ScenarioSpec,
        StudySpec,
    )
    from repro.uav.registry import get_preset

    pelican = get_preset("asctec-pelican").with_redundancy(2).with_extra_payload(25.0)
    return {
        "spec-knobs.json": StudySpec(
            design=DesignSpec.knob_axes(
                Knobs(compute_tdp_w=15.0, payload_weight_g=100.0),
                {"compute_runtime_s": (0.005, 0.05, 0.5), "sensor_range_m": (5.0, 10.0)},
            ),
            scenarios=ScenarioSpec(extra_payload_g=(0.0, 50.0), a_max_scale=(1.0, 0.8)),
            metrics=("safe_velocity", "bound", "total_mass_g"),
            filters=(
                FilterClause("safe_velocity", ">=", 1.5),
                FilterClause("bound", "!=", "physics"),
            ),
            rank=RankClause(by="safe_velocity", descending=False, top_k=3),
            knee_fraction=0.9,
            tolerance=0.1,
        ),
        "spec-presets.json": StudySpec(
            design=DesignSpec.presets(
                ("dji-spark", "asctec-pelican"),
                ("intel-ncs", "jetson-tx2"),
                ("dronet", "trailnet"),
            ),
            scenarios=ScenarioSpec(compute_redundancy=(1, 2)),
            rank=RankClause(by="compute_tdp_w"),
        ),
        "spec-fleet.json": StudySpec(
            design=DesignSpec.fleet(
                (get_preset("dji-spark"), pelican),
                (30.0, 178.0),
                labels=("spark", "pelican-dmr"),
            ),
            scenarios=ScenarioSpec(
                extra_payload_g=(0.0, 10.0), a_max_scale=(0.9,), compute_redundancy=(1, 3)
            ),
            filters=(FilterClause("status", "==", "optimal"),),
        ),
    }


#: ``content_digest()`` of each golden spec: its study id, checkpoint
#: key and serve coalescing key, so it must never move.
SPEC_DIGESTS = {
    "spec-knobs.json": "a7fb4cdaae8bfbd33259a6706884898a",
    "spec-presets.json": "81717b6a0d9c069013712dc6f493c831",
    "spec-fleet.json": "36f759e3ef0fa656c43ba838b43feaf1",
}


def _line(document) -> bytes:
    return (json.dumps(document) + "\n").encode("utf-8")


def _framed_record(record) -> bytes:
    """A shard record as :meth:`CheckpointStore.write` frames it."""
    chunks = ser.encode_frame(lambda payload: ser.shard_record_to_dict(record, payload))
    return b"".join(chunks)


def golden_documents(scratch: Path) -> Dict[str, bytes]:
    """Document name -> the bytes the live emitters write for it.

    Each file is produced the way the owning layer writes it: one
    ``json.dumps`` line for manifests, leases and envelopes, a framed
    record for shard records, :meth:`StudyResult.save` for the result,
    :meth:`StudySpec.save` for the specs (both through ``scratch``) and
    one :meth:`StudyResult.to_json` line for each golden spec's run.
    """
    full, top_k = _records()
    documents = {
        "manifest.json": _line(ser.shard_manifest_to_dict(_manifest())),
        "shard-full.jsonl": _framed_record(full),
        "shard-topk.jsonl": _framed_record(top_k),
        "lease.json": _line(ser.lease_record_to_dict(_lease())),
    }
    for name, envelope in _envelopes().items():
        documents[name] = _line(envelope.to_dict())
    result_path = scratch / "result.json"
    _study().save(result_path)
    documents["result.json"] = result_path.read_bytes()
    for name, spec in _specs().items():
        spec.save(scratch / name)
        documents[name] = (scratch / name).read_bytes()
        documents["run-" + name[len("spec-"):]] = _line(run_study(spec).to_dict())
    return documents


def _read_back(name: str, path: Path) -> None:
    """Parse one golden file with its live reader and check the values."""
    from repro.io.serialization import batch_results_equal
    from repro.study import StudyResult, StudySpec

    text = path.read_bytes()
    if name == "manifest.json":
        assert ser.shard_manifest_from_dict(json.loads(text)) == _manifest()
    elif name == "lease.json":
        assert ser.lease_record_from_dict(json.loads(text)) == _lease()
    elif name.startswith("shard-"):
        full, top_k = _records()
        want = full if name == "shard-full.jsonl" else top_k
        rebuilt = ser.decode_frame(
            ser.SHARD_RECORD_TABLE.title, text, ser.shard_record_from_dict
        )
        assert (rebuilt.index, rebuilt.start, rebuilt.stop) == (
            want.index, want.start, want.stop,
        )
        assert batch_results_equal(rebuilt.batch, want.batch)
        assert sorted(rebuilt.extras) == sorted(want.extras)
        if want.local_indices is None:
            assert rebuilt.local_indices is None
        else:
            assert np.array_equal(rebuilt.local_indices, want.local_indices)
    elif name == "result.json":
        loaded, study = StudyResult.load(path), _study()
        assert loaded.equals(study)
        assert loaded.telemetry == study.telemetry
    elif name.startswith("spec-"):
        assert StudySpec.load(path) == _specs()[name]
    elif name.startswith("run-"):
        spec = _specs()["spec-" + name[len("run-"):]]
        assert StudyResult.from_json(text.decode("utf-8")).equals(run_study(spec))
    else:
        doc = json.loads(text)
        assert ser.serve_envelope_from_dict(doc) == _envelopes()[name].to_dict()


# ---------------------------------------------------------------------------
# The one generator
# ---------------------------------------------------------------------------
def generate(golden_dir: Path) -> List[str]:
    """Write every missing golden file and digest key into ``golden_dir``.

    A committed file or key whose content moved is left as it is; the
    return value names each one with the version to bump.
    """
    golden_dir.mkdir(parents=True, exist_ok=True)
    refused = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        files = golden_documents(Path(tmp_dir))
    for document, data in files.items():
        path = golden_path(document, golden_dir)
        if not path.exists():
            path.write_bytes(data)
            print(f"wrote {path.name}")
        elif path.read_bytes() != data:
            refused.append(f"{path.name}: {_bump_hint(DOCUMENTS[document])}")
    digests_path = golden_dir / DIGESTS_NAME
    committed = (
        json.loads(digests_path.read_text(encoding="utf-8"))
        if digests_path.exists() else {}
    )
    tables = live_tables()
    missing = {}
    for key, digest in live_digests().items():
        if key not in committed:
            missing[key] = digest
        elif committed[key] != digest:
            table = tables[key.rsplit("-v", 1)[0]]
            refused.append(f"{DIGESTS_NAME} key {key}: {_bump_hint(table)}")
    if missing:
        committed.update(missing)
        digests_path.write_text(
            json.dumps(committed, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"added {DIGESTS_NAME} keys {', '.join(sorted(missing))}")
    return refused


# ---------------------------------------------------------------------------
# The guard
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_documents(tmp_path_factory):
    return golden_documents(tmp_path_factory.mktemp("golden"))


def _committed_digests() -> Dict[str, str]:
    return json.loads((GOLDEN_DIR / DIGESTS_NAME).read_text(encoding="utf-8"))


def test_golden_set_is_complete():
    # Every table is inside some golden document ...
    covered = {id(t) for table in DOCUMENTS.values() for t in _embedded(table)}
    assert covered == {id(table) for table in live_tables().values()}
    # ... the live version of each document is committed, and every
    # other file is an older version of one of them.
    live = {golden_path(document).name for document in DOCUMENTS}
    present = {path.name for path in GOLDEN_DIR.iterdir()} - {DIGESTS_NAME}
    assert live <= present, f"missing {sorted(live - present)}; run '{GENERATE}'"
    for name in sorted(present - live):
        match = re.fullmatch(r"(.+)-v(\d+)\.(\w+)", name)
        assert match, f"{name} is not named <document>-v<N>.<ext>"
        stem, version, ext = match.groups()
        document = f"{stem}.{ext}"
        assert document in DOCUMENTS, f"{name} is not a known golden document"
        assert int(version) < DOCUMENTS[document].version, name


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_live_reader_accepts_golden_document(name):
    _read_back(name, golden_path(name))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_live_emitter_rebuilds_golden_bytes(name, live_documents):
    committed = golden_path(name).read_bytes()
    assert live_documents[name] == committed, (
        f"{golden_path(name).name} changed on the wire; "
        f"{_bump_hint(DOCUMENTS[name])}"
    )


@pytest.mark.parametrize("name", sorted(SPEC_DIGESTS))
def test_golden_spec_keeps_its_study_id(name):
    from repro.study import StudySpec

    assert _specs()[name].content_digest() == SPEC_DIGESTS[name]
    assert StudySpec.load(golden_path(name)).content_digest() == SPEC_DIGESTS[name]


@pytest.mark.parametrize("chunk_rows", [None, 3], ids=["single-pass", "chunk-rows-3"])
@pytest.mark.parametrize("kind", ser.DESIGN_KINDS)
def test_golden_spec_runs_to_its_golden_result(kind, chunk_rows):
    # The committed run was written by an earlier commit, so this pins
    # result bytes across commits; at --chunk-rows 3 some design's
    # scenario rows straddle two shards.
    from repro.study import StudySpec

    spec = StudySpec.load(golden_path(f"spec-{kind}.json"))
    text = run_study(spec, chunk_rows=chunk_rows).to_json() + "\n"
    golden = golden_path(f"run-{kind}.json")
    assert text.encode("utf-8") == golden.read_bytes(), (
        f"{golden.name} changed; {_bump_hint(DOCUMENTS[f'run-{kind}.json'])}"
    )


@pytest.mark.parametrize("key", sorted(live_tables()))
def test_table_digest_is_pinned(key):
    table = live_tables()[key]
    digest_key = f"{key}-v{table.version}"
    committed = _committed_digests()
    assert digest_key in committed, (
        f"{DIGESTS_NAME} has no {digest_key!r}; run '{GENERATE}'"
    )
    assert table_digest(table) == committed[digest_key], (
        f"wire table {key!r} changed at version {table.version}; "
        f"{_bump_hint(table)}"
    )


@pytest.mark.parametrize(
    "tag, entry, moved",
    [
        ("float > 0", lambda value: isinstance(value, float) and value >= 0,
         ["lease_record"]),
        ("<i8 column | null", type(ser.WIRE_TYPES["<f8 column"])(ser.INDEX_COLUMN),
         ["shard_record"]),
        ("[str]", lambda value: isinstance(value, (list, str)), [
            "batch_result", "design_matrix", "design_spec", "shard_record",
            "study_result", "study_spec",
        ]),
    ],
    ids=["predicate", "column-parameter", "embedded-tables"],
)
def test_digest_moves_for_exactly_the_tables_using_an_edit(
    monkeypatch, tag, entry, moved
):
    before = live_digests()
    monkeypatch.setitem(ser.WIRE_TYPES, tag, entry)
    after = live_digests()
    assert sorted(key for key in before if before[key] != after[key]) == [
        f"{key}-v{live_tables()[key].version}" for key in moved
    ]


@pytest.mark.parametrize("key", sorted(live_tables()))
def test_digest_ignores_prose_error_wording_and_build(key):
    table = live_tables()[key]
    reworded = replace(
        table,
        title="reworded",
        fields=tuple((name, kind, req, "reworded") for name, kind, req, _ in table.fields),
        path="elsewhere.",
        quote={},
        build=None,
    )
    assert table_digest(reworded) == table_digest(table)


def test_generator_adds_missing_files_and_refuses_changed_ones(tmp_path):
    shutil.copytree(GOLDEN_DIR, tmp_path, dirs_exist_ok=True)
    missing = golden_path("lease.json", tmp_path)
    changed = golden_path("manifest.json", tmp_path)
    missing.unlink()
    changed.write_bytes(changed.read_bytes() + b" ")
    digests = json.loads((tmp_path / DIGESTS_NAME).read_text(encoding="utf-8"))
    lease_key = f"lease_record-v{ser.DISTRIB_PROTOCOL_VERSION}"
    digests[lease_key] = "0" * 64
    del digests["telemetry-v1"]
    (tmp_path / DIGESTS_NAME).write_text(json.dumps(digests), encoding="utf-8")

    refused = generate(tmp_path)

    assert missing.read_bytes() == golden_path("lease.json").read_bytes()
    assert changed.read_bytes().endswith(b" ")
    after = json.loads((tmp_path / DIGESTS_NAME).read_text(encoding="utf-8"))
    assert after["telemetry-v1"] == _committed_digests()["telemetry-v1"]
    assert after[lease_key] == "0" * 64
    assert [line.split(":")[0] for line in refused] == [
        changed.name, f"{DIGESTS_NAME} key {lease_key}",
    ]
    assert f"bump MANIFEST_VERSION (now {ser.MANIFEST_VERSION})" in refused[0]
    assert (
        f"bump DISTRIB_PROTOCOL_VERSION (now {ser.DISTRIB_PROTOCOL_VERSION})"
        in refused[1]
    )


def _main() -> int:
    refused = generate(GOLDEN_DIR)
    for line in refused:
        print(f"refusing to overwrite committed {line}", file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(_main())
