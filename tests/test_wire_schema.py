"""Wire readers against damage, and the column codec's round trips.

Every wire document is one ``WireTable`` in ``repro/io/serialization.py``;
its bytes and its table digest are pinned in ``tests/test_wire_golden.py``.
This suite checks what the readers refuse: a damage matrix per lease and
shard record, one per framed file (saved results and checkpoint
records), one generated from every field of every table, bitwise round
trips of every float64 bit pattern through JSON and framed files, and
the docs rows of each table.
"""

from __future__ import annotations

import base64
import functools
import importlib.util
import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import DesignMatrix, evaluate_matrix
from repro.batch.executor import CheckpointStore, ShardManifest, ShardResult
from repro.errors import ConfigurationError, SimulationError
from repro.io import serialization as ser
from repro.study import DesignSpec, ScenarioSpec, StudyResult, StudySpec, run_study
from repro.uav.registry import get_preset
from test_wire_golden import GOLDEN_DIR, DOCUMENTS, golden_path, live_tables

REPO_ROOT = Path(__file__).parent.parent


def _lease_doc(**overrides):
    doc = {
        "version": ser.DISTRIB_PROTOCOL_VERSION,
        "kind": "lease",
        "spec_digest": "a" * 32,
        "owner": "host-a-12041",
        "shard_index": 3,
        "lease_ttl_s": 30.0,
    }
    doc.update(overrides)
    return {k: v for k, v in doc.items() if v is not ...}


@pytest.mark.parametrize(
    "doc",
    [
        "not a mapping",
        _lease_doc(version=99),
        _lease_doc(kind="manifest"),
        _lease_doc(spec_digest=...),
        _lease_doc(spec_digest=""),
        _lease_doc(spec_digest=7),
        _lease_doc(owner=""),
        _lease_doc(shard_index=-1),
        _lease_doc(shard_index=2.5),
        _lease_doc(lease_ttl_s=0),
        _lease_doc(lease_ttl_s=True),
        _lease_doc(lease_ttl_s="30"),
        _lease_doc(heartbeats=7),
        _lease_doc(version=1, heartbeats=7),
        _lease_doc(lease_ttl_s=float("nan")),
    ],
    ids=[
        "non-mapping", "future-version", "wrong-kind", "missing-digest",
        "empty-digest", "non-str-digest", "empty-owner", "negative-index",
        "float-index", "zero-ttl", "bool-ttl", "str-ttl",
        "heartbeats-field", "version-1-lease", "nan-ttl",
    ],
)
def test_lease_record_from_dict_rejects_damage(doc):
    # The torn-lease contract: validation failures become clean
    # ConfigurationErrors, which the lease store downgrades to
    # "corrupt → claimable" — so this rejection matrix is the crash
    # barrier for every byte-level way a lease file can be damaged.
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="lease"):
        ser.lease_record_from_dict(doc)


# Regression: null or numeric telemetry events raised TypeError from
# telemetry_from_dict, and so from StudyResult.from_dict/from_json/load.
@pytest.mark.parametrize("events", [None, 5], ids=["null", "number"])
def test_damaged_telemetry_events_are_named(tmp_path, events):
    telemetry = {"version": ser.TELEMETRY_VERSION, "events": events}
    with pytest.raises(ConfigurationError, match="telemetry field 'events'"):
        ser.telemetry_from_dict(telemetry)
    path = tmp_path / "result.json"
    path.write_bytes(b"".join(ser.encode_frame(
        lambda payload: dict(_base().to_dict(payload), telemetry=telemetry)
    )))
    with pytest.raises(ConfigurationError, match="'events'"):
        StudyResult.load(path)


def test_lease_record_accepts_an_infinite_ttl():
    # Writers accept ``--lease-ttl inf``: a lease that never expires.
    record = ser.lease_record_from_dict(_lease_doc(lease_ttl_s=float("inf")))
    assert record.lease_ttl_s == float("inf")


def test_lease_record_round_trips():
    record = ser.lease_record_from_dict(_lease_doc())
    assert ser.lease_record_to_dict(record) == _lease_doc()


def _carried_versions(table, doc):
    """(table, its version and kind as ``doc`` carries them) for each
    versioned table in a document, embedded ones included."""
    if table.versioned:
        yield table, doc.get("version"), doc.get("kind")
    for name, kind, _required, _doc in table.fields:
        if isinstance(kind, ser.WireTable) and isinstance(doc.get(name), dict):
            yield from _carried_versions(kind, doc[name])


def test_versioned_documents_carry_their_version():
    # The top-level wire envelopes state their version on the wire;
    # trace events ride inside a versioned telemetry document instead.
    seen = set()
    for document, table in DOCUMENTS.items():
        # The first JSON value: a framed file's header line, or a document.
        text = golden_path(document).read_bytes().decode("utf-8", "replace")
        first, _end = json.JSONDecoder().raw_decode(text)
        for carried, version, kind in _carried_versions(table, first):
            assert version == carried.version, document
            assert carried.kind in (None, kind), document
            seen.add(carried.title)
    assert seen == {t.title for t in live_tables().values() if t.versioned}


# ---------------------------------------------------------------------------
# The column codec: record damage and bitwise round trips
# ---------------------------------------------------------------------------
def _b64(*values, dtype="<f8"):
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def _record_doc():
    """A valid two-row shard record, top-k branch and extras included."""
    matrix = DesignMatrix.from_arrays(
        sensing_range_m=(10.0, 12.0),
        a_max=(5.0, 6.0),
        f_sensor_hz=(60.0, 60.0),
        f_compute_hz=(30.0, 45.0),
    )
    return ser.shard_record_to_dict(
        ShardResult(
            index=0,
            start=0,
            stop=4,
            batch=evaluate_matrix(matrix, cache=None),
            local_indices=np.asarray([0, 3], dtype=np.intp),
            extras={"total_mass_g": np.asarray([100.0, 101.0])},
        )
    )


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("batch", "safe_velocity", "b64"), "AAAA*AAAAAAAAAAAAAAAAA==",
         "safe_velocity"),
        (("batch", "safe_velocity", "b64"), "AAAA*" + _b64(1.0, 2.0)[4:],
         "safe_velocity"),
        (("batch", "safe_velocity", "b64"), _b64(1, 2, 3, dtype="<i4"),
         "safe_velocity"),
        (("batch", "safe_velocity", "b64"), _b64(1.0, 2.0, 3.0),
         "safe_velocity"),
        (("batch", "matrix", "a_max", "b64"), _b64(5.0), "matrix.a_max"),
        (("extras", "total_mass_g", "b64"), _b64(100.0),
         "shard.extras.total_mass_g"),
        (("local_indices", "b64"), _b64(0, 1, 2, dtype="<i8"),
         "shard.local_indices"),
        (("batch", "safe_velocity", "dtype"), ">f8", "safe_velocity"),
        (("batch", "safe_velocity", "dtype"), "<f4", "safe_velocity"),
        (("local_indices", "dtype"), "<f8", "shard.local_indices"),
        (("local_indices", "b64"), _b64(0, 4, dtype="<i8"),
         "shard.local_indices"),
        (("local_indices",), None, "shard.batch"),
        (("batch", "safe_velocity"), [1.0, 2.0], "safe_velocity"),
        (("batch", "bounds"), ["physics", "sensor"], "bounds"),
        (("batch", "bounds", "b64"), _b64(0, 4, dtype="<i1"), "bounds"),
        (("batch", "bounds", "b64"), _b64(-1, 0, dtype="<i1"), "bounds"),
        (("batch", "bounds", "names", 1), "banana", "bounds.names"),
        (("batch", "statuses", "names"), "optimal", "statuses.names"),
        (("batch", "rows"), -1, "batch.rows"),
        (("batch", "rows"), True, "batch.rows"),
        (("batch", "matrix", "rows"), 1.5, "matrix.rows"),
        (("batch", "tolerance"), "loose", "tolerance"),
        *(
            (("batch", "matrix", "labels"), ["ok", label], "matrix.labels")
            for label in (None, 5, 1.5, ["x"])
        ),
    ],
    ids=[
        "invalid-base64-char", "star-in-valid-base64", "partial-item",
        "wrong-row-count",
        "short-matrix-column", "short-extras", "long-local-indices",
        "big-endian-tag", "float32-tag", "float-indices",
        "index-outside-shard", "full-shard-row-mismatch", "float-list", "name-list",
        "code-past-names", "negative-code", "unknown-name",
        "names-not-a-list", "negative-rows", "bool-rows", "float-rows",
        "str-tolerance", "null-label", "int-label", "float-label", "list-label",
    ],
)
def test_shard_record_from_dict_rejects_damage(path, value, field):
    # The torn-record contract, like the lease matrix above: every
    # byte-level way a column can be damaged is a ConfigurationError
    # naming its field, which CheckpointStore reads as "absent".
    doc = _record_doc()
    ser.shard_record_from_dict(doc)  # the undamaged record is valid
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigurationError, match=f"'{field}'"):
        ser.shard_record_from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize(
    "label", [None, 5, 1.5, ["x"]], ids=["null", "int", "float", "list"]
)
def test_result_document_refuses_a_label_that_is_not_a_string(label):
    # Read through str(), a null label came back as "None" and was
    # emitted again as bytes the document never held.
    doc = _golden("result.json")
    matrix = doc["batch"]["matrix"]
    matrix["labels"] = [label] * matrix["rows"]
    with pytest.raises(ConfigurationError) as exc:
        StudyResult.from_dict(doc)
    assert str(exc.value).startswith(
        "design matrix field 'matrix.labels': expected [str], got "
    )


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", 0), ("k", True), ("k", 2.0), ("k", "2"), ("k", None),
        ("by", "bogus"), ("by", 7), ("by", ["safe_velocity"]),
        ("descending", 1), ("descending", "yes"), ("descending", None),
    ],
)
def test_shard_manifest_from_dict_rejects_a_damaged_reduce(key, value):
    # A joining worker reads its manifest from disk; a damaged reduce
    # must be a ConfigurationError naming the field, not a TypeError
    # from the record shape check that reads it later.
    doc = _golden("manifest.json")
    ser.shard_manifest_from_dict(doc)  # the undamaged manifest is valid
    doc["reduce"][key] = value
    with pytest.raises(ConfigurationError, match="field 'reduce'"):
        ser.shard_manifest_from_dict(doc)


#: Arbitrary float64 bit patterns, biased toward the ones float text
#: mangles or drops: -0.0, +-inf, subnormals and NaN payloads.
_SPECIAL_BITS = (
    0x8000000000000000,  # -0.0
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FF0000000000001,  # signalling NaN
    0xFFF8000000000123,  # negative quiet NaN with a payload
)
_float_bits = st.one_of(
    st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)
)


@functools.lru_cache(maxsize=None)
def _base():
    """A three-row knob study, run on first use rather than at import,
    so a module importing this one runs no study."""
    return run_study(
        StudySpec(design=DesignSpec.knob_axes(axes={"compute_tdp_w": (1.0, 5.0, 30.0)}))
    )


def test_importing_the_module_runs_no_study(monkeypatch):
    # Regression: the study ran at import, so a defect on the evaluation
    # path stopped collection of tests/test_serve.py, which imports this
    # module, instead of failing named tests.
    def broken(*args, **kwargs):
        raise SimulationError("study ran")

    monkeypatch.setattr("repro.study.run_study", broken)
    monkeypatch.setattr("repro.batch.evaluate_matrix", broken)
    spec = importlib.util.spec_from_file_location("_wire_schema_copy", __file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    with pytest.raises(SimulationError, match="study ran"):
        fresh._base()


def _floats(draw, rows):
    bits = draw(st.lists(_float_bits, min_size=rows, max_size=rows))
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _codes(draw, rows, n_names):
    codes = draw(st.lists(st.integers(0, n_names - 1), min_size=rows, max_size=rows))
    return np.asarray(codes, dtype=np.int8)


@functools.lru_cache(maxsize=None)
def _kind_bases():
    """One small study per design kind: the knob study above, presets
    with scenarios and a labelled fleet."""
    presets = StudySpec(
        design=DesignSpec.presets(
            ("dji-spark", "asctec-pelican"), ("intel-ncs", "jetson-tx2"), ("dronet",)
        ),
        scenarios=ScenarioSpec(compute_redundancy=(1, 2)),
    )
    fleet = StudySpec(
        design=DesignSpec.fleet(
            (get_preset("dji-spark"), get_preset("asctec-pelican")),
            (30.0, 178.0),
            labels=("spark", "pelican"),
        ),
        scenarios=ScenarioSpec(extra_payload_g=(0.0, 10.0)),
    )
    return (_base(), run_study(presets), run_study(fleet))


@st.composite
def _results(draw):
    """A result over 0-6 real design rows of a knob, preset or labelled
    fleet study, whose result, accounting and selection columns hold
    arbitrary bit patterns."""
    base = draw(st.sampled_from(_kind_bases()))
    rows = draw(st.lists(st.integers(0, len(base) - 1), max_size=6))
    n = len(rows)
    batch = replace(
        base.batch.take(rows),
        **{name: _floats(draw, n) for name in ser._RESULT_COLUMNS},
        bound_codes=_codes(draw, n, len(ser.BOUND_CODE_TO_NAME)),
        status_codes=_codes(draw, n, len(ser.STATUS_CODE_TO_NAME)),
    )
    return StudyResult(
        spec=base.spec,
        axes=base.axes,
        batch=batch,
        selected_indices=draw(
            st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([])
        ),
        total_mass_g=_floats(draw, n),
        compute_tdp_w=_floats(draw, n),
    )


def _batches():
    return _results().map(lambda result: result.batch)


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_batches_bitwise(a, b):
    for left, right in zip(a.matrix.columns(), b.matrix.columns()):
        _assert_bitwise(left, right)
    assert list(a.matrix.labels or ()) == list(b.matrix.labels or ())
    for name in ser._RESULT_COLUMNS:
        _assert_bitwise(getattr(a, name), getattr(b, name))
    _assert_bitwise(a.bound_codes, b.bound_codes)
    _assert_bitwise(a.status_codes, b.status_codes)


@settings(max_examples=60, deadline=None)
@given(batch=_batches(), data=st.data())
def test_study_result_round_trips_every_bit_pattern(batch, data):
    n = len(batch)
    result = StudyResult(
        spec=_base().spec,
        axes=_base().axes,
        batch=batch,
        selected_indices=data.draw(
            st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([])
        ),
        total_mass_g=_floats(data.draw, n),
        compute_tdp_w=_floats(data.draw, n),
    )
    text = result.to_json()
    rebuilt = StudyResult.from_json(text)
    _assert_batches_bitwise(result.batch, rebuilt.batch)
    for name in ("selected_indices", "total_mass_g", "compute_tdp_w"):
        _assert_bitwise(getattr(result, name), getattr(rebuilt, name))
    assert rebuilt.to_json() == text


@settings(max_examples=60, deadline=None)
@given(batch=_batches(), top_k=st.booleans(), data=st.data())
def test_shard_record_round_trips_every_bit_pattern(batch, top_k, data):
    n = len(batch)
    record = ShardResult(
        index=1,
        start=8,
        stop=8 + (2 * n if top_k else n),
        batch=batch,
        local_indices=np.arange(0, 2 * n, 2) if top_k else None,
        extras={"total_mass_g": _floats(data.draw, n)},
    )
    line = json.dumps(ser.shard_record_to_dict(record))
    rebuilt = ser.shard_record_from_dict(json.loads(line))
    assert (rebuilt.index, rebuilt.start, rebuilt.stop) == (1, 8, record.stop)
    _assert_batches_bitwise(record.batch, rebuilt.batch)
    _assert_bitwise(
        record.extras["total_mass_g"], rebuilt.extras["total_mass_g"]
    )
    if top_k:
        _assert_bitwise(record.local_indices, rebuilt.local_indices)
    else:
        assert rebuilt.local_indices is None


# ---------------------------------------------------------------------------
# Framed files: saved results and checkpoint records
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(result=_results())
def test_saved_result_round_trips_every_bit_pattern(result):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        result.save(path)
        loaded = StudyResult.load(path)
    assert loaded.spec == result.spec and loaded.axes == result.axes
    _assert_batches_bitwise(result.batch, loaded.batch)
    for name in ("selected_indices", "total_mass_g", "compute_tdp_w"):
        _assert_bitwise(getattr(result, name), getattr(loaded, name))
    assert loaded.to_json() == result.to_json()


@settings(max_examples=40, deadline=None)
@given(batch=_batches(), top_k=st.booleans(), data=st.data())
def test_checkpoint_record_round_trips_every_bit_pattern(batch, top_k, data):
    # A full shard of n rows, or a top-k shard keeping n of 2n rows,
    # through CheckpointStore.write and load_shard.
    n = len(batch)
    span = 2 * n if top_k else n
    record = ShardResult(
        index=0,
        start=0,
        stop=span,
        batch=batch,
        local_indices=np.arange(0, span, 2) if top_k else None,
        extras={name: _floats(data.draw, n) for name in ("total_mass_g", "compute_tdp_w")},
    )
    manifest = ShardManifest(
        kind="study", digest="d" * 32, total_rows=span, chunk_rows=max(span, 1),
        n_shards=1, knee_fraction=None, tolerance=0.05,
        reduce={"k": max(n, 1), "by": "safe_velocity", "descending": True} if top_k else None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore.open(tmp, manifest)
        store.write(record)
        rebuilt = store.load_shard(0)
    assert rebuilt is not None, store.skipped
    assert (rebuilt.index, rebuilt.start, rebuilt.stop) == (0, 0, span)
    _assert_batches_bitwise(record.batch, rebuilt.batch)
    assert sorted(rebuilt.extras) == sorted(record.extras)
    for name, column in record.extras.items():
        _assert_bitwise(column, rebuilt.extras[name])
    if top_k:
        _assert_bitwise(record.local_indices, rebuilt.local_indices)
    else:
        assert rebuilt.local_indices is None


def _reframed(edit):
    """A damage that applies ``edit(header, payload)`` to a framed file;
    ``edit`` changes the header in place and returns the payload."""

    def damage(data):
        line, payload = data.split(b"\n", 1)
        header = json.loads(line)
        payload = edit(header, payload)
        return json.dumps(header).encode() + b"\n" + payload

    return damage


def _column(edit):
    """A damage to the ``batch.safe_velocity`` column object, which a
    saved result and a checkpoint record both hold."""

    def edit_header(header, payload):
        edit(header["batch"]["safe_velocity"], payload)
        return payload

    return _reframed(edit_header)


def _as_b64(column, payload):
    start, stop = column.pop("range")
    column["b64"] = base64.b64encode(payload[start:stop]).decode()


def _shifted(by):
    def edit(column, payload):
        start, stop = column["range"]
        column["range"] = [start + by, stop + by]

    return edit


#: Each damage to a framed file, and the field a reader names for it in
#: a saved result and in a checkpoint record.
FRAME_DAMAGE = [
    pytest.param(lambda data: data.split(b"\n", 1)[0], "<root>", "<root>",
                 id="no-header-newline"),
    pytest.param(lambda data: b"\xff" + data, "<root>", "<root>",
                 id="header-not-utf8-json"),
    pytest.param(_column(_as_b64), "safe_velocity", "safe_velocity",
                 id="b64-column"),
    pytest.param(
        _column(lambda column, payload: column.update(range=[column["range"][0], len(payload) + 8])),
        "safe_velocity", "safe_velocity", id="range-past-the-end",
    ),
    pytest.param(_column(_shifted(8)), "safe_velocity", "safe_velocity", id="gap"),
    pytest.param(_column(_shifted(-8)), "safe_velocity", "safe_velocity", id="overlap"),
    pytest.param(lambda data: data + b"\0", "compute_tdp_w",
                 "shard.extras.compute_tdp_w", id="trailing-byte"),
    pytest.param(lambda data: data[:-1], "compute_tdp_w",
                 "shard.extras.compute_tdp_w", id="truncated-payload"),
    pytest.param(
        _column(lambda column, payload: column.update(range=[float(column["range"][0]), column["range"][1]])),
        "safe_velocity", "safe_velocity", id="non-integer-range",
    ),
    pytest.param(_column(lambda column, payload: column.update(dtype="<f4")),
                 "safe_velocity", "safe_velocity", id="wrong-dtype-tag"),
]


@pytest.mark.parametrize("damage, field, _record_field", FRAME_DAMAGE)
def test_damaged_saved_result_is_refused_naming_the_field(
    tmp_path, damage, field, _record_field
):
    path = tmp_path / "result.json"
    _base().save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ConfigurationError, match=f"field '{field}'"):
        StudyResult.load(path)


@pytest.mark.parametrize("damage, _result_field, field", FRAME_DAMAGE)
def test_damaged_checkpoint_record_is_recomputed(
    tmp_path, damage, _result_field, field
):
    first = run_study(_base().spec, chunk_rows=1, checkpoint=tmp_path)
    record = tmp_path / "shard-000001.jsonl"
    original = record.read_bytes()
    record.write_bytes(damage(original))
    store = CheckpointStore.open(tmp_path, CheckpointStore.peek_manifest(tmp_path))
    assert store.load_shard(1) is None
    assert f"field '{field}'" in store.skipped[0]
    resumed = run_study(_base().spec, checkpoint=tmp_path, resume=True)
    assert resumed.equals(first)
    assert record.read_bytes() == original  # recomputed and rewritten


def test_version_2_saved_result_is_refused_by_version():
    # Version 2 saved the whole document as indented JSON.
    with pytest.raises(
        ConfigurationError, match="field 'version': unsupported version 2"
    ):
        StudyResult.load(GOLDEN_DIR / "result-v2.json")


def test_version_2_checkpoint_dir_is_refused_by_version(tmp_path):
    shutil.copy(GOLDEN_DIR / "manifest-v2.json", tmp_path / "manifest.json")
    shutil.copy(GOLDEN_DIR / "shard-full-v2.jsonl", tmp_path / "shard-000001.jsonl")
    with pytest.raises(
        ConfigurationError, match="field 'version': unsupported version 2"
    ):
        run_study(_base().spec, checkpoint=tmp_path, resume=True)


# ---------------------------------------------------------------------------
# Table-driven checks: every field of every table
# ---------------------------------------------------------------------------
DOCS_DIR = REPO_ROOT / "docs"


def _golden(name):
    """A golden document as JSON; a framed file is read back and given
    in the form with ``b64`` columns."""
    path = golden_path(name)
    if name == "result.json":
        return StudyResult.load(path).to_dict()
    if name.startswith("shard-"):
        record = ser.decode_frame(
            ser.SHARD_RECORD_TABLE.title, path.read_bytes(), ser.shard_record_from_dict
        )
        return ser.shard_record_to_dict(record)
    return json.loads(path.read_text(encoding="utf-8"))


#: Where each spec table's sample sits: its golden spec, and the path of
#: keys from that document's root.
SPEC_SITES = {
    "study_spec": ("spec-knobs.json", ()),
    "design_spec": ("spec-fleet.json", ("design",)),
    "scenario_spec": ("spec-fleet.json", ("scenarios",)),
    "filter_clause": ("spec-knobs.json", ("filters", 1)),
    "rank_clause": ("spec-presets.json", ("rank",)),
}


def spec_site(document, path):
    """The sub-document of ``document`` at ``path``."""
    for step in path:
        document = document[step]
    return document


def _samples():
    """One valid document per wire table, taken from the golden files."""
    record = _golden("shard-full.jsonl")
    result = _golden("result.json")
    samples = {
        "design_matrix": record["batch"]["matrix"],
        "batch_result": record["batch"],
        "shard_record": record,
        "shard_manifest": _golden("manifest.json"),
        "lease_record": _golden("lease.json"),
        "trace_event": result["telemetry"]["events"][0],
        "telemetry": result["telemetry"],
        "study_result": result,
        "study_axis": result["axes"][0],
    }
    for kind in ("ack", "status", "progress", "error", "stats"):
        samples[f"serve_{kind}"] = _golden(f"serve-{kind}.json")
    for key, (document, path) in SPEC_SITES.items():
        samples[key] = spec_site(_golden(document), path)
    return samples


#: A value of the wrong type for each type tag (``true`` for ints);
#: columns, embedded documents and lists get ``true`` as well.
_WRONG = {
    "int": True,
    "int >= 0": True,
    "int >= 1": True,
    "int >= 0 | null": True,
    "float": True,
    "float > 0": True,
    "float | null": True,
    "str": 7,
    "str, non-empty": 7,
    "str | null": 7,
    "bool": 0,
    "object": [],
    "object | null": [],
    "list": {},
    "manifest kind": "nonsense",
    "study state": "paused",
    "[str]": ["dji-spark", 5],
    "[float]": [1.0, "2"],
    "[int >= 1]": [1, 1.5],
    "[object]": [{}, 5],
    "design kind": "grid",
    "filter op": "=~",
}


def _damage_cases():
    """Per field: missing (when required), the wrong type, and ``null``
    unless its type text allows it; per table, one undeclared key."""
    for key, table in sorted(live_tables().items()):
        for name, kind, required, _doc in table.fields:
            if required:
                yield pytest.param(key, name, ..., id=f"{key}.{name}-missing")
            wrong = _WRONG.get(kind, True) if isinstance(kind, str) else True
            yield pytest.param(key, name, wrong, id=f"{key}.{name}-wrong-type")
            if "null" not in table.type_text(kind):
                yield pytest.param(key, name, None, id=f"{key}.{name}-null")
        yield pytest.param(key, "bogus", 1, id=f"{key}.bogus-unknown")


def _quoted(table, name, prefix=None):
    """The name a reader's error quotes for damage to field ``name``:
    the field, or the document for a key the table does not declare."""
    if any(name == row[0] for row in table.fields):
        return table.where(name, prefix)
    return (table.path if prefix is None else prefix).rstrip(".") or "<root>"


def test_every_table_has_a_sample():
    assert set(_samples()) == set(live_tables())


@pytest.mark.parametrize("key, name, value", _damage_cases())
def test_table_reader_names_the_damaged_field(key, name, value):
    table = live_tables()[key]
    doc = json.loads(json.dumps(_samples()[key]))
    table.read(doc)  # the undamaged sample is valid
    if value is ...:
        del doc[name]
    else:
        doc[name] = value
    with pytest.raises(ConfigurationError) as exc:
        table.read(doc)
    message = str(exc.value)
    assert message.startswith(f"{table.title} field {_quoted(table, name)!r}: "), message
    assert name in message


def _docs_row(table, name, kind, doc):
    """A table row as the docs render it: the type as code, and ``|``
    escaped in every cell."""
    cells = (f"`{table.type_text(kind)}`", doc)
    type_text, doc_text = (cell.replace("|", "\\|") for cell in cells)
    return f"| `{name}` | {type_text} | {doc_text} |"


@pytest.mark.parametrize("key", sorted(live_tables()))
def test_every_table_row_is_on_a_docs_page(key):
    pages = "\n".join(
        page.read_text(encoding="utf-8") for page in DOCS_DIR.glob("*.md")
    )
    table = live_tables()[key]
    for name, kind, _required, doc in table.fields:
        row = _docs_row(table, name, kind, doc)
        assert row in pages, f"docs are missing the {key!r} row: {row}"
