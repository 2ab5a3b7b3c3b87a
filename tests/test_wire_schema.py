"""Wire readers against damage, and the column codec's round trips.

Every wire document is one ``WireTable`` in ``repro/io/serialization.py``;
its bytes and its table digest are pinned in ``tests/test_wire_golden.py``.
This suite checks what the readers refuse: a damage matrix per lease and
shard record, one generated from every field of every table, bitwise
round trips of every float64 bit pattern, and the docs rows of each
table.
"""

from __future__ import annotations

import base64
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import DesignMatrix, evaluate_matrix
from repro.batch.executor import ShardResult
from repro.errors import ConfigurationError
from repro.io import serialization as ser
from repro.study import DesignSpec, StudyResult, StudySpec, run_study
from test_wire_golden import DOCUMENTS, golden_path, live_tables

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
    path.write_text(json.dumps(dict(_BASE.to_dict(), telemetry=telemetry)))
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
        text = golden_path(document).read_text(encoding="utf-8")
        first, _end = json.JSONDecoder().raw_decode(text)  # a .jsonl's first line
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
    ],
    ids=[
        "invalid-base64-char", "star-in-valid-base64", "partial-item",
        "wrong-row-count",
        "short-matrix-column", "short-extras", "long-local-indices",
        "big-endian-tag", "float32-tag", "float-indices",
        "index-outside-shard", "full-shard-row-mismatch", "float-list", "name-list",
        "code-past-names", "negative-code", "unknown-name",
        "names-not-a-list", "negative-rows", "bool-rows", "float-rows",
        "str-tolerance",
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
_BASE = run_study(
    StudySpec(design=DesignSpec.knob_axes(axes={"compute_tdp_w": (1.0, 5.0, 30.0)}))
)


def _floats(draw, rows):
    bits = draw(st.lists(_float_bits, min_size=rows, max_size=rows))
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _codes(draw, rows, n_names):
    codes = draw(st.lists(st.integers(0, n_names - 1), min_size=rows, max_size=rows))
    return np.asarray(codes, dtype=np.int8)


@st.composite
def _batches(draw):
    """A batch of 0-6 real design rows whose result columns hold
    arbitrary bit patterns."""
    rows = draw(st.lists(st.integers(0, len(_BASE) - 1), max_size=6))
    batch = _BASE.batch.take(rows)
    n = len(rows)
    return replace(
        batch,
        **{name: _floats(draw, n) for name in ser._RESULT_COLUMNS},
        bound_codes=_codes(draw, n, len(ser.BOUND_CODE_TO_NAME)),
        status_codes=_codes(draw, n, len(ser.STATUS_CODE_TO_NAME)),
    )


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_batches_bitwise(a, b):
    for left, right in zip(a.matrix.columns(), b.matrix.columns()):
        _assert_bitwise(left, right)
    for name in ser._RESULT_COLUMNS:
        _assert_bitwise(getattr(a, name), getattr(b, name))
    _assert_bitwise(a.bound_codes, b.bound_codes)
    _assert_bitwise(a.status_codes, b.status_codes)


@settings(max_examples=60, deadline=None)
@given(batch=_batches(), data=st.data())
def test_study_result_round_trips_every_bit_pattern(batch, data):
    n = len(batch)
    result = StudyResult(
        spec=_BASE.spec,
        axes=_BASE.axes,
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
# Table-driven checks: every field of every table
# ---------------------------------------------------------------------------
DOCS_DIR = REPO_ROOT / "docs"


def _golden(name):
    return json.loads(golden_path(name).read_text(encoding="utf-8"))


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
