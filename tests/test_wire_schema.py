"""Runtime wire-schema guard: shapes of live documents vs the snapshot.

RPL003 watches the *source* of the dict builders in
``repro.io.serialization``; this suite watches what they *emit*.  Both
halves share the committed snapshot at
``tests/data/wire_fingerprints.json``.  A failure here means the wire
format moved: bump the matching ``*_VERSION`` constant in
``repro/io/serialization.py`` (or ``repro/obs``), then regenerate the
snapshot with ``reprolint --update-wire-snapshot`` and commit it.
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

from repro.analysis import wire
from repro.batch import DesignMatrix, evaluate_matrix
from repro.batch.executor import ShardResult
from repro.errors import ConfigurationError
from repro.io import serialization as ser
from repro.study import DesignSpec, StudyResult, StudySpec, run_study

REPO_ROOT = Path(__file__).parent.parent
SNAPSHOT_PATH = REPO_ROOT / "tests" / "data" / "wire_fingerprints.json"

BUMP_HINT = (
    "wire format changed without a snapshot refresh: bump the matching "
    "*_VERSION constant and run 'reprolint --update-wire-snapshot'"
)


@pytest.fixture(scope="module")
def snapshot():
    return wire.load_snapshot(SNAPSHOT_PATH)


@pytest.fixture(scope="module")
def live_shapes():
    return wire.runtime_shapes()


def test_snapshot_exists_and_loads(snapshot):
    assert snapshot["version"] == wire.SNAPSHOT_VERSION
    assert set(snapshot["builders"]) == {b.name for b in wire.BUILDER_SPECS}


def test_runtime_shapes_match_snapshot(snapshot, live_shapes):
    assert set(live_shapes) == set(snapshot["shapes"]), BUMP_HINT
    for document, shape in live_shapes.items():
        assert shape == snapshot["shapes"][document], (
            f"wire document {document!r} changed shape; {BUMP_HINT}"
        )


def test_builder_fingerprints_match_snapshot(snapshot):
    source = Path(ser.__file__).read_text(encoding="utf-8")
    live = wire.ast_snapshot_of_source(source)
    for name, entry in snapshot["builders"].items():
        assert name in live, f"builder {name!r} removed; {BUMP_HINT}"
        assert live[name]["ast_sha256"] == entry["ast_sha256"], (
            f"builder {name!r} edited; {BUMP_HINT}"
        )


def test_snapshot_versions_match_live_constants(snapshot):
    live_versions = {
        "MANIFEST_VERSION": ser.MANIFEST_VERSION,
        "DISTRIB_PROTOCOL_VERSION": ser.DISTRIB_PROTOCOL_VERSION,
        "TRACE_EVENT_VERSION": ser.TRACE_EVENT_VERSION,
        "TELEMETRY_VERSION": ser.TELEMETRY_VERSION,
        "SERVE_PROTOCOL_VERSION": ser.SERVE_PROTOCOL_VERSION,
    }
    for entry in snapshot["builders"].values():
        const = entry["version_const"]
        assert entry["version"] == live_versions[const], (
            f"snapshot records {const}={entry['version']!r} but the live "
            f"constant is {live_versions[const]!r}; {BUMP_HINT}"
        )


def _lease_doc(**overrides):
    doc = {
        "version": ser.DISTRIB_PROTOCOL_VERSION,
        "kind": "lease",
        "spec_digest": "a" * 32,
        "owner": "host-a-12041",
        "shard_index": 3,
        "lease_ttl_s": 30.0,
        "heartbeats": 7,
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
        _lease_doc(heartbeats=-1),
        _lease_doc(heartbeats=...),
    ],
    ids=[
        "non-mapping", "future-version", "wrong-kind", "missing-digest",
        "empty-digest", "non-str-digest", "empty-owner", "negative-index",
        "float-index", "zero-ttl", "bool-ttl", "str-ttl",
        "negative-heartbeats", "missing-heartbeats",
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


def test_lease_record_round_trips():
    record = ser.lease_record_from_dict(_lease_doc())
    assert ser.lease_record_to_dict(record) == _lease_doc()


def test_versioned_documents_carry_their_version(live_shapes):
    # The top-level wire envelopes state their version on the wire;
    # trace events ride inside a versioned trace file instead.
    assert live_shapes["shard_manifest"]["version"] == "int"
    assert live_shapes["telemetry"]["version"] == "int"
    assert live_shapes["lease_record"]["version"] == "int"
    assert live_shapes["lease_record"]["kind"] == "str"
    for kind in ("ack", "status", "progress", "error", "stats"):
        assert live_shapes[f"serve_{kind}"]["version"] == "int"
        assert live_shapes[f"serve_{kind}"]["kind"] == "str"


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
        "invalid-base64-char", "partial-item", "wrong-row-count",
        "short-matrix-column", "short-extras", "long-local-indices",
        "big-endian-tag", "float32-tag", "float-indices",
        "index-outside-shard", "float-list", "name-list",
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
