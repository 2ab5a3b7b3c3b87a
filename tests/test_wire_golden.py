"""Golden wire documents: every format's bytes, pinned from fixed inputs.

``tests/data/wire_golden/`` holds one sample of each wire document,
written from the fixed inputs below (no live timings).  Each test
checks both directions: the live reader accepts the committed file,
and the live emitter rebuilds it byte for byte from the same inputs.
A failure means a wire format moved: bump its ``*_VERSION`` constant
in ``repro/io/serialization.py`` and regenerate the files with::

    PYTHONPATH=src python tests/test_wire_golden.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "wire_golden"


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
        heartbeats=7,
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


def _line(document) -> str:
    return json.dumps(document) + "\n"


def golden_documents(scratch: Path) -> Dict[str, str]:
    """File name -> the text the live emitters write for it.

    Each text is produced the way the owning layer writes it: one
    ``json.dumps`` line for manifests, records, leases and envelopes,
    :func:`repro.obs.export.write_trace_jsonl` for the trace log and
    :meth:`StudyResult.save` for the result (both through ``scratch``).
    """
    from repro.io import serialization as ser
    from repro.obs.export import write_trace_jsonl

    full, top_k = _records()
    documents = {
        "manifest.json": _line(ser.shard_manifest_to_dict(_manifest())),
        "shard-full.jsonl": _line(ser.shard_record_to_dict(full)),
        "shard-topk.jsonl": _line(ser.shard_record_to_dict(top_k)),
        "lease.json": _line(ser.lease_record_to_dict(_lease())),
    }
    for name, envelope in _envelopes().items():
        documents[name] = _line(envelope.to_dict())
    trace_path = scratch / "trace.jsonl"
    write_trace_jsonl(trace_path, _tracer())
    documents["trace.jsonl"] = trace_path.read_text(encoding="utf-8")
    result_path = scratch / "result.json"
    _study().save(result_path)
    documents["result.json"] = result_path.read_text(encoding="utf-8")
    return documents


def _read_back(name: str, path: Path) -> None:
    """Parse one golden file with its live reader and check the values."""
    from repro.io import serialization as ser
    from repro.io.serialization import batch_results_equal
    from repro.obs.export import read_trace_jsonl
    from repro.study import StudyResult

    text = path.read_text(encoding="utf-8")
    if name == "manifest.json":
        assert ser.shard_manifest_from_dict(json.loads(text)) == _manifest()
    elif name == "lease.json":
        assert ser.lease_record_from_dict(json.loads(text)) == _lease()
    elif name.startswith("shard-"):
        full, top_k = _records()
        want = full if name == "shard-full.jsonl" else top_k
        rebuilt = ser.shard_record_from_dict(json.loads(text))
        assert (rebuilt.index, rebuilt.start, rebuilt.stop) == (
            want.index, want.start, want.stop,
        )
        assert batch_results_equal(rebuilt.batch, want.batch)
        assert sorted(rebuilt.extras) == sorted(want.extras)
        if want.local_indices is None:
            assert rebuilt.local_indices is None
        else:
            assert np.array_equal(rebuilt.local_indices, want.local_indices)
    elif name == "trace.jsonl":
        spans, metrics = read_trace_jsonl(path)
        assert [span.name for span in spans] == ["study.compile", "shard.evaluate"]
        assert metrics["counters"] == {"rows.evaluated": 4}
    elif name == "result.json":
        loaded, study = StudyResult.load(path), _study()
        assert loaded.equals(study)
        assert loaded.telemetry == study.telemetry
    else:
        doc = json.loads(text)
        assert ser.serve_envelope_from_dict(doc) == _envelopes()[name].to_dict()


GOLDEN_NAMES = (
    "manifest.json",
    "shard-full.jsonl",
    "shard-topk.jsonl",
    "lease.json",
    "trace.jsonl",
    "result.json",
    "serve-ack.json",
    "serve-status.json",
    "serve-progress.json",
    "serve-error.json",
    "serve-stats.json",
)


@pytest.fixture(scope="module")
def live_documents(tmp_path_factory):
    return golden_documents(tmp_path_factory.mktemp("golden"))


def test_golden_set_is_complete():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN_NAMES)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_live_reader_accepts_golden_document(name):
    _read_back(name, GOLDEN_DIR / name)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_live_emitter_rebuilds_golden_bytes(name, live_documents):
    committed = (GOLDEN_DIR / name).read_bytes()
    assert live_documents[name].encode("utf-8") == committed, (
        f"{name} changed on the wire; bump its *_VERSION constant and "
        f"regenerate with 'PYTHONPATH=src python tests/test_wire_golden.py'"
    )


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for file_name, content in golden_documents(Path(scratch)).items():
            (GOLDEN_DIR / file_name).write_bytes(content.encode("utf-8"))
    print(f"wrote {len(GOLDEN_NAMES)} golden documents to {GOLDEN_DIR}")
    sys.exit(0)
