"""End-to-end and unit tests for the serving layer (repro.serve).

The E2E tests boot a real server (:class:`ServerHandle`, port 0) and
talk to it over actual sockets with :class:`ServeClient` — the same
path CI's smoke job exercises.  The scheduler/state unit tests pin
the coalescing and backpressure semantics without HTTP in the way,
using a monkeypatched ``run_study`` where execution order must be
deterministic.
"""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path
from time import perf_counter, sleep

import pytest

import repro.serve.scheduler as scheduler_mod
from repro.errors import (
    ConfigurationError,
    ServiceUnavailableError,
    StudyQueueFullError,
    UnknownStudyError,
)
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerHandle,
    StudyScheduler,
    StudyStore,
    envelope_for_exception,
    parse_analyze_request,
    study_id_for_digest,
)
from repro.serve.protocol import parse_study_request
from repro.serve.state import StudyRecord
from repro.study import DesignSpec, StudySpec, run_study
from repro.study.result import StudyResult
from test_wire_golden import golden_path, live_tables
from test_wire_schema import SPEC_SITES, _damage_cases, _quoted, spec_site


def _spec(n_rows: int = 64, start: float = 0.01) -> StudySpec:
    values = [start + 0.002 * i for i in range(n_rows)]
    return StudySpec(
        design=DesignSpec.knob_axes(axes={"compute_runtime_s": values})
    )


# ---------------------------------------------------------------------
# E2E over real sockets
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    handle = ServerHandle(
        ServeConfig(chunk_rows=8, max_queue=8, progress_poll_s=0.05)
    ).start()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestHealthAndStats:
    def test_health_reports_ready(self, client):
        doc = client.health()
        assert doc["status"] == "ok"
        assert doc["protocol_version"] == 1

    def test_stats_is_a_pinned_envelope(self, client):
        doc = client.stats()
        assert doc["kind"] == "stats"
        assert doc["version"] == 1
        assert isinstance(doc["counters"], dict)
        assert isinstance(doc["gauges"], dict)


class TestAnalyzeEndpoint:
    def test_matches_in_process_report(self, client):
        from repro.skyline.tool import Skyline

        request = {"uav": "dji-spark", "runtime_s": 0.1}
        served = client.analyze(request)
        local = (
            Skyline.from_preset("dji-spark")
            .evaluate_throughput(10.0, label="runtime=0.1s")
            .to_dict()
        )
        assert served == local

    def test_malformed_body_names_the_field(self, client):
        with pytest.raises(ConfigurationError, match="'bogus'"):
            client.analyze({"uav": "dji-spark", "bogus": 1})
        with pytest.raises(ConfigurationError, match="'uav'"):
            client.analyze({"runtime_s": 0.1})
        with pytest.raises(ConfigurationError, match="'algorithm'"):
            client.analyze({"uav": "dji-spark"})  # neither knob given


class TestStudyLifecycle:
    def test_submit_run_result_roundtrip(self, client):
        spec = _spec(48, start=0.02)
        ack = client.submit(spec.to_dict())
        assert ack["kind"] == "ack"
        assert ack["coalesced"] is False
        assert ack["study_id"] == study_id_for_digest(
            spec.content_digest()
        )
        text = client.wait_result(ack["study_id"], timeout_s=60)
        served = StudyResult.from_json(text)
        assert served.equals(run_study(spec))

    def test_status_embeds_result_when_done(self, client):
        spec = _spec(16, start=0.03)
        ack = client.submit(spec.to_dict())
        client.wait_result(ack["study_id"], timeout_s=60)
        status = client.status(ack["study_id"])
        assert status["state"] == "done"
        assert status["result_ready"] is True
        assert status["result"] is not None
        assert StudyResult.from_dict(status["result"]).equals(
            run_study(spec)
        )

    def test_unknown_study_id_is_404(self, client):
        with pytest.raises(UnknownStudyError, match="study-nope"):
            client.status("study-nope")

    def test_unknown_path_and_method_are_enveloped(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("GET", "/v2/nothing")
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 404
            assert doc["kind"] == "error"
            conn.request("DELETE", "/health")
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 405
            assert "GET" in doc["message"]
        finally:
            conn.close()


class TestCoalescing:
    def test_eight_clients_one_execution_identical_bytes(self, server):
        spec_doc = _spec(64, start=0.04).to_dict()
        before = server.server.tracer.counters_snapshot()
        results: list = [None] * 8
        errors: list = []

        def worker(i: int) -> None:
            try:
                with ServeClient(port=server.port) as c:
                    ack = c.submit(spec_doc)
                    results[i] = c.wait_result(
                        ack["study_id"], timeout_s=60
                    )
            except Exception as exc:  # surfaced via the errors list
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(text is not None for text in results)
        # Bitwise-identical fan-out: one JSON text, eight receivers.
        assert len(set(results)) == 1
        after = server.server.tracer.counters_snapshot()
        executed = after.get("serve.studies.executed", 0) - before.get(
            "serve.studies.executed", 0
        )
        coalesced = after.get("serve.studies.coalesced", 0) - before.get(
            "serve.studies.coalesced", 0
        )
        assert executed == 1
        assert coalesced == 7

    def test_resubmitting_a_done_study_coalesces(self, client):
        spec_doc = _spec(16, start=0.05).to_dict()
        first = client.submit(spec_doc)
        client.wait_result(first["study_id"], timeout_s=60)
        again = client.submit(spec_doc)
        assert again["coalesced"] is True
        assert again["state"] == "done"
        assert again["study_id"] == first["study_id"]


class TestProgressStream:
    def test_stream_is_monotone_and_matches_checkpoint(self, tmp_path):
        handle = ServerHandle(
            ServeConfig(
                chunk_rows=8,
                progress_poll_s=0.05,
                checkpoint_root=str(tmp_path),
            )
        ).start()
        try:
            spec = _spec(64, start=0.06)
            with ServeClient(port=handle.port) as c:
                ack = c.submit(spec.to_dict())
                events = list(c.progress_events(ack["study_id"]))
                c.wait_result(ack["study_id"], timeout_s=60)
            assert events, "no progress events streamed"
            assert all(e["kind"] == "progress" for e in events)
            assert events[-1]["final"] is True
            assert events[-1]["state"] == "done"
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs)
            rows = [
                e["progress"]["rows_done"]
                for e in events
                if e["progress"] is not None
            ]
            assert rows == sorted(rows)
            assert rows[-1] == 64
            # The stream's story must agree with the PR-4 shard
            # checkpoint on disk: same total rows, and shard count
            # consistent with the configured chunking.
            ckpt_dir = tmp_path / ack["study_id"]
            manifest = json.loads(
                (ckpt_dir / "manifest.json").read_text()
            )
            assert manifest["total_rows"] == 64
            assert manifest["chunk_rows"] == 8
            assert manifest["n_shards"] == 8
            shard_files = sorted(ckpt_dir.glob("shard-*.jsonl"))
            assert len(shard_files) == manifest["n_shards"]
        finally:
            handle.stop()


class TestBackpressure:
    def test_queue_overflow_is_429_with_retry_after(self, monkeypatch):
        # Deterministic saturation: the worker blocks on a gate, so
        # capacity is exactly (1 running + 1 queued) by construction.
        gate = threading.Event()

        class _StubResult:
            def to_json(self) -> str:
                return "{}"

        def gated_run_study(spec, **kwargs):
            gate.wait(30)
            return _StubResult()

        monkeypatch.setattr(scheduler_mod, "run_study", gated_run_study)
        handle = ServerHandle(
            ServeConfig(max_concurrent=1, max_queue=1)
        ).start()
        try:
            with ServeClient(port=handle.port) as c:
                first = c.submit(_spec(8, start=0.07).to_dict())
                deadline = perf_counter() + 10
                while (
                    c.status(first["study_id"])["state"] != "running"
                ):
                    assert perf_counter() < deadline
                    sleep(0.01)
                c.submit(_spec(8, start=0.08).to_dict())  # fills queue
                with pytest.raises(StudyQueueFullError) as excinfo:
                    c.submit(_spec(8, start=0.09).to_dict())
                assert excinfo.value.retry_after_s >= 1.0
            # The raw response carries the Retry-After header.
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            try:
                conn.request(
                    "POST",
                    "/v1/studies",
                    body=json.dumps(_spec(8, start=0.11).to_dict()),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                doc = json.loads(response.read())
                assert response.status == 429
                assert response.getheader("Retry-After") is not None
                assert doc["error"] == "StudyQueueFullError"
                assert doc["retry_after_s"] >= 1.0
            finally:
                conn.close()
            # A rejected spec was never registered: resubmitting after
            # the queue drains starts fresh instead of 404ing.
            counters = handle.server.tracer.counters_snapshot()
            assert counters["serve.studies.rejected"] == 2
        finally:
            gate.set()
            handle.stop()


# ---------------------------------------------------------------------
# Scheduler / state units (no HTTP)
# ---------------------------------------------------------------------
class TestSchedulerUnits:
    def test_submit_before_start_is_unavailable(self):
        scheduler = StudyScheduler()
        with pytest.raises(ServiceUnavailableError):
            scheduler.submit(_spec(4))

    def test_submit_after_shutdown_is_unavailable(self):
        scheduler = StudyScheduler(chunk_rows=8)
        scheduler.start()
        scheduler.shutdown()
        with pytest.raises(ServiceUnavailableError):
            scheduler.submit(_spec(4))

    def test_rejected_spec_is_not_registered(self, monkeypatch):
        gate = threading.Event()

        class _StubResult:
            def to_json(self) -> str:
                return "{}"

        def gated_run_study(spec, **kwargs):
            gate.wait(30)
            return _StubResult()

        monkeypatch.setattr(scheduler_mod, "run_study", gated_run_study)
        scheduler = StudyScheduler(max_concurrent=1, max_queue=1)
        scheduler.start()
        try:
            running, _ = scheduler.submit(_spec(4, start=0.2))
            deadline = perf_counter() + 10
            while running.state != "running":
                assert perf_counter() < deadline
                sleep(0.01)
            queued, _ = scheduler.submit(_spec(4, start=0.3))
            rejected_spec = _spec(4, start=0.4)
            with pytest.raises(StudyQueueFullError):
                scheduler.submit(rejected_spec)
            assert len(scheduler.store) == 2  # the reject left no ghost
            # Coalescing still works against the queued record, and
            # reports its queue position.
            dup, coalesced = scheduler.submit(_spec(4, start=0.3))
            assert coalesced is True
            assert dup is queued
            assert scheduler.queue_position(queued) == 0
        finally:
            gate.set()
            assert running.wait_done(timeout_s=10)
            assert queued.wait_done(timeout_s=10)
            scheduler.shutdown()
        assert running.state == "done"
        assert queued.state == "done"

    def test_shutdown_fails_still_queued_studies(self, monkeypatch):
        gate = threading.Event()

        class _StubResult:
            def to_json(self) -> str:
                return "{}"

        def gated_run_study(spec, **kwargs):
            gate.wait(30)
            return _StubResult()

        monkeypatch.setattr(scheduler_mod, "run_study", gated_run_study)
        scheduler = StudyScheduler(max_concurrent=1, max_queue=4)
        scheduler.start()
        running, _ = scheduler.submit(_spec(4, start=0.5))
        deadline = perf_counter() + 10
        while running.state != "running":
            assert perf_counter() < deadline
            sleep(0.01)
        queued, _ = scheduler.submit(_spec(4, start=0.6))
        gate.set()
        scheduler.shutdown()
        assert running.state == "done"
        # The queued study was drained by shutdown, not left hanging.
        assert queued.state in ("done", "failed")

    def test_failed_study_carries_the_error(self, monkeypatch):
        def exploding_run_study(spec, **kwargs):
            raise ConfigurationError("field 'x': bad")

        monkeypatch.setattr(
            scheduler_mod, "run_study", exploding_run_study
        )
        scheduler = StudyScheduler(max_concurrent=1)
        scheduler.start()
        try:
            record, _ = scheduler.submit(_spec(4, start=0.7))
            assert record.wait_done(timeout_s=10)
            assert record.state == "failed"
            assert "field 'x'" in (record.error or "")
            counters = scheduler.tracer.counters_snapshot()
            assert counters["serve.studies.failed"] == 1
        finally:
            scheduler.shutdown()

    @pytest.mark.parametrize("root", ["checkpoint_root", "distrib_root"])
    def test_restart_with_other_workers_resumes_the_study(
        self, tmp_path, root
    ):
        # The first server derives 4-row shards for 16 rows and one
        # worker; a restart with --workers 2 would derive 2-row shards.
        # It must adopt the chunking on disk instead of failing.
        spec = _spec(16, start=0.9)
        for study_workers in (None, 2):
            scheduler = StudyScheduler(
                study_workers=study_workers,
                backend="thread",
                **{root: tmp_path},
            )
            scheduler.start()
            try:
                record, _ = scheduler.submit(spec)
                assert record.wait_done(timeout_s=60)
            finally:
                scheduler.shutdown()
            assert record.state == "done", record.error
        work_dir = tmp_path / record.study_id
        manifest = json.loads((work_dir / "manifest.json").read_text())
        assert manifest["chunk_rows"] == 4
        served = StudyResult.from_json(record.result_json())
        assert served.equals(run_study(spec))

    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(ConfigurationError, match="max_concurrent"):
            StudyScheduler(max_concurrent=0)
        with pytest.raises(ConfigurationError, match="max_queue"):
            StudyScheduler(max_queue=0)
        with pytest.raises(ConfigurationError, match="study_workers"):
            StudyScheduler(study_workers=0)


class TestStateUnits:
    def test_record_update_is_monotone(self):
        record = StudyRecord(_spec(4), "ab" * 32)
        record.update_progress({"rows_done": 32, "rows_total": 64})
        record.update_progress({"rows_done": 16, "rows_total": 64})
        assert record.progress is not None
        assert record.progress["rows_done"] == 32

    def test_wait_update_returns_immediately_when_done(self):
        record = StudyRecord(_spec(4), "cd" * 32)
        record.mark_done('{"x": 1}')
        started = perf_counter()
        seq, state, _ = record.wait_update(last_seq=99, timeout_s=5.0)
        assert perf_counter() - started < 1.0
        assert state == "done"

    def test_store_register_is_idempotent(self):
        store = StudyStore()
        spec = _spec(4)
        first, created = store.register(spec)
        second, again = store.register(_spec(4))  # equal content
        assert created is True
        assert again is False
        assert first is second
        assert len(store) == 1
        assert store.get(first.study_id) is first

    def test_store_discard_forgets(self):
        store = StudyStore()
        record, _ = store.register(_spec(4))
        store.discard(record.study_id)
        with pytest.raises(UnknownStudyError):
            store.get(record.study_id)


class TestProtocolUnits:
    def test_taxonomy_maps_to_http_codes(self):
        cases = [
            (StudyQueueFullError("full", retry_after_s=2.5), 429),
            (UnknownStudyError("nope"), 404),
            (ServiceUnavailableError("down"), 503),
            (ConfigurationError("field 'x': bad"), 400),
        ]
        for exc, expected_status in cases:
            envelope = envelope_for_exception(exc)
            assert envelope.status == expected_status
            assert envelope.error == type(exc).__name__
        assert envelope_for_exception(
            StudyQueueFullError("full", retry_after_s=2.5)
        ).retry_after_s == 2.5

    def test_internal_errors_hide_details(self):
        envelope = envelope_for_exception(ZeroDivisionError("secret"))
        assert envelope.status == 500
        assert "secret" not in envelope.message

    def test_parse_analyze_rejects_both_and_neither(self):
        with pytest.raises(ConfigurationError, match="'algorithm'"):
            parse_analyze_request(
                {"uav": "dji-spark", "algorithm": "dronet",
                 "runtime_s": 0.1}
            )
        with pytest.raises(ConfigurationError, match="'runtime_s'"):
            parse_analyze_request(
                {"uav": "dji-spark", "runtime_s": -1.0}
            )
        with pytest.raises(ConfigurationError, match="'<root>'"):
            parse_analyze_request([1, 2])

    def test_envelope_version_is_enforced_client_side(self):
        from repro.io.serialization import serve_envelope_from_dict

        good = {
            "version": 1, "kind": "ack", "study_id": "s",
            "state": "queued", "coalesced": False, "queue_depth": 0,
        }
        assert serve_envelope_from_dict(dict(good)) == good
        with pytest.raises(ConfigurationError, match="version"):
            serve_envelope_from_dict({**good, "version": 2})
        with pytest.raises(ConfigurationError, match="kind"):
            serve_envelope_from_dict({**good, "kind": "mystery"})
        with pytest.raises(ConfigurationError, match="state"):
            serve_envelope_from_dict({**good, "state": "paused"})


    # Regression: an envelope whose kind is a list raised "TypeError:
    # unhashable type" past the client's (ValueError, ReproError) guard.
    def test_list_kind_envelope_is_a_clean_error(self):
        from repro.io.serialization import serve_envelope_from_dict

        doc = {"version": 1, "kind": ["error"], "status": 400}
        with pytest.raises(ConfigurationError, match="'kind'"):
            serve_envelope_from_dict(doc)
        with pytest.raises(ServiceUnavailableError, match="unparseable"):
            ServeClient()._raise_for_envelope(400, json.dumps(doc).encode())

    # Regression: "soon" passed validation, then float("soon") raised
    # ValueError outside the client's guard.
    def test_non_numeric_retry_after_is_a_clean_error(self):
        doc = {
            "version": 1, "kind": "error", "status": 429,
            "error": "StudyQueueFullError", "message": "study queue is full",
            "retry_after_s": "soon",
        }
        with pytest.raises(ServiceUnavailableError, match="unparseable"):
            ServeClient()._raise_for_envelope(429, json.dumps(doc).encode())

    # Regression: these bodies gave a 500 (TypeError), a 202 for a study
    # that then failed, or a silent descending ranking of "false".
    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"metrics": 5}, "'metrics'"),
            ({"rank": {"top_k": "3"}}, "'rank.top_k'"),
            ({"rank": {"top_k": 2.5}}, "'rank.top_k'"),
            ({"rank": {"descending": "false"}}, "'rank.descending'"),
        ],
        ids=["metrics-number", "top-k-str", "top-k-float", "descending-str"],
    )
    def test_malformed_study_body_is_a_400_naming_the_field(self, edit, field):
        body = dict(_spec(4).to_dict(), **edit)
        with pytest.raises(ConfigurationError, match=field) as exc:
            parse_study_request(body)
        envelope = envelope_for_exception(exc.value)
        assert envelope.status == 400
        assert field in envelope.message


def _spec_body(document, edit):
    """The golden spec ``document`` after ``edit`` mutates it in place."""
    body = json.loads(golden_path(document).read_text(encoding="utf-8"))
    edit(body)
    return body


def _set(path, value):
    """An edit that sets the key at the end of ``path``."""
    def edit(body):
        spec_site(body, path[:-1])[path[-1]] = value
    return edit


class TestStudyRequestBoundary:
    """Every malformed ``POST /v1/studies`` body is a 400 that names its
    field, refused before the study is acknowledged."""

    @pytest.mark.parametrize(
        "key, name, value",
        [case for case in _damage_cases() if case.values[0] in SPEC_SITES],
    )
    def test_every_spec_table_damage_is_a_400_naming_the_field(
        self, key, name, value
    ):
        document, path = SPEC_SITES[key]

        def damage(body):
            target = spec_site(body, path)
            if value is ...:
                del target[name]
            else:
                target[name] = value

        with pytest.raises(ConfigurationError) as exc:
            parse_study_request(_spec_body(document, damage))
        envelope = envelope_for_exception(exc.value)
        assert envelope.status == 400
        prefix = f"filters[{path[1]}]." if key == "filter_clause" else None
        quoted = _quoted(live_tables()[key], name, prefix)
        assert repr(quoted) in envelope.message and name in envelope.message

    # Regression: each body below was a 500, was read as something else,
    # or was acknowledged with a 202 and then failed the study.
    @pytest.mark.parametrize(
        "document, edit, field",
        [
            ("spec-fleet.json", _set(("design", "f_compute_hz"), 100.0),
             "'design.f_compute_hz'"),
            ("spec-fleet.json", _set(("design", "labels"), 5), "'design.labels'"),
            ("spec-fleet.json", _set(("design", "uavs"), [5]), "'design.uavs'"),
            ("spec-fleet.json", _set(("design", "uavs", 0, "compute_redundancy"), "x"),
             "'compute_redundancy'"),
            ("spec-knobs.json", _set(("design", "axes", "compute_tdp_w"), "123"),
             r"'design.axes\[compute_tdp_w\]'"),
            ("spec-knobs.json", _set(("scenarios", "extra_payload_g"), "12"),
             "'scenarios.extra_payload_g'"),
            ("spec-presets.json", _set(("scenarios", "compute_redundancy"), [1.7]),
             "'scenarios.compute_redundancy'"),
            ("spec-presets.json", _set(("scenarios", "compute_redundancy"), [True]),
             "'scenarios.compute_redundancy'"),
            ("spec-presets.json", _set(("scenarios", "compute_redundancy"), "12"),
             "'scenarios.compute_redundancy'"),
            ("spec-presets.json", _set(("design", "uav_names"), {"dji-spark": 1}),
             "'design.uav_names'"),
            ("spec-fleet.json", _set(("design", "labels"), [5, 6]), "'design.labels'"),
            ("spec-knobs.json", _set(("tolerance",), True), "'tolerance'"),
            ("spec-knobs.json", _set(("design", "base", "compute_tdp_w"), True),
             "'design.base.compute_tdp_w'"),
            ("spec-knobs.json", _set(("design", "grid"), [1]),
             "'design': unknown key.*'grid'"),
            ("spec-knobs.json", _set(("design", "uav_names"), ["dji-spark"]),
             "'design.uav_names': not a field of a knobs design"),
            ("spec-knobs.json",
             _set(("filters",), [{"column": "bound", "op": "==", "value": "banana"}]),
             r"'filters\[0\].value': unknown bound name 'banana'"),
            ("spec-knobs.json", _set(("scenarios", "compute_redundancy"), [1, 2]),
             "'scenarios.compute_redundancy'.*knobs design"),
            ("spec-presets.json", _set(("design", "uav_names"), ["nope"]),
             "'design.uav_names': unknown UAV preset 'nope'"),
            ("spec-presets.json", _set(("design", "compute_names"), ["nope"]),
             "'design.compute_names': unknown compute platform 'nope'"),
            ("spec-presets.json", _set(("design", "algorithm_names"), ["nope"]),
             "'design.algorithm_names': unknown autonomy algorithm 'nope'"),
            ("spec-knobs.json", _set(("design", "axes", "sensor_range_m"), [5.0, 0.0]),
             r"'design.axes\[sensor_range_m\]'"),
            ("spec-knobs.json", _set(("design", "axes", "compute_runtime_s"), [-0.01]),
             r"'design.axes\[compute_runtime_s\]'"),
            ("spec-knobs.json", _set(("design", "axes", "compute_runtime_s"), [1e-309]),
             r"'design.axes\[compute_runtime_s\]': .*finite reciprocal"),
            ("spec-knobs.json", _set(("design", "axes", "payload_weight_g"), [-1.0]),
             r"'design.axes\[payload_weight_g\]'"),
            ("spec-knobs.json", _set(("design", "base", "rotor_count"), 2),
             "'design.base': rotor_count must be an integer >= 3"),
        ],
        ids=[
            "fleet-scalar-rates", "fleet-labels-number", "fleet-uav-number",
            "fleet-redundancy-str", "knob-axis-str", "payload-axis-str",
            "redundancy-fraction", "redundancy-bool", "redundancy-str",
            "names-mapping", "fleet-label-numbers", "tolerance-bool", "knob-base-bool",
            "design-unknown-key", "design-foreign-field", "unknown-bound-name",
            "redundancy-on-knobs", "unknown-preset", "unknown-platform",
            "unknown-algorithm", "knob-axis-zero", "knob-axis-negative",
            "knob-runtime-overflows", "payload-axis-negative", "knob-base-two-rotors",
        ],
    )
    def test_spec_defect_is_a_400_naming_the_field(self, document, edit, field):
        with pytest.raises(ConfigurationError, match=field) as exc:
            parse_study_request(_spec_body(document, edit))
        assert envelope_for_exception(exc.value).status == 400

    @staticmethod
    def _post(server, body):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("POST", "/v1/studies", body=json.dumps(body))
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_unknown_preset_is_refused_before_the_ack(self, server):
        body = _spec_body(
            "spec-presets.json", _set(("design", "uav_names"), ["nope"])
        )
        status, doc = self._post(server, body)
        assert status == 400
        assert doc["kind"] == "error"
        assert "'design.uav_names'" in doc["message"]

    def test_negative_knob_value_is_refused_before_the_ack(self, server):
        # Refused at the request boundary, not inside the study after
        # an ack: the store registers no record for it.
        body = {"design": {"kind": "knobs", "axes": {"compute_tdp_w": [-1.0, 5.0]}}}
        store = server.server.scheduler.store
        records = len(store)
        status, doc = self._post(server, body)
        assert status == 400
        assert doc["kind"] == "error"
        assert "'design.axes[compute_tdp_w]'" in doc["message"]
        assert len(store) == records


# ---------------------------------------------------------------------
# CLI flag validation + the CI smoke path
# ---------------------------------------------------------------------
class TestServeCliFlags:
    def _run(self, *argv: str):
        from repro.skyline.cli import main

        return main(["serve", *argv])

    def test_bad_workers_names_the_flag(self, capsys):
        assert self._run("--workers", "0") == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_max_queue_names_the_flag(self, capsys):
        assert self._run("--max-queue", "0") == 2
        assert "--max-queue" in capsys.readouterr().err

    def test_bad_max_concurrent_names_the_flag(self, capsys):
        assert self._run("--max-concurrent", "-3") == 2
        assert "--max-concurrent" in capsys.readouterr().err

    def test_bad_port_names_the_flag(self, capsys):
        assert self._run("--port", "70000") == 2
        assert "--port" in capsys.readouterr().err

    def test_backend_requires_workers(self, capsys):
        assert self._run("--backend", "thread") == 2
        assert "--backend" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        from repro.skyline.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--bogus-flag"])
        assert excinfo.value.code == 2
        assert "--bogus-flag" in capsys.readouterr().err


class TestClientSmoke:
    def test_smoke_main_passes_against_live_server(
        self, server, tmp_path, capsys
    ):
        from repro.serve.client import main as smoke_main

        artifact = tmp_path / "serve-smoke.json"
        rc = smoke_main(
            [
                "--port", str(server.port),
                "--rows", "32",
                "--artifact", str(artifact),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out
        doc = json.loads(artifact.read_text())
        assert doc["events"]
        assert doc["stats"]["kind"] == "stats"
