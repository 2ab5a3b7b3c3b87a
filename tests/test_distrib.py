"""repro.distrib: leases, the distributed executor, workers, CLI.

The load-bearing property throughout: a distributed study's merged
result is **bitwise identical** to the single-host run — regardless of
worker count, chunking, join order, crashes, or lease-layer damage —
because shard records (not leases) are the source of truth and shard
evaluation is deterministic.  Leases are tested separately as the
efficiency layer they are: every failure path must degrade to
"claimable", never to a wedged shard or a crash.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import replace

import pytest

from repro.batch import top_k_sharded
from repro.batch.executor import CheckpointStore, Shard
from repro.distrib import (
    DEFAULT_LEASE_TTL_S,
    DistributedExecutor,
    LeaseRecord,
    LeaseStore,
    default_worker_id,
    open_study,
    publish_spec,
    run_worker,
)
from repro.distrib.executor import INJECT_DELAY_ENV, _compute
from repro.errors import ConfigurationError, StaleLeaseError
from repro.io.serialization import (
    DISTRIB_PROTOCOL_VERSION,
    batch_results_equal,
    lease_record_from_dict,
    lease_record_to_dict,
)
from repro.obs import Tracer
from repro.skyline.cli import main as cli_main
from repro.study import DesignSpec, StudySpec, run_study

DIGEST = "a" * 32


def _spec(n_rows: int = 16) -> StudySpec:
    values = [1.0 + 0.25 * i for i in range(n_rows)]
    return StudySpec(
        design=DesignSpec.knob_axes(axes={"compute_tdp_w": values})
    )


def _store(tmp_path, owner="w1", ttl=30.0, digest=DIGEST, tracer=None):
    return LeaseStore(
        tmp_path, digest, owner, lease_ttl_s=ttl, tracer=tracer
    )


def _lease_files(store: LeaseStore, index: int):
    """Every generation file of a shard's lease, sorted by name."""
    return sorted(store.directory.glob(f"shard-{index:06d}.*.lease.json"))


def _expire(store: LeaseStore, index: int) -> None:
    """Backdate a lease's mtime past its ttl (a silent worker)."""
    for path in _lease_files(store, index):
        past = path.stat().st_mtime - store.lease_ttl_s - 60.0
        os.utime(path, (past, past))


def _initiate(work_dir, spec: StudySpec, chunk_rows: int, **kwargs):
    """One initiator run over ``work_dir``; returns its StudyResult."""
    with DistributedExecutor(work_dir, worker_id="init", **kwargs) as ex:
        return run_study(spec, executor=ex, chunk_rows=chunk_rows)


# ---------------------------------------------------------------------------
# lease record wire format
# ---------------------------------------------------------------------------
class TestLeaseRecordWire:
    def test_round_trip(self):
        record = LeaseRecord(
            spec_digest=DIGEST,
            shard_index=3,
            owner="host-a-12041",
            lease_ttl_s=30.0,
        )
        data = lease_record_to_dict(record)
        assert data["version"] == DISTRIB_PROTOCOL_VERSION
        assert data["kind"] == "lease"
        assert lease_record_from_dict(data) == record

    def test_round_trips_through_json(self):
        record = LeaseRecord(DIGEST, 0, "w", 2.5)
        text = json.dumps(lease_record_to_dict(record))
        assert lease_record_from_dict(json.loads(text)) == record


# ---------------------------------------------------------------------------
# the lease store
# ---------------------------------------------------------------------------
class TestLeaseClaim:
    def test_claim_release_lifecycle(self, tmp_path):
        store = _store(tmp_path)
        record = store.try_claim(4)
        assert record is not None
        assert record.owner == "w1" and record.shard_index == 4
        assert _lease_files(store, 4) == [store.lease_path(4, 1)]
        assert store.holder(4) == record
        assert store.release(4) is True
        assert _lease_files(store, 4) == []
        assert store.release(4) is False  # idempotent

    def test_live_lease_blocks_other_workers(self, tmp_path):
        _store(tmp_path, owner="w1").try_claim(0)
        other = _store(tmp_path, owner="w2")
        assert other.try_claim(0) is None
        assert other.holder(0).owner == "w1"

    def test_expired_lease_is_stolen_with_a_warning(self, tmp_path):
        dead = _store(tmp_path, owner="dead", ttl=5.0)
        dead.try_claim(2)
        _expire(dead, 2)
        tracer = Tracer()
        thief = _store(tmp_path, owner="thief", tracer=tracer)
        with pytest.warns(RuntimeWarning, match="'dead'"):
            record = thief.try_claim(2)
        assert record is not None and record.owner == "thief"
        counters = tracer.counters_snapshot()
        assert counters["distrib.leases.stolen"] == 1
        assert counters["distrib.leases.claimed"] == 1
        # The steal is generation 2, and it deleted generation 1.
        assert _lease_files(thief, 2) == [thief.lease_path(2, 2)]

    def test_steal_deletes_every_older_generation(self, tmp_path):
        # A claimant died between creating generation 2 and deleting
        # generation 1; the next steal supersedes both.
        dead = _store(tmp_path, owner="dead", ttl=1.0)
        dead.try_claim(0)
        dead.lease_path(0, 2).write_bytes(dead.lease_path(0, 1).read_bytes())
        _expire(dead, 0)
        thief = _store(tmp_path, owner="thief")
        with pytest.warns(RuntimeWarning, match="'dead'"):
            assert thief.try_claim(0) is not None
        assert _lease_files(thief, 0) == [thief.lease_path(0, 3)]
        thief.heartbeat(0)

    def test_steal_honors_the_holders_ttl_not_the_stealers(self, tmp_path):
        # Holder declared a long ttl; an impatient stealer with a short
        # ttl must still respect it while the holder is live.
        _store(tmp_path, owner="w1", ttl=3600.0).try_claim(1)
        thief = _store(tmp_path, owner="w2", ttl=0.001)
        assert thief.try_claim(1) is None

    def test_concurrent_claims_one_winner(self, tmp_path):
        n_threads, winners = 8, []
        barrier = threading.Barrier(n_threads)

        def contend(i: int) -> None:
            store = _store(tmp_path, owner=f"w{i}")
            barrier.wait()
            if store.try_claim(0) is not None:
                winners.append(i)

        threads = [
            threading.Thread(target=contend, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1

    def test_concurrent_steals_one_winner(self, tmp_path):
        dead = _store(tmp_path, owner="dead", ttl=1.0)
        dead.try_claim(0)
        _expire(dead, 0)
        n_threads, winners = 8, []
        barrier = threading.Barrier(n_threads)

        def contend(i: int) -> None:
            store = _store(tmp_path, owner=f"w{i}")
            barrier.wait()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if store.try_claim(0) is not None:
                    winners.append(i)

        threads = [
            threading.Thread(target=contend, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every stealer creates generation 2 or, having seen it, stops:
        # exactly one wins, and its lease file is the only one left.
        assert len(winners) == 1
        observer = _store(tmp_path, owner="observer")
        holder = observer.holder(0)
        assert holder is not None
        assert holder.owner == f"w{winners[0]}"
        assert _lease_files(observer, 0) == [observer.lease_path(0, 2)]

    @pytest.mark.parametrize(
        "b_slot, c_slot", [(0, 0), (0, 1), (1, 1)], ids=["b0-c0", "b0-c1", "b1-c1"]
    )
    def test_interleaved_steal_and_claim_one_winner(
        self, tmp_path, monkeypatch, b_slot, c_slot
    ):
        # Stealer A has inspected the expired lease.  B's steal and then
        # C's claim each run in full at a slot of A's claim: slot n is
        # just before A's (n+1)-th link or rename of a lease file after
        # its inspection, or after A returns when A makes no more.  So
        # b0-c0 runs both before A's commit, and b0-c1 lets C claim
        # after A's first syscall on a lease file.
        dead = _store(tmp_path, owner="dead", ttl=1.0)
        dead.try_claim(0)
        _expire(dead, 0)
        stores = {name: _store(tmp_path, owner=name) for name in "abc"}
        records = {}
        moves = sorted([(b_slot, "b"), (c_slot, "c")])
        state = {"armed": False, "slot": 0, "busy": False}

        def run_moves_at(slot: int) -> None:
            state["busy"] = True
            while moves and moves[0][0] <= slot:
                name = moves.pop(0)[1]
                records[name] = stores[name].try_claim(0)
            state["busy"] = False

        real_inspect = LeaseStore._inspect

        def inspect(store, *args, **kwargs):
            found = real_inspect(store, *args, **kwargs)
            state["armed"] |= store is stores["a"] and not state["busy"]
            return found

        def interleaved(syscall):
            def call(src, dst, *args, **kwargs):
                if state["armed"] and not state["busy"]:
                    if ".clock-" not in str(dst):
                        run_moves_at(state["slot"])
                        state["slot"] += 1
                return syscall(src, dst, *args, **kwargs)

            return call

        monkeypatch.setattr(LeaseStore, "_inspect", inspect)
        monkeypatch.setattr(os, "link", interleaved(os.link))
        monkeypatch.setattr(os, "replace", interleaved(os.replace))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records["a"] = stores["a"].try_claim(0)
            run_moves_at(max(b_slot, c_slot))
        monkeypatch.undo()
        winners = [name for name, got in records.items() if got is not None]
        assert sorted(records) == ["a", "b", "c"]
        assert len(winners) == 1, records
        stores[winners[0]].heartbeat(0)
        assert stores["a"].holder(0).owner == winners[0]

    def test_stale_nan_ttl_lease_is_claimed_not_wedged(self, tmp_path):
        # json.loads accepts the NaN token and ``age > nan`` is never
        # true, so a NaN-TTL lease read as valid stayed "held" forever.
        # The reader's positive TTL test makes it corrupt instead.
        tracer = Tracer()
        store = _store(tmp_path, tracer=tracer)
        path = store.lease_path(0, 1)
        path.write_text(
            json.dumps(
                {
                    "version": DISTRIB_PROTOCOL_VERSION,
                    "kind": "lease",
                    "spec_digest": DIGEST,
                    "shard_index": 0,
                    "owner": "ghost",
                    "lease_ttl_s": float("nan"),
                }
            ),
            encoding="utf-8",
        )
        hour_ago = path.stat().st_mtime - 3600.0
        os.utime(path, (hour_ago, hour_ago))
        with pytest.warns(RuntimeWarning, match="corrupt or torn"):
            record = store.try_claim(0)
        assert record is not None and record.owner == "w1"
        assert tracer.counters_snapshot()["distrib.leases.corrupt"] == 1
        assert store.holder(0) == record

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="digest"):
            LeaseStore(tmp_path, "", "w1")
        with pytest.raises(ConfigurationError, match="path separator"):
            LeaseStore(tmp_path, DIGEST, "bad/owner")
        with pytest.raises(ConfigurationError, match="path separator"):
            LeaseStore(tmp_path, DIGEST, "")
        with pytest.raises(ConfigurationError, match="lease_ttl_s"):
            LeaseStore(tmp_path, DIGEST, "w1", lease_ttl_s=0.0)


class TestLeaseCorruption:
    """Satellite: damaged lease files are claimable, never fatal."""

    @pytest.mark.parametrize(
        "payload",
        [
            b"",  # truncated to nothing
            b"{\"version\": 2, \"kind\": \"lea",  # torn mid-write
            b"not json at all\n",
            b"\xff\xfe not utf-8\n",
            b"[1, 2, 3]\n",  # wrong shape
            json.dumps({"version": 99, "kind": "lease"}).encode(),  # future
            json.dumps(
                {
                    "version": DISTRIB_PROTOCOL_VERSION,
                    "kind": "lease",
                    "spec_digest": DIGEST,
                    "shard_index": 0,
                    "owner": "w9",
                    # lease_ttl_s missing
                }
            ).encode(),
        ],
        ids=[
            "empty", "torn", "garbage", "invalid-utf8", "non-mapping",
            "future", "missing",
        ],
    )
    def test_corrupt_lease_is_claimed_with_a_warning(self, tmp_path, payload):
        tracer = Tracer()
        store = _store(tmp_path, tracer=tracer)
        store.lease_path(0, 1).write_bytes(payload)
        with pytest.warns(RuntimeWarning, match="corrupt or torn"):
            record = store.try_claim(0)
        assert record is not None and record.owner == "w1"
        assert tracer.counters_snapshot()["distrib.leases.corrupt"] == 1
        # The fresh lease is valid again.
        assert store.holder(0) == record

    def test_foreign_study_lease_is_corrupt_not_honored(self, tmp_path):
        _store(tmp_path, digest="b" * 32, owner="other").try_claim(0)
        store = _store(tmp_path, digest=DIGEST)
        with pytest.warns(RuntimeWarning, match="corrupt or torn"):
            assert store.try_claim(0) is not None

    def test_corrupt_lease_never_crashes_reads(self, tmp_path):
        store = _store(tmp_path)
        store.lease_path(1, 1).write_text("\x00\x01garbage", encoding="utf-8")
        assert store.holder(1) is None


class TestHeartbeatAndRelease:
    def test_heartbeat_bumps_mtime_only(self, tmp_path):
        tracer = Tracer()
        store = _store(tmp_path, tracer=tracer)
        store.try_claim(0)
        path = store.lease_path(0, 1)
        body = path.read_bytes()
        before = path.stat().st_mtime
        os.utime(path, (before - 10.0, before - 10.0))
        store.heartbeat(0)
        assert path.stat().st_mtime > before - 10.0
        assert path.read_bytes() == body
        assert _lease_files(store, 0) == [path]
        assert tracer.counters_snapshot()["distrib.heartbeats"] == 1

    def test_heartbeat_after_vanish_is_stale(self, tmp_path):
        store = _store(tmp_path)
        store.try_claim(0)
        store.lease_path(0, 1).unlink()
        with pytest.raises(StaleLeaseError, match="vanished"):
            store.heartbeat(0)

    def test_heartbeat_after_steal_is_stale(self, tmp_path):
        victim = _store(tmp_path, owner="victim", ttl=1.0)
        victim.try_claim(0)
        _expire(victim, 0)
        with pytest.warns(RuntimeWarning):
            _store(tmp_path, owner="thief").try_claim(0)
        with pytest.raises(StaleLeaseError, match="'thief'") as exc:
            victim.heartbeat(0)
        assert exc.value.owner == "thief"

    @pytest.mark.parametrize("traced", [False, True])
    def test_stale_heartbeat_stops_quietly(
        self, tmp_path, monkeypatch, traced
    ):
        # The heartbeat thread of a shard whose lease was taken over
        # stops after one refresh and the shard still completes: the
        # record settles it either way.
        beats, written, uncaught = [], [], []

        class StaleLeases:
            lease_ttl_s = 0.03  # a heartbeat every 10 ms

            def heartbeat(self, index):
                beats.append(index)
                raise StaleLeaseError("taken over", shard_index=index)

        class Records:
            def write(self, result, tracer=None):
                written.append(result)

        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        monkeypatch.setenv(INJECT_DELAY_ENV, "0.2")
        tracer = Tracer() if traced else None
        result = _compute(
            _spec(2), Shard(0, 0, 2), None, Records(), StaleLeases(), tracer
        )
        assert [hook.exc_type for hook in uncaught] == []
        assert len(result.batch) == 2 and written == [result]
        assert beats == [0]
        if traced:
            counters = tracer.counters_snapshot()
            assert counters["distrib.leases.stale"] == 1

    def test_release_never_deletes_another_workers_lease(self, tmp_path):
        _store(tmp_path, owner="w1").try_claim(0)
        assert _store(tmp_path, owner="w2").release(0) is False
        # A holder whose lease was stolen releases nothing either.
        victim = _store(tmp_path, owner="victim", ttl=1.0)
        victim.try_claim(1)
        _expire(victim, 1)
        thief = _store(tmp_path, owner="thief")
        with pytest.warns(RuntimeWarning):
            thief.try_claim(1)
        assert victim.release(1) is False
        observer = _store(tmp_path, owner="observer")
        assert observer.holder(0).owner == "w1"
        assert observer.holder(1).owner == "thief"

    def test_release_of_expired_foreign_lease_is_a_noop(self, tmp_path):
        dead = _store(tmp_path, owner="dead", ttl=1.0)
        dead.try_claim(0)
        _expire(dead, 0)
        other = _store(tmp_path, owner="w2")
        assert other.release(0) is False
        assert _lease_files(dead, 0) == [dead.lease_path(0, 1)]

    def test_sweep_removes_every_generation_of_any_owner(self, tmp_path):
        a = _store(tmp_path, owner="a")
        b = _store(tmp_path, owner="b")
        a.try_claim(0)
        b.try_claim(1)
        b.try_claim(3)
        # A claimant died between creating generation 2 of shard 0 and
        # deleting generation 1.
        a.lease_path(0, 2).write_bytes(a.lease_path(0, 1).read_bytes())
        tracer = Tracer()
        sweeper = _store(tmp_path, owner="c", tracer=tracer)
        assert sweeper.sweep([0, 1, 2]) == 3
        left = sorted(path.name for path in sweeper.directory.iterdir())
        assert left == [b.lease_path(3, 1).name]
        assert tracer.counters_snapshot()["distrib.leases.swept"] == 3


# ---------------------------------------------------------------------------
# manifest / spec publication
# ---------------------------------------------------------------------------
class TestStudyPublication:
    def test_fresh_dir_infers_manifest(self, tmp_path):
        spec = _spec(10)
        _initiate(tmp_path, spec, chunk_rows=4)
        manifest, got_spec = open_study(tmp_path)
        assert manifest.kind == "study"
        assert manifest.digest == spec.content_digest()
        assert (manifest.total_rows, manifest.chunk_rows) == (10, 4)
        assert manifest.n_shards == 3
        assert got_spec == spec

    def test_existing_manifest_is_adopted(self, tmp_path):
        spec = _spec(10)
        first = _initiate(tmp_path, spec, chunk_rows=4)
        manifest = CheckpointStore.peek_manifest(tmp_path)
        # No chunk_rows and a bigger expected fleet: the dir's wins.
        with DistributedExecutor(tmp_path, n_workers=3) as ex:
            adopted = run_study(spec, executor=ex)
        assert CheckpointStore.peek_manifest(tmp_path) == manifest
        assert adopted.equals(first)

    def test_digest_mismatch_names_both_digests(self, tmp_path):
        spec_a, spec_b = _spec(8), _spec(12)
        _initiate(tmp_path, spec_a, chunk_rows=4)
        with pytest.raises(ConfigurationError) as exc:
            _initiate(tmp_path, spec_b, chunk_rows=4)
        message = str(exc.value)
        assert spec_a.content_digest() in message
        assert spec_b.content_digest() in message

    def test_matrix_shards_are_refused(self, tmp_path):
        import numpy as np

        from repro.batch.matrix import DesignMatrix

        matrix = DesignMatrix.from_arrays(
            sensing_range_m=np.array([5.0, 10.0, 15.0]),
            a_max=np.array([20.0, 20.0, 20.0]),
            f_sensor_hz=np.array([30.0, 30.0, 30.0]),
            f_compute_hz=np.array([10.0, 20.0, 30.0]),
            f_control_hz=np.array([100.0, 100.0, 100.0]),
        )
        with pytest.raises(ConfigurationError, match="StudySpec"):
            run_study(
                matrix,
                executor=DistributedExecutor(tmp_path),
                chunk_rows=2,
            )
        assert not (tmp_path / "manifest.json").exists()

    def test_publish_spec_is_idempotent_and_digest_checked(self, tmp_path):
        spec = _spec(8)
        publish_spec(tmp_path, spec)
        first = (tmp_path / "spec.json").read_text(encoding="utf-8")
        publish_spec(tmp_path, spec)  # no-op
        assert (tmp_path / "spec.json").read_text(encoding="utf-8") == first
        other = _spec(9)
        with pytest.raises(ConfigurationError) as exc:
            publish_spec(tmp_path, other)
        assert spec.content_digest() in str(exc.value)
        assert other.content_digest() in str(exc.value)

    def test_checkpoint_mismatch_error_names_both_values(self, tmp_path):
        # Satellite fix: CheckpointStore.open used to say only that the
        # manifest "does not match" — operators need expected vs found.
        run_study(_spec(8), chunk_rows=4, checkpoint=tmp_path)
        manifest = CheckpointStore.peek_manifest(tmp_path)
        other = replace(manifest, digest="f" * 32, chunk_rows=2)
        with pytest.raises(ConfigurationError) as exc:
            CheckpointStore.open(tmp_path, other)
        message = str(exc.value)
        assert manifest.digest in message  # what the checkpoint has
        assert "'" + "f" * 32 + "'" in message  # what this run has
        assert "chunk_rows" in message and "digest" in message

    def test_open_study_waits_then_errors_helpfully(self, tmp_path):
        with pytest.raises(ConfigurationError, match="--wait"):
            open_study(tmp_path, wait_s=0.0)

    def test_open_study_rejects_mixed_directories(self, tmp_path):
        _initiate(tmp_path, _spec(8), chunk_rows=4)
        manifest = CheckpointStore.peek_manifest(tmp_path)
        # A foreign spec.json lands in the directory (a mixed-up copy).
        (tmp_path / "spec.json").write_text(
            _spec(9).to_json(), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError) as exc:
            open_study(tmp_path)
        assert manifest.digest in str(exc.value)
        assert _spec(9).content_digest() in str(exc.value)


# ---------------------------------------------------------------------------
# the distributed executor: bitwise identity to single-host
# ---------------------------------------------------------------------------
class TestDistributedExecutor:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="lease_ttl_s"):
            DistributedExecutor(tmp_path, lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError, match="n_workers"):
            DistributedExecutor(tmp_path, n_workers=0)
        with pytest.raises(ConfigurationError, match="poll_interval_s"):
            DistributedExecutor(tmp_path, poll_interval_s=-1.0)

    def test_single_worker_matches_serial(self, tmp_path):
        spec = _spec(10)
        serial = run_study(spec)
        with DistributedExecutor(tmp_path, worker_id="solo") as ex:
            dist = run_study(spec, executor=ex, chunk_rows=3)
        assert batch_results_equal(serial.batch, dist.batch)
        assert dist.to_json() == serial.to_json()  # bitwise, not just equal
        assert list((tmp_path / "leases").glob("*.lease.json")) == []

    @pytest.mark.parametrize("traced", [False, True])
    def test_polls_for_a_shard_leased_elsewhere(
        self, tmp_path, monkeypatch, traced
    ):
        # A live remote worker holds shard 0, so this worker computes
        # shard 1 and then polls until the remote's record lands, which
        # here happens during the first poll.
        from repro.distrib import executor as executor_mod

        spec = _spec(4)
        elsewhere, work = tmp_path / "elsewhere", tmp_path / "work"
        run_study(spec, chunk_rows=2, checkpoint=elsewhere)
        remote = LeaseStore(work, spec.content_digest(), "remote")
        remote.try_claim(0)
        polls = []

        def remote_publishes(seconds):
            polls.append(seconds)
            record = "shard-000000.jsonl"
            (work / record).write_bytes((elsewhere / record).read_bytes())
            remote.release(0)

        monkeypatch.setattr(executor_mod, "sleep", remote_publishes)
        tracer = Tracer() if traced else None
        with DistributedExecutor(work, worker_id="local") as ex:
            dist = run_study(spec, executor=ex, chunk_rows=2, tracer=tracer)
        assert batch_results_equal(run_study(spec).batch, dist.batch)
        assert len(polls) == 1
        if traced:
            counters = tracer.counters_snapshot()
            assert counters["distrib.wait_polls"] == 1
            assert counters["distrib.shards.loaded"] == 1

    @pytest.mark.parametrize("n_joiners,chunk_rows", [(1, 3), (2, 2), (3, 5)])
    def test_fleet_is_bitwise_identical_to_serial(
        self, tmp_path, n_joiners, chunk_rows
    ):
        spec = _spec(20)
        serial = run_study(spec)
        reports = []

        def join(i: int) -> None:
            reports.append(
                run_worker(
                    tmp_path,
                    worker_id=f"join-{i}",
                    lease_ttl_s=10.0,
                    poll_interval_s=0.02,
                    wait_s=30.0,
                )
            )

        threads = [
            threading.Thread(target=join, args=(i,))
            for i in range(n_joiners)
        ]
        for t in threads:
            t.start()
        try:
            with DistributedExecutor(
                tmp_path,
                worker_id="init",
                lease_ttl_s=10.0,
                poll_interval_s=0.02,
            ) as ex:
                dist = run_study(spec, executor=ex, chunk_rows=chunk_rows)
        finally:
            for t in threads:
                t.join()
        assert batch_results_equal(serial.batch, dist.batch)
        n_shards = -(-20 // chunk_rows)
        # Every shard was computed at least once across the fleet, and
        # the finished dir holds zero leases (orphaned or otherwise).
        assert sum(r.computed for r in reports) <= n_shards
        assert all(r.shards_total == n_shards for r in reports)
        assert all(r.spec_digest == spec.content_digest() for r in reports)
        assert list((tmp_path / "leases").glob("*.lease.json")) == []
        shard_files = sorted(tmp_path.glob("shard-*.jsonl"))
        assert len(shard_files) == n_shards

    def test_crashed_workers_ghost_lease_is_reclaimed(self, tmp_path):
        # A worker claimed shard 0 and died mid-compute: its lease is
        # on disk with no record and no heartbeats coming.  The fleet
        # must steal it and still produce the identical result.
        spec = _spec(12)
        serial = run_study(spec)
        ghost = LeaseStore(
            tmp_path, spec.content_digest(), "ghost", lease_ttl_s=0.5
        )
        ghost.try_claim(0)
        _expire(ghost, 0)
        tracer = Tracer()
        with pytest.warns(RuntimeWarning, match="'ghost'"):
            with DistributedExecutor(
                tmp_path,
                worker_id="survivor",
                lease_ttl_s=5.0,
                poll_interval_s=0.02,
            ) as ex:
                dist = run_study(
                    spec, executor=ex, chunk_rows=4, tracer=tracer
                )
        assert batch_results_equal(serial.batch, dist.batch)
        counters = tracer.counters_snapshot()
        assert counters["distrib.leases.stolen"] == 1
        assert counters["distrib.shards.computed"] == 3
        assert list((tmp_path / "leases").glob("*.lease.json")) == []

    def test_mid_run_crash_then_resume(self, tmp_path, monkeypatch):
        # Kill the evaluator after two shards (simulating a process
        # death), then re-run: the survivor resumes the two records and
        # computes the rest, matching serial bitwise.
        spec = _spec(12)
        serial = run_study(spec)
        calls = {"n": 0}
        import repro.batch.executor as executor_mod

        real = executor_mod._evaluate_shard

        def dying(*args):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt  # what SIGINT looks like inside
            return real(*args)

        monkeypatch.setattr(executor_mod, "_evaluate_shard", dying)
        with pytest.raises(KeyboardInterrupt):
            with DistributedExecutor(tmp_path, worker_id="w1") as ex:
                run_study(spec, executor=ex, chunk_rows=3)
        monkeypatch.setattr(executor_mod, "_evaluate_shard", real)
        assert len(list(tmp_path.glob("shard-*.jsonl"))) == 2
        # The died-mid-shard lease was released on the way out; either
        # way the re-run must complete from the records.
        tracer = Tracer()
        with DistributedExecutor(tmp_path, worker_id="w2") as ex:
            dist = run_study(spec, executor=ex, chunk_rows=3, tracer=tracer)
        assert batch_results_equal(serial.batch, dist.batch)
        counters = tracer.counters_snapshot()
        assert counters["distrib.shards.resumed"] == 2
        assert counters["distrib.shards.computed"] == 2
        assert list((tmp_path / "leases").glob("*.lease.json")) == []

    def test_infinite_ttl_starts_no_heartbeat_thread(
        self, tmp_path, monkeypatch
    ):
        # The default heartbeat interval is ttl / 3, and waiting an
        # infinite interval raised OverflowError in every shard's
        # heartbeat thread.  A lease that never expires needs none.
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        monkeypatch.setenv(INJECT_DELAY_ENV, "0.05")
        spec = _spec(8)
        with DistributedExecutor(
            tmp_path, worker_id="w1", lease_ttl_s=float("inf")
        ) as ex:
            dist = run_study(spec, executor=ex, chunk_rows=4)
        assert [hook.exc_type for hook in uncaught] == []
        assert batch_results_equal(run_study(spec).batch, dist.batch)

    def test_chunking_mismatch_is_refused(self, tmp_path):
        spec = _spec(12)
        with DistributedExecutor(tmp_path, worker_id="w1") as ex:
            run_study(spec, executor=ex, chunk_rows=4)
        with pytest.raises(ConfigurationError, match="chunk_rows=4"):
            with DistributedExecutor(tmp_path, worker_id="w2") as ex:
                run_study(spec, executor=ex, chunk_rows=3)

    def test_injected_delay_env_is_parsed_defensively(self, monkeypatch):
        from repro.distrib.executor import _injected_delay_s

        monkeypatch.delenv(INJECT_DELAY_ENV, raising=False)
        assert _injected_delay_s() == 0.0
        monkeypatch.setenv(INJECT_DELAY_ENV, "0.25")
        assert _injected_delay_s() == 0.25
        monkeypatch.setenv(INJECT_DELAY_ENV, "-3")
        assert _injected_delay_s() == 0.0
        monkeypatch.setenv(INJECT_DELAY_ENV, "not-a-number")
        assert _injected_delay_s() == 0.0

    def test_default_worker_id_is_host_and_pid(self):
        assert default_worker_id().endswith(f"-{os.getpid()}")

    @pytest.mark.parametrize("store", ["leased", "checkpoint"])
    def test_full_merge_over_a_top_k_dir_is_refused(self, tmp_path, store):
        # A top-k run's records hold only each shard's winners: merging
        # them as full shards would silently drop rows.
        spec = _spec(16)
        if store == "leased":
            with DistributedExecutor(tmp_path, worker_id="w1") as ex:
                top_k_sharded(spec, 2, executor=ex, chunk_rows=4)
            with pytest.raises(ConfigurationError, match="reduce"):
                _initiate(tmp_path, spec, chunk_rows=4)
        else:
            top_k_sharded(spec, 2, chunk_rows=4, checkpoint_dir=tmp_path)
            with pytest.raises(ConfigurationError, match="reduce"):
                run_study(spec, chunk_rows=4, checkpoint=tmp_path)

    def test_top_k_sharded_with_a_joining_worker(self, tmp_path):
        spec = _spec(20)
        full = run_study(spec, cache=None).batch
        reports = []

        def join() -> None:
            reports.append(
                run_worker(
                    tmp_path, worker_id="join", lease_ttl_s=10.0,
                    poll_interval_s=0.02, wait_s=30.0,
                )
            )

        joiner = threading.Thread(target=join)
        joiner.start()
        try:
            with DistributedExecutor(
                tmp_path, worker_id="init", lease_ttl_s=10.0,
                poll_interval_s=0.02,
            ) as ex:
                indices, winners = top_k_sharded(
                    spec, 5, executor=ex, chunk_rows=3
                )
        finally:
            joiner.join(timeout=60)
        assert not joiner.is_alive()
        assert batch_results_equal(full.top_k(5), winners)
        assert list(indices) == list(full.top_k_indices(5))
        assert [r.shards_total for r in reports] == [7]
        assert CheckpointStore.peek_manifest(tmp_path).reduce == {
            "k": 5, "by": "safe_velocity", "descending": True,
        }
        assert list((tmp_path / "leases").glob("*.lease.json")) == []

    def test_resumed_work_dir_parses_each_record_once(
        self, tmp_path, monkeypatch
    ):
        import repro.batch.executor as executor_mod

        spec = _spec(16)
        first = _initiate(tmp_path, spec, chunk_rows=4)
        real = executor_mod.shard_record_from_dict
        calls = []

        def counting(data):
            calls.append(data["index"])
            return real(data)

        monkeypatch.setattr(executor_mod, "shard_record_from_dict", counting)
        resumed = _initiate(tmp_path, spec, chunk_rows=4)
        assert sorted(calls) == [0, 1, 2, 3]  # one parse per shard
        assert resumed.equals(first)

    def test_traced_shards_record_task_and_write_spans(self, tmp_path):
        tracer = Tracer()
        with DistributedExecutor(tmp_path, worker_id="solo") as ex:
            run_study(_spec(12), executor=ex, chunk_rows=4, tracer=tracer)
        counters = tracer.counters_snapshot()
        names = [span.name for span in tracer.spans]
        assert counters["distrib.shards.computed"] == 3
        assert names.count("shard.task") == 3
        assert names.count("checkpoint.write") == 3
        assert counters["checkpoint.writes"] == 3


class TestRunWorker:
    def test_worker_alone_finishes_the_study(self, tmp_path):
        spec = _spec(10)
        serial = run_study(spec)
        # An initiator published the study, then lost every record.
        _initiate(tmp_path, spec, chunk_rows=4)
        for record in tmp_path.glob("shard-*.jsonl"):
            record.unlink()
        tracer = Tracer()
        report = run_worker(
            tmp_path,
            worker_id="lone",
            lease_ttl_s=10.0,
            poll_interval_s=0.02,
            tracer=tracer,
        )
        assert report.computed == 3 and report.loaded == 0
        assert report.rows_computed == 10
        assert report.counters["distrib.shards.computed"] == 3
        # The records it left are the study, bit for bit.
        with DistributedExecutor(tmp_path, worker_id="reader") as ex:
            dist = run_study(spec, executor=ex, chunk_rows=4)
        assert batch_results_equal(serial.batch, dist.batch)

    def test_worker_validates_poll(self, tmp_path):
        with pytest.raises(ConfigurationError, match="poll_interval_s"):
            run_worker(tmp_path, poll_interval_s=0.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestDistributedCli:
    def test_flag_matrix_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_spec(4).to_json(), encoding="utf-8")
        cases = [
            (["study", "--spec", str(spec_path),
              "--work-dir", str(tmp_path / "wd"),
              "--checkpoint", str(tmp_path / "ck")], "--work-dir"),
            (["study", "--spec", str(spec_path),
              "--work-dir", str(tmp_path / "wd"),
              "--resume", str(tmp_path / "ck")], "--work-dir"),
            (["study", "--spec", str(spec_path),
              "--work-dir", str(tmp_path / "wd"), "--lease-ttl", "0"],
             "--lease-ttl"),
            (["study", "--spec", str(spec_path), "--worker-id", "w"],
             "--work-dir"),
            (["study", "--spec", str(spec_path), "--lease-ttl", "5"],
             "--work-dir"),
            (["worker", "--work-dir", str(tmp_path / "wd"),
              "--lease-ttl", "-1"], "--lease-ttl"),
            (["worker", "--work-dir", str(tmp_path / "wd"),
              "--poll", "0"], "--poll"),
            (["worker", "--work-dir", str(tmp_path / "wd"),
              "--wait", "-2"], "--wait"),
        ]
        for argv, needle in cases:
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "error:" in err and needle in err, argv

    def test_study_then_worker_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = _spec(8)
        spec_path.write_text(spec.to_json(), encoding="utf-8")
        work_dir = tmp_path / "wd"
        assert cli_main([
            "study", "--spec", str(spec_path),
            "--work-dir", str(work_dir), "--chunk-rows", "3",
            "--worker-id", "cli-init", "--lease-ttl", "10", "--json",
        ]) == 0
        from repro.study.result import StudyResult

        out = capsys.readouterr().out
        cli_result = StudyResult.from_dict(json.loads(out))
        serial = run_study(spec)
        assert batch_results_equal(serial.batch, cli_result.batch)
        # A worker joining the finished study resumes everything.
        assert cli_main([
            "worker", "--work-dir", str(work_dir),
            "--worker-id", "cli-join", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resumed"] == 3
        assert report["computed"] == 0
        assert report["worker_id"] == "cli-join"
        assert report["spec_digest"] == spec.content_digest()

    def test_worker_human_summary(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_spec(4).to_json(), encoding="utf-8")
        work_dir = tmp_path / "wd"
        assert cli_main([
            "study", "--spec", str(spec_path),
            "--work-dir", str(work_dir), "--chunk-rows", "2", "--json",
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "worker", "--work-dir", str(work_dir), "--worker-id", "human",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker human" in out
        assert "2 already checkpointed" in out

    def test_worker_without_study_is_a_clean_error(self, tmp_path, capsys):
        assert cli_main([
            "worker", "--work-dir", str(tmp_path / "empty"),
        ]) == 1
        assert "no distributed study" in capsys.readouterr().err

    def test_rerun_adopts_existing_chunking(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(_spec(8).to_json(), encoding="utf-8")
        work_dir = tmp_path / "wd"
        for _ in range(2):  # second run omits --chunk-rows: adopt, resume
            argv = [
                "study", "--spec", str(spec_path),
                "--work-dir", str(work_dir), "--json",
            ]
            if _ == 0:
                argv[-1:-1] = ["--chunk-rows", "3"]
            assert cli_main(argv) == 0
            capsys.readouterr()
        manifest = json.loads(
            (work_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["chunk_rows"] == 3
        assert len(list(work_dir.glob("shard-*.jsonl"))) == 3


# ---------------------------------------------------------------------------
# serve integration
# ---------------------------------------------------------------------------
class TestServeDistrib:
    def test_both_roots_are_mutually_exclusive(self, tmp_path):
        from repro.serve.scheduler import StudyScheduler

        with pytest.raises(ConfigurationError, match="mutually"):
            StudyScheduler(
                checkpoint_root=tmp_path / "a", distrib_root=tmp_path / "b"
            )

    def test_scheduler_runs_studies_distributed(self, tmp_path):
        from repro.serve.scheduler import StudyScheduler
        from repro.study.result import StudyResult

        spec = _spec(8)
        scheduler = StudyScheduler(chunk_rows=4, distrib_root=tmp_path)
        scheduler.start()
        try:
            record, _ = scheduler.submit(spec)
            assert record.wait_done(timeout_s=60)
            assert record.state == "done"
        finally:
            scheduler.shutdown()
        served = StudyResult.from_json(record.result_json())
        serial = run_study(spec)
        assert batch_results_equal(serial.batch, served.batch)
        # The study ran in a joinable per-study work dir under the root.
        work_dir = tmp_path / record.study_id
        manifest = json.loads(
            (work_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["digest"] == spec.content_digest()
        assert len(list(work_dir.glob("shard-*.jsonl"))) == 2
        assert list((work_dir / "leases").glob("*.lease.json")) == []
