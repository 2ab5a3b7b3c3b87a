"""The distributed scheduling policy: N hosts pulling shards of one study.

:class:`DistributedExecutor` is the second scheduling policy of the
sharded pipeline in :mod:`repro.batch.executor`, next to
:class:`~repro.batch.executor.ParallelExecutor`, so it plugs into
``run_study(executor=)`` and
:func:`~repro.batch.executor.top_k_sharded` unchanged.  The pipeline's
plan step binds the executor's work dir as the run's store (stamping
or adopting ``manifest.json``) and resumes the shards already recorded
there; ``map_shards`` then runs the lease state machine of
``docs/distributed-protocol.md`` over the rest, shard by shard:

1. probe: the record exists → consume it;
2. claim the lease, or skip the shard while a live worker holds it;
3. recheck: the record landed meanwhile → release and consume it;
4. evaluate in-process, exactly like a one-worker ``ParallelExecutor``;
5. publish the record atomically (``store.write``);
6. release the lease.

When only remotely-leased shards remain it polls for their records
(re-claiming any whose lease expires), and once every shard has a
record it sweeps leftover leases.  A shard is *done* when its record
file exists — never when a lease says so — which is what makes every
crash recoverable: the sequence can stop anywhere and another worker
resumes from the record check.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import zlib
from pathlib import Path
from time import sleep
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..batch.executor import (
    CheckpointStore,
    Shard,
    ShardResult,
    _atomic_write,
    _evaluate_in_process,
)
from ..errors import ConfigurationError, StaleLeaseError
from ..obs.tracer import Tracer, maybe_span
from .lease import DEFAULT_LEASE_TTL_S, LeaseStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..study.spec import StudySpec

#: Name of the published spec file next to ``manifest.json`` — joining
#: workers rebuild their shard list from it.
SPEC_FILE_NAME = "spec.json"

#: Fault-injection knob for crash tests and the CI smoke: a float
#: number of seconds to sleep *inside* each shard computation (after
#: the lease is claimed, before the record is written), widening the
#: window in which a kill lands mid-shard.
INJECT_DELAY_ENV = "REPRO_DISTRIB_INJECT_SHARD_DELAY_S"


def default_worker_id() -> str:
    """A host-and-process-unique worker id, e.g. ``"host-a-12041"``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _injected_delay_s() -> float:
    raw = os.environ.get(INJECT_DELAY_ENV)
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def _rotated(indices: List[int], owner: str) -> List[int]:
    """The (non-empty) index list rotated by a stable per-owner offset.

    Workers starting simultaneously would otherwise all race for shard
    0, then shard 1, …, paying a failed-claim syscall per collision;
    distinct starting offsets spread the first claims apart.  This is
    an ordering heuristic only — claims stay safe in any order.
    """
    offset = zlib.crc32(owner.encode("utf-8")) % len(indices)
    return indices[offset:] + indices[:offset]


def _compute(
    spec: "StudySpec",
    shard: Shard,
    reduce: Optional[Dict[str, Any]],
    store: CheckpointStore,
    leases: LeaseStore,
    tracer: Optional[Tracer],
) -> ShardResult:
    """Evaluate and publish one claimed shard, heartbeating its lease.

    A daemon thread refreshes the lease every ``lease_ttl_s / 3``
    while the shard computes, so a slow shard is not mistaken for a
    dead worker; a lease with an infinite TTL never expires and gets
    none.  A heartbeat that finds the lease taken over just stops: the
    record settles the shard either way, and the release deletes only
    this worker's own file.
    """
    stop = threading.Event()
    heartbeat_interval_s = leases.lease_ttl_s / 3.0

    def heartbeat() -> None:
        while not stop.wait(heartbeat_interval_s):
            try:
                leases.heartbeat(shard.index)
            except StaleLeaseError:
                if tracer is not None:
                    tracer.counter("distrib.leases.stale").add()
                return
            except OSError:  # pragma: no cover - transient fs hiccup
                pass

    thread = threading.Thread(
        target=heartbeat, name="distrib-heartbeat", daemon=True
    )
    if math.isfinite(heartbeat_interval_s):
        thread.start()
    try:
        delay_s = _injected_delay_s()
        if delay_s > 0:
            sleep(delay_s)
        result = _evaluate_in_process(spec, shard, reduce, tracer)
        store.write(result)
        return result
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


def publish_spec(work_dir: Union[str, Path], spec: "StudySpec") -> None:
    """Write ``spec.json`` next to the manifest (idempotent, atomic).

    Joining workers rebuild the shard list from it; an existing file is
    verified by digest rather than overwritten, so two initiators
    racing on one directory cannot disagree silently.
    """
    path = Path(work_dir) / SPEC_FILE_NAME
    if path.exists():
        from ..study.spec import StudySpec

        found = StudySpec.from_json(path.read_text(encoding="utf-8"))
        # Equal canonical JSON is equal digests; only a refusal, which
        # names both digests, hashes the spec again.
        if found.canonical_json() != spec.canonical_json():
            raise ConfigurationError(
                f"work dir {Path(work_dir)} already publishes a "
                f"different spec: {SPEC_FILE_NAME} digest is "
                f"{found.content_digest()!r}, this run's spec digest "
                f"is {spec.content_digest()!r}"
            )
        return
    _atomic_write(path, [(spec.to_json(indent=2) + "\n").encode("utf-8")])


class DistributedExecutor:
    """Pull shards of one study from a shared work directory.

    Drop-in for :class:`~repro.batch.executor.ParallelExecutor` in
    ``run_study(executor=)``: ``map_shards`` yields every requested
    shard's result, computing the ones this worker wins leases for and
    absorbing records other workers publish.  ``n_workers`` is the
    *expected fleet size* — it only informs default chunk sizing, never
    correctness; workers may join and leave freely.
    """

    def __init__(
        self,
        work_dir: Union[str, Path],
        worker_id: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        n_workers: int = 1,
        poll_interval_s: Optional[float] = None,
    ) -> None:
        if not lease_ttl_s > 0:
            raise ConfigurationError(
                f"lease_ttl_s must be > 0, got {lease_ttl_s}"
            )
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if poll_interval_s is None:
            poll_interval_s = min(1.0, lease_ttl_s / 4.0)
        if not poll_interval_s > 0:
            raise ConfigurationError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        self.work_dir = Path(work_dir)
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl_s = float(lease_ttl_s)
        self.n_workers = int(n_workers)
        self.poll_interval_s = float(poll_interval_s)

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """No pool to tear down; present for executor-contract parity."""

    def map_shards(
        self,
        spec: "StudySpec",
        shards: Iterable[Shard],
        reduce: Optional[Dict[str, Any]] = None,
        tracer: Optional[Tracer] = None,
        store: Optional[CheckpointStore] = None,
    ) -> Iterator[ShardResult]:
        """Yield the result of each requested shard of ``spec`` via the
        lease protocol.

        ``store`` is the work dir's checkpoint store, which the
        pipeline's plan step binds; every shard of its manifest that is
        not requested must already have a record (the pipeline hands
        over exactly the shards it did not resume).  Results arrive in
        completion order, like ``ParallelExecutor.map_shards``; the call
        blocks until *all* requested shards have records, re-claiming
        stragglers whose leases expire along the way.  ``reduce`` is
        there to match ``ParallelExecutor.map_shards``: shards reduce
        as the store's manifest says, so records always fit it.
        """
        for _event, result in self._pull(spec, list(shards), store, tracer):
            yield result

    def _pull(
        self,
        spec: "StudySpec",
        shards: List[Shard],
        store: Optional[CheckpointStore],
        tracer: Optional[Tracer],
    ) -> Iterator[Tuple[str, ShardResult]]:
        """The lease state machine, yielding ``(event, result)`` pairs.

        Events: ``"loaded"`` (another worker published the record) or
        ``"computed"`` (this worker evaluated it).  Every shard of the
        manifest not in ``shards`` counts as resumed.
        """
        if store is None:
            raise ConfigurationError(
                "DistributedExecutor schedules shards over its work "
                "dir's records; run it through run_study or "
                "top_k_sharded, which bind that store"
            )
        if shards:  # joiners rebuild the shards still to do from it
            publish_spec(self.work_dir, spec)
        manifest = store.manifest
        resumed = manifest.n_shards - len(shards)
        if tracer is not None and resumed:
            tracer.counter("distrib.shards.resumed").add(resumed)
        leases = LeaseStore(
            self.work_dir,
            manifest.digest,
            self.worker_id,
            lease_ttl_s=self.lease_ttl_s,
            tracer=tracer,
        )
        pending = {shard.index: shard for shard in shards}
        while pending:
            progressed = False
            for index in _rotated(sorted(pending), leases.owner):
                event = "loaded"
                result = store.load_shard(index)
                if result is not None:
                    leases.sweep((index,))
                elif leases.try_claim(index) is None:
                    continue
                else:
                    try:
                        # Re-check under the lease: the record may have
                        # landed (and its holder released) between our
                        # probe and our claim.
                        result = store.load_shard(index)
                        if result is None:
                            event = "computed"
                            result = _compute(
                                spec, pending[index], manifest.reduce, store,
                                leases, tracer,
                            )
                    finally:
                        leases.release(index)
                del pending[index]
                progressed = True
                if tracer is not None:
                    tracer.counter(
                        "distrib.shards.computed"
                        if event == "computed"
                        else "distrib.shards.loaded"
                    ).add()
                yield event, result
            if pending and not progressed:
                if tracer is not None:
                    tracer.counter("distrib.wait_polls").add()
                with maybe_span(tracer, "distrib.wait", pending=len(pending)):
                    sleep(self.poll_interval_s)
        # Every shard has a record now; any surviving lease (ours
        # released above, a crashed worker's otherwise) is litter.
        leases.sweep(range(manifest.n_shards))
