"""Joining workers: pull shards of a study someone else initiated.

``repro-skyline worker --work-dir DIR`` is this module's CLI face: it
waits for the initiator's ``manifest.json`` + ``spec.json`` to appear
(:func:`open_study`), rebuilds the shard list locally (the spec is the
*whole* study — no row data crosses the wire), skips the shards
already recorded, and runs the same lease state machine as
:class:`~repro.distrib.executor.DistributedExecutor` over the rest
until every shard has a record.  A joiner never merges: it only
computes and publishes records.  Workers are stateless and
interchangeable: any number may join, leave, or crash at any point
without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..batch.executor import CheckpointStore, ShardManifest, iter_chunks
from ..errors import ConfigurationError
from ..obs.tracer import Tracer
from .executor import SPEC_FILE_NAME, DistributedExecutor
from .lease import DEFAULT_LEASE_TTL_S

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..study.spec import StudySpec


@dataclass(frozen=True)
class WorkerReport:
    """What one worker contributed to a study."""

    worker_id: str
    spec_digest: str
    shards_total: int
    computed: int
    loaded: int
    resumed: int
    rows_computed: int
    elapsed_s: float
    counters: Dict[str, int] = field(default_factory=dict)


def open_study(
    work_dir: Union[str, Path],
    wait_s: float = 0.0,
    poll_interval_s: float = 0.25,
) -> Tuple[ShardManifest, "StudySpec"]:
    """The (manifest, spec) published in a distributed work dir.

    Waits up to ``wait_s`` for both files to appear (workers routinely
    start before the initiator has stamped the directory), then
    validates that the spec actually matches the manifest digest —
    naming both digests on mismatch, since "which study is this
    directory running?" is the first operator question.
    """
    directory = Path(work_dir)
    spec_path = directory / SPEC_FILE_NAME
    deadline = perf_counter() + max(0.0, wait_s)
    while True:
        manifest = CheckpointStore.peek_manifest(directory)
        if manifest is not None and spec_path.exists():
            break
        if perf_counter() >= deadline:
            raise ConfigurationError(
                f"no distributed study at {directory} (needs "
                f"manifest.json and {SPEC_FILE_NAME}); start one with "
                "'repro-skyline study --spec SPEC --work-dir "
                f"{directory}', or raise --wait if the initiator is "
                "still starting"
            )
        sleep(poll_interval_s)
    from ..study.spec import StudySpec

    spec = StudySpec.from_json(spec_path.read_text(encoding="utf-8"))
    found = spec.content_digest()
    if found != manifest.digest:
        raise ConfigurationError(
            f"work dir {directory} is inconsistent: manifest digest is "
            f"{manifest.digest!r} but {SPEC_FILE_NAME} digest is "
            f"{found!r} (the directory was mixed from two runs; pass a "
            "fresh --work-dir)"
        )
    return manifest, spec


def run_worker(
    work_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_interval_s: Optional[float] = None,
    wait_s: float = 0.0,
    tracer: Optional[Tracer] = None,
) -> WorkerReport:
    """Join the study in ``work_dir`` and pull shards until it's done.

    Returns once every shard of the study has a record on disk —
    whether this worker computed it, another worker did, or it was
    already checkpointed.  Safe to run any number of times, from any
    number of hosts, concurrently with the initiator.
    """
    executor = DistributedExecutor(
        work_dir,
        worker_id=worker_id,
        lease_ttl_s=lease_ttl_s,
        poll_interval_s=poll_interval_s,
    )
    manifest, spec = open_study(
        work_dir,
        wait_s=wait_s,
        poll_interval_s=min(0.25, executor.poll_interval_s),
    )
    store = CheckpointStore.open(work_dir, manifest, tracer=tracer)
    done = store.load_completed()
    shards = [
        shard
        for shard in iter_chunks(spec, manifest.chunk_rows)
        if shard.index not in done
    ]
    events = {"computed": 0, "loaded": 0}
    rows_computed = 0
    started = perf_counter()
    for event, result in executor._pull(spec, shards, store, tracer):
        events[event] += 1
        if event == "computed":
            rows_computed += result.stop - result.start
    return WorkerReport(
        worker_id=executor.worker_id,
        spec_digest=manifest.digest,
        shards_total=manifest.n_shards,
        computed=events["computed"],
        loaded=events["loaded"],
        resumed=len(done),
        rows_computed=rows_computed,
        elapsed_s=perf_counter() - started,
        counters=(
            tracer.counters_snapshot() if tracer is not None else {}
        ),
    )
