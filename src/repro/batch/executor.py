"""Sharded, parallel execution of study specs.

:func:`~repro.batch.engine.evaluate_matrix` is a single vectorized
pass: one process, one allocation the size of the whole grid.  This
module scales a :class:`~repro.study.spec.StudySpec` out over shards
without changing a single bit of the result.  Both sharded entry
points — ``run_study(executor=...)`` and :func:`top_k_sharded` — run
the same three-step pipeline:

* **plan** resolves the spec's digest, its evaluation contract (knee,
  tolerance) and the chunking into one :class:`ShardManifest`, and
  binds the run's store: a checkpoint directory, the work directory of
  a :class:`~repro.distrib.DistributedExecutor`, or none.  An
  unspecified ``chunk_rows`` adopts the chunking of a manifest already
  on disk, so a resumed or restarted run picks up exactly where the
  original left off.
* **drive** resumes the store's completed shards once
  (:meth:`CheckpointStore.load_completed`), hands the rest to the
  executor's ``map_shards`` scheduling policy, and counts progress.
* **reduce** concatenates the shards into one
  :class:`~repro.batch.result.BatchResult` with stable global row
  indices (:func:`~repro.batch.result.concat_results`), or folds them
  into a global top-k as they complete
  (:func:`~repro.batch.result.merge_top_k`), keeping ``O(k)`` state so
  fleet-scale winners never require fleet-scale memory.

A :class:`Shard` is only a row range ``[start, stop)`` of the spec,
streamed lazily by :func:`iter_chunks`.  Shards are never materialized
in the parent: each worker rebuilds only its rows with
:func:`~repro.study.planner.compile_chunk`, the planner's one
row-range path.  A knob shard is at most ``2·ndim − 1`` axis-aligned
blocks of the grid (:func:`~repro.batch.grid.cartesian_blocks`),
compiled and evaluated over their axes, and a preset or fleet shard
gathers only the designs its rows touch, so for every design kind a
shard holds at most ``chunk_rows + 2·M`` rows (M scenario rows per
design, 1 without scenarios): a 10M-point grid needs
``O(chunk_rows + M)`` memory per worker, not ``O(N)``.

There are two scheduling policies.  :class:`ParallelExecutor`
evaluates shards inline with one worker (chunked streaming in-process)
and in a process pool with more.
:class:`~repro.distrib.DistributedExecutor` pulls shards from a shared
work directory under the lease protocol.  Both persist every shard
they complete to the store as one framed record — a JSON header line,
then the raw column bytes (:class:`CheckpointStore`; see
:func:`repro.io.serialization.shard_manifest_to_dict` for the wire
format) — so an interrupted million-point study resumes from its
completed shards instead of restarting.

No shard memoizes its result: workers keep no state between shards,
so nothing a worker inherits across a fork can leak between runs.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
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

import numpy as np

from ..errors import ConfigurationError, ShardExecutionError
from ..io.serialization import (
    SHARD_RECORD_TABLE,
    decode_frame,
    encode_frame,
    shard_manifest_to_dict,
    shard_record_from_dict,
    shard_record_to_dict,
)
from ..obs.progress import Progress, ProgressCallback
from ..obs.tracer import Tracer, maybe_span
from .assembly import EXTRA_COLUMNS
from .engine import evaluate_matrix
from .result import BatchResult, concat_results, merge_top_k, require_sortable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..study.spec import StudySpec

#: Hard ceiling on rows per shard (bounds peak memory per worker).
DEFAULT_CHUNK_ROWS = 65536

_MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Shards: the unit of work and its result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """Rows ``[start, stop)`` of a study: shard ``index`` of its run."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


# eq=False: ndarray fields; identity semantics, like BatchResult.
@dataclass(frozen=True, eq=False)
class ShardResult:
    """One shard's evaluated rows.

    ``local_indices`` is ``None`` for a full shard (rows are exactly
    ``[start, stop)``) or the shard-local row indices of a reduced
    (top-k) shard; :attr:`global_indices` maps either onto the full
    grid.
    """

    index: int
    start: int
    stop: int
    batch: BatchResult
    local_indices: Optional[np.ndarray] = None
    extras: Optional[Dict[str, np.ndarray]] = None
    #: The worker's shipped observability payload (``{"events",
    #: "counters", "elapsed_s"}``) when a traced shard ran in a worker
    #: *process*; ``None`` otherwise — untraced runs and inline shards,
    #: whose spans land directly in the parent tracer.  Not part of the
    #: checkpoint wire format — timings of a past run are not needed to
    #: resume it.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def global_indices(self) -> np.ndarray:
        if self.local_indices is None:
            return np.arange(self.start, self.stop, dtype=np.intp)
        return self.start + np.asarray(self.local_indices, dtype=np.intp)


def shard_ranges(total_rows: int, chunk_rows: int) -> List[Tuple[int, int]]:
    """The ``[start, stop)`` row ranges ``chunk_rows`` splits a grid into."""
    if chunk_rows < 1:
        raise ConfigurationError(
            f"chunk_rows must be >= 1, got {chunk_rows}"
        )
    if total_rows < 0:
        raise ConfigurationError(
            f"total_rows must be >= 0, got {total_rows}"
        )
    return [
        (start, min(start + chunk_rows, total_rows))
        for start in range(0, max(total_rows, 1), chunk_rows)
    ]


def default_chunk_rows(total_rows: int, n_workers: int) -> int:
    """A chunk size giving each worker ~4 shards, capped for memory.

    The cap (:data:`DEFAULT_CHUNK_ROWS`) bounds per-worker peak memory
    on huge grids; the ~4-shards-per-worker target keeps the pool load
    balanced when shard costs vary.
    """
    target = math.ceil(max(total_rows, 1) / max(1, 4 * n_workers))
    return max(1, min(DEFAULT_CHUNK_ROWS, target))


def _require_spec(source: Any, what: str) -> None:
    from ..study.spec import StudySpec

    if not isinstance(source, StudySpec):
        raise ConfigurationError(
            f"{what} takes a StudySpec, got {type(source).__name__}"
        )


def iter_chunks(
    spec: "StudySpec", chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Iterator[Shard]:
    """Stream the row-range shards of a study spec.

    A shard carries no rows: its worker rebuilds rows ``[start,
    stop)`` from the spec by index arithmetic, so the full grid never
    exists in the parent.
    """
    from ..study.planner import study_size

    _require_spec(spec, "iter_chunks")
    for index, (start, stop) in enumerate(
        shard_ranges(study_size(spec), chunk_rows)
    ):
        yield Shard(index, start, stop)


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------
def _evaluate_shard(
    spec: "StudySpec",
    shard: Shard,
    reduce: Optional[Dict[str, Any]] = None,
    trace: Any = None,
) -> Dict[str, Any]:
    """Evaluate one shard of ``spec`` (runs in a worker, or inline).

    ``reduce`` (``{"k", "by", "descending"}``) keeps only the shard's
    local top-k rows.  ``trace`` opts into span recording: an inline
    shard gets a :meth:`~repro.obs.tracer.Tracer.track` view of the
    parent's tracer and records directly — same process, same epoch —
    while a process worker gets ``True``, builds its own tracer and
    ships its spans home as wire dicts for the parent to absorb.

    Any failure re-raises as a
    :class:`~repro.errors.ShardExecutionError` carrying the shard
    index and ``[start, stop)`` row range (the original exception
    stays attached as ``__cause__``): a bare worker traceback from a
    process pool says nothing about *which* rows died, and re-running
    just that range is the first debugging step.
    """
    try:
        return _evaluate_shard_task(spec, shard, reduce, trace)
    except ShardExecutionError:
        raise
    except Exception as exc:
        raise ShardExecutionError(
            f"shard {shard.index} (rows [{shard.start}, {shard.stop})) "
            f"failed: {type(exc).__name__}: {exc}",
            shard_index=shard.index,
            start=shard.start,
            stop=shard.stop,
        ) from exc


def _evaluate_shard_task(
    spec: "StudySpec",
    shard: Shard,
    reduce: Optional[Dict[str, Any]],
    trace: Any,
) -> Dict[str, Any]:
    from ..study.planner import compile_chunk

    tracer = Tracer() if trace is True else trace
    shard_started = perf_counter() if tracer is not None else 0.0
    with maybe_span(tracer, "shard.compile"):
        plan = compile_chunk(spec, shard.start, shard.stop)
    extras = {name: getattr(plan, name) for name in EXTRA_COLUMNS}
    with maybe_span(tracer, "shard.evaluate", rows=len(plan)):
        result = evaluate_matrix(
            plan.matrix,
            knee_fraction=spec.knee_fraction,
            tolerance=spec.tolerance,
            tracer=tracer,
        )
    local_indices: Optional[np.ndarray] = None
    if reduce is not None:
        with maybe_span(tracer, "shard.reduce", k=reduce["k"]):
            local_indices = result.top_k_indices(
                reduce["k"], reduce["by"], reduce["descending"]
            )
            result = result.take(local_indices)
            extras = {
                name: column[local_indices]
                for name, column in extras.items()
            }
    outcome: Dict[str, Any] = {
        "batch": result,
        "local_indices": local_indices,
        "extras": extras,
    }
    if tracer is not None:
        elapsed = perf_counter() - shard_started
        if trace is True:
            outcome["telemetry"] = {
                "events": tracer.to_events(),
                "counters": tracer.counters_snapshot(),
                "elapsed_s": elapsed,
            }
        else:
            outcome["elapsed_s"] = elapsed
    return outcome


def _finish(
    shard: Shard,
    outcome: Dict[str, Any],
    dispatch_clock: float,
    tracer: Optional[Tracer],
) -> ShardResult:
    """Wrap one evaluated shard, recording its parent-side view.

    Traced, every evaluated shard contributes a ``shard.task`` span
    (dispatch → result receipt, with ``queue_wait_s``/``compute_s``
    attributes), the spans and counters a process worker shipped home,
    and a ``shards.completed`` tick.
    """
    telemetry = outcome.get("telemetry")
    if tracer is not None:
        finish_clock = perf_counter()
        worker_s = (telemetry or outcome).get("elapsed_s")
        attrs: Dict[str, Any] = {"shard": shard.index, "rows": len(shard)}
        if worker_s is not None:
            attrs["compute_s"] = round(worker_s, 6)
            attrs["queue_wait_s"] = round(
                max(0.0, finish_clock - dispatch_clock - worker_s), 6
            )
        tracer.record_clock(
            "shard.task", dispatch_clock, finish_clock, **attrs
        )
        if telemetry:  # process workers: merge the wire payload
            if telemetry.get("events"):
                tracer.absorb(
                    telemetry["events"],
                    tid=shard.index + 1,
                    end_clock=finish_clock,
                    shard=shard.index,
                )
            if telemetry.get("counters"):
                tracer.merge_counters(telemetry["counters"])
        tracer.counter("shards.completed").add()
    return ShardResult(
        index=shard.index,
        start=shard.start,
        stop=shard.stop,
        batch=outcome["batch"],
        local_indices=outcome["local_indices"],
        extras=outcome["extras"],
        telemetry=telemetry,
    )


def _evaluate_in_process(
    spec: "StudySpec",
    shard: Shard,
    reduce: Optional[Dict[str, Any]],
    tracer: Optional[Tracer],
) -> ShardResult:
    """Evaluate one shard inline, recording onto its track of ``tracer``.

    A one-worker :class:`ParallelExecutor` runs every shard this way,
    and so does the distributed policy: a leased shard is computed
    in-process under exactly the same memory and tracing contract.
    """
    dispatched = perf_counter()
    trace = tracer.track(shard.index + 1) if tracer is not None else None
    outcome = _evaluate_shard(spec, shard, reduce, trace)
    return _finish(shard, outcome, dispatched, tracer)


# ---------------------------------------------------------------------------
# The local scheduling policy
# ---------------------------------------------------------------------------
class ParallelExecutor:
    """Evaluate shards inline with one worker, in a process pool with more.

    ``n_workers=1`` evaluates shards inline, one at a time, which is the
    chunked *streaming* mode: peak memory is one chunk, not one grid.
    More workers fan shards out over a process pool, created lazily on
    first use and reused across calls (warm pools amortize process
    start-up over many studies); call :meth:`close` — or use the
    instance as a context manager — to shut it down.  ``n_workers``
    defaults to the CPU count.  Every shard is evaluated exactly once.
    """

    #: A local pool keeps no shared work directory: it persists shards
    #: only to a checkpoint directory the caller names.
    work_dir: Optional[Path] = None

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = int(n_workers)
        self._pool: Optional[Any] = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (the executor may be reused after)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def warm_up(self) -> None:
        """Spin the worker pool up eagerly (e.g. before benchmarking).

        Every warm-up task's result is read, so a pool whose workers
        cannot start or cannot receive a task raises here.
        """
        if self.n_workers == 1:
            return
        pool = self._ensure_pool()
        for future in [pool.submit(os.getpid) for _ in range(self.n_workers)]:
            future.result()

    def map_shards(
        self,
        spec: "StudySpec",
        shards: Iterable[Shard],
        reduce: Optional[Dict[str, Any]] = None,
        tracer: Optional[Tracer] = None,
        store: Optional["CheckpointStore"] = None,
    ) -> Iterator[ShardResult]:
        """Evaluate the ``shards`` of ``spec``, yielding as they complete.

        Completion order is arbitrary in a process pool; consumers
        that need global order collect by :attr:`ShardResult.index`.
        ``reduce`` keeps each shard's local top-k (see
        :func:`_evaluate_shard`), and ``store`` persists every result
        before it is yielded.

        ``tracer`` opts workers into span recording: each shard
        contributes a parent-side ``shard.task`` span and its
        worker-side spans (``shard.compile``/``shard.evaluate``/…)
        under ``tid = shard_index + 1``, plus ``shards.completed`` and
        worker counters.  Inline shards record those spans directly
        into ``tracer`` via :meth:`~repro.obs.tracer.Tracer.track`;
        process workers ship them home as wire dicts (rebased on
        absorption, and also exposed as :attr:`ShardResult.telemetry`).
        """
        for result in self._evaluate(spec, shards, reduce, tracer):
            if store is not None:
                store.write(result)
            yield result

    def _evaluate(
        self,
        spec: "StudySpec",
        shards: Iterable[Shard],
        reduce: Optional[Dict[str, Any]],
        tracer: Optional[Tracer],
    ) -> Iterator[ShardResult]:
        """Evaluate each shard, yielding in completion order."""
        if self.n_workers == 1:
            for shard in shards:
                yield _evaluate_in_process(spec, shard, reduce, tracer)
            return
        trace = True if tracer is not None else None
        dispatched: Dict[Future, Tuple[Shard, float]] = {}
        for shard in shards:  # the pool starts with the first shard
            future = self._ensure_pool().submit(
                _evaluate_shard, spec, shard, reduce, trace
            )
            dispatched[future] = (shard, perf_counter())
        pending = set(dispatched)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                shard, dispatch_clock = dispatched[future]
                yield _finish(shard, future.result(), dispatch_clock, tracer)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardManifest:
    """The identity of one sharded run, pinned to its checkpoint dir.

    Resume only reuses shard files whose manifest matches the incoming
    run field-for-field — same spec digest, chunking and evaluation
    contract — so a checkpoint directory can never silently feed rows
    from a different study.  Serialized by
    :func:`repro.io.serialization.shard_manifest_to_dict`.
    """

    #: Always ``"study"``.
    kind: str
    digest: str
    total_rows: int
    chunk_rows: int
    n_shards: int
    knee_fraction: Optional[float]
    tolerance: float
    reduce: Optional[Dict[str, Any]] = None


class CheckpointStore:
    """One framed record per completed shard, plus a pinning manifest.

    Layout: ``<dir>/manifest.json`` and ``<dir>/shard-<index>.jsonl``.
    A record is a framed file
    (:func:`~repro.io.serialization.encode_frame`): one JSON header
    line, then the raw column bytes; the name keeps ``.jsonl`` because
    its first line still is the record's JSON document.  A record is
    only visible after an atomic rename, so an interrupt mid-write
    never corrupts a visible shard.  Unreadable shard files are
    skipped — their rows are simply recomputed — while a missing or
    mismatched manifest is a hard
    :class:`~repro.errors.ConfigurationError`.

    ``tracer``, the run's tracer, times every record written as a
    ``checkpoint.write`` span (counted in ``checkpoint.writes``) and
    every read of the directory or of one record as a
    ``checkpoint.read`` span giving the shards read and their bytes.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        manifest: ShardManifest,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.tracer = tracer
        self.skipped: List[str] = []

    # -- construction --------------------------------------------------
    @staticmethod
    def peek_manifest(directory: Union[str, Path]) -> Optional[ShardManifest]:
        """The manifest already in ``directory``, if a readable one exists."""
        from ..io.serialization import shard_manifest_from_dict

        path = Path(directory) / _MANIFEST_NAME
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"checkpoint manifest {path} is unreadable: {exc}"
            ) from exc
        return shard_manifest_from_dict(data)

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        manifest: ShardManifest,
        must_exist: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> "CheckpointStore":
        """Bind a checkpoint directory to this run's manifest.

        A fresh directory is created and stamped; an existing one must
        match the incoming manifest in every field.  ``must_exist=True``
        (the ``--resume`` contract) additionally rejects a directory
        without a manifest instead of silently starting over.
        """
        directory = Path(directory)
        existing = cls.peek_manifest(directory)
        if existing is None:
            if must_exist:
                raise ConfigurationError(
                    f"cannot resume: no checkpoint manifest at "
                    f"{directory / _MANIFEST_NAME}"
                )
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_write(
                directory / _MANIFEST_NAME,
                [(json.dumps(shard_manifest_to_dict(manifest)) + "\n").encode()],
            )
        elif existing != manifest:
            mismatched = [
                f"{name} (checkpoint has {getattr(existing, name)!r}, "
                f"this run has {getattr(manifest, name)!r})"
                for name in manifest.__dataclass_fields__
                if getattr(existing, name) != getattr(manifest, name)
            ]
            raise ConfigurationError(
                f"checkpoint directory {directory} was written by a "
                f"different run: manifest field(s) do not match: "
                f"{'; '.join(mismatched)} "
                "(pass a fresh directory, or re-run with the original "
                f"spec and chunk_rows={existing.chunk_rows})"
            )
        return cls(directory, manifest, tracer)

    # -- shard records -------------------------------------------------
    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard-{index:06d}.jsonl"

    def write(self, result: ShardResult) -> None:
        """Persist one completed shard atomically (write + rename)."""
        tracer = self.tracer
        started = perf_counter() if tracer is not None else 0.0
        chunks = encode_frame(
            lambda payload: shard_record_to_dict(result, payload)
        )
        _atomic_write(self.shard_path(result.index), chunks)
        if tracer is not None:
            tracer.record_clock(
                "checkpoint.write", started, perf_counter(), shard=result.index
            )
            tracer.counter("checkpoint.writes").add()

    def load_completed(self) -> Dict[int, ShardResult]:
        """Every reusable shard record, keyed by shard index.

        Records that fail to parse or validate (a partial write from a
        hard kill predating the atomic rename, manual edits, a record
        of another reduction) are noted in :attr:`skipped` and
        recomputed rather than trusted.
        """
        tracer = self.tracer
        started = perf_counter() if tracer is not None else 0.0
        completed: Dict[int, ShardResult] = {}
        size = 0
        for path in sorted(self.directory.glob("shard-*.jsonl")):
            result, read = self._read_record(path)
            size += read
            if result is not None:
                completed[result.index] = result
        if tracer is not None:
            tracer.record_clock(
                "checkpoint.read", started, perf_counter(),
                shards=len(completed), bytes=size,
            )
        return completed

    def load_shard(self, index: int) -> Optional[ShardResult]:
        """The record for one shard, if a valid one is on disk.

        Same validation contract as :meth:`load_completed`, scoped to a
        single index — the distributed executor polls with this to pick
        up shards finished by *other* workers without re-reading the
        whole directory.  An invalid or misfiled record reads as
        "absent" (and is noted in :attr:`skipped`), so a torn record is
        recomputed, never trusted.  Only a record that exists is read,
        and timed.
        """
        path = self.shard_path(index)
        if not path.exists():
            return None
        tracer = self.tracer
        started = perf_counter() if tracer is not None else 0.0
        result, size = self._read_record(path)
        if tracer is not None:
            tracer.record_clock(
                "checkpoint.read", started, perf_counter(),
                shards=int(result is not None), bytes=size,
            )
        return result

    def _read_record(self, path: Path) -> Tuple[Optional[ShardResult], int]:
        """One record and the bytes read for it; ``None`` if unusable."""
        data = b""
        try:
            data = path.read_bytes()
            result = decode_frame(
                SHARD_RECORD_TABLE.title, data, shard_record_from_dict
            )
            # The manifest's uniform chunking fully determines every
            # shard's row range, so a record whose range disagrees
            # with its index (a hand-edited or misfiled record)
            # would silently misplace rows if trusted.
            start = result.index * self.manifest.chunk_rows
            stop = min(
                start + self.manifest.chunk_rows,
                self.manifest.total_rows,
            )
            if path != self.shard_path(result.index):
                raise ConfigurationError(
                    f"record index {result.index} does not match file name"
                )
            if not (
                0 <= result.index < self.manifest.n_shards
                and (result.start, result.stop) == (start, stop)
            ):
                raise ConfigurationError(
                    f"row range [{result.start}, {result.stop}) does "
                    f"not match shard {result.index} of the manifest "
                    f"chunking ([{start}, {stop}))"
                )
            # Likewise its shape must be the manifest's reduction: a
            # top-k record merged as a full shard would drop rows, and
            # a k=1 record in a k=5 run would drop winners.
            reduce = self.manifest.reduce
            expected = (
                None if reduce is None else min(reduce["k"], stop - start)
            )
            held = (
                None
                if result.local_indices is None
                else len(result.local_indices)
            )
            if held != expected:
                raise ConfigurationError(
                    f"record does not match the manifest's reduce "
                    f"{reduce!r}: {held} local indices, expected {expected}"
                )
        except (OSError, ConfigurationError) as exc:
            self.skipped.append(f"{path.name}: {exc}")
            return None, len(data)
        return result, len(data)


def _atomic_write(path: Path, chunks: Iterable[Any]) -> None:
    """Publish the bytes of ``chunks``, in order, at ``path`` by
    write-then-rename.

    Every write has its own temporary in the target's directory, so two
    writers of one file (a shard computed twice, two initiators stamping
    one work dir) never rename each other's temporary away.  It is
    created exclusively with the default file mode, which other users'
    workers can read (``tempfile.mkstemp`` would make it owner-only),
    and its dotted name matches no record or lease glob.
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as stream:
            stream.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# The pipeline: plan -> drive -> reduce
# ---------------------------------------------------------------------------
def _plan(
    spec: "StudySpec",
    reduce: Optional[Dict[str, Any]],
    executor: Optional[ParallelExecutor],
    chunk_rows: Optional[int],
    checkpoint_dir: Optional[Union[str, Path]],
    resume: bool,
    tracer: Optional[Tracer],
) -> Tuple[ShardManifest, Optional[CheckpointStore]]:
    """Resolve one run's manifest and its store, if it has one.

    The store is the checkpoint directory, or the executor's own work
    directory for a distributed run, and it records its reads and
    writes on the run's ``tracer``.  An unspecified ``chunk_rows``
    adopts the manifest already there (a resume, a re-run, a restarted
    server), else targets ~4 shards per worker.  Opening the store then
    checks every manifest field against the one on disk, so a
    directory never feeds rows from a different run.
    """
    from ..study.planner import study_size

    _require_spec(spec, "sharded execution")
    directory = checkpoint_dir
    if executor is not None and executor.work_dir is not None:
        if checkpoint_dir is not None:
            raise ConfigurationError(
                "a distributed work dir already checkpoints every shard; "
                "do not also pass a checkpoint directory"
            )
        directory = executor.work_dir
    if resume and directory is None:
        raise ConfigurationError("resume requires a checkpoint directory")
    total_rows = study_size(spec)
    if chunk_rows is None:
        existing = (
            CheckpointStore.peek_manifest(directory)
            if directory is not None
            else None
        )
        chunk_rows = (
            existing.chunk_rows
            if existing is not None
            else default_chunk_rows(
                total_rows, executor.n_workers if executor is not None else 1
            )
        )
    manifest = ShardManifest(
        kind="study",
        digest=spec.content_digest(),
        total_rows=total_rows,
        chunk_rows=chunk_rows,
        n_shards=len(shard_ranges(total_rows, chunk_rows)),
        knee_fraction=spec.knee_fraction,
        tolerance=spec.tolerance,
        reduce=reduce,
    )
    store = (
        CheckpointStore.open(directory, manifest, must_exist=resume, tracer=tracer)
        if directory is not None
        else None
    )
    return manifest, store


def _resume_and_map(
    spec: "StudySpec",
    manifest: ShardManifest,
    store: Optional[CheckpointStore],
    executor: Optional[ParallelExecutor],
    tracer: Optional[Tracer],
    progress: Optional[ProgressCallback],
) -> Iterator[ShardResult]:
    """Yield every shard's result: resumed from the store, then scheduled.

    Progress is counted here, not in a scheduling policy, so shards
    restored from the store count toward the same done/total (and the
    ``rows_per_s`` gauge) as the ones computed now.
    """
    completed = store.load_completed() if store is not None else {}
    done = rows_done = 0
    started = perf_counter()
    rate_gauge = tracer.gauge("rows_per_s") if tracer is not None else None

    def advance(result: ShardResult) -> ShardResult:
        nonlocal done, rows_done
        done += 1
        rows_done += result.stop - result.start
        elapsed = perf_counter() - started
        if rate_gauge is not None and elapsed > 0:
            rate_gauge.set(rows_done / elapsed)
        if progress is not None:
            progress(
                Progress(
                    done=done,
                    total=manifest.n_shards,
                    rows_done=rows_done,
                    rows_total=manifest.total_rows,
                    elapsed_s=elapsed,
                )
            )
        return result

    if completed and tracer is not None:
        tracer.counter("shards.resumed").add(len(completed))
    for index in sorted(completed):
        yield advance(completed[index])
    remaining = (
        shard
        for shard in iter_chunks(spec, manifest.chunk_rows)
        if shard.index not in completed
    )
    # Without an executor the run streams in-process (a one-worker
    # executor owns no pool, so there is nothing to close).
    policy = executor or ParallelExecutor(n_workers=1)
    for result in policy.map_shards(
        spec, remaining, manifest.reduce, tracer=tracer, store=store
    ):
        yield advance(result)


def _run_sharded(
    spec: "StudySpec",
    reduce: Optional[Dict[str, Any]] = None,
    executor: Optional[ParallelExecutor] = None,
    chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[BatchResult, Dict[str, np.ndarray], Optional[np.ndarray]]:
    """Plan, drive and reduce one sharded run: ``(batch, extras, indices)``.

    Without ``reduce`` the shards concatenate in row order — bitwise
    identical to the one-pass engine, since every kernel is elementwise
    — with the study's accounting columns (:data:`EXTRA_COLUMNS`) as
    ``extras``, and ``indices`` is ``None``.  With ``reduce`` (``{"k",
    "by", "descending"}``) every worker returns only its shard-local
    winners, which fold into a running global top-k as shards
    complete; ``indices`` are the winners' global rows and ``extras``
    is empty.
    """
    # Sizing and planning the grid is the whole compile step in this
    # process: each shard compiles its own rows.
    with maybe_span(tracer, "study.compile") as span:
        manifest, store = _plan(
            spec, reduce, executor, chunk_rows, checkpoint_dir, resume, tracer
        )
        span.set(rows=manifest.total_rows, shards=manifest.n_shards)
    results = _resume_and_map(spec, manifest, store, executor, tracer, progress)
    if reduce is not None:
        running: Optional[Tuple[np.ndarray, BatchResult]] = None
        for result in results:
            candidate = (result.global_indices, result.batch)
            parts = [candidate] if running is None else [running, candidate]
            with maybe_span(
                tracer, "study.merge", k=reduce["k"], shard=result.index
            ):
                running = merge_top_k(
                    parts,
                    reduce["k"],
                    by=reduce["by"],
                    descending=reduce["descending"],
                )
        assert running is not None  # shard_ranges yields >= 1 range
        return running[1], {}, running[0]
    ordered = sorted(results, key=lambda result: result.index)
    with maybe_span(tracer, "study.merge", shards=len(ordered)):
        batch = concat_results([r.batch for r in ordered])
        extras = {
            name: np.concatenate([r.extras[name] for r in ordered])
            for name in EXTRA_COLUMNS
        }
    return batch, extras, None


def top_k_sharded(
    spec: "StudySpec",
    k: int,
    by: str = "safe_velocity",
    descending: bool = True,
    executor: Optional[ParallelExecutor] = None,
    chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[np.ndarray, BatchResult]:
    """The global top-k of a study's grid, streamed shard by shard.

    Each worker returns only its shard-local winners, and completed
    shards fold into a running candidate set of at most ``k`` rows
    (:func:`~repro.batch.result.merge_top_k`), so peak memory is one
    chunk plus ``O(k)`` — never the full grid — and per-shard IPC is
    ``O(k)`` instead of ``O(chunk_rows)``.  Returns
    ``(global_row_indices, result)``, identical to running the study
    in one pass and calling ``result.batch.top_k(k, by, descending)``;
    the spec's own ``knee_fraction`` and ``tolerance`` apply.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    require_sortable(by)
    batch, _, indices = _run_sharded(
        spec,
        reduce={"k": int(k), "by": by, "descending": bool(descending)},
        executor=executor,
        chunk_rows=chunk_rows,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        tracer=tracer,
        progress=progress,
    )
    assert indices is not None  # the top-k reduction always returns them
    return indices, batch
