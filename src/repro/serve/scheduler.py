"""The study scheduler: FIFO queue, worker threads, coalescing.

The front door (:mod:`repro.serve.server`) is an asyncio event loop
and must never block on a study; this module is the bridge onto the
synchronous PR-4 execution stack.  A :class:`StudyScheduler` owns

* a **bounded FIFO queue** — at most ``max_queue`` studies waiting;
  beyond that :meth:`submit` raises
  :class:`~repro.errors.StudyQueueFullError` carrying a concrete
  ``retry_after_s`` estimate (the 429 + ``Retry-After`` backpressure
  contract), so a burst degrades into polite retries instead of an
  unbounded memory footprint;
* ``max_concurrent`` **worker threads**, each draining the queue and
  running :func:`repro.study.runner.run_study` *sharded* (chunked
  streaming bounds memory and makes the PR-5 progress callback fire
  once per completed shard — the signal the ``/progress`` stream
  serves);
* **request coalescing** — studies are registered by spec content
  digest (:class:`~repro.serve.state.StudyStore`), so identical specs
  submitted while one is queued, running, or already finished all
  resolve to the same record and exactly one execution.

Everything observable is counted on the scheduler's
:class:`~repro.obs.tracer.Tracer` (``serve.studies.*`` counters,
``serve.queue_depth`` gauge) — the numbers ``GET /v1/stats`` serves
and the benchmarks assert on.
"""

from __future__ import annotations

import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Optional, Union

from ..batch.executor import ParallelExecutor
from ..errors import (
    ConfigurationError,
    ServiceUnavailableError,
    StudyQueueFullError,
)
from ..obs.progress import Progress
from ..obs.tracer import Tracer
from ..study.runner import run_study
from ..study.spec import StudySpec
from .state import StudyRecord, StudyStore

__all__ = ["StudyScheduler"]

#: Fallback per-study duration estimate before any study completed.
_DEFAULT_STUDY_S = 1.0

#: Completed-study durations kept for the Retry-After estimate.
_DURATION_WINDOW = 32


class StudyScheduler:
    """Run submitted studies on worker threads with bounded queueing."""

    def __init__(
        self,
        max_concurrent: int = 1,
        max_queue: int = 16,
        study_workers: Optional[int] = None,
        chunk_rows: Optional[int] = None,
        checkpoint_root: Optional[Union[str, Path]] = None,
        distrib_root: Optional[Union[str, Path]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        if study_workers is not None and study_workers < 1:
            raise ConfigurationError(
                f"study_workers must be >= 1, got {study_workers}"
            )
        if chunk_rows is not None and chunk_rows < 1:
            raise ConfigurationError(
                f"chunk_rows must be >= 1, got {chunk_rows}"
            )
        self.store = StudyStore()
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.study_workers = study_workers
        self.chunk_rows = chunk_rows
        if checkpoint_root is not None and distrib_root is not None:
            raise ConfigurationError(
                "checkpoint_root and distrib_root are mutually "
                "exclusive: a distributed work dir already checkpoints "
                "every shard"
            )
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.distrib_root = (
            Path(distrib_root) if distrib_root is not None else None
        )
        # The scheduler's tracer is always-on: counters and gauges are
        # the service's public /v1/stats surface, not an opt-in debug
        # aid, and cost nothing between requests.
        self.tracer = tracer if tracer is not None else Tracer()
        self._lock = threading.Condition()
        self._queue: Deque[StudyRecord] = deque()
        self._running = 0
        self._durations_s: Deque[float] = deque(maxlen=_DURATION_WINDOW)
        self._shutdown = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spin up the ``max_concurrent`` worker threads (idempotent)."""
        with self._lock:
            if self._threads or self._shutdown:
                return
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-study-worker-{i}",
                    daemon=True,
                )
                for i in range(self.max_concurrent)
            ]
        for thread in self._threads:
            thread.start()

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work and join the workers.

        In-flight studies finish (their waiters still get results);
        still-queued records are failed so no client blocks forever on
        a study that will never run.
        """
        with self._lock:
            self._shutdown = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._lock.notify_all()
        for record in abandoned:
            record.mark_failed("server shut down before this study ran")
        for thread in self._threads:
            thread.join(timeout=timeout_s)

    @property
    def accepting(self) -> bool:
        with self._lock:
            return not self._shutdown and bool(self._threads)

    # -- submission (front-door side) -----------------------------------
    def submit(self, spec: StudySpec) -> "tuple[StudyRecord, bool]":
        """Register a spec; returns ``(record, coalesced)``.

        The whole operation is serialized under the scheduler lock so
        a record can never be created and rejected concurrently: either
        the spec coalesces onto an existing record (no capacity
        consumed, any state), or it needs a queue slot — and if none is
        free, :class:`~repro.errors.StudyQueueFullError` carries the
        backpressure estimate and *nothing* is registered.
        """
        with self._lock:
            if self._shutdown or not self._threads:
                raise ServiceUnavailableError(
                    "the study scheduler is not accepting submissions"
                )
            record, created = self.store.register(spec)
            if not created:
                self.tracer.counter("serve.studies.coalesced").add()
                return record, True
            if len(self._queue) >= self.max_queue:
                self.store.discard(record.study_id)
                self.tracer.counter("serve.studies.rejected").add()
                raise StudyQueueFullError(
                    f"study queue is full ({self.max_queue} waiting); "
                    f"retry after the estimated drain time",
                    retry_after_s=self._retry_after_locked(),
                )
            self._queue.append(record)
            self.tracer.counter("serve.studies.submitted").add()
            self._set_depth_gauge_locked()
            self._lock.notify()
            return record, False

    def queue_depth(self) -> int:
        """Studies currently waiting (not running) in the queue."""
        with self._lock:
            return len(self._queue)

    def queue_position(self, record: StudyRecord) -> Optional[int]:
        """0-based position in the FIFO queue, ``None`` once dequeued."""
        with self._lock:
            for position, queued in enumerate(self._queue):
                if queued is record:
                    return position
        return None

    def retry_after_s(self) -> float:
        """The current backpressure estimate, for 503 responses."""
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        mean_s = (
            sum(self._durations_s) / len(self._durations_s)
            if self._durations_s
            else _DEFAULT_STUDY_S
        )
        waiting = len(self._queue) + self._running
        slots = max(1, self.max_concurrent)
        return max(1.0, round(mean_s * (waiting / slots + 1), 1))

    def _set_depth_gauge_locked(self) -> None:
        self.tracer.gauge("serve.queue_depth").set(len(self._queue))
        self.tracer.gauge("serve.studies.running").set(self._running)

    # -- execution (worker side) ----------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._lock.wait()
                if self._shutdown and not self._queue:
                    return
                record = self._queue.popleft()
                self._running += 1
                self._set_depth_gauge_locked()
            try:
                self._execute(record)
            finally:
                with self._lock:
                    self._running -= 1
                    self._set_depth_gauge_locked()

    def _execute(self, record: StudyRecord) -> None:
        record.mark_running()
        started_clock = self.tracer.now()
        study_tracer = Tracer()
        executor: Optional[Any] = None
        try:
            # Serve always runs studies sharded: chunked streaming
            # bounds worker memory and gives the /progress stream one
            # callback per completed shard.  An unset chunk_rows lets
            # the run adopt the chunking already on disk (a restart with
            # a different --workers resumes) or pick the default.
            if self.distrib_root is not None:
                # Each study gets its own work dir (keyed by study id,
                # itself digest-derived), so external `repro-skyline
                # worker` processes can join it by path, and restarting
                # the server resumes from the records already there.
                from ..distrib import DistributedExecutor, default_worker_id

                executor = DistributedExecutor(
                    self.distrib_root / record.study_id,
                    worker_id=f"serve-{default_worker_id()}",
                    n_workers=self.study_workers or 1,
                )
            else:
                # Without --workers, stream inline in this thread.
                executor = ParallelExecutor(n_workers=self.study_workers or 1)
            checkpoint = None
            if self.checkpoint_root is not None:
                checkpoint = self.checkpoint_root / record.study_id
            result = run_study(
                record.spec,
                executor=executor,
                chunk_rows=self.chunk_rows,
                checkpoint=checkpoint,
                tracer=study_tracer,
                progress=_RecordProgress(record),
            )
            record.mark_done(result.to_json())
            self.tracer.counter("serve.studies.completed").add()
        except Exception as exc:
            record.mark_failed(f"{type(exc).__name__}: {exc}")
            self.tracer.counter("serve.studies.failed").add()
        finally:
            if executor is not None:
                executor.close()
            self._durations_s.append(
                max(0.0, self.tracer.now() - started_clock)
            )
            self.tracer.counter("serve.studies.executed").add()


class _RecordProgress:
    """The :data:`~repro.obs.progress.ProgressCallback` serve installs.

    A named class (not a closure) so the callback survives pickling
    rules and shows up in tracebacks; it simply stores each snapshot
    on the study's record, where the streaming endpoint picks it up.
    """

    __slots__ = ("_record",)

    def __init__(self, record: StudyRecord) -> None:
        self._record = record

    def __call__(self, progress: Progress) -> None:
        self._record.update_progress(progress.to_dict())
