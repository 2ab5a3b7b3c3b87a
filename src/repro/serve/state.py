"""Shared, thread-safe study state for the serving layer.

A :class:`StudyRecord` is the single source of truth for one submitted
study: its lifecycle state, the latest progress snapshot, and (once
finished) the exact ``StudyResult`` JSON text every waiter receives.
Records are keyed by the spec's content digest
(:meth:`~repro.study.spec.StudySpec.content_digest`) — the same digest
the batch layer's checkpoint manifests pin — which is what makes
submission idempotent and request coalescing possible: two clients
posting byte-different JSON of the *same* study resolve to the same
record.

All mutation happens under the record's condition variable; the
asyncio front door and the scheduler's worker threads only ever
observe consistent snapshots, and progress streams block on
:meth:`StudyRecord.wait_update` instead of polling raw fields.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from ..errors import UnknownStudyError
from ..io.serialization import STUDY_STATES
from ..study.spec import StudySpec

__all__ = [
    "StudyRecord",
    "StudyStore",
    "study_id_for_digest",
]

#: Hex digits of the spec digest a study id carries (collision odds at
#: 16 hex chars are ~2^-64 per pair — and a collision only merges two
#: studies the digest already calls identical).
_ID_DIGEST_CHARS = 16


def study_id_for_digest(digest: str) -> str:
    """The public study id for a spec content digest (deterministic)."""
    return f"study-{digest[:_ID_DIGEST_CHARS]}"


class StudyRecord:
    """One submitted study's mutable lifecycle state.  Thread-safe."""

    def __init__(self, spec: StudySpec, digest: str) -> None:
        self.spec = spec
        self.digest = digest
        self.study_id = study_id_for_digest(digest)
        self._condition = threading.Condition()
        self._state = "queued"
        self._seq = 0
        self._progress: Optional[Dict[str, Any]] = None
        self._result_json: Optional[str] = None
        self._error: Optional[str] = None

    # -- snapshots ------------------------------------------------------
    @property
    def state(self) -> str:
        with self._condition:
            return self._state

    @property
    def error(self) -> Optional[str]:
        with self._condition:
            return self._error

    def result_json(self) -> Optional[str]:
        """The finished result's JSON text; every waiter gets this
        same string, so fan-out is bitwise identical by construction."""
        with self._condition:
            return self._result_json

    def snapshot(self) -> Tuple[int, str, Optional[Dict[str, Any]]]:
        """One consistent ``(seq, state, progress)`` view."""
        with self._condition:
            return (
                self._seq,
                self._state,
                dict(self._progress) if self._progress else None,
            )

    # -- transitions (scheduler side) -----------------------------------
    def _bump(self) -> None:
        self._seq += 1
        self._condition.notify_all()

    def mark_running(self) -> None:
        with self._condition:
            self._state = "running"
            self._bump()

    def update_progress(self, progress: Dict[str, Any]) -> None:
        """Record the latest progress snapshot (monotone by rows).

        The executor's callback fires once per completed shard from
        the study's worker thread; a stale or out-of-order snapshot
        (fewer rows done than already recorded) is dropped so the
        progress stream is monotone even under concurrent writers.
        """
        with self._condition:
            if self._progress is not None and (
                progress.get("rows_done", 0)
                < self._progress.get("rows_done", 0)
            ):
                return
            self._progress = dict(progress)
            self._bump()

    def mark_done(self, result_json: str) -> None:
        with self._condition:
            self._state = "done"
            self._result_json = result_json
            self._bump()

    def mark_failed(self, message: str) -> None:
        with self._condition:
            self._state = "failed"
            self._error = message
            self._bump()

    # -- waiting (front-door side) --------------------------------------
    def wait_update(
        self, last_seq: int, timeout_s: float
    ) -> Tuple[int, str, Optional[Dict[str, Any]]]:
        """Block until the record changes past ``last_seq`` (or timeout).

        Returns the freshest ``(seq, state, progress)`` snapshot either
        way; callers loop on the returned ``seq``.  Terminal records
        return immediately, so a stream reader never blocks on a study
        that already finished.
        """
        deadline = perf_counter() + timeout_s
        with self._condition:
            while (
                self._seq <= last_seq
                and self._state not in ("done", "failed")
            ):
                remaining_s = deadline - perf_counter()
                if remaining_s <= 0:
                    break
                self._condition.wait(remaining_s)
            return (
                self._seq,
                self._state,
                dict(self._progress) if self._progress else None,
            )

    def wait_done(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the study reaches a terminal state."""
        deadline = (
            None if timeout_s is None else perf_counter() + timeout_s
        )
        with self._condition:
            while self._state not in ("done", "failed"):
                if deadline is None:
                    self._condition.wait()
                    continue
                remaining_s = deadline - perf_counter()
                if remaining_s <= 0:
                    return False
                self._condition.wait(remaining_s)
            return True


class StudyStore:
    """The digest-keyed registry of every study this server has seen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_id: Dict[str, StudyRecord] = {}

    def register(self, spec: StudySpec) -> Tuple[StudyRecord, bool]:
        """The record for ``spec``, creating it on first sight.

        Returns ``(record, created)``; ``created=False`` is the
        coalescing path — the caller joins an existing submission
        (queued, running, or already finished) instead of enqueuing a
        duplicate execution.
        """
        digest = spec.content_digest()
        study_id = study_id_for_digest(digest)
        with self._lock:
            record = self._by_id.get(study_id)
            if record is not None:
                return record, False
            record = StudyRecord(spec, digest)
            self._by_id[study_id] = record
            return record, True

    def discard(self, study_id: str) -> None:
        """Forget a record (used when a fresh submission is rejected
        for capacity before it ever reached the queue)."""
        with self._lock:
            self._by_id.pop(study_id, None)

    def get(self, study_id: str) -> StudyRecord:
        with self._lock:
            record = self._by_id.get(study_id)
        if record is None:
            raise UnknownStudyError(
                f"unknown study id {study_id!r}; ids are returned by "
                f"POST /v1/studies and look like 'study-<digest16>'"
            )
        return record

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)


# STUDY_STATES is re-exported for callers that enumerate lifecycle
# states without importing the serialization layer directly.
assert set(STUDY_STATES) == {"queued", "running", "done", "failed"}
