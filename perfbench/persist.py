"""persist-resume: checkpointed writes, resumed reads, a two-worker fleet.

Each cycle takes a fresh seeded knob study and runs three operations
on it, one after the other:

* ``op`` (write): ``run_study(checkpoint=fresh_dir, chunk_rows=...)``
  then ``StudyResult.save`` -- the CLI's ``study --checkpoint --out``;
* ``read``: ``run_study(checkpoint=dir, resume=True)`` over the
  completed directory, then ``StudyResult.load``;
* ``fleet``: the same study through ``DistributedExecutor`` with one
  ``run_worker`` joiner thread, in a fresh work dir.

Traced, ``CheckpointStore.load_completed`` is timed from outside by
wrapping the method for the duration of the call (``checkpoint.read``)
and encode/decode are timed once more per cycle outside the operations
(``result.encode_s`` / ``result.decode_s``).
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from common import Deadline, Outcome, SpeedProbe
from layers import OpTrace, tracer_spans
from repro.batch.engine import clear_default_cache
from repro.batch.executor import CheckpointStore
from repro.distrib import DistributedExecutor, run_worker
from repro.obs import Tracer
from repro.study import StudyResult, StudySpec, run_study, study_size
from specs import PERSIST_SHARDS, Sizes, knob_spec

#: Lease poll interval of both fleet workers (seconds).
POLL_S = 0.02

#: Distributed counters reported per fleet run.
DISTRIB_COUNTERS = {
    "distrib.claimed": "distrib.leases.claimed",
    "distrib.stolen": "distrib.leases.stolen",
    "distrib.computed": "distrib.shards.computed",
    "distrib.loaded": "distrib.shards.loaded",
    "distrib.wait_polls": "distrib.wait_polls",
}


@contextmanager
def timed_loads(trace: Optional[OpTrace]) -> Iterator[None]:
    """Claim ``CheckpointStore.load_completed`` time as checkpoint.read."""
    if trace is None:
        yield
        return
    original = CheckpointStore.load_completed

    def load_completed(store: CheckpointStore) -> Dict[int, Any]:
        started = perf_counter()
        try:
            return original(store)
        finally:
            trace.add({"checkpoint.read": perf_counter() - started})

    CheckpointStore.load_completed = load_completed  # type: ignore[method-assign]
    try:
        yield
    finally:
        CheckpointStore.load_completed = original  # type: ignore[method-assign]


def write(
    text: str, checkpoint: Path, out: Path, chunk_rows: int,
    trace: Optional[OpTrace],
) -> StudyResult:
    """(a) checkpointed run, then save."""
    if trace is None:
        result = run_study(
            StudySpec.from_json(text), checkpoint=checkpoint,
            chunk_rows=chunk_rows,
        )
        result.save(out)
        return result
    with trace.call("spec"):
        spec = StudySpec.from_json(text)
    tracer = Tracer()
    with trace.call(), timed_loads(trace):
        result = run_study(
            spec, checkpoint=checkpoint, chunk_rows=chunk_rows, tracer=tracer
        )
    trace.absorb(tracer_spans(tracer))
    # Save what an untraced run saves: the same result, no telemetry.
    plain = dataclasses.replace(result, telemetry=None)
    with trace.call("result.save"):
        plain.save(out)
    return plain


def read(
    text: str, checkpoint: Path, out: Path, trace: Optional[OpTrace]
) -> List[StudyResult]:
    """(b) resume from the completed directory, then load."""
    if trace is None:
        resumed = run_study(
            StudySpec.from_json(text), checkpoint=checkpoint, resume=True
        )
        return [resumed, StudyResult.load(out)]
    with trace.call("spec"):
        spec = StudySpec.from_json(text)
    tracer = Tracer()
    with trace.call(), timed_loads(trace):
        resumed = run_study(
            spec, checkpoint=checkpoint, resume=True, tracer=tracer
        )
    trace.absorb(tracer_spans(tracer))
    with trace.call("result.load"):
        loaded = StudyResult.load(out)
    return [resumed, loaded]


def fleet(
    text: str, work_dir: Path, chunk_rows: int, tracer: Optional[Tracer]
) -> StudyResult:
    """(c) an initiator plus one joiner thread over a shared work dir."""
    spec = StudySpec.from_json(text)
    errors: List[BaseException] = []

    def join() -> None:
        try:
            run_worker(
                work_dir, worker_id="joiner", wait_s=30.0,
                poll_interval_s=POLL_S, tracer=tracer,
            )
        except Exception as exc:
            errors.append(exc)

    joiner = threading.Thread(target=join, name="fleet-joiner")
    joiner.start()
    try:
        with DistributedExecutor(
            work_dir, worker_id="initiator", poll_interval_s=POLL_S
        ) as executor:
            result = run_study(
                spec, executor=executor, chunk_rows=chunk_rows, tracer=tracer
            )
    finally:
        joiner.join()
    if errors:
        raise errors[0]
    return result


class Cycles:
    """The write / read / fleet loop over fresh seeded studies."""

    def __init__(
        self, sizes: Sizes, rng: np.random.Generator, work_dir: Path,
        outcome: Outcome,
    ) -> None:
        self.sizes = sizes
        self.rng = rng
        self.work_dir = work_dir
        self.outcome = outcome
        self.probe = SpeedProbe()
        self.cycles = 0
        self.fleet_counts: Dict[str, List[float]] = {}
        self.extras: Dict[str, List[float]] = {}

    def phase(self, seconds: float, traced: bool) -> None:
        deadline = Deadline(seconds)
        while not deadline.passed():
            self.cycle(traced)

    def cycle(self, traced: bool) -> None:
        # Each cycle stands for one CLI invocation: start from an empty
        # process-wide cache, so memory does not grow with cycle count.
        clear_default_cache()
        self.cycles += 1
        text = knob_spec(self.rng, self.sizes.persist_shape).to_json()
        rows = study_size(StudySpec.from_json(text))
        chunk_rows = math.ceil(rows / PERSIST_SHARDS)
        base = self.work_dir / f"cycle-{self.cycles}"
        checkpoint, out = base / "checkpoint", base / "result.json"
        try:
            written = self.timed(
                "op", rows, traced,
                lambda t: write(text, checkpoint, out, chunk_rows, t),
            )
            if written is None:
                return
            if traced:
                self.measure_encoding(written, checkpoint, out)
            reads = self.timed(
                "read", rows, traced, lambda t: read(text, checkpoint, out, t)
            )
            if reads is not None and not all(r.equals(written) for r in reads):
                self.outcome.fail("read: resumed or loaded result differs")
            tracer = Tracer() if traced else None

            def run_fleet(trace: Optional[OpTrace]) -> StudyResult:
                if trace is None:
                    return fleet(text, base / "fleet", chunk_rows, None)
                with trace.call():
                    return fleet(text, base / "fleet", chunk_rows, tracer)

            distributed = self.timed("fleet", rows, traced, run_fleet)
            if distributed is not None:
                self.check_fleet(distributed, written, base / "fleet")
            if tracer is not None:
                self.count_fleet(tracer, chunk_rows, rows)
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def timed(self, kind: str, rows: int, traced: bool, call: Any) -> Any:
        """Run one operation, recording its latency or its trace."""
        outcome = self.outcome
        outcome.attempted += 1
        scale = self.probe.scale()
        trace = OpTrace(rows=rows) if traced else None
        started = perf_counter()
        try:
            value = call(trace)
        except Exception as exc:  # a failed op is counted, not fatal
            outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        if trace is None:
            outcome.record(kind, perf_counter() - started, scale, rows)
        else:
            trace.normalize(scale)
            outcome.trace(kind, trace)
        return value

    def check_fleet(
        self, distributed: StudyResult, written: StudyResult, work_dir: Path
    ) -> None:
        if not distributed.equals(written):
            self.outcome.fail("fleet: distributed result differs")
        leases = list((work_dir / "leases").glob("*.lease.json"))
        if leases:
            self.outcome.fail(f"fleet: {len(leases)} lease file(s) left")

    def measure_encoding(
        self, result: StudyResult, checkpoint: Path, out: Path
    ) -> None:
        """Encode/decode timing and wire sizes, outside the operations."""
        rows = len(result)
        started = perf_counter()
        text = result.to_json()
        encoded = perf_counter()
        StudyResult.from_json(text)
        decoded = perf_counter()
        shards = list(checkpoint.glob("shard-*.jsonl"))
        extras = {
            "result.encode_s": encoded - started,
            "result.decode_s": decoded - encoded,
            "result.bytes_per_row": out.stat().st_size / rows,
            "checkpoint.bytes_per_row": (
                sum(path.stat().st_size for path in shards) / rows
            ),
            "checkpoint.writes": len(shards),
        }
        for name, value in extras.items():
            self.extras.setdefault(name, []).append(value)

    def count_fleet(self, tracer: Tracer, chunk_rows: int, rows: int) -> None:
        counters = tracer.counters_snapshot()
        values = {
            name: float(counters.get(counter, 0))
            for name, counter in DISTRIB_COUNTERS.items()
        }
        n_shards = math.ceil(rows / chunk_rows)
        computed = values["distrib.computed"]
        values["distrib.useful_ratio"] = n_shards / computed if computed else 0.0
        values["distrib.wait_s"] = sum(
            span.duration_s for span in tracer.spans if span.name == "distrib.wait"
        )
        for name, value in values.items():
            self.fleet_counts.setdefault(name, []).append(value)


def run(
    sizes: Sizes,
    rng: np.random.Generator,
    seconds: float,
    trace: bool,
    work_dir: Path,
) -> Outcome:
    """Run persist-resume; ``trace`` adds a traced half (see library)."""
    outcome = Outcome()
    cycles = Cycles(sizes, rng, work_dir, outcome)
    warm = Outcome()
    Cycles(sizes, rng, work_dir / "warm-up", warm).cycle(traced=False)
    if warm.failures:
        outcome.attempted += warm.attempted
        outcome.failures.extend(warm.failures)
    if not trace:
        cycles.phase(seconds, traced=False)
        return outcome
    cycles.phase(seconds / 2, traced=False)
    cycles.phase(seconds / 2, traced=True)
    for name, values in {**cycles.extras, **cycles.fleet_counts}.items():
        outcome.layer_metrics[name] = statistics.median(values)
    return outcome
