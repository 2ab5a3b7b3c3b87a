"""Shared pieces of the workload runners: outcomes, host-speed probe,
percentiles and memory."""

from __future__ import annotations

import json
import math
import mmap
import resource
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from layers import OpTrace

#: The checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Rel./abs. tolerance for batch rows against the scalar F-1 chain.
SCALAR_TOL = 1e-9

#: The speed probe's time on the reference host (a 2-CPU container).
#: Normalized times are "seconds on that host".
REFERENCE_PROBE_S = 0.0055

#: Bytes of fresh anonymous memory the probe faults in (512 pages).
_PROBE_PAGES_BYTES = 1 << 21


class SpeedProbe:
    """A fixed task, timed right before every measured operation.

    The shared hosts this benchmark runs on change speed by 20-40% over
    seconds to minutes (a pure-Python loop alternates between two
    speeds; page faults cost more or less), which moves every latency
    with it.  The probe mixes what the operations do -- interpreter
    loop, NumPy array math, ``json`` encoding, faulting in fresh pages
    -- and touches nothing of the program, so scaling each operation
    by ``REFERENCE_PROBE_S / probe`` removes the host's phase while a
    slower program still reads slower.  On the reference host this cut
    the run-to-run spread of operation medians from 13-38% to 4-9%.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(100_000)
        self._out = np.empty_like(self._array)
        self._floats = self._array[:3000].tolist()

    def scale(self) -> float:
        """``REFERENCE_PROBE_S`` over the probe's time right now.

        The probe maps its own pages and allocates nothing large through
        the heap, so the allocator state the program leaves behind
        cannot change its time.
        """
        started = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(3):
            np.multiply(self._array, 2.0, out=self._out)
            np.sqrt(self._out, out=self._out)
        json.dumps(self._floats)
        pages = mmap.mmap(-1, _PROBE_PAGES_BYTES)
        for offset in range(0, _PROBE_PAGES_BYTES, mmap.PAGESIZE):
            pages[offset] = 1
        pages.close()
        return REFERENCE_PROBE_S / (perf_counter() - started)


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def own_peak_rss_mb() -> float:
    """This process's resident-memory high-water mark (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Another live process's resident-memory high-water mark (MB)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Deadline:
    """The end of a timed phase of ``seconds`` (checked between ops)."""

    def __init__(self, seconds: float) -> None:
        self.end = perf_counter() + seconds

    def passed(self) -> bool:
        return perf_counter() >= self.end


@dataclass
class Outcome:
    """Everything one workload run measured and checked.

    ``samples[kind]`` are host-speed-normalized latencies of the
    workload's primary (``op``), read-side (``read``) and distributed
    (``fleet``) operations, ``raw[kind]`` the wall clock readings;
    ``busy_s`` is the (normalized) timed phase that ``rows`` were
    delivered in.
    """

    samples: Dict[str, List[float]] = field(default_factory=dict)
    raw: Dict[str, List[float]] = field(default_factory=dict)
    rows: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Traced operations by kind.
    traces: Dict[str, List[OpTrace]] = field(default_factory=dict)
    #: Per-layer metrics beyond the share tables (counts, bytes, ...);
    #: ``None`` marks one the workload cannot measure.
    layer_metrics: Dict[str, Optional[float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record(self, kind: str, elapsed: float, scale: float, rows: int) -> None:
        """One untraced operation: its latency and the rows it delivered."""
        self.samples.setdefault(kind, []).append(elapsed * scale)
        self.raw.setdefault(kind, []).append(elapsed)
        self.rows += rows
        self.busy_s += elapsed * scale

    def trace(self, kind: str, op: OpTrace) -> None:
        self.traces.setdefault(kind, []).append(op)

    def end_to_end(self) -> Dict[str, Optional[float]]:
        """The end-to-end metrics (``None`` where the workload has none)."""
        ops = self.samples.get("op", [])
        reads = self.samples.get("read", [])
        fleets = self.samples.get("fleet", [])
        return {
            "rows_per_s": self.rows / self.busy_s if self.busy_s else None,
            "op_p50_s": median(ops) if ops else None,
            # A p90 needs ten samples beyond it to mean anything.
            "op_p90_s": percentile(ops, 90) if len(ops) >= 100 else None,
            "read_p50_s": median(reads) if reads else None,
            "fleet_p50_s": median(fleets) if fleets else None,
            "failed_ratio": (
                len(self.failures) / self.attempted if self.attempted else None
            ),
            "peak_rss_mb": self.peak_rss_mb or None,
        }


def scalar_mismatches(
    batch: Any, row: int, model: Any, tolerance: float
) -> List[str]:
    """Columns of one batch row that disagree with a scalar F1Model."""
    expected = {
        "roof_velocity": model.roof_velocity,
        "knee_hz": model.knee.throughput_hz,
        "knee_velocity": model.knee.velocity,
        "action_throughput_hz": model.action_throughput_hz,
        "safe_velocity": model.safe_velocity,
    }
    bad = [
        name
        for name, value in expected.items()
        if not math.isclose(
            float(getattr(batch, name)[row]),
            value,
            rel_tol=SCALAR_TOL,
            abs_tol=SCALAR_TOL,
        )
    ]
    if batch.bound_at(row) is not model.bound:
        bad.append("bound")
    if batch.status_at(row) is not model.optimality(tolerance).status:
        bad.append("status")
    return bad
