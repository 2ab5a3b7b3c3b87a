"""Progress reporting for sharded studies.

:class:`Progress` is the immutable snapshot the sharded pipeline
(:mod:`repro.batch.executor`, behind a sharded ``run_study`` and
``top_k_sharded``) hands to a
:data:`ProgressCallback` each time a shard completes or resumes:
shards done/total, rows done/total, elapsed seconds, and
the derived rows/sec throughput and ETA.  :class:`ProgressPrinter` is
the stock callback behind the CLI's ``--progress`` flag — one human
line per update on stderr, never stdout, so piped JSON stays pure.

Anything can hook the callback: :mod:`repro.serve` wires it to
per-study progress endpoints by storing the latest snapshot instead of
printing it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TextIO

__all__ = [
    "Progress",
    "ProgressCallback",
    "ProgressPrinter",
]


@dataclass(frozen=True)
class Progress:
    """One point-in-time snapshot of a sharded run's completion."""

    done: int
    total: int
    rows_done: int
    rows_total: int
    elapsed_s: float

    @property
    def fraction(self) -> float:
        """Rows completed as a fraction of the grid (0 when empty)."""
        return self.rows_done / self.rows_total if self.rows_total else 0.0

    @property
    def rows_per_s(self) -> float:
        """Mean evaluated-rows throughput since the run started."""
        return self.rows_done / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion; ``None`` before any signal."""
        rate = self.rows_per_s
        if rate <= 0:
            return None
        return (self.rows_total - self.rows_done) / rate

    def describe(self) -> str:
        """One human line: shards, rows, throughput, ETA."""
        eta = self.eta_s
        eta_text = "--" if eta is None else f"{eta:.1f}s"
        return (
            f"shards {self.done}/{self.total} | "
            f"rows {self.rows_done}/{self.rows_total} "
            f"({self.fraction:.1%}) | "
            f"{self.rows_per_s:,.0f} rows/s | eta {eta_text}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot (what a progress endpoint serves)."""
        return {
            "done": self.done,
            "total": self.total,
            "rows_done": self.rows_done,
            "rows_total": self.rows_total,
            "elapsed_s": self.elapsed_s,
            "rows_per_s": self.rows_per_s,
            "eta_s": self.eta_s,
        }


#: The hook signature every executor-level entry point accepts.
ProgressCallback = Callable[[Progress], None]


class ProgressPrinter:
    """Print :class:`Progress` snapshots as ``study: ...`` lines.

    Writes to ``stream``, or to ``sys.stderr`` when none is given
    (resolved at call time so pytest's capture sees it).

    Thread-safe: studies running on several threads may share one
    printer, so the monotonicity check and the write are one atomic
    operation under a lock, and each update lands on the stream as a
    *single* ``write`` call — lines can never interleave mid-text.  Out-of-order snapshots
    (fewer rows done than already printed) are dropped so the printed
    sequence is monotone.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._max_rows_done = -1

    def __call__(self, progress: Progress) -> None:
        line = f"study: {progress.describe()}\n"
        with self._lock:
            if progress.rows_done < self._max_rows_done:
                return  # stale snapshot delivered late
            self._max_rows_done = progress.rows_done
            stream = (
                self._stream if self._stream is not None else sys.stderr
            )
            stream.write(line)
