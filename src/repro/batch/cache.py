"""Content-addressed cache for batch evaluation results, opt-in.

A caller that passes a :class:`BatchCache` as ``cache=`` to
:func:`~repro.batch.engine.evaluate_matrix` or
:func:`~repro.study.runner.run_study` gets each result keyed by the
:meth:`~repro.batch.matrix.DesignMatrix.content_hash` of its input plus
the kernel parameters.  No path uses one by default: the hash reads
every matrix column, which costs about as much as the kernels, so a
memo only pays off for callers that know their inputs repeat.  The
cache is a bounded LRU and thread-safe; results are immutable so
sharing them between callers is sound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Optional

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .result import BatchResult


#: Default ceiling on the arrays a cache may pin (256 MiB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int
    misses: int
    entries: int
    maxsize: int
    total_bytes: int = 0
    max_bytes: int = DEFAULT_MAX_BYTES

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def delta(self, since: "CacheStats") -> "CacheStats":
        """The traffic between ``since`` and this snapshot.

        Counter fields subtract (hits/misses accrued in the window);
        state fields (entries, bounds, bytes) keep this snapshot's
        values.  This is how per-study cache attribution works against
        a long-lived cache whose raw counters only ever grow::

            before = cache.stats_snapshot()
            ...run the study...
            window = cache.stats_snapshot().delta(before)
            window.hit_rate   # this study's hit rate, nothing else's
        """
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            entries=self.entries,
            maxsize=self.maxsize,
            total_bytes=self.total_bytes,
            max_bytes=self.max_bytes,
        )


class BatchCache:
    """A bounded, thread-safe LRU of :class:`BatchResult` objects.

    Bounded twice over: by entry count (``maxsize``) and by the bytes
    the cached column arrays pin (``max_bytes``), since one
    fleet-scale result can weigh megabytes.  A result larger than
    ``max_bytes`` on its own is simply not cached.  Results that share
    a :class:`~repro.batch.matrix.DesignMatrix` (the same matrix
    evaluated under several tolerances or knee fractions) count its
    columns once each — a deliberate overestimate that errs toward
    evicting early rather than pinning more memory than budgeted.

    Lifecycle contract: a cache is safe to share between *threads*
    (every operation takes the instance lock) but must never be shared
    between *processes* — a fork copies the entries and the counters,
    silently pinning the parent's memory in every child and making
    :attr:`stats` meaningless.  Anything that inherits a cache across
    a fork must call :meth:`clear` before first use.  :meth:`clear`,
    :meth:`reset_stats` and :attr:`stats`/:meth:`stats_snapshot` are
    the public reset/observability API — code attributing hits to one
    run should diff two :meth:`stats_snapshot` calls
    (:meth:`CacheStats.delta`) rather than reason about prior traffic.
    """

    def __init__(
        self, maxsize: int = 64, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        if maxsize < 1:
            raise ConfigurationError(
                f"maxsize must be >= 1, got {maxsize}"
            )
        if max_bytes < 1:
            raise ConfigurationError(
                f"max_bytes must be >= 1, got {max_bytes}"
            )
        self._maxsize = maxsize
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[Hashable, BatchResult]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable) -> Optional["BatchResult"]:
        """The cached result for ``key``, refreshing its recency."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, key: Hashable, result: "BatchResult") -> None:
        """Store ``result``, evicting LRU entries past either bound.

        A result too large to ever fit under ``max_bytes`` is dropped
        rather than cached (caching it would evict everything else for
        a single entry).
        """
        size = result.nbytes
        if size > self._max_bytes:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._total_bytes -= previous.nbytes
            self._entries[key] = result
            self._total_bytes += size
            while self._entries and (
                len(self._entries) > self._maxsize
                or self._total_bytes > self._max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._total_bytes -= evicted.nbytes

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0
            self._hits = 0
            self._misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters *without* touching the entries.

        For run-scoped attribution on a warm cache when a
        :meth:`stats_snapshot` delta is inconvenient (e.g. tests that
        want absolute counts): the entries — and therefore future
        hits — survive, only the counters restart.
        """
        with self._lock:
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                maxsize=self._maxsize,
                total_bytes=self._total_bytes,
                max_bytes=self._max_bytes,
            )

    def stats_snapshot(self) -> CacheStats:
        """An atomic copy of the counters, for windowed deltas.

        The method spelling of :attr:`stats`, named for its role in
        the snapshot/:meth:`CacheStats.delta` attribution pattern the
        observability layer uses: both ends of the window come from
        one lock acquisition each, so concurrent traffic can never
        tear a snapshot.
        """
        return self.stats
