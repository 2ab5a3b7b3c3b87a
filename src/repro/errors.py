"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch one base type at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A UAV or model configuration is inconsistent or out of range."""


class InfeasibleDesignError(ReproError):
    """The requested design cannot fly (e.g. thrust below weight with
    no braking floor, or a commanded velocity above the physics roof)."""


class CalibrationError(ReproError):
    """Parameter fitting failed to converge or had insufficient data."""


class SimulationError(ReproError):
    """A simulation was configured or advanced incorrectly."""


class UnknownComponentError(ReproError, KeyError):
    """A named component (platform, algorithm, sensor) is not registered."""


class UnknownStudyError(ReproError, KeyError):
    """A study id names no study the serving layer knows about."""

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its argument (useful for dict
        # keys, noise for error messages); restore plain text.
        return str(self.args[0]) if self.args else ""


class StudyQueueFullError(ReproError):
    """The serving layer's study queue is at its depth limit.

    Carries the scheduler's ``retry_after_s`` estimate so the HTTP
    layer can answer ``429 Too Many Requests`` with a concrete
    ``Retry-After`` header instead of a bare rejection.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceUnavailableError(ReproError):
    """The serving layer is not (or no longer) accepting requests."""


class StaleLeaseError(ReproError):
    """A lease this worker believed it held was expired and taken over.

    Raised on heartbeat when the lease file has vanished or a newer
    lease generation exists: another worker judged this one dead (no
    heartbeat within ``lease_ttl_s``) and re-claimed the shard.  The
    shard itself is still safe — records are deterministic and
    published atomically — so callers treat this as "stop working on
    that shard", not as data loss.
    """

    def __init__(
        self,
        message: str,
        shard_index: "int | None" = None,
        owner: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.owner = owner

    def __reduce__(
        self,
    ) -> "tuple[type, tuple[object, ...]]":  # picklable across pools
        return (type(self), (self.args[0], self.shard_index, self.owner))


class ShardExecutionError(ReproError):
    """A sharded-executor worker failed while evaluating one shard.

    Raised in place of the worker's original exception (which is kept
    as ``__cause__``) so failures surface *with* their shard context —
    the shard index and the ``[start, stop)`` row range — instead of a
    bare traceback from deep inside a process-pool worker.
    """

    def __init__(
        self,
        message: str,
        shard_index: "int | None" = None,
        start: "int | None" = None,
        stop: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.start = start
        self.stop = stop

    def __reduce__(
        self,
    ) -> "tuple[type, tuple[object, ...]]":  # picklable across pools
        return (
            type(self),
            (self.args[0], self.shard_index, self.start, self.stop),
        )
