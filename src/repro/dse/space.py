"""Design-space enumeration: (UAV x compute platform x algorithm).

A :class:`DesignSpace` is built from registry names; iterating yields
:class:`Candidate` objects with the composed configuration.  Candidate
generation skips physically meaningless pairings (a platform heavier
than the UAV's remaining lift margin still *flies* under the braking
floor, so nothing is silently dropped — but callers can filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..autonomy.workloads import get_algorithm
from ..compute.platforms import get_platform
from ..errors import ConfigurationError
from ..uav.configuration import UAVConfiguration
from ..uav.registry import get_preset


@dataclass(frozen=True)
class Candidate:
    """One fully specified design point."""

    uav_name: str
    compute_name: str
    algorithm_name: str
    uav: UAVConfiguration
    f_compute_hz: float

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.uav_name, self.compute_name, self.algorithm_name)


@dataclass(frozen=True)
class DesignSpace:
    """The cross product of registered component names."""

    uav_names: Sequence[str]
    compute_names: Sequence[str]
    algorithm_names: Sequence[str]

    def __post_init__(self) -> None:
        if not (self.uav_names and self.compute_names and self.algorithm_names):
            raise ConfigurationError(
                "the design space needs at least one entry per dimension"
            )

    def __len__(self) -> int:
        return (
            len(self.uav_names)
            * len(self.compute_names)
            * len(self.algorithm_names)
        )

    def candidates(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Candidate]:
        """Yield candidates ``[start, stop)`` in deterministic order.

        Candidate ``i`` pairs UAV ``i // (C*A)`` with compute platform
        ``(i // A) % C`` and algorithm ``i % A`` (C platforms, A
        algorithms; the algorithm varies fastest), so a range is
        composed by index arithmetic, without the candidates before
        it.  Each UAV is composed with each platform once, and an
        algorithm's throughput, which depends on the platform and not
        the airframe, once per (compute, algorithm) pair.
        """
        n_algorithms = len(self.algorithm_names)
        per_uav = len(self.compute_names) * n_algorithms
        stop = len(self) if stop is None else min(stop, len(self))
        rates: Dict[Tuple[str, str], float] = {}
        uav_index = compute_index = -1
        for index in range(start, stop):
            u, rest = divmod(index, per_uav)
            c, a = divmod(rest, n_algorithms)
            if u != uav_index:
                uav_index, compute_index = u, -1
                uav_name = self.uav_names[u]
                base = get_preset(uav_name)
            if c != compute_index:
                compute_index = c
                compute_name = self.compute_names[c]
                platform = get_platform(compute_name)
                uav = base.with_compute(platform)
            algorithm_name = self.algorithm_names[a]
            pair = (compute_name, algorithm_name)
            if pair not in rates:
                algorithm = get_algorithm(algorithm_name)
                rates[pair] = algorithm.throughput_on(platform)
            yield Candidate(
                uav_name=uav_name,
                compute_name=compute_name,
                algorithm_name=algorithm_name,
                uav=uav,
                f_compute_hz=rates[pair],
            )
