"""Design-space enumeration: (UAV x compute platform x algorithm).

A :class:`DesignSpace` is built from registry names; iterating yields
:class:`Candidate` objects with the composed configuration.  Candidate
generation skips physically meaningless pairings (a platform heavier
than the UAV's remaining lift margin still *flies* under the braking
floor, so nothing is silently dropped — but callers can filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..autonomy.base import AutonomyAlgorithm
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

    def pairs(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[UAVConfiguration]:
        """Yield the composed (UAV, compute) pairs ``[start, stop)``.

        Pair ``p`` carries compute platform ``p % C`` on UAV ``p // C``
        (C platforms), and candidate ``i`` flies pair ``i // A`` (A
        algorithms).  Each UAV preset is built once per run of its
        pairs and composed with each platform once.
        """
        n_computes = len(self.compute_names)
        n_pairs = len(self.uav_names) * n_computes
        stop = n_pairs if stop is None else min(stop, n_pairs)
        uav_index = -1
        for index in range(start, stop):
            u, c = divmod(index, n_computes)
            if u != uav_index:
                uav_index = u
                base = get_preset(self.uav_names[u])
            yield base.with_compute(get_platform(self.compute_names[c]))

    def rates(self, start: int = 0, stop: Optional[int] = None) -> List[float]:
        """The compute rate (Hz) of candidates ``[start, stop)``.

        An algorithm's throughput depends on the platform and not the
        airframe, so it is computed once per (compute, algorithm) pair
        the range touches, and each algorithm is built once.
        """
        n_algorithms = len(self.algorithm_names)
        per_uav = len(self.compute_names) * n_algorithms
        stop = len(self) if stop is None else min(stop, len(self))
        algorithms: Dict[int, AutonomyAlgorithm] = {}
        rates: Dict[Tuple[int, int], float] = {}
        out = []
        for index in range(start, stop):
            pair = divmod(index % per_uav, n_algorithms)
            if pair not in rates:
                c, a = pair
                if a not in algorithms:
                    algorithms[a] = get_algorithm(self.algorithm_names[a])
                platform = get_platform(self.compute_names[c])
                rates[pair] = algorithms[a].throughput_on(platform)
            out.append(rates[pair])
        return out

    def candidates(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Candidate]:
        """Yield candidates ``[start, stop)`` in deterministic order.

        Candidate ``i`` pairs UAV ``i // (C*A)`` with compute platform
        ``(i // A) % C`` and algorithm ``i % A`` (C platforms, A
        algorithms; the algorithm varies fastest), so a range is
        composed by index arithmetic, without the candidates before
        it: one :meth:`pairs` composition per (UAV, compute) pair and
        the :meth:`rates` of the range.
        """
        n_algorithms = len(self.algorithm_names)
        n_computes = len(self.compute_names)
        stop = len(self) if stop is None else min(stop, len(self))
        pairs = self.pairs(start // n_algorithms)
        for index, rate in zip(range(start, stop), self.rates(start, stop)):
            pair, a = divmod(index, n_algorithms)
            if a == 0 or index == start:
                uav = next(pairs)
            u, c = divmod(pair, n_computes)
            yield Candidate(
                uav_name=self.uav_names[u],
                compute_name=self.compute_names[c],
                algorithm_name=self.algorithm_names[a],
                uav=uav,
                f_compute_hz=rate,
            )
