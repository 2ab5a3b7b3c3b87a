"""Design-space enumeration: (UAV x compute platform x algorithm).

A :class:`DesignSpace` is built from registry names; iterating yields
:class:`Candidate` objects with the composed configuration.  Candidate
generation skips physically meaningless pairings (a platform heavier
than the UAV's remaining lift margin still *flies* under the braking
floor, so nothing is silently dropped — but callers can filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

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

    def candidates(self) -> Iterator[Candidate]:
        """Yield every composed candidate in deterministic order.

        An algorithm's throughput depends on the platform, not the
        airframe, so it is computed once per (compute, algorithm) pair
        and reused for every UAV.
        """
        rates: Dict[Tuple[str, str], float] = {}
        for uav_name in self.uav_names:
            base = get_preset(uav_name)
            for compute_name in self.compute_names:
                platform = get_platform(compute_name)
                uav = base.with_compute(platform)
                for algorithm_name in self.algorithm_names:
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
