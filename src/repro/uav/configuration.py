"""Whole-vehicle UAV configuration with weight and thrust accounting.

A :class:`UAVConfiguration` composes the component dataclasses into one
flyable vehicle, derives the Eq. 5 acceleration from its all-up weight
and rated thrust, and builds the corresponding :class:`F1Model` once a
compute throughput is known.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.knee import KneeStrategy
from ..core.model import F1Model
from ..core.physics import (
    DEFAULT_BRAKING_PITCH_DEG,
    QuadraticDrag,
    ThrustMarginModel,
)
from ..core.throughput import SensorComputeControl
from ..errors import ConfigurationError
from ..units import require_nonnegative
from . import budget
from .components import (
    Battery,
    ComputePlatform,
    FlightControllerBoard,
    Frame,
    Motor,
    Sensor,
)

_DEFAULT_FC = FlightControllerBoard(name="nxp-fmuk66", mass_g=0.0)


@dataclass(frozen=True)
class UAVConfiguration:
    """One complete UAV: frame, propulsion, energy, sensing, compute.

    ``payload_override_g`` replaces the component-derived payload mass
    with a measured figure (Table I publishes payload weights that
    include compute batteries and mounting hardware the component list
    does not itemize).  ``compute_redundancy`` counts identical onboard
    computers flying in a modular-redundancy arrangement (Sec. VI-C).
    """

    name: str
    frame: Frame
    motor: Motor
    battery: Battery
    sensor: Sensor
    compute: ComputePlatform
    flight_controller: FlightControllerBoard = field(default=_DEFAULT_FC)
    compute_redundancy: int = 1
    extra_payload_g: float = 0.0
    payload_override_g: Optional[float] = None
    braking_pitch_deg: float = DEFAULT_BRAKING_PITCH_DEG

    def __post_init__(self) -> None:
        require_nonnegative("extra_payload_g", self.extra_payload_g)
        redundancy = self.compute_redundancy
        if (
            isinstance(redundancy, bool)
            or not isinstance(redundancy, numbers.Integral)
            or redundancy < 1
        ):
            raise ConfigurationError(
                f"compute_redundancy must be an integer >= 1, got {redundancy!r}"
            )
        if self.payload_override_g is not None:
            require_nonnegative("payload_override_g", self.payload_override_g)

    # ------------------------------------------------------------------
    # Mass and thrust accounting
    # ------------------------------------------------------------------
    @property
    def compute_payload_g(self) -> float:
        """Mass of all onboard computers incl. heatsinks (g)."""
        return budget.compute_payload_mass_g(
            self.compute.flight_mass_g, self.compute_redundancy
        )

    @property
    def payload_mass_g(self) -> float:
        """Everything carried beyond the bare frame (g)."""
        if self.payload_override_g is not None:
            return self.payload_override_g + self.extra_payload_g
        return budget.component_payload_mass_g(
            self.battery.mass_g,
            self.sensor.mass_g,
            self.compute_payload_g,
            self.extra_payload_g,
        )

    @property
    def total_mass_g(self) -> float:
        """All-up takeoff mass (g)."""
        return budget.all_up_mass_g(
            self.frame.base_mass_g,
            self.flight_controller.mass_g,
            self.payload_mass_g,
        )

    @property
    def total_thrust_g(self) -> float:
        """Summed rated pull of all motors (gram-force)."""
        return budget.rated_thrust_g(
            self.motor.rated_pull_g, self.frame.rotor_count
        )

    @property
    def thrust_to_weight(self) -> float:
        """Rated thrust over all-up weight (dimensionless)."""
        return self.total_thrust_g / self.total_mass_g

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    @property
    def acceleration_model(self) -> ThrustMarginModel:
        """The Eq. 5 model bound to this vehicle's thrust."""
        return ThrustMarginModel(
            total_thrust_g=self.total_thrust_g,
            braking_pitch_deg=self.braking_pitch_deg,
        )

    @property
    def max_acceleration(self) -> float:
        """Maximum commandable acceleration at the all-up mass (m/s^2)."""
        return self.acceleration_model.max_acceleration(self.total_mass_g)

    @property
    def drag(self) -> QuadraticDrag:
        """Drag model for the flight simulator."""
        return QuadraticDrag(cd_area_m2=self.frame.cd_area_m2)

    # ------------------------------------------------------------------
    # F-1 model construction
    # ------------------------------------------------------------------
    def pipeline(self, f_compute_hz: float) -> SensorComputeControl:
        """The decision pipeline once the compute rate is known."""
        return SensorComputeControl(
            f_sensor_hz=self.sensor.framerate_hz,
            f_compute_hz=f_compute_hz,
            f_control_hz=self.flight_controller.loop_rate_hz,
        )

    def f1(
        self,
        f_compute_hz: float,
        knee_strategy: Optional[KneeStrategy] = None,
    ) -> F1Model:
        """The F-1 model of this vehicle running an algorithm whose
        compute throughput on :attr:`compute` is ``f_compute_hz``."""
        kwargs = {}
        if knee_strategy is not None:
            kwargs["knee_strategy"] = knee_strategy
        return F1Model(
            sensing_range_m=self.sensor.range_m,
            a_max=self.max_acceleration,
            pipeline=self.pipeline(f_compute_hz),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def with_compute(
        self, compute: ComputePlatform, name: Optional[str] = None
    ) -> "UAVConfiguration":
        """A copy carrying a different onboard computer."""
        return replace(
            self, compute=compute, name=name or f"{self.name}+{compute.name}"
        )

    def with_sensor(self, sensor: Sensor) -> "UAVConfiguration":
        """A copy carrying a different sensor."""
        return replace(self, sensor=sensor)

    def with_sensor_range(self, range_m: float) -> "UAVConfiguration":
        """A copy whose sensor sees out to ``range_m`` meters."""
        return replace(self, sensor=self.sensor.with_range(range_m))

    def with_extra_payload(self, extra_payload_g: float) -> "UAVConfiguration":
        """A copy carrying additional calibration/payload weight."""
        return replace(self, extra_payload_g=extra_payload_g)

    def with_redundancy(self, n: int) -> "UAVConfiguration":
        """A copy flying ``n`` identical onboard computers (DMR/TMR)."""
        return replace(
            self,
            compute_redundancy=n,
            name=f"{self.name}-{n}x-{self.compute.name}"
            if n > 1
            else self.name,
        )

    def describe(self) -> str:
        """Multi-line mass/thrust budget summary."""
        lines = [
            f"UAV '{self.name}'",
            f"  frame base      : {self.frame.base_mass_g:.0f} g "
            f"({self.frame.name}, {self.frame.size_mm:.0f} mm)",
            f"  payload         : {self.payload_mass_g:.0f} g "
            f"(compute {self.compute_payload_g:.0f} g x"
            f"{self.compute_redundancy})",
            f"  all-up mass     : {self.total_mass_g:.0f} g",
            f"  rated thrust    : {self.total_thrust_g:.0f} g "
            f"(T/W {self.thrust_to_weight:.2f})",
            f"  max acceleration: {self.max_acceleration:.3f} m/s^2",
            f"  sensor          : {self.sensor.name} "
            f"@ {self.sensor.framerate_hz:.0f} Hz, "
            f"range {self.sensor.range_m:.1f} m",
        ]
        return "\n".join(lines)
