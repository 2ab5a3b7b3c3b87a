"""Skyline's user-defined parameter knobs (Table II of the paper).

Each knob mirrors one Table II row; :meth:`Knobs.build_uav` assembles a
custom :class:`UAVConfiguration` from them, sizing the compute payload
(incl. TDP-derived heatsink) exactly the way the web tool did.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..uav.components import (
    Battery,
    ComputePlatform,
    FlightControllerBoard,
    Frame,
    Motor,
    Sensor,
)
from ..uav.configuration import UAVConfiguration
from ..units import require_nonnegative, require_positive, require_rotor_count


@dataclass(frozen=True)
class Knobs:
    """Table II knob set.

    =====================  =====  ==========================================
    Knob                   Unit   Paper description
    =====================  =====  ==========================================
    sensor_framerate_hz    Hz     Throughput of the sensor
    compute_tdp_w          W      Max TDP; used to size the heatsink
    compute_runtime_s      s      Autonomy-algorithm latency per decision
    sensor_range_m         m      Maximum range of the sensor
    drone_weight_g         g      UAV weight without extra payload
    rotor_pull_g           g      Thrust produced by one rotor
    payload_weight_g       g      Non-compute payload (sensors, battery...)
    =====================  =====  ==========================================
    """

    sensor_framerate_hz: float = 60.0
    compute_tdp_w: float = 7.5
    compute_runtime_s: float = 0.01
    sensor_range_m: float = 5.0
    drone_weight_g: float = 1000.0
    rotor_pull_g: float = 435.0
    payload_weight_g: float = 0.0
    compute_mass_g: float = 85.0
    rotor_count: int = 4

    def __post_init__(self) -> None:
        require_positive("sensor_framerate_hz", self.sensor_framerate_hz)
        require_positive("compute_tdp_w", self.compute_tdp_w)
        require_positive("compute_runtime_s", self.compute_runtime_s)
        require_positive("sensor_range_m", self.sensor_range_m)
        require_positive("drone_weight_g", self.drone_weight_g)
        require_positive("rotor_pull_g", self.rotor_pull_g)
        require_nonnegative("payload_weight_g", self.payload_weight_g)
        require_positive("compute_mass_g", self.compute_mass_g)
        require_rotor_count(self.rotor_count)

    @property
    def f_compute_hz(self) -> float:
        """Compute throughput implied by the runtime knob."""
        return 1.0 / self.compute_runtime_s

    def build_uav(self, name: str = "custom-knobs") -> UAVConfiguration:
        """Assemble a custom UAV from the knob values."""
        compute = ComputePlatform(
            name="knob-compute",
            mass_g=self.compute_mass_g,
            tdp_w=self.compute_tdp_w,
            peak_gflops=1.0,  # unused: runtime knob supplies throughput
            mem_bandwidth_gbs=1.0,
        )
        return UAVConfiguration(
            name=name,
            frame=Frame(
                name="knob-frame",
                base_mass_g=self.drone_weight_g,
                size_mm=450.0,
            ),
            motor=Motor(name="knob-motor", rated_pull_g=self.rotor_pull_g),
            battery=Battery(
                name="knob-battery",
                capacity_mah=5000.0,
                voltage_v=11.1,
                mass_g=0.0,  # battery weight folded into payload knob
            ),
            sensor=Sensor(
                name="knob-sensor",
                framerate_hz=self.sensor_framerate_hz,
                range_m=self.sensor_range_m,
            ),
            compute=compute,
            flight_controller=FlightControllerBoard(name="knob-fc"),
            extra_payload_g=self.payload_weight_g,
        )
