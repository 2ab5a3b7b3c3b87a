"""The Skyline session object: knobs in, analysis + figure out.

The web tool's three panes (Sec. V-A) map to:

* *UAV system parameter knobs* — a preset (:mod:`repro.uav.registry`)
  plus algorithm/compute selection, or a fully custom
  :class:`~repro.skyline.knobs.Knobs` set;
* *visualization area* — :meth:`Skyline.figure` (SVG) and
  :meth:`Skyline.ascii` (terminal);
* *analysis pane* — :meth:`Skyline.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..autonomy.workloads import get_algorithm
from ..compute.platforms import get_platform
from ..core.model import F1Model
from ..errors import ConfigurationError
from ..uav.configuration import UAVConfiguration
from ..uav.registry import get_preset
from ..units import require_positive
from ..viz.ascii_plot import ascii_plot
from ..viz.lineplot import LinePlot
from .analysis import AnalysisResult, analyze_design
from .knobs import Knobs
from .plotting import roofline_figure
from .report import render_report


@dataclass(frozen=True)
class SkylineReport:
    """A fully evaluated design point."""

    uav: UAVConfiguration
    algorithm_name: str
    f_compute_hz: float
    analysis: AnalysisResult

    @property
    def model(self) -> F1Model:
        return self.analysis.model

    def text(self) -> str:
        """The analysis pane as text."""
        return render_report(self)

    def to_dict(self) -> "dict[str, object]":
        """The report as a JSON-compatible dict (stable names).

        The document behind both ``repro-skyline analyze --json`` and
        the serving layer's ``POST /v1/analyze`` responses.
        """
        from ..io.serialization import configuration_to_dict

        analysis = self.analysis
        model = analysis.model
        return {
            "uav": configuration_to_dict(self.uav),
            "algorithm": self.algorithm_name,
            "f_compute_hz": self.f_compute_hz,
            "analysis": {
                "safe_velocity": model.safe_velocity,
                "roof_velocity": model.roof_velocity,
                "knee_hz": model.knee.throughput_hz,
                "knee_velocity": model.knee.velocity,
                "action_throughput_hz": model.action_throughput_hz,
                "bound": analysis.bound.value,
                "status": analysis.optimality.status.value,
                "provisioning_factor": (
                    analysis.optimality.provisioning_factor
                ),
                "tips": list(analysis.tips),
                "tdp_scenario": analysis.tdp_scenario,
            },
        }


class Skyline:
    """A Skyline exploration session."""

    def __init__(self, uav: UAVConfiguration) -> None:
        self.uav = uav
        self._reports: List[SkylineReport] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_preset(
        cls,
        uav_name: str,
        compute_name: Optional[str] = None,
        sensor_range_m: Optional[float] = None,
        sensor_framerate_hz: Optional[float] = None,
    ) -> "Skyline":
        """Start a session from a registered UAV preset."""
        uav = get_preset(uav_name)
        if compute_name is not None:
            uav = uav.with_compute(get_platform(compute_name))
        if sensor_range_m is not None:
            uav = uav.with_sensor_range(sensor_range_m)
        if sensor_framerate_hz is not None:
            uav = uav.with_sensor(
                uav.sensor.with_framerate(sensor_framerate_hz)
            )
        return cls(uav)

    @classmethod
    def from_knobs(cls, knobs: Knobs) -> "Skyline":
        """Start a session from a fully custom Table II knob set."""
        return cls(knobs.build_uav())

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_algorithm(self, algorithm_name: str) -> SkylineReport:
        """Characterize a registered algorithm on this UAV's computer."""
        algorithm = get_algorithm(algorithm_name)
        f_compute = algorithm.throughput_on(self.uav.compute)
        return self.evaluate_throughput(f_compute, label=algorithm_name)

    def evaluate_throughput(
        self, f_compute_hz: float, label: str = "custom"
    ) -> SkylineReport:
        """Characterize a direct compute-throughput value (runtime knob)."""
        require_positive("f_compute_hz", f_compute_hz)
        report = SkylineReport(
            uav=self.uav,
            algorithm_name=label,
            f_compute_hz=f_compute_hz,
            analysis=analyze_design(self.uav, f_compute_hz),
        )
        self._reports.append(report)
        return report

    @property
    def reports(self) -> List[SkylineReport]:
        """Every report produced in this session."""
        return list(self._reports)

    # ------------------------------------------------------------------
    # Visualization
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[str, F1Model]]:
        if not self._reports:
            raise ConfigurationError(
                "session field 'reports' is empty: evaluate at least "
                "one algorithm before plotting"
            )
        return [
            (f"{r.algorithm_name} @ {r.f_compute_hz:.0f} Hz", r.model)
            for r in self._reports
        ]

    def figure(self, title: Optional[str] = None) -> LinePlot:
        """The F-1 chart of everything evaluated so far."""
        return roofline_figure(
            self._entries(), title=title or f"F-1: {self.uav.name}"
        )

    def ascii(self, width: int = 72, height: int = 18) -> str:
        """Terminal rendering of the session's F-1 curves."""
        series = []
        for label, model in self._entries():
            curve = model.curve(f_min_hz=0.5, f_max_hz=1000.0, points=96)
            series.append(
                (label, list(curve.throughput_hz), list(curve.velocity))
            )
        return ascii_plot(
            series,
            width=width,
            height=height,
            log_x=True,
            x_label="Action Throughput (Hz)",
            y_label="Safe Velocity (m/s)",
            title=f"F-1: {self.uav.name}",
        )
