"""Tests for mass budgets, knob sweeps and the planar cross-validation."""

from __future__ import annotations

import pytest

from repro.batch.assembly import KNOB_COLUMNS
from repro.core.bounds import BoundKind
from repro.errors import ConfigurationError
from repro.sim.obstacle_stop import ObstacleStopConfig, run_obstacle_stop
from repro.sim.planar_validation import run_planar_obstacle_stop
from repro.skyline.knobs import Knobs
from repro.skyline.sweep import sweep_knob
from repro.uav.budget import mass_budget
from repro.uav.presets import custom_s500, dji_spark
from repro.compute.platforms import get_platform


class TestMassBudget:
    def test_sums_to_total(self, uav_a, spark_agx):
        for uav in (uav_a, spark_agx, spark_agx.with_redundancy(2)):
            budget = mass_budget(uav)
            assert sum(line.mass_g for line in budget.lines) == (
                pytest.approx(uav.total_mass_g)
            )
            assert sum(line.fraction for line in budget.lines) == (
                pytest.approx(1.0)
            )

    def test_override_budget_has_unitemized_line(self, uav_a):
        budget = mass_budget(uav_a)
        items = [line.item for line in budget.lines]
        assert any("unitemized" in item for item in items)

    def test_component_budget_itemizes_heatsink(self, spark_agx):
        budget = mass_budget(spark_agx)
        heatsink = [l for l in budget.lines if "heatsink" in l.item]
        assert len(heatsink) == 1
        assert heatsink[0].mass_g == pytest.approx(162.0, abs=1.0)

    def test_compute_fraction_agx_dominates(self, spark_agx, spark_ncs):
        assert mass_budget(spark_agx).compute_fraction > 0.5
        assert mass_budget(spark_ncs).compute_fraction < 0.2

    def test_thrust_margin(self, uav_a):
        budget = mass_budget(uav_a)
        assert budget.thrust_margin_g == pytest.approx(120.0)
        over = mass_budget(custom_s500("B"))
        assert over.thrust_margin_g < 0

    def test_table_renders(self, uav_a):
        text = mass_budget(uav_a).table()
        assert "TOTAL" in text
        assert "100.0%" in text


class TestKnobSweep:
    def test_tdp_sweep_monotone(self):
        result = sweep_knob(
            Knobs(), "compute_tdp_w", [1.0, 5.0, 15.0, 30.0]
        )
        velocities = [p.safe_velocity for p in result.points]
        assert velocities == sorted(velocities, reverse=True)

    def test_runtime_sweep_finds_crossover(self):
        # Sweeping compute runtime from fast to slow must cross from
        # physics-bound into compute-bound territory.
        result = sweep_knob(
            Knobs(),
            "compute_runtime_s",
            [0.005, 0.02, 0.1, 0.5, 2.0],
        )
        bounds = [p.bound for p in result.points]
        assert BoundKind.PHYSICS in bounds
        assert BoundKind.COMPUTE in bounds
        assert result.crossover_values()

    def test_sensor_range_extends_roof(self):
        result = sweep_knob(Knobs(), "sensor_range_m", [2.0, 5.0, 10.0])
        roofs = [p.roof_velocity for p in result.points]
        assert roofs == sorted(roofs)

    def test_table_and_figure(self):
        result = sweep_knob(Knobs(), "payload_weight_g", [0.0, 200.0])
        assert "payload_weight_g" in result.table()
        svg = result.figure().render().to_svg()
        assert "physics roof" in svg

    def test_invalid_knob_rejected(self):
        with pytest.raises(ConfigurationError, match="sweepable"):
            sweep_knob(Knobs(), "rotor_count", [4])
        with pytest.raises(ConfigurationError):
            sweep_knob(Knobs(), "compute_tdp_w", [])

    def test_all_declared_knobs_sweep(self):
        for knob in KNOB_COLUMNS:
            base_value = getattr(Knobs(), knob)
            result = sweep_knob(Knobs(), knob, [base_value])
            assert len(result.points) == 1


class TestPlanarCrossValidation:
    def test_agrees_with_longitudinal_model(self, uav_a):
        for velocity in (1.5, 2.4):
            planar = run_planar_obstacle_stop(uav_a, velocity, seed=1)
            longitudinal = run_obstacle_stop(
                uav_a,
                ObstacleStopConfig(cruise_velocity=velocity),
                seed=1,
            )
            assert planar.infraction == longitudinal.infraction
            assert planar.stop_position_m == pytest.approx(
                longitudinal.stop_position_m, rel=0.1
            )

    def test_reaches_cruise_with_bounded_overshoot(self, uav_a):
        flight = run_planar_obstacle_stop(uav_a, 1.5, seed=2)
        assert flight.peak_velocity >= 1.45  # reaches the setpoint
        assert flight.peak_velocity <= 1.5 * 1.25  # PI overshoot bounded

    def test_altitude_held(self, uav_a):
        flight = run_planar_obstacle_stop(uav_a, 1.5, seed=2)
        assert flight.max_altitude_error_m < 0.2

    def test_spark_flies_too(self):
        uav = dji_spark(get_platform("intel-ncs"))
        flight = run_planar_obstacle_stop(uav, 3.0, seed=0)
        assert not flight.infraction  # far below the ~15 m/s roof
