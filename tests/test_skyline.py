"""Tests for the Skyline tool: knobs, sweeps, analysis, reports, CLI."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.batch.result import SORTABLE_COLUMNS
from repro.core.bounds import BoundKind
from repro.errors import ConfigurationError
from repro.skyline.analysis import analyze_design
from repro.skyline.cli import main as cli_main
from repro.skyline.knobs import Knobs
from repro.skyline.plotting import roofline_figure
from repro.skyline.sweep import sweep_grid, sweep_knob
from repro.skyline.tool import Skyline


class TestKnobs:
    def test_defaults_build_a_flyable_uav(self):
        uav = Knobs().build_uav()
        assert uav.total_mass_g > 0
        assert uav.max_acceleration > 0

    def test_runtime_knob_maps_to_throughput(self):
        knobs = Knobs(compute_runtime_s=0.909)
        assert knobs.f_compute_hz == pytest.approx(1.1, abs=0.002)

    def test_tdp_knob_sizes_heatsink(self):
        light = Knobs(compute_tdp_w=1.5).build_uav()
        heavy = Knobs(compute_tdp_w=30.0).build_uav()
        assert heavy.total_mass_g - light.total_mass_g > 100.0

    def test_payload_knob_adds_weight(self):
        base = Knobs().build_uav()
        loaded = Knobs(payload_weight_g=500.0).build_uav()
        assert loaded.total_mass_g == pytest.approx(
            base.total_mass_g + 500.0
        )

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            Knobs(sensor_framerate_hz=0.0)
        with pytest.raises(ConfigurationError):
            Knobs(compute_runtime_s=-1.0)
        with pytest.raises(ConfigurationError, match="finite reciprocal"):
            Knobs(compute_runtime_s=1e-309)  # 1 / 1e-309 overflows


class TestAnalysis:
    def test_compute_bound_tip_quantifies_speedup(self, pelican_tx2):
        result = analyze_design(pelican_tx2, f_compute_hz=1.1)
        assert result.bound is BoundKind.COMPUTE
        assert any("39" in tip for tip in result.tips)

    def test_physics_bound_suggests_tdp_trade(self, spark_agx):
        result = analyze_design(spark_agx, f_compute_hz=230.0)
        assert result.bound is BoundKind.PHYSICS
        assert any("over-provisioned" in tip for tip in result.tips)
        assert result.tdp_scenario is not None
        assert "halving TDP" in result.tdp_scenario

    def test_sensor_bound_tip(self, pelican_tx2):
        slow_sensor = pelican_tx2.with_sensor(
            pelican_tx2.sensor.with_framerate(10.0)
        )
        result = analyze_design(slow_sensor, f_compute_hz=178.0)
        assert result.bound is BoundKind.SENSOR
        assert any("sensor" in tip for tip in result.tips)

    def test_no_tdp_scenario_for_heatsinkless(self, spark_ncs):
        result = analyze_design(spark_ncs, f_compute_hz=150.0)
        assert result.tdp_scenario is None


class TestSkylineSession:
    def test_from_preset_with_overrides(self):
        session = Skyline.from_preset(
            "asctec-pelican",
            compute_name="jetson-tx2",
            sensor_range_m=3.0,
            sensor_framerate_hz=30.0,
        )
        assert session.uav.sensor.range_m == 3.0
        assert session.uav.sensor.framerate_hz == 30.0

    def test_evaluate_algorithm_report(self, ):
        session = Skyline.from_preset("dji-spark", compute_name="intel-ncs")
        report = session.evaluate_algorithm("dronet")
        assert report.f_compute_hz == 150.0
        text = report.text()
        assert "dji-spark" in text
        assert "Optimization tips" in text

    def test_evaluate_throughput_runtime_knob(self):
        session = Skyline.from_preset(
            "asctec-pelican", sensor_range_m=3.0
        )
        report = session.evaluate_throughput(1.1, label="spa")
        assert report.analysis.bound is BoundKind.COMPUTE

    def test_figure_and_ascii_need_reports(self):
        session = Skyline.from_preset("dji-spark")
        with pytest.raises(ConfigurationError):
            session.figure()
        session.evaluate_algorithm("dronet")
        assert "F-1" in session.ascii()
        svg = session.figure().render().to_svg()
        assert "dronet" in svg

    def test_reports_accumulate(self):
        session = Skyline.from_preset("dji-spark", compute_name="intel-ncs")
        session.evaluate_algorithm("dronet")
        session.evaluate_throughput(55.0, label="custom")
        assert len(session.reports) == 2


class TestSweepGrid:
    @pytest.fixture()
    def grid(self):
        return sweep_grid(
            Knobs(),
            {
                "compute_tdp_w": (1.0, 7.5, 30.0),
                "compute_runtime_s": np.geomspace(0.002, 0.5, 4),
                "payload_weight_g": (0.0, 500.0),
            },
        )

    def test_three_knobs_crossed_in_one_call(self, grid):
        assert grid.knobs == (
            "compute_tdp_w", "compute_runtime_s", "payload_weight_g",
        )
        assert grid.shape == (3, 4, 2)
        assert len(grid) == 24
        assert grid.values("safe_velocity").shape == (3, 4, 2)
        assert "compute_tdp_w[3]" in grid.describe()

    def test_cells_match_scalar_assembly(self, grid):
        for index in ((0, 0, 0), (2, 1, 1), (1, 3, 0)):
            knobs = replace(
                Knobs(),
                **{
                    name: float(grid.axis(name)[i])
                    for name, i in zip(grid.knobs, index)
                },
            )
            model = knobs.build_uav().f1(knobs.f_compute_hz)
            assert grid.values("safe_velocity")[index] == pytest.approx(
                model.safe_velocity, abs=1e-9
            )
            assert grid.bound_at(*index) is model.bound

    def test_bound_grid_partitions_cells(self, grid):
        codes = grid.bound_grid()
        assert codes.shape == grid.shape
        assert sum(grid.bound_counts().values()) == len(grid)

    def test_slice_matches_single_knob_sweep(self, grid):
        line = grid.slice(
            "compute_runtime_s", compute_tdp_w=30.0, payload_weight_g=500.0
        )
        fixed_base = replace(
            Knobs(), compute_tdp_w=30.0, payload_weight_g=500.0
        )
        fresh = sweep_knob(
            fixed_base, "compute_runtime_s",
            grid.axis("compute_runtime_s"),
        )
        assert line.base == fixed_base
        assert [p.value for p in line.points] == [
            p.value for p in fresh.points
        ]
        for sliced, scalar in zip(line.points, fresh.points):
            assert sliced.safe_velocity == pytest.approx(
                scalar.safe_velocity, abs=1e-9
            )
            assert sliced.bound is scalar.bound
        assert "compute_runtime_s" in line.table()

    def test_slice_defaults_unfixed_axes_to_first_value(self, grid):
        line = grid.slice("compute_tdp_w")
        assert line.base.compute_runtime_s == pytest.approx(
            float(grid.axis("compute_runtime_s")[0])
        )
        assert line.base.payload_weight_g == 0.0

    def test_slice_validation(self, grid):
        with pytest.raises(ConfigurationError, match="not a grid axis"):
            grid.slice("sensor_range_m")
        with pytest.raises(ConfigurationError, match="not grid axes"):
            grid.slice("compute_tdp_w", sensor_range_m=5.0)
        with pytest.raises(ConfigurationError, match="sliced knob"):
            grid.slice("compute_tdp_w", compute_tdp_w=1.0)
        with pytest.raises(ConfigurationError, match="not on the"):
            grid.slice("compute_tdp_w", payload_weight_g=123.0)

    def test_crossovers_locate_bound_flips(self, grid):
        flips = grid.crossovers("compute_runtime_s")
        assert flips  # slowing compute always crosses a bound here
        codes = grid.bound_grid()
        for crossover in flips:
            i = list(grid.axis("compute_tdp_w")).index(
                crossover.fixed["compute_tdp_w"]
            )
            k = list(grid.axis("payload_weight_g")).index(
                crossover.fixed["payload_weight_g"]
            )
            j_before = list(grid.axis("compute_runtime_s")).index(
                crossover.at
            )
            assert grid.bound_at(i, j_before, k) is crossover.from_bound
            assert grid.bound_at(i, j_before + 1, k) is crossover.to_bound
        assert len(grid.crossovers()) >= len(flips)

    @pytest.mark.parametrize("column", SORTABLE_COLUMNS)
    def test_every_result_column_reshapes_onto_the_grid(self, grid, column):
        index = (2, 1, 1)
        knobs = replace(
            Knobs(),
            **{
                name: float(grid.axis(name)[i])
                for name, i in zip(grid.knobs, index)
            },
        )
        model = knobs.build_uav().f1(knobs.f_compute_hz)
        scalar = {
            "safe_velocity": model.safe_velocity,
            "roof_velocity": model.roof_velocity,
            "knee_hz": model.knee.throughput_hz,
            "knee_velocity": model.knee.velocity,
            "action_throughput_hz": model.action_throughput_hz,
            "provisioning_factor": (
                model.action_throughput_hz / model.knee.throughput_hz
            ),
        }
        values = grid.values(column)
        assert values.shape == grid.shape
        assert values[index] == pytest.approx(scalar[column], rel=1e-9, abs=1e-9)

    def test_unknown_value_column_rejected(self, grid):
        with pytest.raises(ConfigurationError, match="unknown grid column"):
            grid.values("mass")

    def test_unsweepable_or_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot sweep"):
            sweep_grid(Knobs(), {"rotor_count": (4, 6)})
        with pytest.raises(ConfigurationError, match="at least one"):
            sweep_grid(Knobs(), {})
        with pytest.raises(
            ConfigurationError, match=r"design\.axes\[compute_tdp_w\]"
        ):
            sweep_grid(Knobs(), {"compute_tdp_w": ["fast"]})

    @pytest.mark.parametrize(
        "knob, values, field",
        [
            ("rotor_count", [4], r"design\.axes': cannot sweep"),
            ("compute_tdp_w", [], r"design\.axes\[compute_tdp_w\]'"),
            ("sensor_range_m", [float("nan")], r"design\.axes\[sensor_range_m\]'"),
            ("compute_runtime_s", [1e-309], r"design\.axes\[compute_runtime_s\]'"),
        ],
        ids=["unsweepable", "empty", "non-finite", "overflowing-rate"],
    )
    def test_knob_sweep_refusals_name_the_spec_field(self, knob, values, field):
        # The sweep builds a knob spec, and the spec makes every refusal.
        with pytest.raises(ConfigurationError, match=field):
            sweep_knob(Knobs(), knob, values)


class TestRooflineFigure:
    def test_entries_plotted_with_knees(self, pelican_tx2):
        plot = roofline_figure(
            (("one", pelican_tx2.f1(1.1)), ("two", pelican_tx2.f1(178.0))),
        )
        svg = plot.render().to_svg()
        assert "one" in svg and "two" in svg
        assert "knee" in svg


class TestCli:
    def test_analyze_algorithm(self, capsys):
        code = cli_main(
            [
                "analyze", "--uav", "dji-spark", "--compute", "intel-ncs",
                "--algorithm", "dronet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Skyline analysis" in out

    def test_analyze_runtime_with_plot(self, capsys, tmp_path):
        plot = tmp_path / "out.svg"
        code = cli_main(
            [
                "analyze", "--uav", "asctec-pelican", "--runtime", "0.909",
                "--sensor-range", "3.0", "--plot", str(plot), "--ascii",
            ]
        )
        assert code == 0
        assert plot.exists()
        out = capsys.readouterr().out
        assert "F-1" in out

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dji-spark" in out
        assert "jetson-tx2" in out
        assert "dronet" in out

    def test_sweep_subcommand(self, capsys, tmp_path):
        plot = tmp_path / "sweep.svg"
        code = cli_main(
            [
                "sweep", "--knob", "compute_tdp_w",
                "--values", "1", "15", "30",
                "--plot", str(plot),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compute_tdp_w" in out
        assert plot.exists()

    def test_sweep_reports_crossover(self, capsys):
        code = cli_main(
            [
                "sweep", "--knob", "compute_runtime_s",
                "--values", "0.005", "0.5",
            ]
        )
        assert code == 0
        assert "bound changes" in capsys.readouterr().out
