"""Tests for repro.study: spec -> plan -> result, and the rebased
legacy surfaces (sweep_knob / sweep_grid / dse.explore / CLI)."""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autonomy.workloads import ALGORITHMS
from repro.batch import DesignMatrix, assemble_configurations, shard_ranges
from repro.batch.assembly import KNOB_COLUMNS
from repro.batch.matrix import LabelColumn
from repro.compute.platforms import PLATFORMS, get_platform
from repro.dse import DesignSpace, explore
from repro.errors import ConfigurationError, InfeasibleDesignError, ReproError
from repro.io.serialization import encode_frame
from repro.skyline.cli import main as cli_main
from repro.skyline.knobs import Knobs
from repro.skyline.sweep import sweep_grid, sweep_knob
from repro.skyline.tool import Skyline
from repro.study import (
    SCENARIO_AXES,
    DesignSpec,
    FilterClause,
    RankClause,
    ScenarioSpec,
    StudyResult,
    StudySpec,
    compile_chunk,
    compile_spec,
    run_study,
    study_axes,
    study_size,
)
from repro.study.spec import spec_error
from repro.uav.registry import UAV_PRESETS, get_preset


def knob_spec(**axes) -> StudySpec:
    return StudySpec(design=DesignSpec.knob_axes(axes=axes))


class TestSpecValidation:
    """The malformed-spec matrix: errors name the offending field."""

    def test_unknown_knob_named(self):
        with pytest.raises(
            ConfigurationError, match=r"'design\.axes'.*cannot sweep"
        ):
            knob_spec(warp_factor=[1.0, 2.0])

    def test_rotor_count_not_sweepable(self):
        with pytest.raises(ConfigurationError, match="cannot sweep"):
            knob_spec(rotor_count=[4, 6])

    def test_empty_axis_named(self):
        with pytest.raises(
            ConfigurationError,
            match=r"'design\.axes\[compute_tdp_w\]'.*at least one",
        ):
            knob_spec(compute_tdp_w=[])

    def test_no_axes_at_all(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            DesignSpec.knob_axes(axes={})

    def test_non_finite_axis_values(self):
        with pytest.raises(ConfigurationError, match="finite"):
            knob_spec(compute_tdp_w=[1.0, float("nan")])

    def test_axis_values_follow_their_knobs_rule(self):
        knob_spec(payload_weight_g=[0.0, 10.0])  # payload may be zero
        with pytest.raises(
            ConfigurationError,
            match=r"^study spec field 'design\.axes\[payload_weight_g\]': "
            r"payload_weight_g must be >= 0, got -1\.0$",
        ):
            knob_spec(payload_weight_g=[0.0, -1.0])
        with pytest.raises(
            ConfigurationError,
            match=r"'design\.axes\[compute_tdp_w\]': "
            r"compute_tdp_w must be > 0, got 0\.0$",
        ):
            knob_spec(compute_tdp_w=[5.0, 0.0])

    @pytest.mark.parametrize("name", KNOB_COLUMNS)
    def test_axis_values_are_exactly_what_knobs_take(self, name):
        # A knob grid's rows are checked once, by the axis check, so it
        # takes exactly the values a scalar Knobs takes, knob by knob.
        field = rf"^study spec field 'design\.axes\[{name}\]': "
        for value in (
            1.0, 1e308, 5e-324, 1e-309, 0.0, -0.0, -1.0,
            float("nan"), float("inf"), float("-inf"),
        ):
            try:
                Knobs(**{name: value})
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=field) as caught:
                    knob_spec(**{name: [1.0, value]})
                if np.isfinite(value):
                    assert str(caught.value).endswith(f": {exc}")
            else:
                spec = knob_spec(**{name: [value]})
                assert spec.design.axes == ((name, (value,)),)

    def test_filter_on_unknown_column_named(self):
        with pytest.raises(
            ConfigurationError,
            match=r"'filters\[0\]\.column'.*unknown column 'banana'",
        ):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                filters=(FilterClause("banana", ">=", 1.0),),
            )

    def test_filter_bad_operator(self):
        with pytest.raises(ConfigurationError, match=r"filters\.op"):
            FilterClause("safe_velocity", "~=", 1.0)

    def test_bound_filter_needs_name_and_equality(self):
        with pytest.raises(ConfigurationError, match=r"\.op"):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                filters=(FilterClause("bound", ">=", "physics"),),
            )
        with pytest.raises(ConfigurationError, match=r"\.value"):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                filters=(FilterClause("bound", "==", 3),),
            )

    def test_unknown_bound_name_fails_at_build(self):
        with pytest.raises(
            ConfigurationError, match=r"'filters\[0\]\.value'"
        ):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                filters=(FilterClause("bound", "==", "banana"),),
            )

    def test_rank_unknown_column(self):
        with pytest.raises(ConfigurationError, match=r"'rank\.by'"):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                rank=RankClause(by="bound"),
            )

    def test_metrics_unknown_column(self):
        with pytest.raises(ConfigurationError, match="'metrics'"):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                metrics=("banana",),
            )

    def test_empty_preset_dimension(self):
        with pytest.raises(
            ConfigurationError, match=r"'design\.compute_names'"
        ):
            DesignSpec.presets(("dji-spark",), (), ("dronet",))

    def test_redundancy_on_knobs_design_named(self):
        with pytest.raises(
            ConfigurationError,
            match=r"'scenarios\.compute_redundancy'.*knobs design",
        ):
            StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                scenarios=ScenarioSpec(compute_redundancy=(1, 2)),
            )

    def test_scenario_axis_validation(self):
        with pytest.raises(
            ConfigurationError, match=r"'scenarios\.a_max_scale'"
        ):
            ScenarioSpec(a_max_scale=(0.0,))
        with pytest.raises(
            ConfigurationError, match=r"'scenarios\.compute_redundancy'"
        ):
            ScenarioSpec(compute_redundancy=(0,))

    def test_unknown_spec_keys_named(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            StudySpec.from_dict(
                {"design": {"kind": "knobs", "axes": {}}, "bogus": 1}
            )
        with pytest.raises(ConfigurationError, match="'scenarios'"):
            ScenarioSpec.from_dict({"wind": [1.0]})

    def test_unsupported_version(self):
        with pytest.raises(ConfigurationError, match="version"):
            StudySpec.from_json('{"version": 99, "design": {}}')

    def test_duplicate_knob_axis(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            DesignSpec(
                kind="knobs",
                base=Knobs(),
                axes=(
                    ("compute_tdp_w", (1.0,)),
                    ("compute_tdp_w", (2.0,)),
                ),
            )

    def test_fleet_rate_length_mismatch(self):
        uav = Knobs().build_uav()
        with pytest.raises(
            ConfigurationError, match=r"'design\.f_compute_hz'"
        ):
            DesignSpec.fleet((uav, uav, uav), (1.0, 2.0))

    # Regression: the Python path read "123" as three values, 1.7
    # replicas as one, True tolerance as 1 under another digest, and let
    # unknown preset names and foreign design fields through.
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: knob_spec(compute_tdp_w="123"),
             r"'design\.axes\[compute_tdp_w\]'"),
            (lambda: ScenarioSpec(extra_payload_g="12"),
             r"'scenarios\.extra_payload_g'"),
            (lambda: ScenarioSpec(compute_redundancy=(1.7,)),
             r"'scenarios\.compute_redundancy'.*integer"),
            (lambda: ScenarioSpec(compute_redundancy=(True,)),
             r"'scenarios\.compute_redundancy'.*integer"),
            (lambda: ScenarioSpec(compute_redundancy="12"),
             r"'scenarios\.compute_redundancy'"),
            (lambda: DesignSpec.presets(("dji-spark", "nope"), ("intel-ncs",), ("dronet",)),
             r"'design\.uav_names': unknown UAV preset 'nope'"),
            (lambda: DesignSpec.fleet((Knobs().build_uav(),), 30.0, labels=(5,)),
             r"'design\.labels'"),
            (lambda: DesignSpec(
                kind="knobs", base=Knobs(), axes={"compute_tdp_w": (1.0,)},
                uav_names=("dji-spark",),
            ), r"'design\.uav_names': not a field of a knobs design"),
            (lambda: StudySpec(
                design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
                tolerance=True,
            ), "'tolerance'"),
        ],
        ids=[
            "knob-axis-str", "payload-axis-str", "redundancy-fraction",
            "redundancy-bool", "redundancy-str", "unknown-preset",
            "label-number", "foreign-field", "tolerance-bool",
        ],
    )
    def test_spec_only_checks_run_at_build(self, build, field):
        with pytest.raises(ConfigurationError, match=field):
            build()

    def test_integral_redundancy_values_read_as_counts(self):
        assert ScenarioSpec(compute_redundancy=(1.0, np.int64(2))).compute_redundancy == (1, 2)

    def test_spec_without_version_reads_as_version_one(self):
        spec = knob_spec(compute_tdp_w=[1.0, 30.0])
        document = spec.to_dict()
        del document["version"]
        assert StudySpec.from_dict(document) == spec

    # ``rank: null`` and a null scenario axis used to read as absent.
    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"rank": None}, "'rank'"),
            ({"scenarios": {"a_max_scale": None}}, r"'scenarios\.a_max_scale'"),
        ],
        ids=["rank", "scenario-axis"],
    )
    def test_null_clause_is_refused(self, edit, field):
        document = dict(knob_spec(compute_tdp_w=[1.0]).to_dict(), **edit)
        with pytest.raises(ConfigurationError, match=field):
            StudySpec.from_dict(document)


class TestLegacyEquivalence:
    """The rebased surfaces are numerically identical to the spec path."""

    def test_sweep_knob_matches_study(self):
        values = [1.0, 5.0, 15.0, 30.0]
        legacy = sweep_knob(Knobs(), "compute_tdp_w", values)
        study = run_study(
            StudySpec(
                design=DesignSpec.knob_axes(
                    Knobs(), {"compute_tdp_w": values}
                )
            )
        )
        assert [p.safe_velocity for p in legacy.points] == list(
            study.batch.safe_velocity
        )
        assert [p.bound for p in legacy.points] == study.batch.bounds()
        # Single-axis knob studies keep the sweep-style labels.
        assert study.batch.matrix.labels[0] == "compute_tdp_w=1"

    def test_sweep_grid_matches_study(self):
        axes = {
            "compute_tdp_w": (1.0, 7.5, 30.0),
            "compute_runtime_s": np.geomspace(0.002, 0.5, 4),
        }
        legacy = sweep_grid(Knobs(), axes)
        study = run_study(
            StudySpec(design=DesignSpec.knob_axes(Knobs(), axes))
        )
        assert study.shape == legacy.shape
        assert np.array_equal(
            legacy.values("safe_velocity"), study.values("safe_velocity")
        )
        assert np.array_equal(legacy.bound_grid(), study.bound_grid())

    def test_explore_matches_study(self):
        space = DesignSpace(
            uav_names=("dji-spark", "asctec-pelican"),
            compute_names=("intel-ncs", "jetson-tx2"),
            algorithm_names=("dronet", "trailnet"),
        )
        legacy = explore(space)
        study = run_study(
            StudySpec(
                design=DesignSpec.presets(
                    space.uav_names,
                    space.compute_names,
                    space.algorithm_names,
                ),
                rank=RankClause(by="safe_velocity", descending=True),
            )
        )
        selected = study.selected
        assert len(legacy) == len(selected)
        for i, candidate in enumerate(legacy):
            assert candidate.safe_velocity == selected.safe_velocity[i]
            assert candidate.total_mass_g == float(
                study.total_mass_g[study.selected_indices[i]]
            )
            assert candidate.label == selected.matrix.labels[i]

    def test_explore_scalar_equivalence_preserved(self):
        """The study-routed explore still matches the scalar evaluate."""
        from repro.dse.explorer import evaluate

        space = DesignSpace(
            uav_names=("nano-uav",),
            compute_names=("pulp-gap8",),
            algorithm_names=("dronet",),
        )
        (batch_result,) = explore(space)
        scalar = evaluate(next(iter(space.candidates())))
        assert batch_result.safe_velocity == pytest.approx(
            scalar.safe_velocity, abs=1e-9
        )
        assert batch_result.total_mass_g == pytest.approx(
            scalar.total_mass_g, abs=1e-9
        )
        assert batch_result.bound is scalar.bound

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n_axes=st.integers(min_value=1, max_value=3),
    )
    def test_property_study_matches_scalar_and_roundtrip(
        self, data, n_axes
    ):
        """StudySpec -> plan -> result is 1e-9-identical to the scalar
        legacy path, and spec -> JSON -> spec -> result is bit-identical
        to spec -> result, over randomized knob axes."""
        ranges = {
            "sensor_framerate_hz": (5.0, 240.0),
            "compute_tdp_w": (0.5, 60.0),
            "compute_runtime_s": (0.001, 2.0),
            "sensor_range_m": (0.5, 50.0),
            "drone_weight_g": (50.0, 5000.0),
            "rotor_pull_g": (100.0, 2000.0),
            "payload_weight_g": (0.0, 800.0),
            "compute_mass_g": (5.0, 400.0),
        }
        knobs = data.draw(
            st.lists(
                st.sampled_from(sorted(KNOB_COLUMNS)),
                min_size=n_axes,
                max_size=n_axes,
                unique=True,
            )
        )
        axes = {}
        for knob in knobs:
            low, high = ranges[knob]
            axes[knob] = data.draw(
                st.lists(
                    st.floats(
                        min_value=low,
                        max_value=high,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=1,
                    max_size=3,
                ),
                label=knob,
            )
        spec = StudySpec(design=DesignSpec.knob_axes(axes=axes))
        study = run_study(spec, cache=None)

        # 1e-9 against the per-point scalar model chain.
        base = Knobs()
        flat = 0
        for combo in np.ndindex(study.shape):
            point = replace(
                base,
                **{
                    knob: axes[knob][i]
                    for knob, i in zip(knobs, combo)
                },
            )
            model = point.build_uav().f1(point.f_compute_hz)
            assert study.batch.safe_velocity[flat] == pytest.approx(
                model.safe_velocity, abs=1e-9
            )
            flat += 1

        # spec -> JSON -> spec -> result, bit-identical.
        rebuilt_spec = StudySpec.from_json(spec.to_json())
        assert rebuilt_spec == spec
        again = run_study(rebuilt_spec, cache=None)
        assert study.equals(again)

        # Legacy grid surface agrees bit-for-bit too.
        legacy = sweep_grid(base, axes)
        assert np.array_equal(
            legacy.batch.safe_velocity, study.batch.safe_velocity
        )


class TestScenarios:
    def test_payload_delta_matches_manual_knobs(self):
        spec = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_runtime_s": [0.01, 0.1]}
            ),
            scenarios=ScenarioSpec(extra_payload_g=(0.0, 250.0)),
        )
        study = run_study(spec)
        assert study.shape == (2, 2)
        grid = study.values("safe_velocity")
        for i, runtime in enumerate((0.01, 0.1)):
            for j, delta in enumerate((0.0, 250.0)):
                knobs = Knobs(
                    compute_runtime_s=runtime,
                    payload_weight_g=delta,
                )
                model = knobs.build_uav().f1(knobs.f_compute_hz)
                assert grid[i, j] == pytest.approx(
                    model.safe_velocity, abs=1e-9
                )

    def test_a_max_scale_derates_acceleration(self):
        base_spec = knob_spec(compute_runtime_s=[0.01])
        derated = StudySpec(
            design=base_spec.design,
            scenarios=ScenarioSpec(a_max_scale=(1.0, 0.5)),
        )
        study = run_study(derated)
        baseline = run_study(base_spec)
        a = study.batch.matrix.a_max
        assert a[0] == baseline.batch.matrix.a_max[0]
        assert a[1] == pytest.approx(a[0] * 0.5)
        # Derated acceleration lowers the physics roof.
        assert (
            study.batch.roof_velocity[1] < study.batch.roof_velocity[0]
        )

    def test_payload_cannot_go_negative(self):
        # Refused when the spec is built, before anything compiles.
        # Every row goes negative, the heaviest included.
        with pytest.raises(
            ConfigurationError,
            match=r"'scenarios\.extra_payload_g': payload goes negative at "
            r"payload_weight_g=0, extra_payload_g=-100 \(-100 g\)",
        ):
            StudySpec(
                design=knob_spec(payload_weight_g=[0.0]).design,
                scenarios=ScenarioSpec(extra_payload_g=(-100.0,)),
            )

    def test_redundancy_on_fleet_matches_with_redundancy(self):
        uav = Skyline.from_preset(
            "asctec-pelican", compute_name="jetson-tx2"
        ).uav
        spec = StudySpec(
            design=DesignSpec.fleet((uav,), 178.0),
            scenarios=ScenarioSpec(compute_redundancy=(1, 3)),
        )
        study = run_study(spec)
        assert study.shape == (1, 2)
        tmr = uav.with_redundancy(3)
        assert float(study.total_mass_g[1]) == pytest.approx(
            tmr.total_mass_g, abs=1e-9
        )
        model = tmr.f1(178.0)
        assert study.batch.safe_velocity[1] == pytest.approx(
            model.safe_velocity, abs=1e-9
        )

    def test_scenario_axes_cross_and_scenario_varies_fastest(self):
        spec = StudySpec(
            design=knob_spec(compute_runtime_s=[0.01, 0.1]).design,
            scenarios=ScenarioSpec(
                extra_payload_g=(0.0, 100.0), a_max_scale=(1.0, 0.8)
            ),
        )
        study = run_study(spec)
        assert study.shape == (2, 2, 2)
        assert [a.name for a in study.axes] == [
            "compute_runtime_s",
            "extra_payload_g",
            "a_max_scale",
        ]
        f_c = study.batch.matrix.f_compute_hz
        # Design axis outermost: first 4 rows share the first runtime.
        assert np.allclose(f_c[:4], 100.0) and np.allclose(f_c[4:], 10.0)


def per_row_compile(design, scenarios, start=0, stop=None):
    """The per-row preset/fleet expansion ``compile_spec`` replaced.

    One ``dataclasses.replace`` per (design, scenario) row, each
    re-validating its ``UAVConfiguration``, then one
    ``assemble_configurations`` over rows ``[start, stop)`` and, for
    ``a_max_scale``, a second matrix build: the bitwise reference for
    the columnar planner.  It takes the spec's parts, not a spec, so a
    payload the spec refuses gets the error this path raises.
    Returns ``(matrix, total_mass_g, compute_tdp_w, axes)``.
    """
    if design.kind == "presets":
        candidates = list(
            DesignSpace(
                design.uav_names, design.compute_names, design.algorithm_names
            ).candidates()
        )
        uavs = [c.uav for c in candidates]
        rates = [c.f_compute_hz for c in candidates]
        labels = [
            f"{c.uav_name}+{c.compute_name}+{c.algorithm_name}"
            for c in candidates
        ]
        axes = [
            ("uav", design.uav_names),
            ("compute", design.compute_names),
            ("algorithm", design.algorithm_names),
        ]
    else:
        uavs = list(design.uavs)
        rates = list(design.f_compute_hz)
        labels = list(design.labels) if design.labels is not None else None
        names = design.labels or tuple(u.name for u in uavs)
        axes = [("design", names)]
    scenario_axes = scenarios.axes() if scenarios else {}
    axes += list(scenario_axes.items())
    scale = None
    if scenario_axes:
        rows = [
            dict(zip(scenario_axes, row))
            for row in itertools.product(*scenario_axes.values())
        ]
        expanded, expanded_labels = [], []
        for i, uav in enumerate(uavs):
            for values in rows:
                changes = {}
                if "extra_payload_g" in values:
                    extra = uav.extra_payload_g + values["extra_payload_g"]
                    if not extra >= 0.0 or extra == np.inf:
                        what = "goes negative" if extra < 0.0 else "overflows"
                        raise spec_error(
                            "scenarios.extra_payload_g",
                            f"payload {what} on configuration "
                            f"{uav.name!r} ({extra:g} g)",
                        )
                    changes["extra_payload_g"] = extra
                if "compute_redundancy" in values:
                    changes["compute_redundancy"] = int(
                        values["compute_redundancy"]
                    )
                expanded.append(replace(uav, **changes))
                if labels is not None:
                    suffix = ",".join(
                        f"{name}={value:g}" for name, value in values.items()
                    )
                    expanded_labels.append(f"{labels[i]} [{suffix}]")
        if "a_max_scale" in scenario_axes:
            scale = np.tile(
                [values["a_max_scale"] for values in rows], len(uavs)
            )[start:stop]
        rates = list(np.repeat(rates, len(rows)))
        uavs = expanded
        labels = expanded_labels if labels is not None else None
    fleet = assemble_configurations(
        uavs[start:stop],
        rates[start:stop],
        labels=None if labels is None else labels[start:stop],
    )
    matrix = fleet.matrix
    if scale is not None:
        matrix = DesignMatrix.from_arrays(
            sensing_range_m=matrix.sensing_range_m,
            a_max=matrix.a_max * scale,
            f_sensor_hz=matrix.f_sensor_hz,
            f_compute_hz=matrix.f_compute_hz,
            f_control_hz=matrix.f_control_hz,
            labels=matrix.labels,
            knee_fraction=matrix.knee_fraction,
        )
    return matrix, fleet.total_mass_g, fleet.compute_tdp_w, axes


def _outcome(compile_fn, *args):
    """Bytes of every plan column, or the error's type and message."""
    try:
        matrix, total_mass_g, compute_tdp_w, axes = compile_fn(*args)
    except ReproError as exc:
        return type(exc), str(exc)
    return (
        [column.tobytes() for column in matrix.columns()],
        matrix.labels,
        matrix.knee_fraction,
        total_mass_g.tobytes(),
        compute_tdp_w.tobytes(),
        [(name, tuple(values)) for name, values in axes],
    )


def _planner(design, scenarios, start=0, stop=None):
    """``compile_spec``, or ``compile_chunk`` of ``[start, stop)``."""
    spec = StudySpec(design=design, scenarios=scenarios)
    axes = [(axis.name, axis.values) for axis in study_axes(spec)]
    if stop is None:
        plan = compile_spec(spec)
        assert [(axis.name, axis.values) for axis in plan.axes] == axes
    else:
        plan = compile_chunk(spec, start, stop)
    return plan.matrix, plan.total_mass_g, plan.compute_tdp_w, axes


def _names(draw, pool, max_size):
    names = st.lists(
        st.sampled_from(sorted(pool)),
        min_size=1,
        max_size=max_size,
        unique=True,
    )
    return tuple(draw(names))


#: Spare thrust (g) of the bare dji-spark preset: a fleet UAV flying
#: with no braking floor and more extra payload than this cannot move.
SPARK_HEADROOM_G = (
    get_preset("dji-spark").total_thrust_g - get_preset("dji-spark").total_mass_g
)


@st.composite
def preset_or_fleet_designs(draw):
    """Preset subsets (payload-override airframes, heatsinkless
    platforms and three algorithms included) or fleets, labelled or
    not, of presets with another computer, extra payload or redundancy;
    a fleet may hold a spark with no braking floor whose payload some
    or all of its rows cannot lift."""
    if draw(st.booleans()):
        return DesignSpec.presets(
            _names(draw, UAV_PRESETS, 3),
            _names(draw, PLATFORMS, 3),
            _names(draw, ALGORITHMS, 3),
        )
    uavs = []
    for name in _names(draw, UAV_PRESETS, 3):
        uav = get_preset(name)
        if draw(st.booleans()):
            platform = draw(st.sampled_from(sorted(PLATFORMS)))
            uav = uav.with_compute(get_platform(platform))
        uav = replace(
            uav,
            extra_payload_g=draw(st.floats(0.0, 200.0)),
            compute_redundancy=draw(st.integers(1, 2)),
        )
        uavs.append(uav)
    if draw(st.booleans()):
        tipping = replace(
            get_preset("dji-spark"),
            name="tipping-spark",
            braking_pitch_deg=0.0,
            extra_payload_g=draw(
                st.floats(SPARK_HEADROOM_G - 300.0, SPARK_HEADROOM_G + 100.0)
            ),
        )
        uavs.insert(draw(st.integers(0, len(uavs))), tipping)
    rates = draw(
        st.lists(
            st.floats(0.5, 500.0), min_size=len(uavs), max_size=len(uavs)
        )
    )
    labels = None
    if draw(st.booleans()):
        labels = [f"design-{i}" for i in range(len(uavs))]
    return DesignSpec.fleet(uavs, rates, labels=labels)


@st.composite
def scenario_specs(draw):
    """No scenarios, or a non-empty subset of the three scenario axes."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    axes = draw(st.sets(st.sampled_from(SCENARIO_AXES), min_size=1))
    low = draw(st.sampled_from((0.0, -150.0)))
    values = {
        "extra_payload_g": st.floats(low, 400.0),
        "a_max_scale": st.floats(0.05, 2.0),
        "compute_redundancy": st.integers(1, 3),
    }
    return ScenarioSpec(
        **{
            name: tuple(draw(st.lists(values[name], min_size=1, max_size=3)))
            for name in axes
        }
    )


def _study_rows(design, scenarios):
    """The row count of a study, whether or not its spec builds."""
    count = len(design.uavs) if design.kind == "fleet" else (
        len(design.uav_names) * len(design.compute_names)
        * len(design.algorithm_names)
    )
    for values in (scenarios.axes() if scenarios else {}).values():
        count *= len(values)
    return count


class TestColumnarFleetCompile:
    """The planner's pair x scenario compile equals the per-row
    reference, over every row and over any row range."""

    @settings(max_examples=60, deadline=None)
    @given(design=preset_or_fleet_designs(), scenarios=scenario_specs())
    def test_property_bitwise_equal_to_per_row_expansion(
        self, design, scenarios
    ):
        # A payload that goes negative is refused when the spec is
        # built, with the error the per-row path raises at that row.
        assert _outcome(_planner, design, scenarios) == _outcome(
            per_row_compile, design, scenarios
        )

    @settings(max_examples=60, deadline=None)
    @given(
        design=preset_or_fleet_designs(),
        scenarios=scenario_specs(),
        data=st.data(),
    )
    def test_property_ranges_equal_those_rows_of_the_per_row_expansion(
        self, design, scenarios, data
    ):
        # A range may cut a (UAV, compute) pair's designs, or a
        # design's scenario rows, at either end; an infeasible row is
        # refused only by the ranges that hold it.
        rows = _study_rows(design, scenarios)
        start = data.draw(st.integers(0, rows - 1), label="start")
        stop = data.draw(st.integers(start + 1, rows), label="stop")
        assert _outcome(_planner, design, scenarios, start, stop) == _outcome(
            per_row_compile, design, scenarios, start, stop
        )

    def test_every_range_cutting_pairs_equals_those_rows(self):
        # 3 algorithms per (UAV, compute) pair and 2 scenario rows per
        # design: ranges start and stop inside a pair's block and
        # inside a design's scenario rows.
        design = DesignSpec.presets(
            ("dji-spark", "asctec-pelican"),
            ("intel-ncs", "jetson-tx2", "raspi4"),
            ("dronet", "trailnet", "cad2rl"),
        )
        scenarios = ScenarioSpec(a_max_scale=(0.5, 1.0))
        spec = StudySpec(design=design, scenarios=scenarios)
        matrix, total_mass_g, compute_tdp_w, _ = per_row_compile(
            design, scenarios
        )
        rows = study_size(spec)
        for start in range(rows):
            for stop in range(start + 1, rows + 1):
                chunk = compile_chunk(spec, start, stop)
                assert [c.tobytes() for c in chunk.matrix.columns()] == [
                    c[start:stop].tobytes() for c in matrix.columns()
                ], (start, stop)
                assert list(chunk.matrix.labels) == list(
                    matrix.labels[start:stop]
                )
                assert chunk.total_mass_g.tobytes() == (
                    total_mass_g[start:stop].tobytes()
                )
                assert chunk.compute_tdp_w.tobytes() == (
                    compute_tdp_w[start:stop].tobytes()
                )

    def test_infeasible_row_is_refused_only_by_ranges_holding_it(self):
        # Row 3 adds the spark's whole headroom to half of it; rows 0-2
        # stay liftable.  All four rows share one (UAV, compute) pair.
        uav = replace(
            get_preset("dji-spark"),
            name="tipping-spark",
            braking_pitch_deg=0.0,
            extra_payload_g=SPARK_HEADROOM_G / 2,
        )
        design = DesignSpec.fleet([uav], 30.0)
        scenarios = ScenarioSpec(
            extra_payload_g=(0.0, 1.0, 2.0, SPARK_HEADROOM_G)
        )
        spec = StudySpec(design=design, scenarios=scenarios)
        assert len(compile_chunk(spec, 2, 3)) == 1
        with pytest.raises(InfeasibleDesignError) as ranged:
            compile_chunk(spec, 3, 4)
        with pytest.raises(InfeasibleDesignError) as per_row:
            per_row_compile(design, scenarios)
        assert str(ranged.value) == str(per_row.value)
        assert "(configuration 'tipping-spark')" in str(ranged.value)
        with pytest.raises(InfeasibleDesignError) as single:
            compile_spec(spec)
        assert str(single.value) == str(per_row.value)

    @settings(max_examples=60, deadline=None)
    @given(
        design=preset_or_fleet_designs(),
        scenarios=scenario_specs(),
        chunk_rows=st.integers(1, 7),
    )
    def test_property_chunk_labels_concat_into_the_single_pass_column(
        self, design, scenarios, chunk_rows
    ):
        try:
            spec = StudySpec(design=design, scenarios=scenarios)
            single = compile_spec(spec).matrix.labels
        except ReproError:
            return  # a refused payload or an infeasible row: see above
        parts = [
            compile_chunk(spec, start, stop).matrix
            for start, stop in shard_ranges(study_size(spec), chunk_rows)
        ]
        merged = DesignMatrix.concat(parts).labels
        if single is None:
            assert merged is None
            return
        # Every chunk derives the same N design labels and M suffixes
        # from the spec, so adjacent chunks join into one column.
        assert isinstance(single, LabelColumn)
        assert isinstance(merged, LabelColumn)
        assert (merged.designs, merged.suffixes, merged.start, merged.stop) == (
            single.designs, single.suffixes, single.start, single.stop
        )
        assert list(merged) == list(single)
        # A part held as a tuple, or a missing middle part, gives a tuple
        # of the same rows.
        as_tuple = parts[0].take(np.arange(len(parts[0])))
        mixed = DesignMatrix.concat([as_tuple, *parts[1:]])
        assert type(mixed.labels) is tuple and mixed.labels == single
        if len(parts) >= 3:
            gap = DesignMatrix.concat([parts[0], parts[2]]).labels
            assert type(gap) is tuple
            assert gap == tuple(parts[0].labels) + tuple(parts[2].labels)

    @pytest.mark.parametrize(
        "extra_payload_g, deltas, message",
        [
            # Row-major: (uav-0, -20) fails before (uav-1, -5).
            (
                (10.0, 0.0),
                (-5.0, -20.0),
                "study spec field 'scenarios.extra_payload_g': payload "
                "goes negative on configuration 'uav-0' (-10 g)",
            ),
            (
                (0.0, 1.5e308),
                (0.0, 1.5e308),
                "study spec field 'scenarios.extra_payload_g': payload "
                "overflows on configuration 'uav-1' (inf g)",
            ),
            # Row-major: (uav-0, -1) fails before (uav-1, 1.5e308).
            (
                (0.0, 1.5e308),
                (-1.0, 1.5e308),
                "study spec field 'scenarios.extra_payload_g': payload "
                "goes negative on configuration 'uav-0' (-1 g)",
            ),
        ],
        ids=["negative-payload", "overflowing-sum", "negative-first"],
    )
    def test_scenario_payload_errors_match_per_row_path(
        self, extra_payload_g, deltas, message
    ):
        uavs = [
            replace(
                get_preset("dji-spark"), name=f"uav-{i}", extra_payload_g=extra
            )
            for i, extra in enumerate(extra_payload_g)
        ]
        design = DesignSpec.fleet(uavs, 30.0)
        scenarios = ScenarioSpec(extra_payload_g=deltas)
        with pytest.raises(ConfigurationError) as per_row:
            per_row_compile(design, scenarios)
        assert str(per_row.value) == message
        # Refused when the spec is built, so no shard ever runs.
        with pytest.raises(ConfigurationError) as built:
            StudySpec(design=design, scenarios=scenarios)
        assert str(built.value) == message

    def test_preset_payload_is_refused_naming_the_first_design(self):
        # The first design of the first UAV that goes negative flies
        # the study's first platform.
        with pytest.raises(ConfigurationError) as built:
            StudySpec(
                design=DesignSpec.presets(
                    ("dji-spark", "asctec-pelican"),
                    ("jetson-tx2", "intel-ncs"),
                    ("dronet",),
                ),
                scenarios=ScenarioSpec(extra_payload_g=(0.0, -1e6)),
            )
        assert str(built.value) == (
            "study spec field 'scenarios.extra_payload_g': payload goes "
            "negative on configuration 'dji-spark+intel-ncs+jetson-tx2' "
            "(-1e+06 g)"
        )


#: Drawn Table II knob values, each inside its knob's valid range.
KNOB_VALUES = {
    "sensor_framerate_hz": st.floats(1.0, 240.0),
    "compute_tdp_w": st.floats(0.2, 60.0),
    "compute_runtime_s": st.floats(1e-3, 2.0),
    "sensor_range_m": st.floats(0.5, 50.0),
    "drone_weight_g": st.floats(100.0, 5000.0),
    "rotor_pull_g": st.floats(50.0, 2000.0),
    "payload_weight_g": st.floats(0.0, 1000.0),
    "compute_mass_g": st.floats(1.0, 500.0),
}


@st.composite
def knob_designs(draw):
    """A drawn base knob set crossed with one or two drawn axes."""
    base = Knobs(**{name: draw(values) for name, values in KNOB_VALUES.items()})
    names = draw(
        st.lists(st.sampled_from(sorted(KNOB_VALUES)), min_size=1, max_size=2, unique=True)
    )
    return DesignSpec.knob_axes(
        base,
        {name: draw(st.lists(KNOB_VALUES[name], min_size=1, max_size=3)) for name in names},
    )


class TestOneAccountingChain:
    """A knob study compiles exactly like the fleet of the UAVs its
    knobs build: both kinds run the one accounting chain."""

    @pytest.mark.parametrize(
        "scenarios",
        [
            None,
            ScenarioSpec(extra_payload_g=(0.0, 75.0)),
            ScenarioSpec(extra_payload_g=(0.0, 75.0), a_max_scale=(1.0, 0.8)),
        ],
        ids=["no-scenarios", "payload", "payload-and-scale"],
    )
    @settings(max_examples=30, deadline=None)
    @given(design=knob_designs())
    def test_knob_study_compiles_like_its_knob_built_fleet(
        self, scenarios, design
    ):
        names = [name for name, _ in design.axes]
        rows = [
            replace(design.base, **dict(zip(names, values)))
            for values in itertools.product(*(axis for _, axis in design.axes))
        ]
        fleet = DesignSpec.fleet(
            [knobs.build_uav() for knobs in rows],
            [1.0 / knobs.compute_runtime_s for knobs in rows],
        )
        knob_plan = compile_spec(StudySpec(design=design, scenarios=scenarios))
        fleet_plan = compile_spec(StudySpec(design=fleet, scenarios=scenarios))
        assert [column.tobytes() for column in knob_plan.matrix.columns()] == [
            column.tobytes() for column in fleet_plan.matrix.columns()
        ]
        assert knob_plan.total_mass_g.tobytes() == fleet_plan.total_mass_g.tobytes()
        assert knob_plan.compute_tdp_w.tobytes() == fleet_plan.compute_tdp_w.tobytes()


class TestFiltersAndRank:
    @pytest.fixture()
    def spec(self):
        return StudySpec(
            design=DesignSpec.knob_axes(
                axes={
                    "compute_tdp_w": np.linspace(1.0, 30.0, 5),
                    "compute_runtime_s": np.geomspace(0.002, 0.5, 5),
                }
            )
        )

    def test_filters_match_manual_mask(self, spec):
        filtered = StudySpec(
            design=spec.design,
            filters=(
                FilterClause("safe_velocity", ">=", 6.0),
                FilterClause("bound", "==", "compute"),
            ),
        )
        study = run_study(filtered)
        batch = run_study(spec).batch
        mask = (batch.safe_velocity >= 6.0) & (
            np.asarray([b.value for b in batch.bounds()]) == "compute"
        )
        assert np.array_equal(
            study.selected_indices, np.flatnonzero(mask)
        )

    def test_mass_filter_uses_assembly_column(self, spec):
        study = run_study(
            StudySpec(
                design=spec.design,
                filters=(FilterClause("total_mass_g", "<", 1400.0),),
            )
        )
        assert len(study.selected_indices) > 0
        assert np.all(
            study.total_mass_g[study.selected_indices] < 1400.0
        )

    def test_rank_matches_batch_top_k(self, spec):
        ranked = StudySpec(
            design=spec.design,
            rank=RankClause(by="safe_velocity", top_k=5),
        )
        study = run_study(ranked)
        expected = run_study(spec).batch.top_k(5, by="safe_velocity")
        assert np.array_equal(
            study.selected.safe_velocity, expected.safe_velocity
        )

    @pytest.mark.parametrize("top_k", [None, 1, 7, 22, 40])
    @pytest.mark.parametrize("descending", [True, False])
    def test_selection_is_the_stable_full_sort(self, spec, top_k, descending):
        # Ranking by TDP ties the five runtime rows of every TDP value.
        study = run_study(
            StudySpec(
                design=spec.design,
                filters=(FilterClause("safe_velocity", ">", 5.0),),
                rank=RankClause(
                    by="compute_tdp_w", descending=descending, top_k=top_k
                ),
            )
        )
        kept = np.flatnonzero(study.batch.safe_velocity > 5.0)
        keys = study.compute_tdp_w[kept]
        order = np.argsort(-keys if descending else keys, kind="stable")
        np.testing.assert_array_equal(
            study.selected_indices, kept[order][:top_k]
        )

    def test_metrics_clause_controls_reporting(self, spec):
        study = run_study(
            StudySpec(
                design=spec.design,
                metrics=("safe_velocity", "bound"),
                rank=RankClause(top_k=3),
            )
        )
        metrics = study.metrics()
        assert set(metrics) == {"safe_velocity", "bound"}
        assert len(metrics["safe_velocity"]) == 3
        assert all(isinstance(name, str) for name in metrics["bound"])

    def test_empty_selection_is_legal(self, spec):
        study = run_study(
            StudySpec(
                design=spec.design,
                filters=(FilterClause("safe_velocity", ">", 1e6),),
            )
        )
        assert len(study.selected_indices) == 0
        assert len(study.selected) == 0
        rebuilt = StudyResult.from_json(study.to_json())
        assert rebuilt.equals(study)


def _edited(study: StudyResult, edit=lambda data: None) -> bytes:
    """``study``'s saved file after ``edit`` mutates its header in place."""

    def header(payload):
        data = study.to_dict(payload)
        edit(data)
        return data

    return b"".join(encode_frame(header))


class TestResultRoundTrip:
    def test_result_dict_roundtrip_all_kinds(self):
        specs = [
            knob_spec(compute_tdp_w=[1.0, 30.0]),
            StudySpec(
                design=DesignSpec.presets(
                    ("dji-spark",), ("intel-ncs",), ("dronet", "trailnet")
                ),
                rank=RankClause(top_k=1),
            ),
            StudySpec(
                design=DesignSpec.fleet(
                    (Knobs().build_uav(),), 100.0, labels=("one",)
                ),
                scenarios=ScenarioSpec(a_max_scale=(1.0, 0.9)),
            ),
        ]
        for spec in specs:
            study = run_study(spec)
            rebuilt = StudyResult.from_dict(
                json.loads(json.dumps(study.to_dict()))
            )
            assert rebuilt.equals(study)
            assert rebuilt.spec == spec
            assert rebuilt.shape == study.shape

    # Regression: a trivial ScenarioSpec() used to break the lossless
    # round trip (to_dict omits it, from_dict restored None, specs
    # compared unequal despite identical plans).
    def test_trivial_scenarios_normalize_to_none(self):
        spec = StudySpec(
            design=DesignSpec.knob_axes(axes={"compute_tdp_w": [1.0]}),
            scenarios=ScenarioSpec(),
        )
        assert spec.scenarios is None
        assert StudySpec.from_json(spec.to_json()) == spec

    # Regression: a damaged result document (a missing accounting
    # column, malformed axes, bytes that are not UTF-8, a selection
    # outside the grid) used to leak a raw KeyError/TypeError/
    # UnicodeDecodeError, or load and then fail on first use, instead
    # of naming the field.  Version-1 (float text) documents are
    # refused by version.
    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda study: _edited(study, lambda d: d.pop("total_mass_g")),
             "'total_mass_g'.*missing"),
            (lambda study: _edited(study, lambda d: d["axes"][0].pop("name")),
             r"'axes\[0\]\.name'"),
            (lambda study: _edited(study, lambda d: d.update(axes=5)),
             "'axes'"),
            (lambda study: b"\xff" + _edited(study), "'<root>'"),
            (lambda study: _edited(
                replace(study, selected_indices=[1_000_000])
            ), "'selected_indices'"),
            (lambda study: _edited(study, lambda d: d.update(version=1)),
             "'version'"),
        ],
        ids=[
            "missing-extras", "axis-without-name", "axes-not-a-list",
            "invalid-utf8", "selection-out-of-range", "retired-version",
        ],
    )
    def test_missing_result_extras_named(self, tmp_path, damage, field):
        path = tmp_path / "result.json"
        path.write_bytes(damage(run_study(knob_spec(compute_tdp_w=[1.0, 30.0]))))
        with pytest.raises(ConfigurationError, match=field):
            StudyResult.load(path)

    def test_save_load_files(self, tmp_path):
        spec = knob_spec(compute_runtime_s=[0.01, 0.1])
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        assert StudySpec.load(spec_path) == spec
        study = run_study(spec)
        result_path = tmp_path / "result.json"
        study.save(result_path)
        assert StudyResult.load(result_path).equals(study)


class TestStudyCli:
    def test_study_from_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        knob_spec(compute_tdp_w=[1.0, 30.0]).save(spec_path)
        out_path = tmp_path / "result.json"
        code = cli_main(
            ["study", "--spec", str(spec_path), "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "study compute_tdp_w[2]" in out
        loaded = StudyResult.load(out_path)
        assert loaded.spec == StudySpec.load(spec_path)

    def test_study_quick_mode_json(self, capsys):
        code = cli_main(
            [
                "study", "--knob", "compute_runtime_s",
                "--values", "0.01", "0.1", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        rebuilt = StudyResult.from_dict(data)
        assert rebuilt.shape == (2,)

    def test_study_quick_mode_requires_values(self, capsys):
        assert cli_main(["study", "--knob", "compute_tdp_w"]) == 2

    def test_study_malformed_spec_is_a_clean_error(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            '{"design": {"kind": "knobs", "base": {}, '
            '"axes": {"warp": [1.0]}}}'
        )
        code = cli_main(["study", "--spec", str(spec_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "design.axes" in err and "cannot sweep" in err

    def test_study_missing_file_is_a_clean_error(self, capsys):
        assert cli_main(["study", "--spec", "/nonexistent.json"]) == 1

    def test_sweep_json_output(self, capsys):
        code = cli_main(
            [
                "sweep", "--knob", "compute_tdp_w",
                "--values", "1", "30", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        rebuilt = StudyResult.from_dict(data)
        assert rebuilt.spec.design.kind == "knobs"
        assert len(rebuilt.batch) == 2

    def test_analyze_json_output(self, capsys):
        code = cli_main(
            [
                "analyze", "--uav", "dji-spark", "--compute", "intel-ncs",
                "--algorithm", "dronet", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "dronet"
        assert data["uav"]["compute"]["name"] == "intel-ncs"
        analysis = data["analysis"]
        assert analysis["bound"] in (
            "physics", "sensor", "compute", "control"
        )
        assert analysis["safe_velocity"] > 0

    def test_analyze_json_with_plot_keeps_stdout_pure(
        self, capsys, tmp_path
    ):
        plot = tmp_path / "out.svg"
        code = cli_main(
            [
                "analyze", "--uav", "dji-spark", "--compute", "intel-ncs",
                "--algorithm", "dronet", "--json", "--plot", str(plot),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is valid JSON, nothing else
        assert plot.exists()
        assert "written" in captured.err


class TestValidateOnce:
    def test_nonpositive_derived_a_max_keeps_its_error(self):
        # The scale underflows the braking-floor acceleration of the
        # 5 kg payload row to 0.0; the planner's internal (copy-free)
        # construction must still reject it, with the public text.
        spec = StudySpec(
            design=DesignSpec.knob_axes(
                Knobs(), {"payload_weight_g": [0.0, 5000.0]}
            ),
            scenarios=ScenarioSpec(a_max_scale=(1.0, 5e-324)),
        )
        message = r"^a_max must be > 0 everywhere$"
        with pytest.raises(ConfigurationError, match=message):
            compile_spec(spec)
        with pytest.raises(ConfigurationError, match=message):
            compile_chunk(spec, 0, study_size(spec))

    def test_overflowing_knob_payload_is_refused_when_built(self):
        # Each value is valid alone; the largest payload plus the
        # largest delta overflows, and the spec refuses the pair.
        design = DesignSpec.knob_axes(Knobs(), {"payload_weight_g": [0.0, 1e308]})
        with pytest.raises(
            ConfigurationError,
            match=r"'scenarios.extra_payload_g': payload overflows at "
            r"payload_weight_g=1e\+308, extra_payload_g=1e\+308",
        ):
            StudySpec(design=design, scenarios=ScenarioSpec(extra_payload_g=(-1.0, 1e308)))
        base = Knobs(payload_weight_g=1e308)
        with pytest.raises(ConfigurationError, match="payload overflows"):
            StudySpec(
                design=DesignSpec.knob_axes(base, {"compute_tdp_w": [5.0]}),
                scenarios=ScenarioSpec(extra_payload_g=(1e308,)),
            )
        # A pair whose sum stays finite (and >= 0) still builds.
        StudySpec(design=design, scenarios=ScenarioSpec(extra_payload_g=(0.0, 7e307)))

    def test_near_limit_knob_payload_takes_the_braking_floor_quietly(self):
        # 1e308 + 7e307 g is finite, but the Eq. 5 margin g(T - W) / W
        # overflows to -inf, so the braking floor holds, as it does,
        # without a warning, for the scalar Knobs of the same mass.
        spec = StudySpec(
            design=DesignSpec.knob_axes(Knobs(), {"payload_weight_g": [1e308]}),
            scenarios=ScenarioSpec(extra_payload_g=(7e307,)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a_max = run_study(spec).batch.matrix.a_max
        scalar = Knobs(payload_weight_g=1.7e308).build_uav().max_acceleration
        assert a_max.tolist() == [scalar]


class TestCacheSharing:
    def test_plan_reuse_skips_recompilation(self):
        spec = knob_spec(compute_tdp_w=[1.0, 30.0])
        plan = compile_spec(spec)
        a = run_study(plan, cache=None)
        b = run_study(spec, cache=None)
        assert a.equals(b)
