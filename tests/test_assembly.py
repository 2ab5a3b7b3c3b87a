"""Tests for repro.batch.assembly: the columnar Knobs->UAV->F1 chain.

The load-bearing property: a :class:`KnobMatrix` (and
:func:`assemble_configurations`) must be numerically identical — 1e-9,
property-tested — to looping ``Knobs.build_uav().f1(...)`` /
reading per-vehicle scalar properties.
"""

from __future__ import annotations

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    DesignMatrix,
    KnobMatrix,
    assemble_configurations,
    evaluate_matrix,
)
from repro.batch.assembly import (
    KNOB_COLUMNS,
    assemble_columns,
    configuration_columns,
    knob_columns,
)
from repro.core.knee import DEFAULT_KNEE_FRACTION
from repro.core.model import F1Model
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError, InfeasibleDesignError
from repro.skyline.knobs import Knobs
from repro.study import DesignSpec, StudySpec, compile_spec
from repro.uav.presets import custom_s500, dji_spark

EQ_TOL = 1e-9

knob_sets = st.builds(
    Knobs,
    sensor_framerate_hz=st.floats(min_value=1.0, max_value=240.0),
    compute_tdp_w=st.floats(min_value=0.2, max_value=60.0),
    compute_runtime_s=st.floats(min_value=1e-3, max_value=2.0),
    sensor_range_m=st.floats(min_value=0.5, max_value=50.0),
    drone_weight_g=st.floats(min_value=100.0, max_value=5000.0),
    rotor_pull_g=st.floats(min_value=50.0, max_value=2000.0),
    payload_weight_g=st.floats(min_value=0.0, max_value=1000.0),
    compute_mass_g=st.floats(min_value=1.0, max_value=500.0),
)

#: Airframe rotor counts; one knob matrix holds one count.
rotor_counts = st.sampled_from((3, 4, 6, 8))


def scalar_model(knobs: Knobs) -> F1Model:
    """The pre-assembly idiom: per-point UAV build + F-1 model."""
    return knobs.build_uav().f1(knobs.f_compute_hz)


def assert_matches_scalar_chain(matrix, result, knob_sets_list) -> None:
    for i, knobs in enumerate(knob_sets_list):
        uav = knobs.build_uav()
        model = uav.f1(knobs.f_compute_hz)
        assert matrix.sensing_range_m[i] == pytest.approx(
            model.sensing_range_m, abs=EQ_TOL
        )
        assert matrix.a_max[i] == pytest.approx(
            uav.max_acceleration, abs=EQ_TOL
        )
        assert matrix.f_sensor_hz[i] == pytest.approx(
            model.pipeline.f_sensor_hz, abs=EQ_TOL
        )
        assert matrix.f_compute_hz[i] == pytest.approx(
            model.pipeline.f_compute_hz, abs=EQ_TOL
        )
        assert matrix.f_control_hz[i] == pytest.approx(
            model.pipeline.f_control_hz, abs=EQ_TOL
        )
        assert result.safe_velocity[i] == pytest.approx(
            model.safe_velocity, abs=EQ_TOL
        )
        assert result.roof_velocity[i] == pytest.approx(
            model.roof_velocity, abs=EQ_TOL
        )
        assert result.knee_hz[i] == pytest.approx(
            model.knee.throughput_hz, abs=EQ_TOL
        )
        assert result.bound_at(i) is model.bound


class TestKnobMatrixEquivalence:
    @given(
        sets=st.lists(knob_sets, min_size=1, max_size=16),
        rotor_count=rotor_counts,
    )
    @settings(max_examples=60, deadline=None)
    def test_random_knob_sets_match_scalar_assembly(self, sets, rotor_count):
        sets = [replace(knobs, rotor_count=rotor_count) for knobs in sets]
        km = KnobMatrix.from_knobs(sets)
        matrix = km.assemble()
        result = evaluate_matrix(matrix, cache=None)
        assert_matches_scalar_chain(matrix, result, sets)

    @given(base=knob_sets, tdps=st.lists(
        st.floats(min_value=0.2, max_value=60.0), min_size=1, max_size=8
    ))
    @settings(max_examples=40, deadline=None)
    def test_from_base_single_knob_sweep_matches_loop(self, base, tdps):
        km = KnobMatrix.from_base(base, compute_tdp_w=tdps)
        matrix = km.assemble()
        result = evaluate_matrix(matrix, cache=None)
        scalars = [replace(base, compute_tdp_w=t) for t in tdps]
        assert_matches_scalar_chain(matrix, result, scalars)

    def test_accounting_columns_match_scalar_properties(self):
        sets = [
            Knobs(),
            Knobs(compute_tdp_w=0.5),   # below the heatsink cutoff
            Knobs(compute_tdp_w=30.0, payload_weight_g=750.0),
        ]
        km = KnobMatrix.from_knobs(sets)
        fleet = assemble_columns(
            knob_columns(
                {name: getattr(km, name) for name in KNOB_COLUMNS},
                km.rotor_count,
            ),
            1.0 / km.compute_runtime_s,
        )
        for i, knobs in enumerate(sets):
            uav = knobs.build_uav()
            assert fleet.total_mass_g[i] == pytest.approx(
                uav.total_mass_g, abs=EQ_TOL
            )
            assert fleet.matrix.a_max[i] == pytest.approx(
                uav.max_acceleration, abs=EQ_TOL
            )

    @given(knobs=knob_sets, rotor_count=rotor_counts)
    @settings(max_examples=40, deadline=None)
    def test_knob_columns_are_the_built_uavs_columns(self, knobs, rotor_count):
        # Pins knob_columns' constants to the UAV Knobs.build_uav
        # assembles: every column, scalar or not, equals its one row.
        knobs = replace(knobs, rotor_count=rotor_count)
        values = {name: getattr(knobs, name) for name in KNOB_COLUMNS}
        mine = knob_columns(values, knobs.rotor_count)
        built = configuration_columns([knobs.build_uav()])
        assert mine.keys() == built.keys()
        for name, column in built.items():
            got = np.atleast_1d(np.asarray(mine[name]))
            assert got.dtype == column.dtype, name
            assert got.shape == (1,) and (
                got[0] == column[0]
                or (np.isnan(got[0]) and np.isnan(column[0]))
            ), (name, got, column)

    def test_six_rotor_uav_equals_its_knob_study(self):
        knobs = Knobs(rotor_count=6, rotor_pull_g=200.0)
        uav = knobs.build_uav()
        plan = compile_spec(
            StudySpec(design=DesignSpec.knob_axes(knobs, {"rotor_pull_g": [200.0]}))
        )
        assert uav.total_thrust_g == 1200.0
        assert plan.matrix.a_max[0] == pytest.approx(
            uav.max_acceleration, abs=EQ_TOL
        )

    def test_assemble_records_default_knee_rule(self):
        matrix = KnobMatrix.from_base(Knobs()).assemble()
        assert matrix.knee_fraction == DEFAULT_KNEE_FRACTION

    @pytest.mark.parametrize("payload_g", [1e307, 2e307, 1e308, 1.7e308])
    def test_near_limit_payload_takes_the_scalar_braking_floor(self, payload_g):
        # From about 1.8e307 g the Eq. 5 margin g(T - W) / W overflows
        # to -inf; the columns, like the scalar UAV, take the braking
        # floor, bit for bit and without a warning.
        knobs = Knobs(payload_weight_g=payload_g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = KnobMatrix.from_base(knobs).assemble()
        assert matrix.a_max.tolist() == [knobs.build_uav().max_acceleration]


class TestKnobMatrixConstruction:
    def test_knob_columns_are_the_float_knobs(self):
        assert KNOB_COLUMNS == tuple(
            f.name for f in fields(Knobs) if f.type in (float, "float")
        )

    def test_scalars_broadcast_against_columns(self):
        km = KnobMatrix.from_base(
            Knobs(), compute_tdp_w=(5.0, 10.0, 15.0)
        )
        assert len(km) == 3
        assert km.drone_weight_g.tolist() == [1000.0] * 3
        assert km.compute_tdp_w.tolist() == [5.0, 10.0, 15.0]

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError, match="rotor_count"):
            KnobMatrix.from_base(Knobs(), rotor_count=(4, 6))
        with pytest.raises(ConfigurationError, match="unknown knob"):
            KnobMatrix.from_base(Knobs(), warp_factor=(1.0,))

    def test_incompatible_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="incompatible"):
            KnobMatrix.from_base(
                Knobs(),
                compute_tdp_w=(1.0, 2.0),
                payload_weight_g=(0.0, 1.0, 2.0),
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_and_nonfinite_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            KnobMatrix.from_base(Knobs(), compute_tdp_w=(7.5, bad))

    def test_runtime_needs_a_finite_reciprocal(self):
        # 1 / 1e-309 overflows: the seal names the knob, as Knobs does.
        with pytest.raises(
            ConfigurationError, match="compute_runtime_s must have a finite reciprocal"
        ):
            KnobMatrix.from_base(Knobs(), compute_runtime_s=(0.01, 1e-309))

    def test_payload_may_be_zero_but_not_negative(self):
        km = KnobMatrix.from_base(Knobs(), payload_weight_g=(0.0, 100.0))
        assert len(km) == 2
        with pytest.raises(ConfigurationError, match="payload_weight_g"):
            KnobMatrix.from_base(Knobs(), payload_weight_g=(-1.0,))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            KnobMatrix.from_knobs([])
        with pytest.raises(ConfigurationError, match="at least one"):
            KnobMatrix.from_base(Knobs(), compute_tdp_w=())

    def test_mixed_rotor_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="rotor counts"):
            KnobMatrix.from_knobs(
                [Knobs(rotor_count=4), Knobs(rotor_count=6)]
            )

    def test_invalid_rotor_count_rejected(self):
        with pytest.raises(ConfigurationError, match="rotor_count"):
            KnobMatrix.from_base(Knobs(rotor_count=6), rotor_count=2)

    def test_labels_must_match_rows(self):
        with pytest.raises(ConfigurationError, match="labels"):
            KnobMatrix.from_base(
                Knobs(), labels=("one",), compute_tdp_w=(1.0, 2.0)
            )
        km = KnobMatrix.from_base(
            Knobs(), labels=("a", "b"), compute_tdp_w=(1.0, 2.0)
        )
        assert km.label_at(1) == "b"
        assert KnobMatrix.from_base(Knobs()).label_at(0) == "#0"

    def test_columns_are_frozen(self):
        km = KnobMatrix.from_base(Knobs(), compute_tdp_w=(5.0, 10.0))
        with pytest.raises(ValueError):
            km.compute_tdp_w[0] = 1.0

    def test_knobs_at_round_trips(self):
        base = Knobs(rotor_count=6, payload_weight_g=123.0)
        km = KnobMatrix.from_base(base, compute_tdp_w=(5.0, 10.0))
        recovered = km.knobs_at(1)
        assert recovered == Knobs(
            rotor_count=6, payload_weight_g=123.0, compute_tdp_w=10.0
        )


class TestCallerArrays:
    """Public constructors copy; only package-allocated arrays are
    adopted without one."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda mine: DesignMatrix.from_arrays(mine, mine, mine, mine, mine),
            lambda mine: KnobMatrix.from_base(
                Knobs(), compute_tdp_w=mine, sensor_range_m=mine
            ),
            lambda mine: KnobMatrix.from_base(
                Knobs(), sensor_range_m=mine
            ).assemble(),
            lambda mine: assemble_configurations(
                [dji_spark(), dji_spark()], f_compute_hz=mine
            ).matrix,
        ],
        ids=["from_arrays", "from_base", "assemble", "configurations"],
    )
    def test_never_frozen_or_aliased(self, build):
        mine = np.array([10.0, 20.0])
        built = build(mine)
        columns = [
            value for value in vars(built).values()
            if isinstance(value, np.ndarray)
        ]
        assert columns
        assert not any(np.shares_memory(mine, c) for c in columns)
        assert mine.flags.writeable
        mine[0] = 11.0
        assert 11.0 not in np.concatenate(columns)


class TestFleetAssembly:
    def test_heterogeneous_fleet_matches_scalar_properties(self):
        # Crosses component-derived payloads, Table I payload
        # overrides, a heatsinkless platform and varying braking pitch.
        space = DesignSpace(
            uav_names=(
                "dji-spark", "asctec-pelican", "custom-s500-b", "nano-uav",
            ),
            compute_names=("intel-ncs", "jetson-tx2", "jetson-agx-30w"),
            algorithm_names=("dronet",),
        )
        candidates = list(space.candidates())
        uavs = [c.uav for c in candidates]
        fleet = assemble_configurations(
            uavs, [c.f_compute_hz for c in candidates]
        )
        assert len(fleet) == len(candidates)
        for i, c in enumerate(candidates):
            assert fleet.total_mass_g[i] == pytest.approx(
                c.uav.total_mass_g, abs=EQ_TOL
            )
            assert fleet.compute_tdp_w[i] == c.uav.compute.tdp_w
            assert fleet.matrix.a_max[i] == pytest.approx(
                c.uav.max_acceleration, abs=EQ_TOL
            )
            assert fleet.matrix.f_compute_hz[i] == pytest.approx(
                c.f_compute_hz, abs=EQ_TOL
            )

    def test_redundancy_and_extra_payload_accounted(self):
        uav = dji_spark().with_redundancy(3).with_extra_payload(42.0)
        fleet = assemble_configurations([uav], [100.0])
        assert fleet.total_mass_g[0] == pytest.approx(
            uav.total_mass_g, abs=EQ_TOL
        )
        assert fleet.matrix.a_max[0] == pytest.approx(
            uav.max_acceleration, abs=EQ_TOL
        )

    def test_payload_override_preset_accounted(self):
        uav = custom_s500("D")
        fleet = assemble_configurations([uav], [5.0])
        assert fleet.total_mass_g[0] == pytest.approx(
            uav.total_mass_g, abs=EQ_TOL
        )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            assemble_configurations([], [])

    def test_infeasible_vehicle_raises_like_scalar_path(self):
        import re

        overloaded = replace(
            dji_spark().with_extra_payload(50_000.0),
            braking_pitch_deg=0.0,
        )
        with pytest.raises(InfeasibleDesignError):
            _ = overloaded.max_acceleration  # scalar contract
        with pytest.raises(
            InfeasibleDesignError, match=re.escape(overloaded.name)
        ):
            assemble_configurations([overloaded], [100.0])
