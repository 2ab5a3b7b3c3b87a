"""Knob grids compile and evaluate over their axes: the block path
against the row path it replaced.

The row path lives here as the reference: every axis expanded to rows
with ``cartesian_slice``, the Table II chain through ``knob_columns``
and ``assemble_columns``, and the kernels over the 1-D columns, with
the bound and verdict codes in their ``np.select`` form.  The package
compiles a knob range as at most ``2·ndim − 1`` axis-aligned blocks
(``cartesian_blocks``) and runs each kernel at the shape of its
inputs; every column it returns must equal the reference's bit for
bit, and so must every failure.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import executor, kernels
from repro.batch.assembly import KNOB_COLUMNS, assemble_columns, knob_columns
from repro.batch.engine import evaluate_matrix
from repro.batch.grid import cartesian_blocks, cartesian_row_count, cartesian_slice
from repro.batch.matrix import LabelColumn, block_rows
from repro.batch.result import BatchResult
from repro.core.knee import DEFAULT_KNEE_FRACTION
from repro.core.throughput import DEFAULT_CONTROL_RATE_HZ
from repro.errors import ConfigurationError
from repro.skyline.knobs import Knobs
from repro.study import (
    DesignSpec,
    ScenarioSpec,
    StudySpec,
    compile_chunk,
    run_study,
    study_size,
)
from repro.study import planner, runner

GOLDEN_KNOB_SPEC = (
    Path(__file__).parent / "data" / "wire_golden" / "spec-knobs-v1.json"
)

_MATRIX_COLUMNS = (
    "sensing_range_m", "a_max", "f_sensor_hz", "f_compute_hz", "f_control_hz"
)
_RESULT_COLUMNS = (
    "roof_velocity", "knee_hz", "knee_velocity", "action_throughput_hz",
    "safe_velocity", "bound_codes", "status_codes",
)
_EXTRA_COLUMNS = ("total_mass_g", "compute_tdp_w")


# ---------------------------------------------------------------------------
# The row reference
# ---------------------------------------------------------------------------
def select_bounds(f_sensor, f_compute, f_control, f_action, knee):
    """The bound codes in their ``np.select`` form."""
    sensor_slowest = (f_sensor <= f_compute) & (f_sensor <= f_control)
    compute_slowest = f_compute <= f_control
    return np.select(
        [f_action >= knee, sensor_slowest, compute_slowest],
        [kernels.PHYSICS_CODE, kernels.SENSOR_CODE, kernels.COMPUTE_CODE],
        default=kernels.CONTROL_CODE,
    ).astype(np.int8)


def select_status(f_action, knee, tolerance):
    """The verdict codes in their ``np.select`` form."""
    ratio = f_action / knee
    optimal = (1.0 - tolerance <= ratio) & (ratio <= 1.0 + tolerance)
    return np.select(
        [optimal, ratio > 1.0],
        [kernels.OPTIMAL_CODE, kernels.OVER_PROVISIONED_CODE],
        default=kernels.UNDER_PROVISIONED_CODE,
    ).astype(np.int8)


def row_compile(spec, start, stop):
    """A knob range with every axis expanded to rows first."""
    if spec.design.kind != "knobs":
        return compile_chunk(spec, start, stop)
    design = spec.design
    base = design.base
    scenario_axes = {} if spec.scenarios is None else spec.scenarios.axes()
    columns = cartesian_slice({**dict(design.axes), **scenario_axes}, start, stop)
    knobs = {name: columns.get(name, getattr(base, name)) for name in KNOB_COLUMNS}
    labels = None
    if len(design.axes) == 1 and not scenario_axes:
        knob = design.axes[0][0]
        values = tuple(f"{knob}={value:g}" for value in knobs[knob])
        labels = LabelColumn(values, ("",), 0, len(values))
    if "extra_payload_g" in columns:
        knobs["payload_weight_g"] = (
            knobs["payload_weight_g"] + columns["extra_payload_g"]
        )
    design_columns = knob_columns(knobs, base.rotor_count)
    if "a_max_scale" in columns:
        design_columns["a_max_scale"] = columns["a_max_scale"]
    return assemble_columns(
        design_columns, 1.0 / knobs["compute_runtime_s"], labels
    )


def row_evaluate(matrix, knee_fraction=None, tolerance=0.05, **_):
    """Every kernel over the matrix's 1-D columns, in the engine's order."""
    if knee_fraction is None:
        knee_fraction = (
            matrix.knee_fraction
            if matrix.knee_fraction is not None
            else DEFAULT_KNEE_FRACTION
        )
    d, a = matrix.sensing_range_m, matrix.a_max
    f_sensor, f_compute = matrix.f_sensor_hz, matrix.f_compute_hz
    f_control = matrix.f_control_hz
    f_action = np.minimum(np.minimum(f_sensor, f_compute), f_control)
    coefficient = 2.0 * knee_fraction / (1.0 - knee_fraction * knee_fraction)
    knee = coefficient * np.sqrt(a / (2.0 * d))
    roof = np.sqrt(2.0 * d * a)
    knee_velocity = knee_fraction * np.sqrt(2.0 * d * a)
    t = 1.0 / f_action
    safe = a * (np.sqrt(t * t + 2.0 * d / a) - t)
    return BatchResult._adopt(
        matrix=matrix,
        roof_velocity=roof,
        knee_hz=knee,
        knee_velocity=knee_velocity,
        action_throughput_hz=f_action,
        safe_velocity=safe,
        bound_codes=select_bounds(f_sensor, f_compute, f_control, f_action, knee),
        status_codes=select_status(f_action, knee, tolerance),
        knee_fraction=knee_fraction,
        tolerance=tolerance,
    )


def assert_same_rows(assembly, result, reference, expected):
    """Every matrix, extra and result column bitwise equal, and the labels."""
    for name in _MATRIX_COLUMNS:
        mine = getattr(assembly.matrix, name)
        assert mine.dtype == np.float64 and mine.ndim == 1, name
        assert not mine.flags.writeable, name
        assert mine.tobytes() == getattr(reference.matrix, name).tobytes(), name
    for name in _EXTRA_COLUMNS:
        mine = getattr(assembly, name)
        assert mine.shape == (len(reference),), name
        assert mine.tobytes() == getattr(reference, name).tobytes(), name
    for name in _RESULT_COLUMNS:
        mine = getattr(result, name)
        theirs = getattr(expected, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name
    if reference.matrix.labels is None:
        assert assembly.matrix.labels is None
    else:
        assert list(assembly.matrix.labels) == list(reference.matrix.labels)
    assert result.knee_fraction == expected.knee_fraction
    assert result.tolerance == expected.tolerance


# ---------------------------------------------------------------------------
# Blocks of a row-major grid
# ---------------------------------------------------------------------------
def assert_blocks_tile(axes, start, stop):
    """The blocks cover [start, stop) once, in row order, within the
    2·ndim − 1 bound, and their factors write cartesian_slice's rows."""
    blocks = cartesian_blocks(axes, start, stop)
    assert len(blocks) <= 2 * len(axes) - 1
    position = 0
    for block in blocks:
        assert block.start == position < block.stop
        assert block.stop - block.start == int(np.prod(block.shape))
        assert len(block.shape) == len(axes)
        position = block.stop
    assert position == stop - start
    expected = cartesian_slice(axes, start, stop)
    for name, axis in axes.items():
        factors = [block.columns[name] for block in blocks]
        for block, factor in zip(blocks, factors):
            assert factor.flags.c_contiguous
            assert np.broadcast_shapes(factor.shape, block.shape) == block.shape
            assert not np.shares_memory(factor, axis)
        if blocks:
            rows = block_rows(blocks, factors, stop - start)
            assert rows.tobytes() == expected[name].tobytes(), name
    return blocks


class TestCartesianBlocks:
    @pytest.mark.parametrize(
        "shape",
        [(1,), (5,), (1, 1), (1, 4), (4, 1), (2, 3), (3, 1, 2), (2, 2, 3),
         (2, 1, 3, 2), (3, 2, 2, 2)],
        ids=str,
    )
    def test_every_range_of_small_shapes(self, shape):
        axes = {
            f"axis{i}": np.arange(n, dtype=np.float64) + 10.0 * i
            for i, n in enumerate(shape)
        }
        total = cartesian_row_count(axes)
        for start in range(total + 1):
            for stop in range(start, total + 1):
                assert_blocks_tile(axes, start, stop)

    def test_a_whole_grid_or_outer_slab_is_one_block(self):
        axes = {"a": np.arange(4.0), "b": np.arange(3.0), "c": np.arange(5.0)}
        (whole,) = cartesian_blocks(axes, 0, 60)
        assert whole.shape == (4, 3, 5)
        assert [f.shape for f in whole.columns.values()] == [
            (4, 1, 1), (1, 3, 1), (1, 1, 5)
        ]
        (slab,) = cartesian_blocks(axes, 15, 45)
        assert slab.shape == (2, 3, 5)

    def test_a_range_inside_one_run_is_blocks_of_the_fastest_axes(self):
        axes = {"a": np.arange(4.0), "b": np.arange(3.0), "c": np.arange(5.0)}
        blocks = assert_blocks_tile(axes, 17, 48)
        assert [(b.start, b.stop, b.shape) for b in blocks] == [
            (0, 3, (1, 1, 3)),
            (3, 13, (1, 2, 5)),
            (13, 28, (1, 3, 5)),
            (28, 31, (1, 1, 3)),
        ]

    def test_out_of_range_blocks_are_an_error(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            cartesian_blocks({"a": (1.0, 2.0)}, 0, 3)
        with pytest.raises(ConfigurationError, match="at least one axis"):
            cartesian_blocks({}, 0, 0)


# ---------------------------------------------------------------------------
# Property: the block compile equals the row reference bitwise
# ---------------------------------------------------------------------------
_KNOB_VALUES = {
    # Stage rates from a small pool as well, so rates tie.
    "sensor_framerate_hz": st.one_of(
        st.sampled_from([30.0, 60.0, 100.0, DEFAULT_CONTROL_RATE_HZ]),
        st.floats(1.0, 2000.0),
    ),
    "compute_tdp_w": st.floats(0.1, 60.0),
    "compute_runtime_s": st.one_of(
        st.sampled_from([0.01, 1 / 60.0, 1.0 / DEFAULT_CONTROL_RATE_HZ]),
        st.floats(5e-4, 1.0),
    ),
    "sensor_range_m": st.floats(0.5, 100.0),
    "drone_weight_g": st.floats(100.0, 5000.0),
    "rotor_pull_g": st.floats(50.0, 3000.0),
    "payload_weight_g": st.floats(0.0, 2000.0),
    "compute_mass_g": st.floats(1.0, 1000.0),
}


@st.composite
def knob_ranges(draw):
    """A knob study of 1–6 design axes with optional scenario axes, and a
    row range of it (at most 4,096 rows, so big grids stay cheap)."""
    names = draw(
        st.lists(st.sampled_from(KNOB_COLUMNS), min_size=1, max_size=6, unique=True)
    )
    axes = {
        name: draw(st.lists(_KNOB_VALUES[name], min_size=1, max_size=7))
        for name in names
    }
    scenarios = {}
    if draw(st.booleans()):
        scenarios["extra_payload_g"] = draw(
            st.lists(st.floats(0.0, 300.0), min_size=1, max_size=4)
        )
    if draw(st.booleans()):
        scenarios["a_max_scale"] = draw(
            st.lists(st.floats(0.05, 1.5), min_size=1, max_size=4)
        )
    spec = StudySpec(
        design=DesignSpec.knob_axes(Knobs(), axes),
        scenarios=ScenarioSpec(**scenarios) if scenarios else None,
        knee_fraction=draw(st.floats(0.05, 0.99)),
        tolerance=draw(st.floats(0.0, 0.5)),
    )
    total = study_size(spec)
    start = draw(st.integers(0, total - 1))
    stop = draw(st.integers(start + 1, min(total, start + 4096)))
    return spec, start, stop


class TestBlockCompileEqualsRowReference:
    @given(case=knob_ranges())
    @settings(max_examples=150, deadline=None)
    def test_block_compile_equals_row_reference(self, case):
        spec, start, stop = case
        assembly = compile_chunk(spec, start, stop)
        result = evaluate_matrix(
            assembly.matrix, spec.knee_fraction, spec.tolerance
        )
        reference = row_compile(spec, start, stop)
        expected = row_evaluate(reference.matrix, spec.knee_fraction, spec.tolerance)
        assert_same_rows(assembly, result, reference, expected)

        scenario_axes = {} if spec.scenarios is None else spec.scenarios.axes()
        axes = {**dict(spec.design.axes), **scenario_axes}
        blocks = assert_blocks_tile(axes, start, stop)
        assert [(b.start, b.stop) for b in assembly.matrix.blocks] == [
            (b.start, b.stop) for b in blocks
        ]

    def test_golden_spec_every_chunk(self):
        spec = StudySpec.from_json(GOLDEN_KNOB_SPEC.read_text())
        total = study_size(spec)
        for start in range(total):
            for stop in range(start + 1, total + 1):
                assembly = compile_chunk(spec, start, stop)
                reference = row_compile(spec, start, stop)
                assert_same_rows(
                    assembly,
                    evaluate_matrix(
                        assembly.matrix, spec.knee_fraction, spec.tolerance
                    ),
                    reference,
                    row_evaluate(
                        reference.matrix, spec.knee_fraction, spec.tolerance
                    ),
                )

    def test_a_plain_matrix_is_one_block_of_its_columns(self):
        spec = StudySpec.from_json(GOLDEN_KNOB_SPEC.read_text())
        plain = compile_chunk(spec, 0, study_size(spec)).matrix.take(
            np.arange(study_size(spec))
        )
        (block,) = plain.blocks
        assert (block.start, block.stop, block.shape) == (0, 24, (24,))
        for name in _MATRIX_COLUMNS:
            assert block.columns[name] is getattr(plain, name)
        mine = evaluate_matrix(plain, 0.9, 0.1)
        theirs = row_evaluate(plain, 0.9, 0.1)
        for name in _RESULT_COLUMNS:
            assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes()


# ---------------------------------------------------------------------------
# Property: the code kernels equal their np.select form
# ---------------------------------------------------------------------------
#: Rates and knees from a pool of small integers: stage rates tie,
#: f_action meets the knee exactly, and 5/4 and 3/4 are exactly
#: 1 ± 0.25.
_POOL = (2.0, 3.0, 4.0, 5.0, 8.0, 10.0)
_TOLERANCES = (0.0, 0.25, 0.5)


def _assert_codes_match(f_sensor, f_compute, f_control, knee, tolerance):
    f_action = np.minimum(np.minimum(f_sensor, f_compute), f_control)
    full = np.broadcast_shapes(
        np.shape(f_action), np.shape(knee), np.shape(f_sensor)
    )
    bounds = kernels.classify_bounds(f_sensor, f_compute, f_control, f_action, knee)
    status = kernels.optimality_status(f_action, knee, tolerance)
    expected_bounds = select_bounds(f_sensor, f_compute, f_control, f_action, knee)
    expected_status = select_status(f_action, knee, tolerance)
    for mine, theirs in ((bounds, expected_bounds), (status, expected_status)):
        assert mine.dtype == np.int8
        assert np.broadcast_to(mine, full).tobytes() == np.broadcast_to(
            theirs, full
        ).tobytes()
    return np.broadcast_to(bounds, full), np.broadcast_to(status, full)


class TestCodeKernels:
    @given(
        rows=st.lists(
            st.tuples(*[st.sampled_from(_POOL)] * 4), min_size=1, max_size=40
        ),
        tolerance=st.sampled_from(_TOLERANCES) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_dimensional_codes_equal_select(self, rows, tolerance):
        f_sensor, f_compute, f_control, knee = np.array(rows).T
        _assert_codes_match(f_sensor, f_compute, f_control, knee, tolerance)

    @given(
        data=st.data(),
        sizes=st.tuples(*[st.integers(1, 4)] * 3),
        tolerance=st.sampled_from(_TOLERANCES) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_broadcast_codes_equal_select(self, data, sizes, tolerance):
        p, q, r = sizes

        def draw(shape):
            values = data.draw(
                st.lists(
                    st.sampled_from(_POOL),
                    min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape)),
                )
            )
            return np.array(values).reshape(shape)

        # Rates along their own axes, the knee over range x a_max axes.
        _assert_codes_match(
            draw((p, 1, 1)), draw((1, q, 1)), draw((1, 1, r)), draw((p, 1, r)),
            tolerance,
        )

    @pytest.mark.parametrize("broadcast", [False, True], ids=["1-D", "N-D"])
    def test_every_code_occurs(self, broadcast):
        # Rows: physics at f_action == knee exactly; sensor, compute and
        # control bounds; ties sensor == compute and compute == control;
        # ratios 1, 5/4 and 3/4 (both band edges of 0.25), 2 and 1/2.
        f_sensor = np.array([4.0, 3.0, 8.0, 8.0, 4.0, 8.0, 5.0, 8.0, 8.0])
        f_compute = np.array([8.0, 8.0, 3.0, 8.0, 4.0, 4.0, 8.0, 10.0, 2.0])
        f_control = np.array([8.0, 8.0, 8.0, 2.0, 8.0, 4.0, 8.0, 10.0, 8.0])
        knee = np.array([4.0, 4.0, 4.0, 4.0, 5.0, 5.0, 4.0, 4.0, 4.0])
        if broadcast:
            # The same rows as (9, 1) rates against a (9, 3) knee.
            f_sensor = f_sensor.reshape(-1, 1)
            f_compute = f_compute.reshape(-1, 1)
            f_control = f_control.reshape(-1, 1)
            knee = np.tile(knee.reshape(-1, 1), (1, 3))
        bounds, status = _assert_codes_match(
            f_sensor, f_compute, f_control, knee, 0.25
        )
        assert set(np.unique(bounds)) == {0, 1, 2, 3}
        assert set(np.unique(status)) == {0, 1, 2}
        assert kernels.optimality_status(5.0, 4.0, 0.25) == kernels.OPTIMAL_CODE
        assert kernels.optimality_status(3.0, 4.0, 0.25) == kernels.OPTIMAL_CODE
        assert kernels.classify_bounds(8.0, 4.0, 8.0, 4.0, 4.0) == (
            kernels.PHYSICS_CODE
        )


# ---------------------------------------------------------------------------
# Differential failures: the block path fails exactly as the row path
# ---------------------------------------------------------------------------
def _golden_base(name, value):
    """The golden knob spec with the base knob ``name`` set to ``value``."""
    document = json.loads(GOLDEN_KNOB_SPEC.read_text())
    document["design"]["base"][name] = value
    return StudySpec.from_dict(document)


def _golden_with(name, value):
    """The golden knob spec with ``value`` on the ``name`` axis: replacing
    an axis's last value, or beside the base's value on a new axis."""
    document = json.loads(GOLDEN_KNOB_SPEC.read_text())
    design_axes = document["design"]["axes"]
    scenarios = document["scenarios"]
    if name in design_axes:
        design_axes[name] = design_axes[name][:-1] + [value]
    elif name in scenarios:
        scenarios[name] = scenarios[name][:-1] + [value]
    else:
        design_axes[name] = [document["design"]["base"][name], value]
    return StudySpec.from_dict(document)


_FAILURE_SPECS = {
    # Values the spec boundary accepts that overflow or cancel today
    # (ROADMAP item 1 will refuse or fix them).
    "runtime-1e308": lambda: _golden_with("compute_runtime_s", 1e308),
    "range-1e308": lambda: _golden_with("sensor_range_m", 1e308),
    "range-5e-324": lambda: _golden_with("sensor_range_m", 5e-324),
    "scale-1e-320": lambda: _golden_with("a_max_scale", 1e-320),
    "scale-1e308": lambda: _golden_with("a_max_scale", 1e308),
    "pull-1e308": lambda: _golden_with("rotor_pull_g", 1e308),
    # An extreme base knob no axis sweeps: its one value is a factor
    # every block shares, and must warn as its rows would, also where
    # every stage rate is such a factor.
    "base-pull-1e308": lambda: _golden_base("rotor_pull_g", 1e308),
    "base-framerate-1e-300": lambda: _golden_base("sensor_framerate_hz", 1e-300),
    "base-runtime-1e308": lambda: StudySpec(
        design=DesignSpec.knob_axes(
            Knobs(compute_runtime_s=1e308), {"sensor_range_m": [5.0, 10.0]}
        ),
        scenarios=ScenarioSpec(a_max_scale=(1.0, 0.5)),
    ),
    # The validate-once cases: an a_max that underflows to 0, and
    # payloads near the float limit.
    "scale-underflow": lambda: StudySpec(
        design=DesignSpec.knob_axes(Knobs(), {"payload_weight_g": [0.0, 5000.0]}),
        scenarios=ScenarioSpec(a_max_scale=(1.0, 5e-324)),
    ),
    "payload-pair": lambda: StudySpec(
        design=DesignSpec.knob_axes(Knobs(), {"payload_weight_g": [0.0, 1e308]}),
        scenarios=ScenarioSpec(extra_payload_g=(0.0, 7e307)),
    ),
    "payload-near-limit": lambda: StudySpec(
        design=DesignSpec.knob_axes(Knobs(), {"payload_weight_g": [1e308]}),
        scenarios=ScenarioSpec(extra_payload_g=(7e307,)),
    ),
}


def _outcome(spec, chunk_rows, action):
    """What a run does under one warnings filter: the exception it
    raises, or its columns and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            result = run_study(spec, chunk_rows=chunk_rows)
        except Exception as exc:  # the failure is the outcome compared
            return ("raised", type(exc).__name__, str(exc))
    batch = result.batch
    columns = {
        name: getattr(batch.matrix, name).tobytes() for name in _MATRIX_COLUMNS
    }
    columns.update(
        (name, getattr(batch, name).tobytes()) for name in _RESULT_COLUMNS
    )
    columns.update(
        (name, getattr(result, name).tobytes()) for name in _EXTRA_COLUMNS
    )
    columns["selected_indices"] = result.selected_indices.tobytes()
    labels = None if batch.matrix.labels is None else list(batch.matrix.labels)
    issued = sorted({(w.category.__name__, str(w.message)) for w in caught})
    return ("ran", columns, labels, issued)


class TestFailuresMatchRowReference:
    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize("chunk_rows", [None, 3], ids=["single", "chunk3"])
    @pytest.mark.parametrize("case", sorted(_FAILURE_SPECS))
    def test_same_failure_or_same_result(
        self, case, chunk_rows, action, monkeypatch
    ):
        spec = _FAILURE_SPECS[case]()
        blocked = _outcome(spec, chunk_rows, action)
        monkeypatch.setattr(planner, "compile_chunk", row_compile)
        monkeypatch.setattr(runner, "evaluate_matrix", row_evaluate)
        monkeypatch.setattr(executor, "evaluate_matrix", row_evaluate)
        assert _outcome(spec, chunk_rows, action) == blocked
