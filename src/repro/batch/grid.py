"""Cartesian scenario grids: parameter axes -> one design matrix.

The paper's DSE use case (Sec. V) wants "what if" sweeps over several
knobs at once — wind-derated accelerations, payload-dependent
accelerations, sensing ranges, DVFS-scaled compute rates.
:func:`scenario_grid` takes each F-1 parameter as a scalar or an axis
of values and expands their Cartesian product into a single
:class:`~repro.batch.matrix.DesignMatrix` ready for
:func:`~repro.batch.engine.evaluate_matrix`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..core.throughput import DEFAULT_CONTROL_RATE_HZ
from ..errors import ConfigurationError
from .matrix import ColumnBlock, DesignMatrix

AxisLike = Union[float, Sequence[float], np.ndarray]

#: Axis order of the expansion (last axis varies fastest).
GRID_AXES = (
    "sensing_range_m",
    "a_max",
    "f_sensor_hz",
    "f_compute_hz",
    "f_control_hz",
)


def _axis(name: str, values: AxisLike) -> np.ndarray:
    axis = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if axis.ndim != 1:
        raise ConfigurationError(
            f"{name} must be a scalar or 1-D axis, got shape {axis.shape}"
        )
    if axis.size == 0:
        raise ConfigurationError(f"{name} axis is empty")
    return axis


def cartesian_product(axes: Mapping[str, AxisLike]) -> Dict[str, np.ndarray]:
    """Expand named axes into flat row-major Cartesian-product columns.

    Each value is a scalar or 1-D axis; the returned columns all have
    ``prod(len(axis))`` entries, in row-major order over the mapping's
    insertion order (the *last* axis varies fastest).  This is the one
    expansion shared by :func:`scenario_grid` (F-1 parameter axes) and
    :func:`repro.skyline.sweep.sweep_grid` (Table II knob axes): the
    :func:`cartesian_slice` of every row.  A knob study's planner never
    expands its axes to rows: it compiles :func:`cartesian_blocks`.
    """
    return cartesian_slice(axes, 0, cartesian_row_count(axes))


def cartesian_row_count(axes: Mapping[str, AxisLike]) -> int:
    """How many rows :func:`cartesian_product` would expand, without
    expanding them."""
    if not axes:
        raise ConfigurationError("a grid needs at least one axis")
    count = 1
    for name, values in axes.items():
        count *= _axis(name, values).size
    return count


def cartesian_slice(
    axes: Mapping[str, AxisLike], start: int, stop: int
) -> Dict[str, np.ndarray]:
    """Rows ``[start, stop)`` of the row-major Cartesian product, by
    stride arithmetic.

    Axis ``j`` holds each value for a run of ``prod(len(faster axes))``
    rows, so the slice touches a contiguous (wrapping) range of its
    values: those values are tiled and each repeated by its run length,
    clipped to ``[start, stop)``.  Memory is ``O(stop - start)`` however
    large the grid, which is what lets the sharded executor stream a
    multi-million-point grid chunk by chunk.  Every column is a fresh
    array, never a view of the caller's axes.
    """
    if not axes:
        raise ConfigurationError("a grid needs at least one axis")
    arrays = {name: _axis(name, values) for name, values in axes.items()}
    total = 1
    for array in arrays.values():
        total *= array.size
    if not 0 <= start <= stop <= total:
        raise ConfigurationError(
            f"slice [{start}, {stop}) out of range for a {total}-row grid"
        )
    columns: Dict[str, np.ndarray] = {}
    run = 1  # rows per value of the axis: the product of faster axes
    for name, array in reversed(arrays.items()):
        first = start // run
        count = -(-stop // run) - first  # runs the slice touches
        offset = first % array.size
        reps = -(-(offset + count) // array.size)
        column = np.tile(array, reps)[offset:offset + count]
        if run > 1:
            lengths = np.full(count, run)
            if count:
                lengths[0] -= start - first * run
                lengths[-1] -= (first + count) * run - stop
            column = np.repeat(column, lengths)
        columns[name] = column
        run *= array.size
    return {name: columns[name] for name in arrays}


def _block_ranges(
    sizes: Sequence[int], start: int, stop: int
) -> List[Tuple[int, int, int]]:
    """``(axis, first, last)`` of each axis-aligned block of rows
    ``[start, stop)`` of a row-major grid of ``sizes``, in row order.

    Up from the fastest axis, each block finishes the run of an axis up
    to the next boundary of the axis above it; then, down from the
    slowest axis the range reaches, each block takes the whole runs
    that fit before ``stop``.  That is at most one block per axis each
    way and one on the slowest: ``2·ndim − 1`` blocks.
    """
    strides = [1] * len(sizes)
    for axis in range(len(sizes) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * sizes[axis + 1]
    ranges = []
    position, axis = start, len(sizes) - 1
    while axis > 0:
        outer = strides[axis - 1]
        if position % outer:
            end = min(
                (position // outer + 1) * outer,
                stop // strides[axis] * strides[axis],
            )
            if end > position:
                ranges.append((axis, position, end))
                position = end
            if position % outer:
                break  # stop falls inside this run: go down from here
        axis -= 1
    while position < stop:
        end = stop // strides[axis] * strides[axis]
        if end > position:
            ranges.append((axis, position, end))
            position = end
        axis += 1
    return ranges


def cartesian_blocks(
    axes: Mapping[str, AxisLike], start: int, stop: int
) -> List[ColumnBlock]:
    """Rows ``[start, stop)`` of the row-major Cartesian product as at
    most ``2·ndim − 1`` axis-aligned :class:`ColumnBlock` s, in row order.

    Block rows count from ``start``.  A block on axis ``j`` fixes each
    slower axis at one value, takes a run of axis ``j``'s values and
    every value of each faster axis, so its shape is
    ``(1, …, run, n_{j+1}, …, n_last)``.  Its ``columns`` map each axis
    name to that axis's values shaped ``(1, …, n, …, 1)`` along the
    axis's own dimension: reshaped views of one fresh copy of each axis,
    so they are contiguous and never alias the caller's arrays.  Memory
    is O(axis values) however many rows the blocks hold; the rows they
    stand for are :func:`cartesian_slice` of the same range.
    """
    if not axes:
        raise ConfigurationError("a grid needs at least one axis")
    # A fresh copy of each axis: factors are views of it, and the
    # design matrix freezes (and may adopt) them.
    arrays = {
        name: np.array(_axis(name, values)) for name, values in axes.items()
    }
    sizes = [array.size for array in arrays.values()]
    total = math.prod(sizes)
    if not 0 <= start <= stop <= total:
        raise ConfigurationError(
            f"slice [{start}, {stop}) out of range for a {total}-row grid"
        )
    ndim = len(sizes)

    def along(position: int, values: np.ndarray) -> np.ndarray:
        shape = [1] * ndim
        shape[position] = values.size
        return values.reshape(shape)

    # Every block that spans a whole axis shares one view of it.
    whole = [
        along(position, array) for position, array in enumerate(arrays.values())
    ]
    blocks = []
    for axis, first, last in _block_ranges(sizes, start, stop):
        index = np.unravel_index(first, sizes)
        run = (last - first) // math.prod(sizes[axis + 1:])
        factors = {}
        for position, name in enumerate(arrays):
            if position > axis:
                factors[name] = whole[position]
                continue
            begin = int(index[position])
            end = begin + (run if position == axis else 1)
            factors[name] = along(position, arrays[name][begin:end])
        shape = [1] * axis + [run] + sizes[axis + 1:]
        blocks.append(
            ColumnBlock(first - start, last - start, tuple(shape), factors)
        )
    return blocks


def grid_shape(
    sensing_range_m: AxisLike,
    a_max: AxisLike,
    f_sensor_hz: AxisLike,
    f_compute_hz: AxisLike,
    f_control_hz: AxisLike = DEFAULT_CONTROL_RATE_HZ,
) -> Tuple[int, ...]:
    """The (len per axis) shape a :func:`scenario_grid` call would expand."""
    return tuple(
        _axis(name, values).size
        for name, values in zip(
            GRID_AXES,
            (sensing_range_m, a_max, f_sensor_hz, f_compute_hz, f_control_hz),
        )
    )


def scenario_grid(
    sensing_range_m: AxisLike,
    a_max: AxisLike,
    f_sensor_hz: AxisLike,
    f_compute_hz: AxisLike,
    f_control_hz: AxisLike = DEFAULT_CONTROL_RATE_HZ,
) -> DesignMatrix:
    """Expand the Cartesian product of parameter axes into one matrix.

    Each argument is a scalar (a fixed parameter) or a 1-D axis of
    values; the resulting matrix has ``prod(len(axis))`` rows in
    row-major order over :data:`GRID_AXES` (the control-rate axis
    varies fastest).  Validation of the values themselves happens in
    the :class:`DesignMatrix` constructor, which adopts the freshly
    expanded columns without a copy.
    """
    columns = cartesian_product(
        dict(
            zip(
                GRID_AXES,
                (
                    sensing_range_m,
                    a_max,
                    f_sensor_hz,
                    f_compute_hz,
                    f_control_hz,
                ),
            )
        )
    )
    return DesignMatrix._adopt(**columns)
