"""Compile a :class:`~repro.study.spec.StudySpec` into a batch plan.

The planner turns a declarative spec into exactly the vectorized
:mod:`repro.batch` execution the legacy entry points performed, so
studies are numerically indistinguishable from the call stacks they
replace (``sweep_knob``/``sweep_grid`` for knob axes, ``dse.explore``
for presets).  Every design kind runs the one accounting chain,
:func:`~repro.batch.assembly.account_columns`: knob grids enter it
through :func:`~repro.batch.assembly.knob_columns`, preset and fleet
designs through :func:`~repro.batch.assembly.configuration_columns`,
and each compile returns its
:class:`~repro.batch.assembly.FleetAssembly`.

Each design kind has one planner path, and it compiles a row range:
:func:`compile_chunk` runs it over a shard's ``[start, stop)`` rows and
:func:`compile_spec` over every row.  Scenario axes expand design rows
design-major (scenario varies fastest) and stay columnar throughout.
Knob rows are never expanded axis by axis: the range is at most
``2·ndim − 1`` axis-aligned blocks of the design and scenario grid
(:func:`~repro.batch.grid.cartesian_blocks`), the chain runs on each
block's axis values shaped along their own dimensions, and the design
matrix keeps the resulting factors, from which it writes each column
once (:class:`~repro.batch.matrix.ColumnBlock`).  Preset and fleet
rows never become one configuration object, or one chain entry, per
row: a design's all-up mass and ``a_max`` (Eq. 5) do not depend on
its algorithm, so the chain runs over the (UAV, compute) pairs the
range touches crossed with the M scenario rows, and only its output
columns are expanded to rows.  Their labels are never built per row
either: a :class:`~repro.batch.matrix.LabelColumn` of the N design
labels and M scenario suffixes, derived from the spec, stands for
them.  A range holds at most ``stop - start + 2·M`` rows, and nothing
is kept between calls.  The spec checked every field value, and that no scenario
payload goes negative or overflows on any row, when it was built, so
the planner checks only what the chain derives: the ``a_max > 0``
rule on the range's own rows and the columns the design matrix seals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..batch.assembly import (
    KNOB_COLUMNS,
    ROW_COLUMNS,
    ArrayLike,
    FleetAssembly,
    account_columns,
    configuration_columns,
    knob_columns,
    require_feasible,
)
from ..batch.grid import cartesian_blocks, cartesian_product
from ..batch.matrix import DesignMatrix, LabelColumn
from ..errors import ConfigurationError
from ..uav.configuration import UAVConfiguration
from .spec import DesignSpec, ScenarioSpec, StudySpec


@dataclass(frozen=True)
class StudyAxis:
    """One named axis of the study's logical grid.

    ``values`` are knob floats, scenario values, or registry names —
    whatever the axis enumerates; ``size`` of all axes multiplies to
    the evaluated point count, so every result column reshapes onto
    the axes.
    """

    name: str
    values: Tuple[Any, ...]

    @property
    def size(self) -> int:
        return len(self.values)


# eq=False: ndarray fields; identity semantics, like the batch types.
@dataclass(frozen=True, eq=False)
class StudyPlan:
    """A compiled, ready-to-evaluate study.

    ``matrix`` feeds :func:`~repro.batch.engine.evaluate_matrix`
    directly; ``total_mass_g`` / ``compute_tdp_w`` carry the assembly
    layer's accounting columns so mass/TDP filters and metrics need no
    per-point Python.
    """

    spec: StudySpec
    matrix: DesignMatrix
    axes: Tuple[StudyAxis, ...]
    total_mass_g: np.ndarray
    compute_tdp_w: np.ndarray

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Points per axis; multiplies to ``len(self)``."""
        return tuple(axis.size for axis in self.axes)


def _scenario_rows(
    scenarios: Optional[ScenarioSpec],
) -> Tuple[Dict[str, Tuple[float, ...]], int]:
    """The provided scenario axes and their Cartesian row count."""
    if scenarios is None:
        return {}, 1
    axes = scenarios.axes()
    count = 1
    for values in axes.values():
        count *= len(values)
    return axes, count


# ---------------------------------------------------------------------------
# Preset / fleet designs (the dse.explore shape)
# ---------------------------------------------------------------------------
def _pairs(
    design: DesignSpec, first: int, stop: int
) -> Tuple[List[UAVConfiguration], int, List[float]]:
    """What designs ``[first, stop)`` fly: each (UAV, compute) pair they
    touch, composed once, how many designs each whole pair holds, and
    each design's compute rate.

    A preset pair holds one design per algorithm; a fleet's designs
    are its own pairs.
    """
    if design.kind == "presets":
        # Enumerate through DesignSpace so ordering matches dse.explore
        # exactly.  Imported lazily: repro.dse imports this package at
        # module level.
        from ..dse.space import DesignSpace

        space = DesignSpace(
            uav_names=design.uav_names,
            compute_names=design.compute_names,
            algorithm_names=design.algorithm_names,
        )
        per_pair = len(design.algorithm_names)
        uavs = list(space.pairs(first // per_pair, (stop - 1) // per_pair + 1))
        return uavs, per_pair, space.rates(first, stop)
    return list(design.uavs[first:stop]), 1, list(design.f_compute_hz[first:stop])


def _design_labels(design: DesignSpec) -> Optional[Tuple[str, ...]]:
    """Every design's label, in row order, read off the spec alone.

    Preset labels are ``uav+compute+algorithm`` in
    ``DesignSpace.candidates`` order (the algorithm varies fastest), so
    no candidate is built for a label; a fleet's are its own labels.
    """
    if design.kind == "presets":
        return tuple(
            f"{uav}+{compute}+{algorithm}"
            for uav in design.uav_names
            for compute in design.compute_names
            for algorithm in design.algorithm_names
        )
    return design.labels


def _scenario_suffixes(
    scenario_axes: Dict[str, Tuple[float, ...]]
) -> Tuple[str, ...]:
    """The `` [name=value,...]`` label suffix of each scenario row.

    Each axis's ``name=value`` strings are formatted once and joined
    per scenario row; with no scenario axes the one suffix is empty.
    """
    if not scenario_axes:
        return ("",)
    parts = [
        [f"{name}={value:g}" for value in values]
        for name, values in scenario_axes.items()
    ]
    return tuple(" [" + ",".join(row) + "]" for row in itertools.product(*parts))


def _compile_fleet(spec: StudySpec, start: int, stop: int) -> FleetAssembly:
    """Rows ``[start, stop)`` of a preset or fleet design.

    The accounting chain never reads the algorithm, so it runs once
    per (UAV, compute) pair and scenario row, at the shape of its
    inputs: the P pairs the range touches as (P, 1) columns, the M
    scenario rows as (1, M) ones.  Heatsink, compute mass and thrust
    take P values, mass and ``a_max`` P·M.  Only the accounted columns
    are expanded to rows, each by one ``np.repeat``: pair to design
    (one design per algorithm), design to row by M, then cut to the
    range.  The range touches designs ``start // M`` through
    ``(stop - 1) // M``, so at most ``stop - start + 2·M`` rows are
    expanded, and the ``a_max > 0`` check reads only the range's rows.
    Labels are the N design labels and M scenario suffixes of the
    whole study as one :class:`~repro.batch.matrix.LabelColumn`, cut
    to the range, so every chunk of a study shares one factorization.
    """
    scenario_axes, n_scenarios = _scenario_rows(spec.scenarios)
    first = start // n_scenarios
    last = (stop - 1) // n_scenarios + 1
    uavs, per_pair, rates = _pairs(spec.design, first, last)
    columns = {
        name: column.reshape(-1, 1)
        for name, column in configuration_columns(uavs).items()
    }
    if scenario_axes:
        for name, values in cartesian_product(scenario_axes).items():
            values = values.reshape(1, -1)
            if name == "extra_payload_g":
                # The spec refused any sum that goes negative or
                # overflows, for every row of the study.
                values = columns[name] + values
            columns[name] = values
    accounted = account_columns(columns)

    # Designs per pair inside [first, last): all of a middle pair's,
    # fewer of the first and last pairs' when the range cuts them.
    designs = np.full(len(uavs), per_pair)
    designs[0] -= first % per_pair
    designs[-1] -= -last % per_pair
    rows = slice(start - first * n_scenarios, stop - first * n_scenarios)

    def expand(column: ArrayLike) -> np.ndarray:
        block = np.broadcast_to(column, (len(uavs), n_scenarios))
        return np.repeat(block, designs, axis=0).reshape(-1)[rows]

    if np.any(accounted["eq5_a_max"] <= 0.0):
        require_feasible(
            {name: expand(column) for name, column in accounted.items()},
            expand(columns["name"]),
        )
    names = _design_labels(spec.design)
    labels = None
    if names is not None:
        labels = LabelColumn(
            names, _scenario_suffixes(scenario_axes), start, stop
        )
    return FleetAssembly.adopt(
        {name: expand(accounted[name]) for name in ROW_COLUMNS},
        np.repeat(np.asarray(rates, dtype=np.float64), n_scenarios)[rows],
        labels,
    )


def compile_spec(spec: StudySpec) -> StudyPlan:
    """Compile a spec into the vectorized plan that will execute it:
    :func:`compile_chunk` over every row, plus :func:`study_axes`."""
    if not isinstance(spec, StudySpec):
        raise ConfigurationError(
            f"compile_spec takes a StudySpec, got {type(spec).__name__}"
        )
    rows = compile_chunk(spec, 0, study_size(spec))
    return StudyPlan(
        spec=spec,
        matrix=rows.matrix,
        axes=study_axes(spec),
        total_mass_g=rows.total_mass_g,
        compute_tdp_w=rows.compute_tdp_w,
    )


# ---------------------------------------------------------------------------
# Row ranges: the one compile path, for a shard or for every row
# ---------------------------------------------------------------------------
def study_axes(spec: StudySpec) -> Tuple[StudyAxis, ...]:
    """The spec's logical axes, without materializing any design rows.

    The axes of ``compile_spec(spec)``, which builds them here, in
    O(axes) instead of O(grid): the sharded executor uses it to shape
    results for grids it never holds in one piece.
    """
    if not isinstance(spec, StudySpec):
        raise ConfigurationError(
            f"study_axes takes a StudySpec, got {type(spec).__name__}"
        )
    design = spec.design
    scenario_axes, _ = _scenario_rows(spec.scenarios)
    if design.kind == "knobs":
        design_axes: Tuple[StudyAxis, ...] = tuple(
            StudyAxis(name, values) for name, values in design.axes
        )
    elif design.kind == "presets":
        design_axes = (
            StudyAxis("uav", design.uav_names),
            StudyAxis("compute", design.compute_names),
            StudyAxis("algorithm", design.algorithm_names),
        )
    else:
        names = (
            design.labels
            if design.labels is not None
            else tuple(u.name for u in design.uavs)
        )
        design_axes = (StudyAxis("design", tuple(names)),)
    return design_axes + tuple(
        StudyAxis(name, values) for name, values in scenario_axes.items()
    )


def study_size(spec: StudySpec) -> int:
    """How many design points the spec expands to, in O(axes) time."""
    size = 1
    for axis in study_axes(spec):
        size *= axis.size
    return size


def _compile_knob_chunk(
    spec: StudySpec, start: int, stop: int
) -> FleetAssembly:
    """Rows ``[start, stop)`` of a knobs design, compiled over its axes.

    The design axes followed by the scenario axes (scenario varies
    fastest) are one row-major Cartesian grid, and the range is at most
    ``2·ndim − 1`` axis-aligned blocks of it
    (:func:`~repro.batch.grid.cartesian_blocks`).  The chain runs once
    per block on the block's axis values, each shaped along its own
    dimension, so every quantity takes one value per combination of
    the axes it reads: the heatsink sees only TDP values, mass and
    ``a_max`` only those of the mass knobs, and the compute rate only
    runtimes.  Knobs no axis sweeps stay the base's scalars, a payload
    delta is one broadcast add and an ``a_max_scale`` axis one
    broadcast multiply, as for fleets.  The design matrix keeps the
    block factors and writes each of its columns, and each extra
    column, once from them.
    """
    design = spec.design
    base = design.base
    scenario_axes, _ = _scenario_rows(spec.scenarios)
    blocks = []
    for block in cartesian_blocks(
        {**dict(design.axes), **scenario_axes}, start, stop
    ):
        axes = block.columns
        knobs = {name: axes.get(name, getattr(base, name)) for name in KNOB_COLUMNS}
        if "extra_payload_g" in axes:
            # The spec refused any sum that goes negative or overflows.
            knobs["payload_weight_g"] = (
                knobs["payload_weight_g"] + axes["extra_payload_g"]
            )
        columns = knob_columns(knobs, base.rotor_count)
        if "a_max_scale" in axes:
            columns["a_max_scale"] = axes["a_max_scale"]
        f_compute_hz = 1.0 / knobs["compute_runtime_s"]
        accounted = account_columns(columns)
        require_feasible(accounted, columns["name"])
        factors = {name: accounted[name] for name in ROW_COLUMNS}
        factors["f_compute_hz"] = f_compute_hz
        blocks.append(replace(block, columns=factors))
    labels = None
    if len(design.axes) == 1 and not scenario_axes:
        # Only the range's own values: the one axis spans every row of
        # the study, so formatting all of it would cost O(study rows)
        # in every shard.  These chunks concat into a tuple, as before.
        knob, values = design.axes[0]
        labels = LabelColumn(
            tuple(f"{knob}={value:g}" for value in values[start:stop]),
            ("",),
            0,
            stop - start,
        )
    return FleetAssembly.adopt_blocks(blocks, labels)


def compile_chunk(spec: StudySpec, start: int, stop: int) -> FleetAssembly:
    """Compile only rows ``[start, stop)`` of a spec.

    The one planner path of each design kind: knob rows are at most
    ``2·ndim − 1`` axis-aligned blocks of the grid, each compiled over
    its axis values, and preset/fleet rows gather only the designs the
    range touches, so a chunk holds at most ``stop - start + 2·M``
    rows (M scenario rows per design) and nothing is memoized.  Chunks
    concatenate bitwise-identically to ``compile_spec(spec)``, which
    is this compile over every row.
    """
    if not isinstance(spec, StudySpec):
        raise ConfigurationError(
            f"compile_chunk takes a StudySpec, got {type(spec).__name__}"
        )
    total = study_size(spec)
    if not 0 <= start < stop <= total:
        raise ConfigurationError(
            f"chunk [{start}, {stop}) out of range for a {total}-row study"
        )
    if spec.design.kind == "knobs":
        return _compile_knob_chunk(spec, start, stop)
    return _compile_fleet(spec, start, stop)
