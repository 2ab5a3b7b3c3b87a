"""Compile a :class:`~repro.study.spec.StudySpec` into a batch plan.

The planner turns a declarative spec into exactly the vectorized
:mod:`repro.batch` execution the legacy entry points performed, so
studies are numerically indistinguishable from the call stacks they
replace (``sweep_knob``/``sweep_grid`` for knob axes, ``dse.explore``
for presets).  Every design kind ends in the one accounting chain,
:func:`~repro.batch.assembly.assemble_columns`: knob rows enter it
through :func:`~repro.batch.assembly.knob_columns`, preset and fleet
rows through :func:`~repro.batch.assembly.configuration_columns`, and
each compile returns its :class:`~repro.batch.assembly.FleetAssembly`.

Each design kind has one planner path, and it compiles a row range:
:func:`compile_chunk` runs it over a shard's ``[start, stop)`` rows and
:func:`compile_spec` over every row.  Scenario axes expand design rows
design-major (scenario varies fastest) and stay columnar throughout.
Knob rows are a :func:`~repro.batch.grid.cartesian_slice` of the
design and scenario axes; preset and fleet rows gather only the
designs the range touches and cross them with the M scenario rows by
index arithmetic, never as one configuration object per row.  Their
labels are never built per row either: a
:class:`~repro.batch.matrix.LabelColumn` of the N design labels and M
scenario suffixes, derived from the spec, stands for them.  A range
holds at most ``stop - start + 2·M`` rows, and nothing is kept between
calls.  The spec checked every field value, and whether a knob grid's
payload overflows, when it was built, so the planner checks only what
crossing rows can produce: a scenario payload that goes negative (or,
for a fleet, overflows), and the derived columns the design matrix
seals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..batch.assembly import (
    KNOB_COLUMNS,
    FleetAssembly,
    assemble_columns,
    configuration_columns,
    knob_columns,
)
from ..batch.grid import cartesian_product, cartesian_slice
from ..batch.matrix import DesignMatrix, LabelColumn
from ..errors import ConfigurationError
from ..units import require_nonnegative
from ..uav.configuration import UAVConfiguration
from .spec import (
    DesignSpec,
    ScenarioSpec,
    StudySpec,
    spec_error,
)


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
def _materialize_designs(
    design: DesignSpec, first: int, stop: int
) -> Tuple[List[UAVConfiguration], List[float]]:
    """Designs ``[first, stop)``: configurations and compute rates."""
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
        candidates = list(space.candidates(first, stop))
        return [c.uav for c in candidates], [c.f_compute_hz for c in candidates]
    return list(design.uavs[first:stop]), list(design.f_compute_hz[first:stop])


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


def _shifted_payload(
    columns: Dict[str, np.ndarray], deltas: np.ndarray
) -> np.ndarray:
    """The extra-payload column plus scenario deltas, checked per row.

    The first offending row in row-major order decides the error, as
    it did when every row was a validated ``UAVConfiguration``.
    """
    with np.errstate(over="ignore"):
        extra = columns["extra_payload_g"] + deltas
    bad = ~(np.isfinite(extra) & (extra >= 0.0))
    if bad.any():
        row = int(np.argmax(bad))
        value = float(extra[row])
        if value < 0.0:
            raise spec_error(
                "scenarios.extra_payload_g",
                f"payload goes negative on configuration "
                f"{columns['name'][row]!r} ({value:g} g)",
            )
        require_nonnegative("extra_payload_g", value)
    return extra


def _compile_fleet(spec: StudySpec, start: int, stop: int) -> FleetAssembly:
    """Rows ``[start, stop)`` of a preset or fleet design.

    With M scenario rows per design, only designs ``start // M``
    through ``(stop - 1) // M`` are gathered, so at most
    ``stop - start + 2·M`` rows are expanded before the range is cut.
    Labels are the N design labels and M scenario suffixes of the
    whole study as one :class:`~repro.batch.matrix.LabelColumn`, cut
    to the range, so every chunk of a study shares one factorization.
    """
    scenario_axes, n_scenarios = _scenario_rows(spec.scenarios)
    first = start // n_scenarios
    uavs, rates = _materialize_designs(
        spec.design, first, (stop - 1) // n_scenarios + 1
    )
    rows = slice(start - first * n_scenarios, stop - first * n_scenarios)

    # N designs x M scenarios, scenario fastest: repeat each design's
    # columns M times, tile each scenario column N times, cut the
    # range's rows, then apply every scenario axis as a column edit.
    columns = {
        name: np.repeat(column, n_scenarios)[rows]
        for name, column in configuration_columns(uavs).items()
    }
    scenario_columns = (
        cartesian_product(scenario_axes) if scenario_axes else {}
    )
    for name, values in scenario_columns.items():
        column = np.tile(values, len(uavs))[rows]
        if name == "extra_payload_g":
            column = _shifted_payload(columns, column)
        columns[name] = column
    names = _design_labels(spec.design)
    labels = None
    if names is not None:
        labels = LabelColumn(
            names, _scenario_suffixes(scenario_axes), start, stop
        )
    return assemble_columns(
        columns,
        np.repeat(np.asarray(rates, dtype=np.float64), n_scenarios)[rows],
        labels=labels,
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
    """Rows ``[start, stop)`` of a knobs design, by index arithmetic.

    The design axes followed by the scenario axes (scenario varies
    fastest) are one row-major Cartesian grid, so the rows are
    :func:`~repro.batch.grid.cartesian_slice` of the combined axes —
    O(stop - start) memory however large the grid.  Knobs no axis
    sweeps stay the base's scalars, and an ``a_max_scale`` axis is a
    column edit, as for fleets.
    """
    design = spec.design
    base = design.base
    scenario_axes, _ = _scenario_rows(spec.scenarios)
    columns = cartesian_slice(
        {**dict(design.axes), **scenario_axes}, start, stop
    )

    knobs = {name: columns.get(name, getattr(base, name)) for name in KNOB_COLUMNS}
    labels = None
    if len(design.axes) == 1 and not scenario_axes:
        # Only the range's own values: the one axis spans every row of
        # the study, so formatting all of it would cost O(study rows)
        # in every shard.  These chunks concat into a tuple, as before.
        knob = design.axes[0][0]
        values = tuple(f"{knob}={value:g}" for value in knobs[knob])
        labels = LabelColumn(values, ("",), 0, len(values))
    if "extra_payload_g" in columns:
        delta = columns["extra_payload_g"]
        carried = np.broadcast_to(knobs["payload_weight_g"], delta.shape)
        payload = carried + delta
        negative = payload < 0.0
        if negative.any():
            # The first offending row in row-major order, so every
            # chunking of the study names the same row.
            row = int(np.argmax(negative))
            raise spec_error(
                "scenarios.extra_payload_g",
                f"payload goes negative at payload_weight_g="
                f"{carried[row]:g}, extra_payload_g={delta[row]:g} "
                f"({payload[row]:g} g); deltas cannot shed more than "
                "the payload knob carries",
            )
        knobs["payload_weight_g"] = payload
    design_columns = knob_columns(knobs, base.rotor_count)
    if "a_max_scale" in columns:
        design_columns["a_max_scale"] = columns["a_max_scale"]
    return assemble_columns(
        design_columns, 1.0 / knobs["compute_runtime_s"], labels
    )


def compile_chunk(spec: StudySpec, start: int, stop: int) -> FleetAssembly:
    """Compile only rows ``[start, stop)`` of a spec.

    The one planner path of each design kind: knob rows are a
    Cartesian slice, and preset/fleet rows gather only the designs the
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
