"""Compile a :class:`~repro.study.spec.StudySpec` into a batch plan.

The planner turns a declarative spec into exactly the vectorized
:mod:`repro.batch` execution the legacy entry points performed —
knob-axes designs go through :class:`~repro.batch.assembly.KnobMatrix`
(identical to ``sweep_knob``/``sweep_grid``), preset and fleet designs
through the two halves of
:func:`~repro.batch.assembly.assemble_configurations` (identical to
``dse.explore``) — so studies are numerically indistinguishable from
the call stacks they replace.  Scenario axes expand design rows
design-major (scenario varies fastest) and stay columnar throughout:
N designs are gathered once and crossed with M scenarios by index
arithmetic, never as N*M configuration objects.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..batch.assembly import (
    KNOB_COLUMNS,
    KnobMatrix,
    assemble_columns,
    configuration_columns,
)
from ..batch.grid import cartesian_product
from ..batch.matrix import DesignMatrix
from ..errors import ConfigurationError
from ..units import require_nonnegative
from ..uav.configuration import UAVConfiguration
from .spec import (
    DesignSpec,
    ScenarioSpec,
    StudySpec,
    spec_error,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..skyline.knobs import Knobs


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


def _scenario_columns(
    axes: Dict[str, Tuple[float, ...]]
) -> Dict[str, np.ndarray]:
    """Row-major Cartesian columns of the scenario axes (last fastest)."""
    if not axes:
        return {}
    return cartesian_product(
        {name: np.asarray(values, dtype=np.float64) for name, values in axes.items()}
    )


def _knob_matrix(
    base: Knobs,
    columns: Dict[str, np.ndarray],
    labels: Optional[List[str]] = None,
) -> KnobMatrix:
    """A knob matrix adopting fresh columns; other knobs from ``base``."""
    return KnobMatrix._adopt(
        rotor_count=base.rotor_count,
        labels=labels,
        **{name: columns.get(name, getattr(base, name)) for name in KNOB_COLUMNS},
    )


def _with_scaled_a_max(
    matrix: DesignMatrix, scale: np.ndarray
) -> DesignMatrix:
    """``matrix`` with its acceleration column derated (others shared)."""
    return DesignMatrix._adopt(
        sensing_range_m=matrix.sensing_range_m,
        a_max=matrix.a_max * scale,
        f_sensor_hz=matrix.f_sensor_hz,
        f_compute_hz=matrix.f_compute_hz,
        f_control_hz=matrix.f_control_hz,
        labels=matrix.labels,
        knee_fraction=matrix.knee_fraction,
    )


# ---------------------------------------------------------------------------
# Knob-axes designs (the sweep_knob / sweep_grid shape)
# ---------------------------------------------------------------------------
def _compile_knobs(spec: StudySpec) -> StudyPlan:
    design = spec.design
    base = design.base
    axes_mapping = {name: np.asarray(values, dtype=np.float64)
                    for name, values in design.axes}
    columns = cartesian_product(axes_mapping)
    scenario_axes, n_scenarios = _scenario_rows(spec.scenarios)
    if not scenario_axes:
        # The exact legacy path: same KnobMatrix call, same labels.
        labels = None
        if len(design.axes) == 1:
            knob, values = design.axes[0]
            labels = [f"{knob}={value:g}" for value in values]
        knob_matrix = _knob_matrix(base, columns, labels)
        matrix = knob_matrix.assemble()
        scale = None
    else:
        n_designs = len(next(iter(columns.values())))
        scenario_columns = _scenario_columns(scenario_axes)
        expanded = {
            name: np.repeat(column, n_scenarios)
            for name, column in columns.items()
        }
        if "extra_payload_g" in scenario_columns:
            delta = np.tile(
                scenario_columns["extra_payload_g"], n_designs
            )
            payload = expanded.get("payload_weight_g")
            if payload is None:
                payload = np.full(
                    n_designs * n_scenarios, base.payload_weight_g
                )
            payload = payload + delta
            if np.any(payload < 0.0):
                worst = float(payload.min())
                raise spec_error(
                    "scenarios.extra_payload_g",
                    f"payload goes negative ({worst:g} g); deltas cannot "
                    "shed more than the payload knob carries",
                )
            expanded["payload_weight_g"] = payload
        knob_matrix = _knob_matrix(base, expanded)
        matrix = knob_matrix.assemble()
        scale = None
        if "a_max_scale" in scenario_columns:
            scale = np.tile(scenario_columns["a_max_scale"], n_designs)

    if scale is not None:
        matrix = _with_scaled_a_max(matrix, scale)

    return StudyPlan(
        spec=spec,
        matrix=matrix,
        axes=study_axes(spec),
        total_mass_g=knob_matrix.total_mass_g,
        compute_tdp_w=knob_matrix.compute_tdp_w,
    )


# ---------------------------------------------------------------------------
# Preset / fleet designs (the dse.explore shape)
# ---------------------------------------------------------------------------
def _materialize_designs(
    design: DesignSpec,
) -> Tuple[List[UAVConfiguration], List[float], Optional[List[str]]]:
    if design.kind == "presets":
        # Enumerate through DesignSpace so ordering and labels match
        # dse.explore exactly.  Imported lazily: repro.dse imports this
        # package at module level.
        from ..dse.space import DesignSpace

        space = DesignSpace(
            uav_names=design.uav_names,
            compute_names=design.compute_names,
            algorithm_names=design.algorithm_names,
        )
        candidates = list(space.candidates())
        uavs = [c.uav for c in candidates]
        rates = [c.f_compute_hz for c in candidates]
        labels = [
            f"{c.uav_name}+{c.compute_name}+{c.algorithm_name}"
            for c in candidates
        ]
        return uavs, rates, labels
    labels = list(design.labels) if design.labels is not None else None
    return list(design.uavs), list(design.f_compute_hz), labels


def _scenario_labels(
    labels: Optional[List[str]], scenario_axes: Dict[str, Tuple[float, ...]]
) -> Optional[List[str]]:
    """Design labels crossed with scenario suffixes, each formatted once."""
    if labels is None or not scenario_axes:
        return labels
    names = list(scenario_axes)
    prefixes = [f"{label} [" for label in labels]
    suffixes = [
        ",".join(f"{name}={value:g}" for name, value in zip(names, row)) + "]"
        for row in itertools.product(*scenario_axes.values())
    ]
    return [prefix + suffix for prefix in prefixes for suffix in suffixes]


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


def _compile_fleet(spec: StudySpec) -> StudyPlan:
    uavs, rates, labels = _materialize_designs(spec.design)
    scenario_axes, n_scenarios = _scenario_rows(spec.scenarios)

    # N designs x M scenarios, scenario fastest: repeat each design's
    # columns M times, tile each scenario column N times, then apply
    # every scenario axis as a column edit.
    columns = {
        name: np.repeat(column, n_scenarios)
        for name, column in configuration_columns(uavs).items()
    }
    for name, values in _scenario_columns(scenario_axes).items():
        column = np.tile(values, len(uavs))
        if name == "extra_payload_g":
            column = _shifted_payload(columns, column)
        columns[name] = column
    fleet = assemble_columns(
        columns,
        np.repeat(np.asarray(rates, dtype=np.float64), n_scenarios),
        labels=_scenario_labels(labels, scenario_axes),
    )

    return StudyPlan(
        spec=spec,
        matrix=fleet.matrix,
        axes=study_axes(spec),
        total_mass_g=fleet.total_mass_g,
        compute_tdp_w=fleet.compute_tdp_w,
    )


def compile_spec(spec: StudySpec) -> StudyPlan:
    """Compile a spec into the vectorized plan that will execute it."""
    if not isinstance(spec, StudySpec):
        raise ConfigurationError(
            f"compile_spec takes a StudySpec, got {type(spec).__name__}"
        )
    if spec.design.kind == "knobs":
        plan = _compile_knobs(spec)
    else:
        plan = _compile_fleet(spec)
    expected = 1
    for axis in plan.axes:
        expected *= axis.size
    if expected != len(plan):  # pragma: no cover - internal invariant
        raise ConfigurationError(
            f"planner produced {len(plan)} rows for axes shape "
            f"{plan.shape}"
        )
    return plan


# ---------------------------------------------------------------------------
# Chunked planning (the worker side of the sharded executor)
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


# eq=False: ndarray fields; identity semantics, like the batch types.
@dataclass(frozen=True, eq=False)
class ShardPlan:
    """The ``[start, stop)`` rows of a compiled study.

    Concatenating shard plans in row order reproduces the full
    :class:`StudyPlan`'s matrix and accounting columns bitwise — the
    invariant the executor equivalence suite pins.
    """

    start: int
    stop: int
    matrix: DesignMatrix
    total_mass_g: np.ndarray
    compute_tdp_w: np.ndarray

    def __len__(self) -> int:
        return len(self.matrix)


def _compile_knob_chunk(spec: StudySpec, start: int, stop: int) -> ShardPlan:
    """Rows ``[start, stop)`` of a knobs design, by index arithmetic.

    The full planner expands ``cartesian_product(design axes)`` and
    repeats/tiles scenario columns; because the combined expansion is
    exactly the row-major Cartesian product of design axes followed by
    scenario axes (scenario varies fastest), a chunk is just
    :func:`~repro.batch.grid.cartesian_slice` of the combined axes —
    O(chunk) memory however large the grid.
    """
    from ..batch.grid import cartesian_slice

    design = spec.design
    base = design.base
    scenario_axes, _ = _scenario_rows(spec.scenarios)
    combined: Dict[str, Any] = {
        name: np.asarray(values, dtype=np.float64)
        for name, values in design.axes
    }
    for name, values in scenario_axes.items():
        combined[name] = np.asarray(values, dtype=np.float64)
    columns = cartesian_slice(combined, start, stop)

    knob_columns = {name: columns[name] for name, _ in design.axes}
    labels = None
    if len(design.axes) == 1 and not scenario_axes:
        knob = design.axes[0][0]
        labels = [f"{knob}={value:g}" for value in knob_columns[knob]]
    if "extra_payload_g" in columns:
        payload = knob_columns.get("payload_weight_g")
        if payload is None:
            payload = np.full(stop - start, base.payload_weight_g)
        payload = payload + columns["extra_payload_g"]
        if np.any(payload < 0.0):
            worst = float(payload.min())
            raise spec_error(
                "scenarios.extra_payload_g",
                f"payload goes negative ({worst:g} g); deltas cannot "
                "shed more than the payload knob carries",
            )
        knob_columns["payload_weight_g"] = payload
    knob_matrix = _knob_matrix(base, knob_columns, labels)
    matrix = knob_matrix.assemble()
    if "a_max_scale" in columns:
        matrix = _with_scaled_a_max(matrix, columns["a_max_scale"])
    return ShardPlan(
        start=start,
        stop=stop,
        matrix=matrix,
        total_mass_g=knob_matrix.total_mass_g,
        compute_tdp_w=knob_matrix.compute_tdp_w,
    )


#: Per-process memo of fully compiled fleet/preset plans, keyed by the
#: spec's content digest.  Every chunk of a fleet/preset design needs
#: the same N gathered configurations (and, for presets, the registry
#: enumeration), so each worker compiles the configuration-bounded full
#: plan once and slices every subsequent chunk out of it: N chunks of
#: one spec cost one compile.  The lock keeps thread-backend workers
#: from compiling N copies of the full plan at once (or racing the
#: eviction loop) — plans are immutable, so serializing the compile is
#: the cheap, correct choice.
_FLEET_PLAN_MEMO: Dict[str, StudyPlan] = {}
_FLEET_PLAN_MEMO_SIZE = 4
_FLEET_PLAN_LOCK = threading.Lock()


def _fleet_plan(spec: StudySpec) -> StudyPlan:
    key = spec.content_digest()
    with _FLEET_PLAN_LOCK:
        plan = _FLEET_PLAN_MEMO.get(key)
        if plan is None:
            plan = compile_spec(spec)
            while len(_FLEET_PLAN_MEMO) >= _FLEET_PLAN_MEMO_SIZE:
                _FLEET_PLAN_MEMO.pop(next(iter(_FLEET_PLAN_MEMO)))
            _FLEET_PLAN_MEMO[key] = plan
    return plan


def compile_chunk(spec: StudySpec, start: int, stop: int) -> ShardPlan:
    """Compile only rows ``[start, stop)`` of a spec.

    Knob-axes designs are rebuilt by Cartesian index arithmetic (O(chunk)
    memory); preset/fleet designs slice a per-process memoized full plan
    (their size is bounded by real configuration counts).  Chunks
    concatenate bitwise-identically to ``compile_spec(spec)``.
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
    plan = _fleet_plan(spec)
    rows = np.arange(start, stop)
    return ShardPlan(
        start=start,
        stop=stop,
        matrix=plan.matrix.take(rows),
        total_mass_g=plan.total_mass_g[rows],
        compute_tdp_w=plan.compute_tdp_w[rows],
    )
