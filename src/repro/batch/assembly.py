"""Vectorized Table II accounting: one columnar Knobs/UAV->F1 chain.

The :mod:`repro.batch` engine evaluates F-1 design points by the
column, but consumers used to *assemble* each point one at a time —
``Knobs.build_uav().f1(...)`` per value — making the Python-side
mass/thrust/heatsink accounting the dominant cost of every sweep.
This module columnizes the assembly chain, once for every design kind:

* :func:`account_columns` runs the heatsink / payload / mass / thrust
  / acceleration accounting over columns of component figures of any
  broadcastable shape, :func:`require_feasible` refuses a row no
  thrust can move, and :meth:`FleetAssembly.adopt` builds the
  :class:`~repro.batch.matrix.DesignMatrix` plus the mass and TDP
  columns from row columns (:meth:`FleetAssembly.adopt_blocks` from
  the accounted factors of a knob grid's blocks).
  :func:`assemble_columns` is the three in a row, for columns that
  already have one entry per row.
* Two functions gather those columns.  :func:`configuration_columns`
  reads them off :class:`~repro.uav.configuration.UAVConfiguration`
  fleets (heterogeneous components, payload overrides, redundancy);
  :func:`knob_columns` maps Table II knob values, scalars or columns,
  onto the UAV that ``Knobs.build_uav`` assembles.  Callers may edit
  the columns in between: the study planner crosses (P, 1)
  configuration columns with (1, M) scenario columns that way, and
  expands only the accounted columns to rows; it runs a knob grid's
  blocks on their axis values, each shaped along its own dimension.
* :func:`assemble_configurations` is the public entry point over the
  chain.  Table II knob grids reach a matrix only through the study
  planner; any other set of knob values is
  ``assemble_configurations([k.build_uav() for k in sets],
  [k.f_compute_hz for k in sets])``.

The chain shares its arithmetic with the scalar properties through
the plain functions in :mod:`repro.uav.budget`,
:mod:`repro.core.heatsink` and :mod:`repro.core.physics`, so scalar
and columnar results are pinned together by construction (and by the
1e-9 equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..core.heatsink import heatsink_mass_g_array
from ..core.knee import DEFAULT_KNEE_FRACTION
from ..core.physics import (
    DEFAULT_BRAKING_PITCH_DEG,
    thrust_margin_acceleration,
)
from ..core.throughput import DEFAULT_CONTROL_RATE_HZ
from ..errors import ConfigurationError, InfeasibleDesignError
from ..uav import budget
from .matrix import ColumnBlock, DesignMatrix, block_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uav.configuration import UAVConfiguration

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: The sweepable (float) Table II knobs, the names :func:`knob_columns`
#: reads.  ``rotor_count`` stays a scalar: it is the one integer knob
#: (airframe topology), uniform across a study like a knee rule is.
KNOB_COLUMNS = (
    "sensor_framerate_hz",
    "compute_tdp_w",
    "compute_runtime_s",
    "sensor_range_m",
    "drone_weight_g",
    "rotor_pull_g",
    "payload_weight_g",
    "compute_mass_g",
)

#: The accounting columns a :class:`FleetAssembly` carries beside its
#: matrix, one entry per row; study shards and results carry them too.
EXTRA_COLUMNS = ("total_mass_g", "compute_tdp_w")

#: The row columns :meth:`FleetAssembly.adopt` reads: the design
#: matrix columns but ``f_compute_hz``, then the :data:`EXTRA_COLUMNS`.
ROW_COLUMNS = (
    "sensing_range_m", "a_max", "f_sensor_hz", "f_control_hz"
) + EXTRA_COLUMNS

#: Knob columns allowed to be zero (everything else must be > 0,
#: mirroring ``Knobs.__post_init__``): the rule a knobs study spec
#: checks its axes against.
NONNEGATIVE_KNOBS = frozenset({"payload_weight_g"})


# ---------------------------------------------------------------------------
# The one accounting chain, over columns of component figures
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class FleetAssembly:
    """Assembled design rows: the F-1 matrix plus its mass accounting.

    What every design kind compiles to — knob grids, preset cross
    products and fleets alike.  The :data:`EXTRA_COLUMNS`, one entry
    per row, let consumers (e.g. the DSE explorer and study filters)
    report all-up mass and TDP without touching the per-vehicle scalar
    properties again.
    """

    matrix: DesignMatrix
    total_mass_g: np.ndarray
    compute_tdp_w: np.ndarray

    def __len__(self) -> int:
        return len(self.matrix)

    @classmethod
    def adopt(
        cls,
        rows: Mapping[str, ArrayLike],
        f_compute_hz: ArrayLike,
        labels: Optional[Sequence[str]] = None,
    ) -> "FleetAssembly":
        """Build the design matrix over accounted row columns.

        ``rows`` maps each of the :data:`ROW_COLUMNS` to one entry per
        row, or to a scalar that holds for every row.
        The matrix adopts its columns and ``f_compute_hz`` without a
        copy (and freezes them), so pass arrays nothing else writes
        to; ``labels`` is checked as :class:`DesignMatrix` checks it.
        """
        matrix = DesignMatrix._adopt(
            sensing_range_m=rows["sensing_range_m"],
            a_max=rows["a_max"],
            f_sensor_hz=rows["f_sensor_hz"],
            f_compute_hz=f_compute_hz,
            f_control_hz=rows["f_control_hz"],
            labels=labels,
            knee_fraction=DEFAULT_KNEE_FRACTION,
        )
        count = len(matrix)
        return cls(
            matrix=matrix,
            total_mass_g=_per_row(rows["total_mass_g"], count),
            compute_tdp_w=_per_row(rows["compute_tdp_w"], count),
        )

    @classmethod
    def adopt_blocks(
        cls,
        blocks: Sequence[ColumnBlock],
        labels: Optional[Sequence[str]] = None,
    ) -> "FleetAssembly":
        """Build the design matrix over accounted blocks.

        Each block's ``columns`` map the :data:`ROW_COLUMNS` and
        ``f_compute_hz`` to factors of any shape that broadcasts to
        the block's (:func:`account_columns` output over a block's axis
        values).  The matrix keeps the five F-1 factors and writes its
        columns once from them; the :data:`EXTRA_COLUMNS` are written
        once each.  Pass factors nothing else writes to: they are
        frozen, and a lone block's full-shape factor is adopted.
        """
        matrix = DesignMatrix._adopt(
            _blocks=tuple(blocks),
            labels=labels,
            knee_fraction=DEFAULT_KNEE_FRACTION,
        )
        extras = {
            name: block_rows(
                blocks,
                [
                    np.asarray(block.columns[name], dtype=np.float64)
                    for block in blocks
                ],
                len(matrix),
            )
            for name in EXTRA_COLUMNS
        }
        return cls(matrix=matrix, **extras)


def configuration_columns(
    uavs: Sequence["UAVConfiguration"],
) -> Dict[str, np.ndarray]:
    """Gather each configuration's component figures into columns.

    The only per-configuration Python of fleet assembly: everything
    after it is whole-column arithmetic, so callers may reshape or edit
    the columns (the study planner crosses them with scenario axes)
    before :func:`account_columns` runs the chain.  ``name`` (which
    error messages cite) is an object column and ``needs_heatsink`` a
    bool one; the rest are float64, ``payload_override_g`` holding NaN
    where no override is set and ``a_max_scale`` — the Eq. 5
    acceleration's derating factor — 1 for a configuration as built.
    """

    def column(getter: Callable[["UAVConfiguration"], float]) -> np.ndarray:
        return np.asarray([getter(u) for u in uavs], dtype=np.float64)

    return {
        "name": np.array([u.name for u in uavs], dtype=object),
        "tdp_w": column(lambda u: u.compute.tdp_w),
        "needs_heatsink": np.array(
            [u.compute.needs_heatsink for u in uavs], dtype=bool
        ),
        "module_mass_g": column(lambda u: u.compute.mass_g),
        "carrier_mass_g": column(lambda u: u.compute.carrier_mass_g),
        "compute_redundancy": column(lambda u: u.compute_redundancy),
        "battery_mass_g": column(lambda u: u.battery.mass_g),
        "sensor_mass_g": column(lambda u: u.sensor.mass_g),
        "extra_payload_g": column(lambda u: u.extra_payload_g),
        "payload_override_g": column(
            lambda u: np.nan
            if u.payload_override_g is None
            else u.payload_override_g
        ),
        "frame_mass_g": column(lambda u: u.frame.base_mass_g),
        "flight_controller_mass_g": column(
            lambda u: u.flight_controller.mass_g
        ),
        "rotor_pull_g": column(lambda u: u.motor.rated_pull_g),
        "rotor_count": column(lambda u: u.frame.rotor_count),
        "braking_pitch_deg": column(lambda u: u.braking_pitch_deg),
        "sensing_range_m": column(lambda u: u.sensor.range_m),
        "f_sensor_hz": column(lambda u: u.sensor.framerate_hz),
        "f_control_hz": column(lambda u: u.flight_controller.loop_rate_hz),
        "a_max_scale": np.ones(len(uavs)),
    }


def knob_columns(
    knobs: Mapping[str, ArrayLike], rotor_count: int
) -> Dict[str, ArrayLike]:
    """Table II knob values as the columns of the UAV they build.

    ``knobs`` maps every name in :data:`KNOB_COLUMNS` to a scalar or a
    column.  The result is :func:`configuration_columns` of the UAV
    ``Knobs.build_uav`` assembles, with ``rotor_count`` rotors: one
    heatsinked compute replica whose carrier board is folded into its
    module mass, battery and sensor masses folded into the payload
    knob, a massless flight controller at the default loop rate and
    the default braking pitch.  Figures the knobs do not set stay
    scalars, which :func:`account_columns` broadcasts.
    """
    return {
        "name": np.array("custom-knobs", dtype=object),
        "tdp_w": knobs["compute_tdp_w"],
        "needs_heatsink": True,
        "module_mass_g": knobs["compute_mass_g"],
        "carrier_mass_g": 0.0,
        "compute_redundancy": 1.0,
        "battery_mass_g": 0.0,
        "sensor_mass_g": 0.0,
        "extra_payload_g": knobs["payload_weight_g"],
        "payload_override_g": np.nan,
        "frame_mass_g": knobs["drone_weight_g"],
        "flight_controller_mass_g": 0.0,
        "rotor_pull_g": knobs["rotor_pull_g"],
        "rotor_count": float(rotor_count),
        "braking_pitch_deg": DEFAULT_BRAKING_PITCH_DEG,
        "sensing_range_m": knobs["sensor_range_m"],
        "f_sensor_hz": knobs["sensor_framerate_hz"],
        "f_control_hz": DEFAULT_CONTROL_RATE_HZ,
        "a_max_scale": 1.0,
    }


def _per_row(column: ArrayLike, rows: int) -> np.ndarray:
    """``column`` with one entry per row; a full column is not copied."""
    values = np.asarray(column, dtype=np.float64)
    return values if values.shape == (rows,) else np.full(rows, values)


def account_columns(columns: Mapping[str, ArrayLike]) -> Dict[str, ArrayLike]:
    """Run the accounting chain over :func:`configuration_columns` or
    :func:`knob_columns` output of any broadcastable shape.

    The heatsink / payload / mass / thrust / acceleration chain,
    vectorized through the same plain functions the scalar properties
    call, honoring ``payload_override_g``, ``compute_redundancy``,
    ``needs_heatsink`` and per-vehicle braking pitch.  A column may be
    a scalar or an array of any shape that broadcasts with the others,
    and each result has the shape its own inputs broadcast to: over
    (P, 1) configuration columns crossed with (1, M) scenario columns,
    heatsink and thrust take P values, and mass and ``a_max`` P·M.

    Returns the :data:`ROW_COLUMNS` (``a_max`` derated by
    ``a_max_scale``), plus what :func:`require_feasible`
    reads: ``total_thrust_g`` and ``eq5_a_max``, the Eq. 5
    acceleration before the derating, which nothing has checked yet.
    """
    tdp_w = np.asarray(columns["tdp_w"], dtype=np.float64)
    heatsink = heatsink_mass_g_array(tdp_w)
    needs_heatsink = np.asarray(columns["needs_heatsink"])
    if not needs_heatsink.all():
        heatsink = np.where(needs_heatsink, heatsink, 0.0)
    compute_payload = budget.compute_payload_mass_g(
        budget.compute_flight_mass_g(
            columns["module_mass_g"], columns["carrier_mass_g"], heatsink
        ),
        redundancy=columns["compute_redundancy"],
    )
    extra_payload = columns["extra_payload_g"]
    payload = budget.component_payload_mass_g(
        columns["battery_mass_g"],
        columns["sensor_mass_g"],
        compute_payload,
        extra_payload,
    )
    override = np.asarray(columns["payload_override_g"], dtype=np.float64)
    unset = np.isnan(override)
    if not unset.all():
        payload = np.where(unset, payload, override + extra_payload)
    total_mass = budget.all_up_mass_g(
        columns["frame_mass_g"], columns["flight_controller_mass_g"], payload
    )
    total_thrust = budget.rated_thrust_g(
        columns["rotor_pull_g"], columns["rotor_count"]
    )
    with np.errstate(over="ignore"):
        # A finite mass near the float limit overflows the margin to
        # -inf, which the braking floor replaces, as in the scalar path.
        a_max = thrust_margin_acceleration(
            total_thrust, total_mass, columns["braking_pitch_deg"]
        )
    return {
        "sensing_range_m": columns["sensing_range_m"],
        "a_max": a_max * columns["a_max_scale"],
        "f_sensor_hz": columns["f_sensor_hz"],
        "f_control_hz": columns["f_control_hz"],
        "total_mass_g": total_mass,
        "compute_tdp_w": tdp_w,
        "total_thrust_g": total_thrust,
        "eq5_a_max": a_max,
    }


def require_feasible(
    accounted: Mapping[str, ArrayLike], names: ArrayLike
) -> None:
    """Refuse rows whose Eq. 5 acceleration is not > 0.

    ``accounted`` is :func:`account_columns` output and ``names`` the
    configuration names; the first offending entry names its
    configuration.  Only a zero braking pitch gets here, which knob
    columns never set.
    """
    a_max = np.asarray(accounted["eq5_a_max"])
    infeasible = a_max <= 0.0
    if np.any(infeasible):
        index = int(np.argmax(infeasible))

        def at(column: ArrayLike) -> object:
            return np.broadcast_to(column, a_max.shape).flat[index]

        raise InfeasibleDesignError(
            f"total thrust {at(accounted['total_thrust_g']):.0f} g cannot "
            f"move an all-up mass of {at(accounted['total_mass_g']):.0f} g "
            f"and no braking floor is configured (configuration "
            f"{at(names)!r})"
        )


def assemble_columns(
    columns: Mapping[str, ArrayLike],
    f_compute_hz: ArrayLike,
    labels: Optional[Sequence[str]] = None,
) -> FleetAssembly:
    """Run the accounting chain over row columns and build the matrix.

    :func:`account_columns`, :func:`require_feasible`, then
    :meth:`FleetAssembly.adopt`.  Each column is a scalar that holds
    for every row or has one entry per row: any shape that broadcasts
    to the rows.  ``labels`` may be a
    :class:`~repro.batch.matrix.LabelColumn`, which the matrix adopts
    as it is; any other sequence becomes a tuple of one string per row.
    """
    accounted = account_columns(columns)
    require_feasible(accounted, columns["name"])
    return FleetAssembly.adopt(accounted, f_compute_hz, labels)


def assemble_configurations(
    uavs: Sequence["UAVConfiguration"],
    f_compute_hz: ArrayLike,
    labels: Optional[Sequence[str]] = None,
) -> FleetAssembly:
    """Columnize whole UAV configurations into one design matrix.

    :func:`configuration_columns` then :func:`assemble_columns`:
    numerically identical to reading ``uav.max_acceleration`` per
    vehicle.
    """
    uavs = list(uavs)
    if not uavs:
        raise ConfigurationError("a fleet needs at least one configuration")
    # The matrix adopts f_compute_hz: copy it, so the caller's array is
    # never frozen or aliased.
    return assemble_columns(
        configuration_columns(uavs),
        np.array(f_compute_hz, dtype=np.float64),
        labels,
    )
