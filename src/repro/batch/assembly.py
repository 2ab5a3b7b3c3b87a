"""Vectorized Table II accounting: one columnar Knobs/UAV->F1 chain.

The :mod:`repro.batch` engine evaluates F-1 design points by the
column, but consumers used to *assemble* each point one at a time —
``Knobs.build_uav().f1(...)`` per value — making the Python-side
mass/thrust/heatsink accounting the dominant cost of every sweep.
This module columnizes the assembly chain, once for every design kind:

* :func:`assemble_columns` runs the heatsink / payload / mass / thrust
  / acceleration accounting over columns of component figures and
  returns a :class:`FleetAssembly`: the
  :class:`~repro.batch.matrix.DesignMatrix` plus the mass, thrust and
  TDP columns.
* Two functions gather those columns.  :func:`configuration_columns`
  reads them off :class:`~repro.uav.configuration.UAVConfiguration`
  fleets (heterogeneous components, payload overrides, redundancy);
  :func:`knob_columns` maps Table II knob values, scalars or columns,
  onto the UAV that ``Knobs.build_uav`` assembles.  Callers may edit
  the columns in between: the study planner crosses designs with
  scenario axes that way instead of building one object per row.
* :func:`assemble_configurations` and :class:`KnobMatrix` (a
  structure-of-arrays set of Table II knobs) are the two public
  entry points over the chain.

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
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
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
from ..units import require_finite_reciprocal, require_rotor_count
from .matrix import (
    DesignMatrix,
    SealedColumns,
    broadcast_rows,
    checked_labels,
    sealed_column,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..skyline.knobs import Knobs
    from ..uav.configuration import UAVConfiguration

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: The sweepable (float) Table II knobs, one KnobMatrix column each.
#: ``rotor_count`` stays a scalar: it is the one integer knob (airframe
#: topology), uniform across a matrix like a knee rule is.
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

#: Knob columns allowed to be zero (everything else must be > 0,
#: mirroring ``Knobs.__post_init__``): the rule a knob matrix seals
#: with and a knobs study spec checks its axes against.
NONNEGATIVE_KNOBS = frozenset({"payload_weight_g"})


# eq=False: dataclass-generated __eq__/__hash__ choke on ndarray fields
# (ambiguous truth value / unhashable); identity semantics apply instead.
@dataclass(frozen=True, eq=False)
class KnobMatrix(SealedColumns):
    """N Table II knob sets, one NumPy column per knob.

    Columns may be passed as scalars or 1-D sequences; scalars (and
    length-1 columns) broadcast against the longest column.  Validation
    mirrors the scalar :class:`~repro.skyline.knobs.Knobs` contract —
    every knob finite and strictly positive, ``payload_weight_g``
    allowed to be zero — once per matrix instead of once per point.
    """

    sensor_framerate_hz: np.ndarray
    compute_tdp_w: np.ndarray
    compute_runtime_s: np.ndarray
    sensor_range_m: np.ndarray
    drone_weight_g: np.ndarray
    rotor_pull_g: np.ndarray
    payload_weight_g: np.ndarray
    compute_mass_g: np.ndarray
    rotor_count: int = 4
    labels: Optional[Tuple[str, ...]] = None

    def _seal(self, copy: bool) -> None:
        object.__setattr__(
            self, "rotor_count", require_rotor_count(self.rotor_count)
        )
        columns, rows = broadcast_rows(
            KNOB_COLUMNS, [getattr(self, name) for name in KNOB_COLUMNS], "knob column"
        )
        if rows == 0:
            raise ConfigurationError("a knob matrix needs at least one row")
        # Per-column, not per-row: bounded by the 8 Table II knobs.
        # reprolint: disable=RPL004
        for name, column in zip(KNOB_COLUMNS, columns):
            column = sealed_column(
                name, column, rows, copy, allow_zero=name in NONNEGATIVE_KNOBS
            )
            object.__setattr__(self, name, column)
        # The compute rate is 1 / runtime, so the smallest runtime must
        # keep it finite (the scalar Knobs rule).
        require_finite_reciprocal(
            "compute_runtime_s", float(self.compute_runtime_s.min())
        )
        object.__setattr__(self, "labels", checked_labels(self.labels, rows))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_base(
        cls,
        base: "Knobs",
        labels: Optional[Sequence[str]] = None,
        **overrides: ArrayLike,
    ) -> "KnobMatrix":
        """Broadcast a base knob set against swept columns.

        ``overrides`` maps knob names from :data:`KNOB_COLUMNS` to a
        scalar or a 1-D axis of values; every knob not overridden takes
        its (scalar) value from ``base``.
        """
        unknown = sorted(set(overrides) - set(KNOB_COLUMNS))
        if unknown:
            known = ", ".join(KNOB_COLUMNS)
            raise ConfigurationError(
                f"unknown knob column(s) {', '.join(map(repr, unknown))}; "
                f"sweepable knobs: {known} (rotor_count is the airframe "
                "topology — build a new base Knobs to change it)"
            )
        values = {
            name: overrides.get(name, getattr(base, name))
            for name in KNOB_COLUMNS
        }
        return cls(
            rotor_count=base.rotor_count,
            labels=tuple(labels) if labels is not None else None,
            **values,  # type: ignore[arg-type]
        )

    @classmethod
    def from_knobs(
        cls,
        knobs: Iterable["Knobs"],
        labels: Optional[Sequence[str]] = None,
    ) -> "KnobMatrix":
        """Columnize an iterable of scalar knob sets.

        All knob sets must agree on ``rotor_count`` (one matrix holds
        one airframe topology, like one knee rule).
        """
        rows = list(knobs)
        if not rows:
            raise ConfigurationError("a knob matrix needs at least one row")
        rotor_counts = {k.rotor_count for k in rows}
        if len(rotor_counts) > 1:
            raise ConfigurationError(
                f"knob sets mix rotor counts {sorted(rotor_counts)}; "
                "one matrix takes one airframe topology"
            )
        columns = np.asarray(
            [[getattr(k, name) for name in KNOB_COLUMNS] for k in rows],
            dtype=np.float64,
        ).T
        return cls(
            rotor_count=rotor_counts.pop(),
            labels=tuple(labels) if labels is not None else None,
            **dict(zip(KNOB_COLUMNS, columns)),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.sensor_framerate_hz.size)

    def knobs_at(self, index: int) -> "Knobs":
        """The scalar :class:`Knobs` of one row (for cross-checks)."""
        from ..skyline.knobs import Knobs

        return Knobs(
            rotor_count=self.rotor_count,
            **{
                name: float(getattr(self, name)[index])
                for name in KNOB_COLUMNS
            },
        )

    def label_at(self, index: int) -> str:
        """The row's label, or a positional placeholder."""
        if self.labels is not None:
            return self.labels[index]
        return f"#{index}"

    def assemble(self) -> DesignMatrix:
        """Run the accounting chain and columnize the F-1 parameters.

        :func:`knob_columns` then :func:`assemble_columns`: numerically
        identical to building ``Knobs.build_uav().f1(knobs.f_compute_hz)``
        per row, with the default fraction-of-roof knee rule recorded
        on the matrix.
        """
        knobs = {name: getattr(self, name) for name in KNOB_COLUMNS}
        return assemble_columns(
            knob_columns(knobs, self.rotor_count),
            1.0 / self.compute_runtime_s,
            self.labels,
        ).matrix


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


def configuration_columns(
    uavs: Sequence["UAVConfiguration"],
) -> Dict[str, np.ndarray]:
    """Gather each configuration's component figures into columns.

    The only per-configuration Python of fleet assembly: everything
    after it is whole-column arithmetic, so callers may expand or edit
    the columns (the study planner crosses them with scenario axes)
    before :func:`assemble_columns` runs the chain.  ``name`` (which
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
    scalars, which :func:`assemble_columns` broadcasts.
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


def assemble_columns(
    columns: Mapping[str, ArrayLike],
    f_compute_hz: ArrayLike,
    labels: Optional[Sequence[str]] = None,
) -> FleetAssembly:
    """Run the accounting chain over :func:`configuration_columns` or
    :func:`knob_columns` output.

    The heatsink / payload / mass / thrust / acceleration chain,
    vectorized through the same plain functions the scalar properties
    call, honoring ``payload_override_g``, ``compute_redundancy``,
    ``needs_heatsink`` and per-vehicle braking pitch; ``a_max`` is
    derated by ``a_max_scale`` before the one design matrix is built.
    A column may be a scalar that holds for every row.  The matrix
    adopts the stage-rate and sensing-range columns and
    ``f_compute_hz`` without a copy (and freezes them), so pass arrays
    nothing else writes to.
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
    if np.any(a_max <= 0.0):
        # Only a zero braking pitch gets here, which knob columns never
        # set, so these are configuration columns: one entry per row.
        index = int(np.argmax(a_max <= 0.0))
        raise InfeasibleDesignError(
            f"total thrust {total_thrust[index]:.0f} g cannot move an "
            f"all-up mass of {total_mass[index]:.0f} g and no braking "
            f"floor is configured (configuration "
            f"{np.asarray(columns['name'])[index]!r})"
        )
    matrix = DesignMatrix._adopt(
        sensing_range_m=columns["sensing_range_m"],
        a_max=a_max * columns["a_max_scale"],
        f_sensor_hz=columns["f_sensor_hz"],
        f_compute_hz=f_compute_hz,
        f_control_hz=columns["f_control_hz"],
        labels=labels,
        knee_fraction=DEFAULT_KNEE_FRACTION,
    )
    rows = len(matrix)
    return FleetAssembly(
        matrix=matrix,
        total_mass_g=_per_row(total_mass, rows),
        compute_tdp_w=_per_row(tdp_w, rows),
    )


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
