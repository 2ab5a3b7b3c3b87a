"""Knob sweeps: the exploratory studies the web tool's sliders enabled.

Sweep any Table II knob — or a Cartesian grid of several at once —
and collect the F-1 consequences (safe velocity, knee, bound) into
tables, figures and crossover reports, ready for the kind of what-if
exploration Sec. V demonstrates interactively.

Both :func:`sweep_knob` and :func:`sweep_grid` are thin builders over
the declarative :mod:`repro.study` layer: they assemble a
:class:`~repro.study.spec.StudySpec` and hand it to
:func:`~repro.study.runner.run_study`.  Its planner runs the one
columnar accounting chain
(:func:`~repro.batch.assembly.account_columns`) once per block of the
knob grid, and the rows are evaluated in one :mod:`repro.batch` pass —
public signatures and numerics unchanged, but every sweep is now also
expressible (and serializable) as a spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..batch.grid import AxisLike
from ..batch.kernels import BOUND_KINDS
from ..batch.matrix import DesignMatrix
from ..batch.result import SORTABLE_COLUMNS, BatchResult
from ..core.bounds import BoundKind
from ..errors import ConfigurationError
from ..io.tables import format_table
from ..study import DesignSpec, StudyResult, StudySpec, run_study
from ..viz.lineplot import LinePlot
from .knobs import Knobs


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated knob value."""

    value: float
    safe_velocity: float
    roof_velocity: float
    knee_hz: float
    action_throughput_hz: float
    bound: BoundKind


@dataclass(frozen=True)
class SweepResult:
    """All points of one knob sweep."""

    knob: str
    base: Knobs
    points: Sequence[SweepPoint]

    def table(self) -> str:
        """Aligned text table of the sweep."""
        return format_table(
            (self.knob, "v_safe (m/s)", "roof (m/s)", "knee (Hz)", "bound"),
            [
                (
                    f"{p.value:g}",
                    f"{p.safe_velocity:.2f}",
                    f"{p.roof_velocity:.2f}",
                    f"{p.knee_hz:.1f}",
                    p.bound.value,
                )
                for p in self.points
            ],
        )

    def figure(self) -> LinePlot:
        """Safe velocity (and roof) vs the swept knob."""
        plot = LinePlot(
            title=f"Sweep: {self.knob}",
            x_label=self.knob,
            y_label="Velocity (m/s)",
        )
        xs = [p.value for p in self.points]
        plot.add_series("v_safe", xs, [p.safe_velocity for p in self.points])
        plot.add_series(
            "physics roof", xs, [p.roof_velocity for p in self.points],
            dash="6,4",
        )
        return plot

    def crossover_values(self) -> List[float]:
        """Knob values where the bound classification changes."""
        crossovers = []
        for previous, current in zip(self.points, self.points[1:]):
            if previous.bound is not current.bound:
                crossovers.append(current.value)
        return crossovers


def _sweep_points(
    batch: BatchResult, values: Sequence[float], indices: np.ndarray
) -> List[SweepPoint]:
    """Materialize one line of a batch result as sweep points."""
    return [
        SweepPoint(
            value=float(value),
            safe_velocity=float(batch.safe_velocity[i]),
            roof_velocity=float(batch.roof_velocity[i]),
            knee_hz=float(batch.knee_hz[i]),
            action_throughput_hz=float(batch.action_throughput_hz[i]),
            bound=batch.bound_at(int(i)),
        )
        for value, i in zip(values, indices)
    ]


def sweep_knob(
    base: Knobs, knob: str, values: Sequence[float]
) -> SweepResult:
    """Evaluate the F-1 model at each value of one knob.

    A thin builder over :mod:`repro.study`: equivalent to running
    ``StudySpec(design=DesignSpec.knob_axes(base, {knob: values}))``.
    """
    return _run_knob_sweep(base, knob, values)[1]


def _run_knob_sweep(
    base: Knobs, knob: str, values: Sequence[float]
) -> Tuple[StudyResult, SweepResult]:
    """One evaluation of a knob sweep, as a study and as a sweep."""
    spec = StudySpec(design=DesignSpec.knob_axes(base, {knob: values}))
    study = run_study(spec)
    points = _sweep_points(
        study.batch, values, np.arange(len(study.batch))
    )
    return study, SweepResult(knob=knob, base=base, points=points)


# ---------------------------------------------------------------------------
# Multi-knob Cartesian grids
# ---------------------------------------------------------------------------
# eq=False: the `fixed` dict is unhashable, which would break the
# frozen-dataclass-generated __hash__; identity semantics apply instead.
@dataclass(frozen=True, eq=False)
class GridCrossover:
    """One grid-cell boundary where the bound classification flips.

    ``fixed`` pins every non-crossing knob to its cell value; the flip
    happens between knob values ``at`` (classified ``from_bound``) and
    ``value`` (classified ``to_bound``).
    """

    knob: str
    fixed: Dict[str, float]
    at: float
    value: float
    from_bound: BoundKind
    to_bound: BoundKind


# eq=False: ndarray fields; identity semantics, like the batch types.
@dataclass(frozen=True, eq=False)
class GridResult:
    """A Cartesian multi-knob sweep, evaluated in one vectorized pass.

    Rows are laid out row-major over ``knobs`` (the last knob varies
    fastest), so every result column reshapes onto ``shape``.
    """

    base: Knobs
    knobs: Tuple[str, ...]
    axes: Tuple[np.ndarray, ...]
    matrix: DesignMatrix
    batch: BatchResult

    @property
    def shape(self) -> Tuple[int, ...]:
        """Points per knob axis, in ``knobs`` order."""
        return tuple(axis.size for axis in self.axes)

    def __len__(self) -> int:
        return len(self.matrix)

    def axis(self, knob: str) -> np.ndarray:
        """The swept values of one knob."""
        return self.axes[self._axis_index(knob)]

    def _axis_index(self, knob: str) -> int:
        try:
            return self.knobs.index(knob)
        except ValueError:
            swept = ", ".join(self.knobs)
            raise ConfigurationError(
                f"{knob!r} is not a grid axis; swept knobs: {swept}"
            ) from None

    # ------------------------------------------------------------------
    # Per-cell views
    # ------------------------------------------------------------------
    def values(self, column: str = "safe_velocity") -> np.ndarray:
        """One result column reshaped onto the grid."""
        if column not in SORTABLE_COLUMNS:
            known = ", ".join(SORTABLE_COLUMNS)
            raise ConfigurationError(
                f"unknown grid column {column!r}; known columns: {known}"
            )
        return getattr(self.batch, column).reshape(self.shape)

    def bound_grid(self) -> np.ndarray:
        """Per-cell bound classification codes on the grid shape.

        Decode with :data:`repro.batch.BOUND_KINDS`, or use
        :meth:`bound_at` for one cell.
        """
        return self.batch.bound_codes.reshape(self.shape)

    def bound_at(self, *indices: int) -> BoundKind:
        """The bound classification of one grid cell."""
        flat = int(np.ravel_multi_index(tuple(indices), self.shape))
        return self.batch.bound_at(flat)

    def bound_counts(self) -> Dict[BoundKind, int]:
        """How many grid cells fall under each bound."""
        return self.batch.bound_counts()

    # ------------------------------------------------------------------
    # Slicing back to 1-D sweeps
    # ------------------------------------------------------------------
    def slice(self, knob: str, **fixed: float) -> SweepResult:
        """A 1-D :class:`SweepResult` along ``knob``.

        Every other grid axis is pinned to the value given in
        ``fixed`` (which must be one of that axis' swept values) or, if
        unspecified, to its first value.  The returned sweep reuses the
        already-evaluated grid cells — no re-evaluation.
        """
        along = self._axis_index(knob)
        unknown = sorted(set(fixed) - set(self.knobs))
        if unknown:
            raise ConfigurationError(
                f"cannot fix {', '.join(map(repr, unknown))}: not grid axes"
            )
        if knob in fixed:
            raise ConfigurationError(
                f"cannot fix the sliced knob {knob!r}"
            )
        indices: List[np.ndarray] = []
        pinned: Dict[str, float] = {}
        for position, (name, axis) in enumerate(zip(self.knobs, self.axes)):
            if position == along:
                indices.append(np.arange(axis.size))
                continue
            if name in fixed:
                matches = np.flatnonzero(axis == float(fixed[name]))
                if matches.size == 0:
                    raise ConfigurationError(
                        f"{fixed[name]!r} is not on the {name} axis "
                        f"{axis.tolist()}"
                    )
                index = int(matches[0])
            else:
                index = 0
            pinned[name] = float(axis[index])
            indices.append(np.full(self.axes[along].size, index))
        flat = np.ravel_multi_index(tuple(indices), self.shape)
        points = _sweep_points(self.batch, self.axes[along], flat)
        return SweepResult(
            knob=knob,
            base=replace(self.base, **pinned),
            points=points,
        )

    # ------------------------------------------------------------------
    # Crossover surfaces
    # ------------------------------------------------------------------
    def crossovers(self, knob: Optional[str] = None) -> List[GridCrossover]:
        """Cell boundaries where the bound flips along an axis.

        With ``knob`` given, scans only that axis; otherwise scans
        every axis.  The returned records form the discrete crossover
        surfaces separating bound regions of the grid — e.g. where a
        TDP/payload trade turns a compute-bound region physics bound.
        """
        if knob is not None:
            return self._crossovers_along(self._axis_index(knob))
        found: List[GridCrossover] = []
        for position in range(len(self.knobs)):
            found.extend(self._crossovers_along(position))
        return found

    def _crossovers_along(self, along: int) -> List[GridCrossover]:
        codes = np.moveaxis(self.bound_grid(), along, -1)
        flips = np.nonzero(codes[..., 1:] != codes[..., :-1])
        axis = self.axes[along]
        others = [
            (name, self.axes[i])
            for i, name in enumerate(self.knobs)
            if i != along
        ]
        found = []
        for *cell, j in zip(*flips):
            fixed = {
                name: float(other_axis[int(c)])
                for (name, other_axis), c in zip(others, cell)
            }
            before = codes[tuple(cell) + (int(j),)]
            after = codes[tuple(cell) + (int(j) + 1,)]
            found.append(
                GridCrossover(
                    knob=self.knobs[along],
                    fixed=fixed,
                    at=float(axis[int(j)]),
                    value=float(axis[int(j) + 1]),
                    from_bound=_decode_bound(int(before)),
                    to_bound=_decode_bound(int(after)),
                )
            )
        return found

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self, limit: Optional[int] = 20) -> str:
        """An aligned text table of (up to ``limit``) grid cells."""
        return self.batch.table(limit=limit)

    def describe(self) -> str:
        """A one-paragraph summary of the grid."""
        dims = " x ".join(
            f"{name}[{axis.size}]"
            for name, axis in zip(self.knobs, self.axes)
        )
        return f"grid {dims}: {self.batch.describe()}"


def _decode_bound(code: int) -> BoundKind:
    return BOUND_KINDS[code]


def sweep_grid(
    base: Knobs, axes: Mapping[str, AxisLike]
) -> GridResult:
    """Cross several Table II knobs in one vectorized call.

    ``axes`` maps knob names to 1-D value axes (scalars allowed); the
    Cartesian product is ordered row-major (last knob fastest).  A thin
    builder over ``StudySpec(design=DesignSpec.knob_axes(base, axes))``:
    the :mod:`repro.study` planner runs
    :func:`~repro.batch.assembly.account_columns` on each block's axis
    values, never expanding the axes to rows, and the rows are
    evaluated in one batch pass.
    """
    spec = StudySpec(
        design=DesignSpec.knob_axes(
            base, {knob: np.atleast_1d(values) for knob, values in axes.items()}
        )
    )
    study = run_study(spec)
    return GridResult(
        base=base,
        knobs=tuple(axes),
        axes=tuple(np.asarray(values) for _knob, values in spec.design.axes),
        matrix=study.batch.matrix,
        batch=study.batch,
    )
