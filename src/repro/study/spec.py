"""Declarative study specifications: an analysis request as plain data.

A :class:`StudySpec` describes *everything* the repo's analysis entry
points used to take as heterogeneous Python arguments — which designs
to evaluate (:class:`DesignSpec`), which scenario variations to cross
them with (:class:`ScenarioSpec`), and how to post-process the result
(``metrics`` / ``filters`` / ``rank``) — as one frozen, comparable,
JSON-round-trippable value.  Specs are compiled by
:mod:`repro.study.planner` into a vectorized :mod:`repro.batch`
execution plan and executed by :func:`repro.study.runner.run_study`;
because a study is data rather than a call stack, it can be queued,
cached across processes, diffed and served.

The document is declared once, as the five field tables of
:mod:`repro.io.serialization` (``STUDY_SPEC_TABLE`` and the design,
scenario, filter and rank tables it embeds): ``to_dict`` emits through
them and ``from_dict`` reads through them, so a missing field, a value
outside its type or an undeclared key is refused by the one shared
reader.  The rules that relate fields — which fields a design kind
uses, registered preset names, sweepable knobs and the values each
knob accepts, column names, filter values and the scenario axes a
design kind supports — run once, when a spec object is built, on the
wire and the Python path alike, so the planner and runner do not
check them again.  Every error names the offending field
(``study spec field 'design.axes': ...``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..autonomy.workloads import ALGORITHMS
from ..batch.assembly import EXTRA_COLUMNS, KNOB_COLUMNS, NONNEGATIVE_KNOBS
from ..batch.result import SORTABLE_COLUMNS
from ..compute.platforms import PLATFORMS, get_platform
from ..errors import ConfigurationError
from ..io.serialization import (
    BOUND_NAME_TO_CODE,
    DESIGN_KINDS,
    DESIGN_SPEC_TABLE,
    FILTER_CLAUSE_TABLE,
    FILTER_OPS,
    RANK_CLAUSE_TABLE,
    SCENARIO_SPEC_TABLE,
    SPEC_VERSION,
    STATUS_NAME_TO_CODE,
    STUDY_SPEC_TABLE,
    WIRE_TYPES,
    configuration_from_dict,
    configuration_to_dict,
)
from ..uav.configuration import UAVConfiguration
from ..uav.registry import UAV_PRESETS, get_preset
from ..units import (
    require_finite_reciprocal,
    require_fraction,
    require_nonnegative,
    require_positive,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..skyline.knobs import Knobs

#: Numeric result columns every study provides (per evaluated point).
NUMERIC_RESULT_COLUMNS = SORTABLE_COLUMNS

#: Numeric accounting columns the assembly layer contributes
#: (:data:`repro.batch.assembly.EXTRA_COLUMNS`).
EXTRA_NUMERIC_COLUMNS = EXTRA_COLUMNS

#: Categorical columns (filter with ``==`` / ``!=`` on the name), and
#: the names each may hold.
CATEGORY_NAMES = {"bound": BOUND_NAME_TO_CODE, "status": STATUS_NAME_TO_CODE}
CATEGORY_COLUMNS = tuple(CATEGORY_NAMES)

#: Every column a metrics / filter / rank clause may reference.
ALL_COLUMNS = (
    NUMERIC_RESULT_COLUMNS + EXTRA_NUMERIC_COLUMNS + CATEGORY_COLUMNS
)

#: Scenario axes, in their fixed expansion order (last varies fastest).
SCENARIO_AXES = ("extra_payload_g", "a_max_scale", "compute_redundancy")

#: The design fields each kind uses, beside ``kind``.
_KIND_FIELDS = {
    "knobs": ("base", "axes"),
    "presets": ("uav_names", "compute_names", "algorithm_names"),
    "fleet": ("uavs", "f_compute_hz", "labels"),
}
_DESIGN_FIELDS = tuple(name for names in _KIND_FIELDS.values() for name in names)

#: The registry a presets design draws each of its name fields from.
_REGISTRIES = {
    "uav_names": ("UAV preset", UAV_PRESETS),
    "compute_names": ("compute platform", PLATFORMS),
    "algorithm_names": ("autonomy algorithm", ALGORITHMS),
}


def spec_error(field: str, message: str) -> ConfigurationError:
    """A validation error that names the offending spec field."""
    return ConfigurationError(f"study spec field {field!r}: {message}")


def _is_real(value: Any) -> bool:
    # Builtin numbers first: the ABC check is slow enough to dominate
    # reading a long axis.
    return not isinstance(value, bool) and (
        isinstance(value, (int, float)) or isinstance(value, numbers.Real)
    )


def _is_count(value: Any) -> bool:
    return _is_real(value) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    )


def _axis(
    field: str, values: Any, what: str, accepts: Callable[[Any], bool]
) -> Tuple[Any, ...]:
    """One non-empty axis of values that ``accepts`` takes."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(
        values, Iterable
    ):
        raise spec_error(
            field, f"needs a sequence of {what}, got {type(values).__name__}"
        )
    axis = tuple(values)
    for v in axis:
        if not accepts(v):
            raise spec_error(field, f"needs a sequence of {what}, got {v!r}")
    if not axis:
        raise spec_error(field, "axis needs at least one value")
    return axis


def _float_axis(field: str, values: Any) -> Tuple[float, ...]:
    """Normalize one axis of values to a tuple of finite floats."""
    axis = tuple(float(v) for v in _axis(field, values, "numbers", _is_real))
    for v in axis:
        if not math.isfinite(v):
            raise spec_error(field, f"values must be finite, got {v!r}")
    return axis


def _listed(values: Optional[Sequence[Any]]) -> Optional[List[Any]]:
    return None if values is None else list(values)


def _knobs_from_dict(data: Dict[str, Any]) -> "Knobs":
    from ..skyline.knobs import Knobs

    known = [f.name for f in dataclasses.fields(Knobs)]
    unknown = sorted(map(repr, set(data) - set(known)))
    if unknown:
        raise spec_error(
            "design.base",
            f"unknown knob(s) {', '.join(unknown)}; known: "
            f"{', '.join(sorted(known))}",
        )
    for name, value in data.items():
        tag = "int" if name == "rotor_count" else "float"
        if not WIRE_TYPES[tag](value):
            raise spec_error(
                f"design.base.{name}", f"expected {tag}, got {value!r}"
            )
    try:
        return Knobs(**data)
    except ConfigurationError as exc:
        raise spec_error("design.base", str(exc)) from exc


# ---------------------------------------------------------------------------
# DesignSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DesignSpec:
    """Which design points a study evaluates.

    Three kinds cover every legacy entry point:

    * ``"knobs"`` — a base Table II :class:`~repro.skyline.knobs.Knobs`
      set crossed with knob value ``axes`` (one axis = a sweep, several
      = a Cartesian grid); the shape behind ``sweep_knob``/``sweep_grid``.
    * ``"presets"`` — the registry cross product (UAV presets x compute
      platforms x algorithms); the shape behind ``dse.explore``.
    * ``"fleet"`` — explicit :class:`UAVConfiguration` objects with
      per-vehicle compute throughputs; arbitrary heterogeneous fleets.

    A kind uses only its own fields; the others stay ``None``.  Use the
    :meth:`knob_axes` / :meth:`presets` / :meth:`fleet` constructors
    rather than filling fields by hand.
    """

    kind: str
    base: Optional["Knobs"] = None
    axes: Optional[Tuple[Tuple[str, Tuple[float, ...]], ...]] = None
    uav_names: Optional[Tuple[str, ...]] = None
    compute_names: Optional[Tuple[str, ...]] = None
    algorithm_names: Optional[Tuple[str, ...]] = None
    uavs: Optional[Tuple[UAVConfiguration, ...]] = None
    f_compute_hz: Optional[Tuple[float, ...]] = None
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in DESIGN_KINDS:
            raise spec_error(
                "design.kind",
                f"unknown kind {self.kind!r}; one of "
                f"{', '.join(DESIGN_KINDS)}",
            )
        own = _KIND_FIELDS[self.kind]
        for name in _DESIGN_FIELDS:
            if name not in own and getattr(self, name) is not None:
                raise spec_error(
                    f"design.{name}",
                    f"not a field of a {self.kind} design; its fields: "
                    f"{', '.join(own)}",
                )
        getattr(self, f"_validate_{self.kind}")()

    def _validate_knobs(self) -> None:
        from ..skyline.knobs import Knobs

        if not isinstance(self.base, Knobs):
            raise spec_error(
                "design.base",
                "a knobs design needs a Knobs base, got "
                f"{type(self.base).__name__}",
            )
        axes = self.axes
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        if not axes:
            raise spec_error(
                "design.axes", "needs at least one knob axis"
            )
        normalized = []
        seen = set()
        for name, values in axes:
            if name not in KNOB_COLUMNS:
                known = ", ".join(KNOB_COLUMNS)
                raise spec_error(
                    "design.axes",
                    f"cannot sweep {name!r}; sweepable knobs: {known}",
                )
            if name in seen:
                raise spec_error(
                    "design.axes", f"duplicate knob axis {name!r}"
                )
            seen.add(name)
            field = f"design.axes[{name}]"
            axis = _float_axis(field, values)
            # The scalar Knobs rule, so every grid row is a valid knob set.
            if name in NONNEGATIVE_KNOBS:
                check = require_nonnegative
            elif name == "compute_runtime_s":  # its rate is 1 / value
                check = require_finite_reciprocal
            else:
                check = require_positive
            try:
                for v in axis:
                    check(name, v)
            except ConfigurationError as exc:
                raise spec_error(field, str(exc)) from exc
            normalized.append((name, axis))
        object.__setattr__(self, "axes", tuple(normalized))

    def _validate_presets(self) -> None:
        for field, (what, registry) in _REGISTRIES.items():
            names = _axis(
                f"design.{field}", getattr(self, field), "names", WIRE_TYPES["str"]
            )
            for name in names:
                if name not in registry:
                    raise spec_error(
                        f"design.{field}",
                        f"unknown {what} {name!r}; known: "
                        f"{', '.join(sorted(registry))}",
                    )
            object.__setattr__(self, field, names)

    def _validate_fleet(self) -> None:
        if not self.uavs:
            raise spec_error(
                "design.uavs", "needs at least one configuration"
            )
        for i, uav in enumerate(self.uavs):
            if not isinstance(uav, UAVConfiguration):
                raise spec_error(
                    f"design.uavs[{i}]",
                    f"not a UAVConfiguration: {type(uav).__name__}",
                )
        object.__setattr__(self, "uavs", tuple(self.uavs))
        rates = _float_axis("design.f_compute_hz", self.f_compute_hz)
        if len(rates) == 1 and len(self.uavs) > 1:
            rates = rates * len(self.uavs)
        if len(rates) != len(self.uavs):
            raise spec_error(
                "design.f_compute_hz",
                f"{len(rates)} rates for {len(self.uavs)} configurations",
            )
        if min(rates) <= 0.0:
            raise spec_error(
                "design.f_compute_hz", f"rates must be > 0, got {min(rates)!r}"
            )
        object.__setattr__(self, "f_compute_hz", rates)
        if self.labels is not None:
            labels = _axis("design.labels", self.labels, "names", WIRE_TYPES["str"])
            if len(labels) != len(self.uavs):
                raise spec_error(
                    "design.labels",
                    f"{len(labels)} labels for {len(self.uavs)} "
                    "configurations",
                )
            object.__setattr__(self, "labels", labels)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def knob_axes(
        cls,
        base: Optional["Knobs"] = None,
        axes: Optional[Mapping[str, Sequence[float]]] = None,
        **axis_kwargs: Sequence[float],
    ) -> "DesignSpec":
        """A knob study: a base knob set crossed with value axes."""
        from ..skyline.knobs import Knobs

        merged: Dict[str, Sequence[float]] = dict(axes or {})
        merged.update(axis_kwargs)
        return cls(
            kind="knobs",
            base=base if base is not None else Knobs(),
            axes=tuple(merged.items()),
        )

    @classmethod
    def presets(
        cls,
        uav_names: Sequence[str],
        compute_names: Sequence[str],
        algorithm_names: Sequence[str],
    ) -> "DesignSpec":
        """A registry cross-product study (the DSE shape)."""
        return cls(
            kind="presets",
            uav_names=tuple(uav_names),
            compute_names=tuple(compute_names),
            algorithm_names=tuple(algorithm_names),
        )

    @classmethod
    def fleet(
        cls,
        uavs: Sequence[UAVConfiguration],
        f_compute_hz: Union[float, Sequence[float]],
        labels: Optional[Sequence[str]] = None,
    ) -> "DesignSpec":
        """An explicit heterogeneous fleet study."""
        if isinstance(f_compute_hz, (int, float)):
            f_compute_hz = (float(f_compute_hz),)
        return cls(
            kind="fleet",
            uavs=tuple(uavs),
            f_compute_hz=tuple(f_compute_hz),
            labels=tuple(labels) if labels is not None else None,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return DESIGN_SPEC_TABLE.emit(
            self,
            base=None if self.base is None else {
                f.name: getattr(self.base, f.name)
                for f in dataclasses.fields(self.base)
            },
            axes=None if self.axes is None else {
                name: list(values) for name, values in self.axes
            },
            uav_names=_listed(self.uav_names),
            compute_names=_listed(self.compute_names),
            algorithm_names=_listed(self.algorithm_names),
            uavs=None if self.uavs is None else [
                configuration_to_dict(uav) for uav in self.uavs
            ],
            f_compute_hz=_listed(self.f_compute_hz),
            labels=_listed(self.labels),
        )

    @classmethod
    def from_dict(cls, data: Any) -> "DesignSpec":
        return cls._from_values(DESIGN_SPEC_TABLE.read(data))

    @classmethod
    def _from_values(cls, values: Dict[str, Any]) -> "DesignSpec":
        """A design from the field values its table read."""
        if values["kind"] == "knobs":
            values["base"] = _knobs_from_dict(values.get("base", {}))
            if "axes" in values:
                values["axes"] = tuple(values["axes"].items())
        elif values["kind"] == "fleet" and "uavs" in values:
            uavs = []
            for i, doc in enumerate(values["uavs"]):
                try:
                    uavs.append(configuration_from_dict(doc))
                except ConfigurationError as exc:
                    raise spec_error(f"design.uavs[{i}]", str(exc)) from exc
            values["uavs"] = tuple(uavs)
        return cls(**values)


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """Operating-condition variations crossed against every design.

    Each provided axis multiplies the study: N designs x M scenarios
    evaluate N*M points, scenario varying fastest.

    * ``extra_payload_g`` — payload deltas (mission equipment added or
      shed); folds into the mass/thrust accounting before assembly.
    * ``a_max_scale`` — acceleration derating factors (e.g. headwind or
      density-altitude margins shrinking the usable thrust margin);
      applied to the assembled ``a_max`` column.
    * ``compute_redundancy`` — onboard-computer replica counts
      (Sec. VI-C modular redundancy); fleet/preset designs only.
    """

    extra_payload_g: Optional[Tuple[float, ...]] = None
    a_max_scale: Optional[Tuple[float, ...]] = None
    compute_redundancy: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.extra_payload_g is not None:
            object.__setattr__(
                self,
                "extra_payload_g",
                _float_axis(
                    "scenarios.extra_payload_g", self.extra_payload_g
                ),
            )
        if self.a_max_scale is not None:
            scales = _float_axis("scenarios.a_max_scale", self.a_max_scale)
            if min(scales) <= 0.0:
                raise spec_error(
                    "scenarios.a_max_scale",
                    f"scale factors must be > 0, got {min(scales)!r}",
                )
            object.__setattr__(self, "a_max_scale", scales)
        if self.compute_redundancy is not None:
            field = "scenarios.compute_redundancy"
            counts = _axis(field, self.compute_redundancy, "integers", _is_count)
            if min(counts) < 1:
                raise spec_error(
                    field, f"replica counts must be >= 1, got {min(counts)}"
                )
            object.__setattr__(
                self, "compute_redundancy", tuple(int(v) for v in counts)
            )

    def axes(self) -> Dict[str, Tuple[float, ...]]:
        """The provided axes, in :data:`SCENARIO_AXES` order."""
        return {
            name: getattr(self, name)
            for name in SCENARIO_AXES
            if getattr(self, name) is not None
        }

    @property
    def is_trivial(self) -> bool:
        """True when no axis is provided (no expansion at all)."""
        return not self.axes()

    def to_dict(self) -> Dict[str, Any]:
        return SCENARIO_SPEC_TABLE.emit(
            self,
            **{name: list(values) for name, values in self.axes().items()},
        )

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        return cls(**SCENARIO_SPEC_TABLE.read(data))


# ---------------------------------------------------------------------------
# Post-processing clauses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FilterClause:
    """Keep only rows where ``column <op> value`` holds."""

    column: str
    op: str
    value: Union[float, str]

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise spec_error(
                "filters.op",
                f"unknown operator {self.op!r}; one of "
                f"{', '.join(FILTER_OPS)}",
            )

    def to_dict(self) -> Dict[str, Any]:
        return FILTER_CLAUSE_TABLE.emit(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FilterClause":
        return cls(**FILTER_CLAUSE_TABLE.read(data))


@dataclass(frozen=True)
class RankClause:
    """Order (and optionally truncate) the selected rows."""

    by: str = "safe_velocity"
    descending: bool = True
    top_k: Optional[int] = None

    def __post_init__(self) -> None:
        if not WIRE_TYPES["int >= 1 | null"](self.top_k):
            raise spec_error(
                "rank.top_k",
                f"must be null or an integer >= 1, got {self.top_k!r}",
            )
        if not isinstance(self.descending, bool):
            raise spec_error(
                "rank.descending",
                f"must be true or false, got {self.descending!r}",
            )

    def to_dict(self) -> Dict[str, Any]:
        return RANK_CLAUSE_TABLE.emit(self)

    @classmethod
    def from_dict(cls, data: Any) -> "RankClause":
        return cls(**RANK_CLAUSE_TABLE.read(data))


# ---------------------------------------------------------------------------
# StudySpec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StudySpec:
    """One complete, serializable analysis request.

    ``metrics`` names the result columns a consumer wants reported
    (empty = every numeric column available); ``filters`` and ``rank``
    select and order rows *after* the full evaluation, so the complete
    batch stays available for reshaping and caching.
    """

    design: DesignSpec
    scenarios: Optional[ScenarioSpec] = None
    metrics: Tuple[str, ...] = ()
    filters: Tuple[FilterClause, ...] = ()
    rank: Optional[RankClause] = None
    knee_fraction: Optional[float] = None
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if not isinstance(self.design, DesignSpec):
            raise spec_error(
                "design",
                f"must be a DesignSpec, got {type(self.design).__name__}",
            )
        if self.scenarios is not None and not isinstance(
            self.scenarios, ScenarioSpec
        ):
            raise spec_error(
                "scenarios",
                "must be a ScenarioSpec, got "
                f"{type(self.scenarios).__name__}",
            )
        if self.scenarios is not None and self.scenarios.is_trivial:
            # Normalize: a no-axes ScenarioSpec means "no scenarios",
            # keeping spec -> JSON -> spec equality exact (to_dict
            # omits trivial scenarios).
            object.__setattr__(self, "scenarios", None)
        if (
            self.design.kind == "knobs"
            and self.scenarios is not None
            and self.scenarios.compute_redundancy is not None
        ):
            raise spec_error(
                "scenarios.compute_redundancy",
                "not applicable to a knobs design (knob-built UAVs fly one "
                "compute module); use a presets or fleet design",
            )
        self._validate_payload()
        metrics = tuple(str(m) for m in self.metrics)
        for name in metrics:
            if name not in ALL_COLUMNS:
                raise spec_error(
                    "metrics",
                    f"unknown column {name!r}; known columns: "
                    f"{', '.join(ALL_COLUMNS)}",
                )
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "filters", tuple(self.filters))
        for i, clause in enumerate(self.filters):
            self._validate_filter(i, clause)
        if self.rank is not None:
            numeric = NUMERIC_RESULT_COLUMNS + EXTRA_NUMERIC_COLUMNS
            if self.rank.by not in numeric:
                raise spec_error(
                    "rank.by",
                    f"unknown column {self.rank.by!r}; rankable columns: "
                    f"{', '.join(numeric)}",
                )
        if self.knee_fraction is not None:
            require_fraction("knee_fraction", self.knee_fraction)
        if isinstance(self.tolerance, bool):
            raise spec_error(
                "tolerance", f"must be a number, got {self.tolerance!r}"
            )
        require_nonnegative("tolerance", self.tolerance)

    def _validate_payload(self) -> None:
        """Refuse payload deltas that take a row's payload below zero or
        past the float range.

        Every design's payload (a knob grid's ``payload_weight_g``
        values, a configuration's ``extra_payload_g``) meets every
        delta, and a float sum is monotone in each term, so the
        smallest and the largest sums decide in O(N + M) whether any
        row goes wrong.  Only then is the offending row looked for, in
        row-major order: the first design that goes wrong, then its
        first delta.  A knob grid's overflow names the largest pair.
        """
        deltas = None if self.scenarios is None else self.scenarios.extra_payload_g
        if deltas is None:
            return
        design = self.design
        base = design.base
        if base is not None:
            carried = dict(design.axes or ()).get(
                "payload_weight_g", (base.payload_weight_g,)
            )
        elif design.uav_names is not None:
            carried = tuple(
                get_preset(name).extra_payload_g for name in design.uav_names
            )
        else:
            carried = tuple(uav.extra_payload_g for uav in design.uavs or ())

        def fits(payload: float) -> bool:
            return payload >= 0.0 and math.isfinite(payload)

        lightest, heaviest = min(deltas), max(deltas)
        if fits(min(carried) + lightest) and fits(max(carried) + heaviest):
            return
        field = "scenarios.extra_payload_g"
        if base is not None and not math.isfinite(max(carried) + heaviest):
            raise spec_error(
                field,
                f"payload overflows at payload_weight_g={max(carried):g}, "
                f"extra_payload_g={heaviest:g}; a row's payload must be "
                "finite",
            )
        i, payload = next(
            (i, payload) for i, payload in enumerate(carried)
            if not (fits(payload + lightest) and fits(payload + heaviest))
        )
        delta = next(d for d in deltas if not fits(payload + d))
        total = payload + delta
        if base is not None:
            raise spec_error(
                field,
                f"payload goes negative at payload_weight_g={payload:g}, "
                f"extra_payload_g={delta:g} ({total:g} g); deltas cannot "
                "shed more than the payload knob carries",
            )
        if design.uav_names is not None:
            # The UAV's first design in row order flies the first platform.
            name = get_preset(design.uav_names[i]).with_compute(
                get_platform((design.compute_names or ())[0])
            ).name
        else:
            name = (design.uavs or ())[i].name
        what = "goes negative" if total < 0.0 else "overflows"
        raise spec_error(
            field, f"payload {what} on configuration {name!r} ({total:g} g)"
        )

    @staticmethod
    def _validate_filter(index: int, clause: FilterClause) -> None:
        field = f"filters[{index}]"
        if not isinstance(clause, FilterClause):
            raise spec_error(
                field,
                f"must be a FilterClause, got {type(clause).__name__}",
            )
        if clause.column not in ALL_COLUMNS:
            raise spec_error(
                f"{field}.column",
                f"unknown column {clause.column!r}; filterable columns: "
                f"{', '.join(ALL_COLUMNS)}",
            )
        if clause.column in CATEGORY_NAMES:
            if clause.op not in ("==", "!="):
                raise spec_error(
                    f"{field}.op",
                    f"{clause.column!r} only supports == and !=, "
                    f"got {clause.op!r}",
                )
            if not isinstance(clause.value, str):
                raise spec_error(
                    f"{field}.value",
                    f"{clause.column!r} filters compare against a name, "
                    f"got {type(clause.value).__name__}",
                )
            names = CATEGORY_NAMES[clause.column]
            if clause.value not in names:
                raise spec_error(
                    f"{field}.value",
                    f"unknown {clause.column} name {clause.value!r}; "
                    f"known: {', '.join(sorted(names))}",
                )
        elif not WIRE_TYPES["float"](clause.value):
            raise spec_error(
                f"{field}.value",
                f"{clause.column!r} filters compare against a number, "
                f"got {clause.value!r}",
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return STUDY_SPEC_TABLE.emit(
            self,
            design=self.design.to_dict(),
            scenarios=None if self.scenarios is None else self.scenarios.to_dict(),
            metrics=list(self.metrics) or None,
            filters=[clause.to_dict() for clause in self.filters] or None,
            rank=None if self.rank is None else self.rank.to_dict(),
        )

    @classmethod
    def from_dict(cls, data: Any) -> "StudySpec":
        if isinstance(data, dict) and "version" not in data:
            data = {"version": SPEC_VERSION, **data}  # read as version 1
        values = STUDY_SPEC_TABLE.read(data)
        scenarios, rank = values.get("scenarios"), values.get("rank")
        return cls(
            design=DesignSpec._from_values(values["design"]),
            scenarios=None if scenarios is None else ScenarioSpec(**scenarios),
            metrics=tuple(values.get("metrics", ())),
            filters=tuple(
                FilterClause(**clause) for clause in values.get("filters", ())
            ),
            rank=None if rank is None else RankClause(**rank),
            knee_fraction=values.get("knee_fraction"),
            tolerance=values.get("tolerance", 0.05),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """The one canonical serialization of this spec's identity.

        Key-sorted, separator-normalized JSON: equal specs produce
        equal strings across processes and interpreter restarts.  This
        is *the* definition of spec identity for everything
        content-addressed — checkpoint-manifest digests, per-process
        plan memos — so it must only ever change together with a
        manifest version bump.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_digest(self) -> str:
        """A compact blake2b digest of :meth:`canonical_json`."""
        import hashlib

        return hashlib.blake2b(
            self.canonical_json().encode("utf-8"), digest_size=16
        ).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise spec_error("<root>", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec to ``path`` as indented JSON."""
        Path(path).write_text(self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StudySpec":
        """Read a spec previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())
