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

Field-level validation errors always name the offending spec field
(``study spec field 'design.axes': ...``), mirroring the
:class:`~repro.errors.ConfigurationError` style of
:func:`repro.io.serialization.configuration_from_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..batch.assembly import KNOB_COLUMNS
from ..batch.result import SORTABLE_COLUMNS
from ..errors import ConfigurationError
from ..io.serialization import configuration_from_dict, configuration_to_dict
from ..uav.configuration import UAVConfiguration
from ..units import require_fraction, require_nonnegative

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..batch.cache import BatchCache
    from ..skyline.knobs import Knobs
    from .planner import StudyPlan
    from .result import StudyResult

#: Serialization format version stamped on every spec dict.
SPEC_VERSION = 1

#: Recognized design kinds.
DESIGN_KINDS = ("knobs", "presets", "fleet")

#: Numeric result columns every study provides (per evaluated point).
NUMERIC_RESULT_COLUMNS = SORTABLE_COLUMNS

#: Numeric accounting columns the assembly layer contributes.
EXTRA_NUMERIC_COLUMNS = ("total_mass_g", "compute_tdp_w")

#: Categorical columns (filter with ``==`` / ``!=`` on the name).
CATEGORY_COLUMNS = ("bound", "status")

#: Every column a metrics / filter / rank clause may reference.
ALL_COLUMNS = (
    NUMERIC_RESULT_COLUMNS + EXTRA_NUMERIC_COLUMNS + CATEGORY_COLUMNS
)

#: Comparison operators a :class:`FilterClause` accepts.
FILTER_OPS = ("<", "<=", ">", ">=", "==", "!=")

#: Scenario axes, in their fixed expansion order (last varies fastest).
SCENARIO_AXES = ("extra_payload_g", "a_max_scale", "compute_redundancy")


def spec_error(field: str, message: str) -> ConfigurationError:
    """A validation error that names the offending spec field."""
    return ConfigurationError(f"study spec field {field!r}: {message}")


def _float_axis(field: str, values: Any) -> Tuple[float, ...]:
    """Normalize one axis of values to a tuple of finite floats."""
    try:
        axis = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise spec_error(field, f"not a sequence of numbers: {exc}") from exc
    if not axis:
        raise spec_error(field, "axis needs at least one value")
    for v in axis:
        if v != v or v in (float("inf"), float("-inf")):
            raise spec_error(field, f"values must be finite, got {v!r}")
    return axis


def _name_tuple(field: str, values: Any) -> Tuple[str, ...]:
    if values is None or isinstance(values, str):
        raise spec_error(field, "needs a sequence of names")
    names = tuple(str(v) for v in values)
    if not names:
        raise spec_error(field, "needs at least one entry")
    return names


def _knobs_to_dict(base: "Knobs") -> Dict[str, Any]:
    return {
        f.name: getattr(base, f.name) for f in dataclasses.fields(base)
    }


def _knobs_from_dict(field: str, data: Any) -> "Knobs":
    from ..skyline.knobs import Knobs

    if not isinstance(data, dict):
        raise spec_error(
            field, f"must be a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(Knobs)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise spec_error(
            field,
            f"unknown knob(s) {', '.join(map(repr, unknown))}; known: "
            f"{', '.join(sorted(known))}",
        )
    return Knobs(**data)


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

    Use the :meth:`knob_axes` / :meth:`presets` / :meth:`fleet`
    constructors rather than filling the union of fields by hand.
    """

    kind: str
    base: Optional["Knobs"] = None
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    uav_names: Tuple[str, ...] = ()
    compute_names: Tuple[str, ...] = ()
    algorithm_names: Tuple[str, ...] = ()
    uavs: Tuple[UAVConfiguration, ...] = ()
    f_compute_hz: Tuple[float, ...] = ()
    labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in DESIGN_KINDS:
            raise spec_error(
                "design.kind",
                f"unknown kind {self.kind!r}; one of "
                f"{', '.join(DESIGN_KINDS)}",
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
            normalized.append(
                (name, _float_axis(f"design.axes[{name}]", values))
            )
        object.__setattr__(self, "axes", tuple(normalized))

    def _validate_presets(self) -> None:
        for field in ("uav_names", "compute_names", "algorithm_names"):
            object.__setattr__(
                self,
                field,
                _name_tuple(f"design.{field}", getattr(self, field)),
            )

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
        for v in rates:
            if v <= 0.0:
                raise spec_error(
                    "design.f_compute_hz", f"rates must be > 0, got {v!r}"
                )
        object.__setattr__(self, "f_compute_hz", rates)
        if self.labels is not None:
            labels = tuple(str(v) for v in self.labels)
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
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "knobs":
            data["base"] = _knobs_to_dict(self.base)
            data["axes"] = {name: list(values) for name, values in self.axes}
        elif self.kind == "presets":
            data["uav_names"] = list(self.uav_names)
            data["compute_names"] = list(self.compute_names)
            data["algorithm_names"] = list(self.algorithm_names)
        else:
            data["uavs"] = [configuration_to_dict(u) for u in self.uavs]
            data["f_compute_hz"] = list(self.f_compute_hz)
            if self.labels is not None:
                data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "DesignSpec":
        if not isinstance(data, dict):
            raise spec_error(
                "design", f"must be a mapping, got {type(data).__name__}"
            )
        kind = data.get("kind")
        if kind not in DESIGN_KINDS:
            raise spec_error(
                "design.kind",
                f"unknown kind {kind!r}; one of {', '.join(DESIGN_KINDS)}",
            )
        if kind == "knobs":
            axes = data.get("axes")
            if not isinstance(axes, dict):
                raise spec_error(
                    "design.axes",
                    f"must be a mapping of knob -> values, got "
                    f"{type(axes).__name__}",
                )
            return cls(
                kind="knobs",
                base=_knobs_from_dict(
                    "design.base", data.get("base", {})
                ),
                axes=tuple(axes.items()),
            )
        if kind == "presets":
            return cls(
                kind="presets",
                uav_names=_name_tuple(
                    "design.uav_names", data.get("uav_names")
                ),
                compute_names=_name_tuple(
                    "design.compute_names", data.get("compute_names")
                ),
                algorithm_names=_name_tuple(
                    "design.algorithm_names", data.get("algorithm_names")
                ),
            )
        raw_uavs = data.get("uavs")
        if not isinstance(raw_uavs, list) or not raw_uavs:
            raise spec_error(
                "design.uavs", "needs a non-empty list of configurations"
            )
        labels = data.get("labels")
        return cls(
            kind="fleet",
            uavs=tuple(configuration_from_dict(u) for u in raw_uavs),
            f_compute_hz=tuple(data.get("f_compute_hz", ())),
            labels=tuple(labels) if labels is not None else None,
        )


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
            scales = _float_axis(
                "scenarios.a_max_scale", self.a_max_scale
            )
            for v in scales:
                if v <= 0.0:
                    raise spec_error(
                        "scenarios.a_max_scale",
                        f"scale factors must be > 0, got {v!r}",
                    )
            object.__setattr__(self, "a_max_scale", scales)
        if self.compute_redundancy is not None:
            try:
                counts = tuple(int(v) for v in self.compute_redundancy)
            except (TypeError, ValueError) as exc:
                raise spec_error(
                    "scenarios.compute_redundancy",
                    f"not a sequence of integers: {exc}",
                ) from exc
            if not counts:
                raise spec_error(
                    "scenarios.compute_redundancy",
                    "axis needs at least one value",
                )
            for v in counts:
                if v < 1:
                    raise spec_error(
                        "scenarios.compute_redundancy",
                        f"replica counts must be >= 1, got {v}",
                    )
            object.__setattr__(self, "compute_redundancy", counts)

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
        return {
            name: list(values) for name, values in self.axes().items()
        }

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise spec_error(
                "scenarios",
                f"must be a mapping, got {type(data).__name__}",
            )
        unknown = sorted(set(data) - set(SCENARIO_AXES))
        if unknown:
            raise spec_error(
                "scenarios",
                f"unknown axis(es) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(SCENARIO_AXES)}",
            )
        return cls(**data)


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
        return {"column": self.column, "op": self.op, "value": self.value}

    @classmethod
    def from_dict(cls, data: Any) -> "FilterClause":
        if not isinstance(data, dict):
            raise spec_error(
                "filters",
                f"each filter must be a mapping, got {type(data).__name__}",
            )
        unknown = sorted(set(data) - {"column", "op", "value"})
        if unknown:
            raise spec_error(
                "filters",
                f"unknown filter key(s) {', '.join(map(repr, unknown))}",
            )
        missing = sorted({"column", "op", "value"} - set(data))
        if missing:
            raise spec_error(
                "filters",
                f"missing filter key(s) {', '.join(map(repr, missing))}",
            )
        return cls(
            column=str(data["column"]),
            op=str(data["op"]),
            value=data["value"],
        )


@dataclass(frozen=True)
class RankClause:
    """Order (and optionally truncate) the selected rows."""

    by: str = "safe_velocity"
    descending: bool = True
    top_k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.top_k is not None and (
            isinstance(self.top_k, bool)
            or not isinstance(self.top_k, int)
            or self.top_k < 1
        ):
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
        data: Dict[str, Any] = {
            "by": self.by,
            "descending": self.descending,
        }
        if self.top_k is not None:
            data["top_k"] = self.top_k
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "RankClause":
        if not isinstance(data, dict):
            raise spec_error(
                "rank", f"must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"by", "descending", "top_k"})
        if unknown:
            raise spec_error(
                "rank",
                f"unknown rank key(s) {', '.join(map(repr, unknown))}",
            )
        return cls(
            by=str(data.get("by", "safe_velocity")),
            descending=data.get("descending", True),
            top_k=data.get("top_k"),
        )


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
        require_nonnegative("tolerance", self.tolerance)

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
        if clause.column in CATEGORY_COLUMNS:
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
        else:
            if isinstance(clause.value, bool) or not isinstance(
                clause.value, (int, float)
            ):
                raise spec_error(
                    f"{field}.value",
                    f"{clause.column!r} filters compare against a number, "
                    f"got {clause.value!r}",
                )

    # ------------------------------------------------------------------
    # Execution conveniences (lazy imports: planner/runner import spec)
    # ------------------------------------------------------------------
    def plan(self) -> "StudyPlan":
        """Compile this spec into a batch execution plan."""
        from .planner import compile_spec

        return compile_spec(self)

    def run(self, cache: Optional["BatchCache"] = ...) -> "StudyResult":
        """Compile and execute this spec in one call."""
        from .runner import run_study

        if cache is ...:
            return run_study(self)
        return run_study(self, cache=cache)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "version": SPEC_VERSION,
            "design": self.design.to_dict(),
        }
        if self.scenarios is not None and not self.scenarios.is_trivial:
            data["scenarios"] = self.scenarios.to_dict()
        if self.metrics:
            data["metrics"] = list(self.metrics)
        if self.filters:
            data["filters"] = [f.to_dict() for f in self.filters]
        if self.rank is not None:
            data["rank"] = self.rank.to_dict()
        if self.knee_fraction is not None:
            data["knee_fraction"] = self.knee_fraction
        data["tolerance"] = self.tolerance
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "StudySpec":
        if not isinstance(data, dict):
            raise spec_error(
                "<root>", f"must be a mapping, got {type(data).__name__}"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise spec_error(
                "version",
                f"unsupported spec version {version!r}; this build reads "
                f"version {SPEC_VERSION}",
            )
        known = {
            "version",
            "design",
            "scenarios",
            "metrics",
            "filters",
            "rank",
            "knee_fraction",
            "tolerance",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise spec_error(
                "<root>",
                f"unknown key(s) {', '.join(map(repr, unknown))}; known: "
                f"{', '.join(sorted(known))}",
            )
        if "design" not in data:
            raise spec_error("design", "missing")
        for key in ("metrics", "filters"):
            if not isinstance(data.get(key, []), list):
                raise spec_error(
                    key,
                    f"must be a list, got {type(data[key]).__name__}",
                )
        return cls(
            design=DesignSpec.from_dict(data["design"]),
            scenarios=(
                ScenarioSpec.from_dict(data["scenarios"])
                if "scenarios" in data
                else None
            ),
            metrics=tuple(data.get("metrics", ())),
            filters=tuple(
                FilterClause.from_dict(f) for f in data.get("filters", [])
            ),
            rank=(
                RankClause.from_dict(data["rank"])
                if data.get("rank") is not None
                else None
            ),
            knee_fraction=data.get("knee_fraction"),
            tolerance=data.get("tolerance", 0.05),
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
