"""The uniform result every study produces.

A :class:`StudyResult` wraps the full
:class:`~repro.batch.result.BatchResult` with its spec provenance, the
logical axes the evaluated points lie on (so any result column
reshapes back onto the study's grid), the selection the spec's
``filters``/``rank`` clauses produced, and the assembly layer's
mass/TDP accounting columns.  Like the spec, it is plain data:
``to_dict``/``from_dict``/JSON round-trips are bitwise lossless, with
every per-row array carried as base64 column bytes and bound and
verdict codes carrying their stable names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..io.serialization import (
    BOUND_CODE_TO_NAME,
    FLOAT_COLUMN,
    INDEX_COLUMN,
    STATUS_CODE_TO_NAME,
    batch_result_from_dict,
    batch_result_to_dict,
    batch_results_equal,
    decode_column,
    encode_column,
    telemetry_from_dict,
)
from ..batch.result import BatchResult
from .planner import StudyAxis
from .spec import (
    EXTRA_NUMERIC_COLUMNS,
    NUMERIC_RESULT_COLUMNS,
    StudySpec,
)

#: Serialization format version stamped on every result dict.
RESULT_VERSION = 2


def _axes_from_list(entries: Any) -> Tuple[StudyAxis, ...]:
    """Study axes from the result document's ``axes`` list."""
    if not isinstance(entries, list):
        raise ConfigurationError(
            "result field 'axes': must be a list, got "
            f"{type(entries).__name__}"
        )
    axes: List[StudyAxis] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"result field 'axes[{i}]': must be a mapping, got "
                f"{type(entry).__name__}"
            )
        for key, kind in (("name", str), ("values", list)):
            if not isinstance(entry.get(key), kind):
                raise ConfigurationError(
                    f"result field 'axes[{i}].{key}': must be a "
                    f"{kind.__name__}, got {entry.get(key)!r}"
                )
        axes.append(StudyAxis(name=entry["name"], values=tuple(entry["values"])))
    return tuple(axes)


# eq=False: ndarray fields; identity semantics — use :meth:`equals`.
@dataclass(frozen=True, eq=False)
class StudyResult:
    """Everything one executed study produced.

    ``batch`` holds every evaluated point (the full grid, pre-filter);
    ``selected_indices`` are the rows the spec's ``filters`` and
    ``rank`` clauses chose, in rank order.  ``total_mass_g`` and
    ``compute_tdp_w`` align with ``batch``.
    """

    spec: StudySpec
    axes: Tuple[StudyAxis, ...]
    batch: BatchResult
    selected_indices: np.ndarray
    total_mass_g: np.ndarray
    compute_tdp_w: np.ndarray
    #: Observability payload of the run that produced this result
    #: (:meth:`repro.obs.Tracer.to_telemetry`), or ``None`` for an
    #: untraced run.  Round-trips through ``to_dict``/``from_dict`` but
    #: is deliberately ignored by :meth:`equals` — two runs of the same
    #: study are the *same result* even though their timings differ.
    telemetry: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        indices = np.asarray(self.selected_indices, dtype=np.intp)
        object.__setattr__(self, "selected_indices", indices)
        for name in ("total_mass_g", "compute_tdp_w"):
            column = np.asarray(getattr(self, name), dtype=np.float64)
            if column.shape != (len(self.batch),):
                raise ConfigurationError(
                    f"{name} has shape {column.shape}, expected "
                    f"({len(self.batch)},)"
                )
            object.__setattr__(self, name, column)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Evaluated points (the full grid, before filters)."""
        return len(self.batch)

    @cached_property
    def nbytes(self) -> int:
        """Memory pinned by the result's columns (batch, matrix,
        accounting).

        The figure the scaling docs trade off against ``chunk_rows``:
        a sharded run's *peak* is bounded by chunk size while it
        streams, but a fully merged ``StudyResult`` still pins this
        much."""
        return (
            self.batch.nbytes
            + self.selected_indices.nbytes
            + self.total_mass_g.nbytes
            + self.compute_tdp_w.nbytes
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        """Points per study axis; multiplies to ``len(self)``."""
        return tuple(axis.size for axis in self.axes)

    def axis(self, name: str) -> StudyAxis:
        """One study axis by name."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        known = ", ".join(a.name for a in self.axes)
        raise ConfigurationError(
            f"{name!r} is not a study axis; axes: {known}"
        )

    @cached_property
    def selected(self) -> BatchResult:
        """The filtered/ranked rows as their own batch result."""
        return self.batch.take(self.selected_indices)

    def column(self, name: str) -> np.ndarray:
        """One numeric column over the *full* batch."""
        if name in NUMERIC_RESULT_COLUMNS:
            return getattr(self.batch, name)
        if name in EXTRA_NUMERIC_COLUMNS:
            return getattr(self, name)
        known = ", ".join(NUMERIC_RESULT_COLUMNS + EXTRA_NUMERIC_COLUMNS)
        raise ConfigurationError(
            f"unknown study column {name!r}; known columns: {known}"
        )

    def values(self, column: str = "safe_velocity") -> np.ndarray:
        """One numeric column reshaped onto the study's axes."""
        return self.column(column).reshape(self.shape)

    def bound_grid(self) -> np.ndarray:
        """Bound classification codes on the study's axes shape."""
        return self.batch.bound_codes.reshape(self.shape)

    def metrics(self) -> Dict[str, Union[np.ndarray, List[str]]]:
        """The spec's requested metrics over the *selected* rows.

        Numeric metrics come back as arrays; ``bound``/``status`` as
        name lists.  An empty ``metrics`` clause reports every numeric
        column.
        """
        names = self.spec.metrics or (
            NUMERIC_RESULT_COLUMNS + EXTRA_NUMERIC_COLUMNS
        )
        out: Dict[str, Union[np.ndarray, List[str]]] = {}
        indices = self.selected_indices
        for name in names:
            if name == "bound":
                out[name] = [
                    BOUND_CODE_TO_NAME[int(c)]
                    for c in self.batch.bound_codes[indices]
                ]
            elif name == "status":
                out[name] = [
                    STATUS_CODE_TO_NAME[int(c)]
                    for c in self.batch.status_codes[indices]
                ]
            else:
                out[name] = self.column(name)[indices]
        return out

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self, limit: Optional[int] = 20) -> str:
        """An aligned text table of (up to ``limit``) selected rows."""
        return self.selected.table(limit=limit)

    def describe(self) -> str:
        """A one-paragraph summary: axes, selection, fleet statistics."""
        dims = " x ".join(
            f"{axis.name}[{axis.size}]" for axis in self.axes
        )
        summary = f"study {dims}: {self.batch.describe()}"
        if len(self.selected_indices) != len(self.batch):
            summary += f" | selected {len(self.selected_indices)}"
        return summary

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The version-pinned result document; every per-row array is
        an :func:`~repro.io.serialization.encode_column` object."""
        out = {
            "version": RESULT_VERSION,
            "spec": self.spec.to_dict(),
            "axes": [
                {"name": axis.name, "values": list(axis.values)}
                for axis in self.axes
            ],
            "batch": batch_result_to_dict(self.batch),
            "selected_indices": encode_column(
                self.selected_indices, INDEX_COLUMN
            ),
            "total_mass_g": encode_column(self.total_mass_g, FLOAT_COLUMN),
            "compute_tdp_w": encode_column(self.compute_tdp_w, FLOAT_COLUMN),
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "StudyResult":
        if not isinstance(data, dict):
            raise ConfigurationError(
                "result field '<root>': must be a mapping, got "
                f"{type(data).__name__}"
            )
        version = data.get("version", RESULT_VERSION)
        if version != RESULT_VERSION:
            raise ConfigurationError(
                f"result field 'version': unsupported version {version!r}; "
                f"this build reads version {RESULT_VERSION}"
            )
        for key in (
            "spec",
            "axes",
            "batch",
            "selected_indices",
            "total_mass_g",
            "compute_tdp_w",
        ):
            if key not in data:
                raise ConfigurationError(
                    f"result field {key!r}: missing"
                )
        batch = batch_result_from_dict(data["batch"])
        rows = len(batch)
        return cls(
            spec=StudySpec.from_dict(data["spec"]),
            axes=_axes_from_list(data["axes"]),
            batch=batch,
            selected_indices=decode_column(
                "selected_indices", data["selected_indices"], INDEX_COLUMN,
                stop=rows,
            ),
            total_mass_g=decode_column(
                "total_mass_g", data["total_mass_g"], FLOAT_COLUMN, rows
            ),
            compute_tdp_w=decode_column(
                "compute_tdp_w", data["compute_tdp_w"], FLOAT_COLUMN, rows
            ),
            telemetry=telemetry_from_dict(data.get("telemetry")),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StudyResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"result field '<root>': invalid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        """Write the result to ``path`` as indented JSON."""
        Path(path).write_text(self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StudyResult":
        """Read a result previously written by :meth:`save`."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"result field '<root>': not UTF-8 text: {exc}"
            ) from exc
        return cls.from_json(text)

    def equals(self, other: "StudyResult") -> bool:
        """Deep value equality (bitwise on every column).

        ``telemetry`` is excluded on purpose: span timings vary
        run-to-run, and two executions of the same study must still
        compare equal (the bitwise-identity contracts of the sharded
        paths depend on this).
        """
        return (
            isinstance(other, StudyResult)
            and self.spec == other.spec
            and self.axes == other.axes
            and batch_results_equal(self.batch, other.batch)
            and np.array_equal(
                self.selected_indices, other.selected_indices
            )
            and np.array_equal(self.total_mass_g, other.total_mass_g)
            and np.array_equal(self.compute_tdp_w, other.compute_tdp_w)
        )
