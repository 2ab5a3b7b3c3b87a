"""The uniform result every study produces.

A :class:`StudyResult` wraps the full
:class:`~repro.batch.result.BatchResult` with its spec provenance, the
logical axes the evaluated points lie on (so any result column
reshapes back onto the study's grid), the selection the spec's
``filters``/``rank`` clauses produced, and the assembly layer's
mass/TDP accounting columns.  Like the spec, it is plain data:
``to_dict``/``from_dict``/JSON round-trips are bitwise lossless, with
every per-row array carried as base64 column bytes and bound and
verdict codes carrying their stable names.  The document's fields are
declared once, in :data:`repro.io.serialization.STUDY_RESULT_TABLE`.
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
    STATUS_CODE_TO_NAME,
    STUDY_AXIS_TABLE,
    STUDY_RESULT_TABLE,
    batch_result_to_dict,
    batch_results_equal,
    check_indices,
)
from ..batch.result import BatchResult
from .planner import StudyAxis
from .spec import (
    EXTRA_NUMERIC_COLUMNS,
    NUMERIC_RESULT_COLUMNS,
    StudySpec,
)

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
        for name in EXTRA_NUMERIC_COLUMNS:
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
        """The version-pinned result document
        (:data:`~repro.io.serialization.STUDY_RESULT_TABLE`)."""
        return STUDY_RESULT_TABLE.emit(
            self,
            spec=self.spec.to_dict(),
            axes=[
                STUDY_AXIS_TABLE.emit(axis, values=list(axis.values))
                for axis in self.axes
            ],
            batch=batch_result_to_dict(self.batch),
        )

    @classmethod
    def from_dict(cls, data: Any) -> "StudyResult":
        values = STUDY_RESULT_TABLE.read(data)
        batch = values["batch"]
        check_indices(
            STUDY_RESULT_TABLE.title, "selected_indices",
            values["selected_indices"], len(batch),
        )
        return cls(
            spec=StudySpec.from_dict(values["spec"]),
            axes=tuple(
                StudyAxis(name=axis["name"], values=tuple(axis["values"]))
                for axis in values["axes"]
            ),
            batch=batch,
            selected_indices=values["selected_indices"],
            total_mass_g=values["total_mass_g"],
            compute_tdp_w=values["compute_tdp_w"],
            telemetry=data.get("telemetry"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StudyResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise STUDY_RESULT_TABLE.error(
                "<root>", f"invalid JSON: {exc}"
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
            raise STUDY_RESULT_TABLE.error(
                "<root>", f"not UTF-8 text: {exc}"
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
