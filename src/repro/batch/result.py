"""The columnar result of one batch evaluation.

A :class:`BatchResult` mirrors the derived quantities of the scalar
:class:`~repro.core.model.F1Model` — roof, knee, action throughput,
safe velocity, bound and verdict — as read-only NumPy columns aligned
with the input :class:`~repro.batch.matrix.DesignMatrix`, plus the
selection/sorting/rendering conveniences fleet-scale consumers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.bounds import BoundKind
from ..core.optimality import DesignStatus
from ..errors import ConfigurationError
from ..io.tables import format_table
from .kernels import BOUND_KINDS, DESIGN_STATUSES
from .matrix import DesignMatrix, SealedColumns

#: The per-row columns of a result, aligned with its matrix.
_RESULT_COLUMN_NAMES = (
    "roof_velocity",
    "knee_hz",
    "knee_velocity",
    "action_throughput_hz",
    "safe_velocity",
    "bound_codes",
    "status_codes",
)

#: Result columns that may be used as sort keys.
SORTABLE_COLUMNS = (
    "safe_velocity",
    "roof_velocity",
    "knee_hz",
    "knee_velocity",
    "action_throughput_hz",
    "provisioning_factor",
)


def require_sortable(by: str) -> None:
    """Refuse a sort key that is not one of :data:`SORTABLE_COLUMNS`."""
    if by not in SORTABLE_COLUMNS:
        known = ", ".join(SORTABLE_COLUMNS)
        raise ConfigurationError(
            f"cannot order by {by!r}; sortable columns: {known}"
        )


def stable_top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")[:k]``, in O(n + k log k).

    The one ranking primitive: study selection, ``top_k`` and shard
    merges all rank through it.  An O(n) partition finds the k-th
    smallest key; membership then resolves the way the stable full
    sort does — strictly smaller keys, then boundary ties in index
    order — and only that shortlist is sorted.  NaN keys sort last,
    as in the full sort.
    """
    if k >= keys.size:
        return np.argsort(keys, kind="stable")
    boundary = np.partition(keys, k - 1)[k - 1]
    if np.isnan(boundary):
        # Fewer than k ordered keys: all of them, then the first NaNs.
        tied = np.isnan(keys)
        before = ~tied
    else:
        before = keys < boundary
        tied = keys == boundary
    definite = np.flatnonzero(before)
    shortlist = np.concatenate(
        [definite, np.flatnonzero(tied)[: k - definite.size]]
    )
    return shortlist[np.argsort(keys[shortlist], kind="stable")]


@dataclass(frozen=True)
class BatchRow:
    """One design point materialized back into Python scalars."""

    index: int
    label: str
    sensing_range_m: float
    a_max: float
    f_sensor_hz: float
    f_compute_hz: float
    f_control_hz: float
    roof_velocity: float
    knee_hz: float
    knee_velocity: float
    action_throughput_hz: float
    safe_velocity: float
    bound: BoundKind
    status: DesignStatus

    @property
    def provisioning_factor(self) -> float:
        """``f_action / f_knee``: > 1 excess throughput, < 1 shortfall."""
        return self.action_throughput_hz / self.knee_hz


# eq=False: dataclass-generated __eq__/__hash__ choke on ndarray fields
# (ambiguous truth value / unhashable); identity semantics apply instead.
@dataclass(frozen=True, eq=False)
class BatchResult(SealedColumns):
    """All derived F-1 columns for one evaluated design matrix.

    Results compare by identity (a cache hands back the same object
    for equal inputs).
    """

    matrix: DesignMatrix
    roof_velocity: np.ndarray
    knee_hz: np.ndarray
    knee_velocity: np.ndarray
    action_throughput_hz: np.ndarray
    safe_velocity: np.ndarray
    bound_codes: np.ndarray
    status_codes: np.ndarray
    knee_fraction: float
    tolerance: float

    def _seal(self, copy: bool) -> None:
        n = len(self.matrix)
        for name in _RESULT_COLUMN_NAMES:
            column = getattr(self, name)
            column = np.array(column) if copy else np.asarray(column)
            if column.shape != (n,):
                raise ConfigurationError(
                    f"{name} has shape {column.shape}, expected ({n},)"
                )
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.matrix)

    @cached_property
    def nbytes(self) -> int:
        """Memory pinned by this result's columns (incl. its matrix)."""
        own = sum(getattr(self, name).nbytes for name in _RESULT_COLUMN_NAMES)
        return own + self.matrix.nbytes

    @property
    def provisioning_factor(self) -> np.ndarray:
        """``f_action / f_knee`` per design."""
        return self.action_throughput_hz / self.knee_hz

    def bounds(self) -> List[BoundKind]:
        """The bound classification column, decoded."""
        return [BOUND_KINDS[code] for code in self.bound_codes]

    def statuses(self) -> List[DesignStatus]:
        """The optimality verdict column, decoded."""
        return [DESIGN_STATUSES[code] for code in self.status_codes]

    def bound_at(self, index: int) -> BoundKind:
        return BOUND_KINDS[int(self.bound_codes[index])]

    def status_at(self, index: int) -> DesignStatus:
        return DESIGN_STATUSES[int(self.status_codes[index])]

    def bound_counts(self) -> Dict[BoundKind, int]:
        """How many designs fall under each bound (zero counts included)."""
        counts = np.bincount(self.bound_codes, minlength=len(BOUND_KINDS))
        return {kind: int(counts[i]) for i, kind in enumerate(BOUND_KINDS)}

    def row(self, index: int) -> BatchRow:
        """Materialize one design point as Python scalars."""
        m = self.matrix
        return BatchRow(
            index=index,
            label=m.label_at(index),
            sensing_range_m=float(m.sensing_range_m[index]),
            a_max=float(m.a_max[index]),
            f_sensor_hz=float(m.f_sensor_hz[index]),
            f_compute_hz=float(m.f_compute_hz[index]),
            f_control_hz=float(m.f_control_hz[index]),
            roof_velocity=float(self.roof_velocity[index]),
            knee_hz=float(self.knee_hz[index]),
            knee_velocity=float(self.knee_velocity[index]),
            action_throughput_hz=float(self.action_throughput_hz[index]),
            safe_velocity=float(self.safe_velocity[index]),
            bound=self.bound_at(index),
            status=self.status_at(index),
        )

    def rows(self) -> List[BatchRow]:
        """All design points, materialized (prefer columns at scale)."""
        return [self.row(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    # Selection and ordering
    # ------------------------------------------------------------------
    def _column(self, by: str) -> np.ndarray:
        require_sortable(by)
        return getattr(self, by)

    def argsort(
        self, by: str = "safe_velocity", descending: bool = True
    ) -> np.ndarray:
        """Stable row ordering by one result column.

        Stable in both directions: tied rows keep their original
        relative order, matching a Python ``sort(..., reverse=True)``.
        """
        column = self._column(by)
        keys = -column if descending else column
        return np.argsort(keys, kind="stable")

    def take(self, indices: Union[Sequence[int], np.ndarray]) -> "BatchResult":
        """A new result holding the selected rows, in the given order."""
        index_array = np.asarray(indices, dtype=np.intp)
        return BatchResult._adopt(
            matrix=self.matrix.take(index_array),
            knee_fraction=self.knee_fraction,
            tolerance=self.tolerance,
            **{
                name: getattr(self, name)[index_array]
                for name in _RESULT_COLUMN_NAMES
            },
        )

    def where(self, mask: np.ndarray) -> "BatchResult":
        """The subset of rows where ``mask`` is true."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (len(self),):
            raise ConfigurationError(
                f"mask must be a boolean array of shape ({len(self)},)"
            )
        return self.take(np.flatnonzero(mask))

    def sort_by(
        self, by: str = "safe_velocity", descending: bool = True
    ) -> "BatchResult":
        """A new result sorted by one column."""
        return self.take(self.argsort(by, descending))

    def top_k_indices(
        self, k: int, by: str = "safe_velocity", descending: bool = True
    ) -> np.ndarray:
        """Row indices of the ``k`` best rows by one column, best first.

        Exactly ``argsort(by, descending)[:k]``, through
        :func:`stable_top_k`'s O(n) partition, so taking a handful of
        winners from a million-point grid stays cheap.  The
        indices are what shard merges need: offset by a shard's global
        start row, they stay meaningful after
        :func:`merge_top_k` combines shards.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        column = self._column(by)
        return stable_top_k(-column if descending else column, k)

    def top_k(
        self, k: int, by: str = "safe_velocity", descending: bool = True
    ) -> "BatchResult":
        """The ``k`` best rows by one column, best first."""
        return self.take(self.top_k_indices(k, by, descending))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self, limit: Optional[int] = 20) -> str:
        """An aligned text table of (up to ``limit``) rows."""
        shown = len(self) if limit is None else min(limit, len(self))
        rows = []
        for i in range(shown):
            r = self.row(i)
            rows.append(
                (
                    r.label,
                    f"{r.sensing_range_m:g}",
                    f"{r.a_max:.3f}",
                    f"{r.f_compute_hz:.2f}",
                    f"{r.knee_hz:.1f}",
                    f"{r.safe_velocity:.2f}",
                    r.bound.value,
                    r.status.value,
                )
            )
        text = format_table(
            (
                "design", "d (m)", "a_max", "f_c (Hz)", "knee (Hz)",
                "v_safe (m/s)", "bound", "verdict",
            ),
            rows,
        )
        if shown < len(self):
            text += f"\n... {len(self) - shown} more rows"
        return text

    def describe(self) -> str:
        """A one-paragraph fleet summary of the evaluated matrix."""
        if len(self) == 0:
            return "0 designs"
        counts = self.bound_counts()
        by_bound = ", ".join(
            f"{kind.value}: {count}"
            for kind, count in counts.items()
            if count
        )
        return (
            f"{len(self)} designs | v_safe "
            f"[{float(self.safe_velocity.min()):.2f}, "
            f"{float(self.safe_velocity.max()):.2f}] m/s | "
            f"bounds {{{by_bound}}}"
        )


# ---------------------------------------------------------------------------
# Shard merging (the reduce side of repro.batch.executor)
# ---------------------------------------------------------------------------
def concat_results(results: Sequence[BatchResult]) -> BatchResult:
    """Stack per-shard results row-wise into one result, in order.

    Because every kernel is elementwise, concatenating the results of
    row-range shards is *bitwise* identical to evaluating the
    concatenated matrix in one pass — the property the sharded
    executor's equivalence suite pins down.  All parts must share one
    ``knee_fraction`` and ``tolerance`` (one evaluation contract per
    merged result).  A single part is returned as-is (no copy).
    """
    parts = list(results)
    if not parts:
        raise ConfigurationError("concat needs at least one result")
    if len(parts) == 1:
        return parts[0]
    contracts = {(r.knee_fraction, r.tolerance) for r in parts}
    if len(contracts) > 1:
        raise ConfigurationError(
            "results mix evaluation contracts (knee_fraction, tolerance): "
            f"{sorted(contracts)}"
        )
    knee_fraction, tolerance = contracts.pop()
    return BatchResult._adopt(
        matrix=DesignMatrix.concat([r.matrix for r in parts]),
        knee_fraction=knee_fraction,
        tolerance=tolerance,
        **{
            name: np.concatenate([getattr(r, name) for r in parts])
            for name in _RESULT_COLUMN_NAMES
        },
    )


def merge_top_k(
    candidates: Sequence[Tuple[np.ndarray, BatchResult]],
    k: int,
    by: str = "safe_velocity",
    descending: bool = True,
) -> Tuple[np.ndarray, BatchResult]:
    """Merge per-shard top-k candidate sets into the global top-k.

    ``candidates`` pairs each shard's candidate rows with their *global*
    row indices (shard-local ``top_k_indices`` plus the shard's start
    row).  Returns ``(global_indices, result)`` with at most ``k``
    rows, best first.  Provided every shard contributes its own top-k
    (any global winner is necessarily among its shard's local winners,
    since both orders tie-break on original row position), the merge is
    exactly ``full_result.top_k(k)`` with global indices attached —
    ties at the boundary resolve to the lowest global index, matching
    the stable full sort.  The merge is associative, so a streaming
    reduce may fold shards in as they complete, keeping ``O(k)`` state.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    parts = list(candidates)
    if not parts:
        raise ConfigurationError("merge needs at least one candidate set")
    indices = np.concatenate(
        [np.asarray(idx, dtype=np.intp) for idx, _ in parts]
    )
    merged = concat_results([result for _, result in parts])
    if indices.shape != (len(merged),):
        raise ConfigurationError(
            f"{indices.size} global indices for {len(merged)} candidate rows"
        )
    # Candidates in global row order, so the stable ranking breaks
    # ties exactly as the stable full-grid sort does.
    by_row = np.argsort(indices, kind="stable")
    keys = merged._column(by)[by_row]
    order = by_row[stable_top_k(-keys if descending else keys, k)]
    return indices[order], merged.take(order)
