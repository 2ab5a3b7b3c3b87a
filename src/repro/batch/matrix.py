"""The structure-of-arrays design matrix feeding the batch kernels.

A :class:`DesignMatrix` holds N design points as five float64 columns —
sensing range, maximum acceleration and the three pipeline stage rates
— plus optional per-row labels: a tuple of strings, or a
:class:`LabelColumn` that derives each row's label from N design labels
and M scenario suffixes.  Columns are validated once at construction
(finite, strictly positive, equal length) so the kernels can skip
per-element checks, and are frozen read-only so a matrix can be shared
and sliced without a defensive copy (:class:`SealedColumns`).

A knob study's matrix also keeps the :class:`ColumnBlock` factors the
planner's block compile built it from: each block is a box of the
study's grid, and each column's factor holds one value per combination
of the axes that column depends on.  The seal checks the factors and
writes every 1-D column once from them, and
:func:`~repro.batch.engine.evaluate_matrix` runs each kernel at the
shape of its inputs' factors (:attr:`DesignMatrix.blocks`).
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    SupportsIndex,
    Tuple,
    Type,
    TypeVar,
    Union,
    overload,
)

import numpy as np

from ..core.model import F1Model
from ..core.throughput import DEFAULT_CONTROL_RATE_HZ
from ..errors import ConfigurationError
from ..units import require_fraction

ArrayLike = Union[float, Sequence[float], np.ndarray]

_COLUMN_NAMES = (
    "sensing_range_m",
    "a_max",
    "f_sensor_hz",
    "f_compute_hz",
    "f_control_hz",
)


def _as_column(name: str, values: ArrayLike) -> np.ndarray:
    column = np.atleast_1d(np.ascontiguousarray(values, dtype=np.float64))
    if column.ndim != 1:
        raise ConfigurationError(
            f"{name} must be a scalar or 1-D sequence, got shape "
            f"{column.shape}"
        )
    return column


def broadcast_rows(
    names: Sequence[str], values: Sequence[ArrayLike]
) -> Tuple[List[np.ndarray], int]:
    """``values`` as 1-D float64 columns, plus the rows they broadcast to.

    Scalars (and length-1 columns) broadcast against the longest
    column.  The count is read off the lengths: ``np.broadcast_shapes``
    builds a broadcast iterator of about 15 KB, which set the peak
    memory of every ``take`` of a few rows.
    """
    columns = [_as_column(name, value) for name, value in zip(names, values)]
    lengths = {len(column) for column in columns} - {1}
    if len(lengths) > 1:
        shapes = {name: column.shape for name, column in zip(names, columns)}
        raise ConfigurationError(f"column lengths are incompatible: {shapes}")
    return columns, lengths.pop() if lengths else 1


def require_column(name: str, parts: Sequence[np.ndarray]) -> None:
    """Refuse a column unless every value of its ``parts`` is finite, > 0.

    The parts are the column itself, or its :class:`ColumnBlock`
    factors, which hold every value its rows do: either way each check
    runs once, with one message, and a non-finite value anywhere is
    named before a non-positive one.
    """
    for part in parts:
        low = part.min(initial=np.inf)
        high = part.max(initial=-np.inf)
        if not (high < np.inf and low > 0.0):
            if not all(np.isfinite(each).all() for each in parts):
                raise ConfigurationError(f"{name} must be finite")
            raise ConfigurationError(f"{name} must be > 0 everywhere")


def sealed_column(
    name: str, column: np.ndarray, rows: int, copy: bool
) -> np.ndarray:
    """``column`` checked, broadcast to ``rows`` entries and made read-only.

    Every value must be finite and > 0; a scalar is checked before it
    is broadcast.  ``copy=True`` gives a full-length column a fresh
    buffer, so freezing it never freezes or aliases a caller's array;
    ``copy=False`` adopts it.
    """
    # The column, or a scalar's one value.
    require_column(name, (column[:rows],))
    if column.size != rows:
        column = np.full(rows, column[0])
    elif copy:
        column = column.copy()
    column.flags.writeable = False
    return column


# eq=False: ndarray factors; identity semantics, like the matrix.
@dataclass(frozen=True, eq=False)
class ColumnBlock:
    """Rows ``[start, stop)`` of a matrix, held as a box of its grid.

    The rows are the cells of ``shape`` in C order.  Each entry of
    ``columns`` is a factor: a column's values at the shape of the
    axes it depends on, broadcasting to ``shape``.  A block of a knob
    grid fixes the axes slower than its own at one value each, takes a
    run of its own axis's values and every value of each faster axis,
    so a factor holds one value per combination of the axes it reads
    (a_max varies with the mass knobs, never with the compute
    runtime).  :func:`~repro.batch.grid.cartesian_blocks` cuts a row
    range into blocks, and the knob planner maps their axis factors
    through the accounting chain.
    """

    start: int
    stop: int
    shape: Tuple[int, ...]
    columns: Mapping[str, Any]

    def rows(self, column: np.ndarray) -> np.ndarray:
        """This block's rows of the 1-D ``column``, viewed at ``shape``."""
        return column[self.start:self.stop].reshape(self.shape)


def block_rows(
    blocks: Sequence[ColumnBlock], parts: Sequence[Any], rows: int
) -> np.ndarray:
    """One column with an entry per row, written once from ``parts``.

    ``parts[i]`` holds block ``i``'s values, a NumPy array or scalar
    of any shape that broadcasts to its ``shape``.  A lone block's
    part that already has every row is the column (reshaped, not
    copied), so pass fresh arrays nothing else writes to.
    """
    if len(blocks) == 1 and parts[0].shape == blocks[0].shape:
        return parts[0].reshape(rows)
    column = np.empty(rows, dtype=np.result_type(*parts))
    for block, part in zip(blocks, parts):
        block.rows(column)[...] = part
    return column


@dataclass(frozen=True, eq=False)
class LabelColumn(Sequence[str]):
    """Row labels held as N design labels times M suffixes.

    Row ``r`` of the whole factorization is
    ``designs[r // M] + suffixes[r % M]``, and the column holds rows
    ``[start, stop)`` of it, so a study of N designs under M scenario
    rows keeps N + M strings instead of N·M.  To callers it is a
    read-only sequence of ``str``: indexes (negative and NumPy integers
    included), step-1 slices (still factorized), iteration and ``==``
    against tuples and lists behave as on the tuple of its rows, and
    its hash is that tuple's.
    """

    designs: Tuple[str, ...]
    suffixes: Tuple[str, ...]
    start: int
    stop: int

    def __post_init__(self) -> None:
        designs, suffixes = tuple(self.designs), tuple(self.suffixes)
        if not suffixes:
            raise ConfigurationError("a label column needs at least one suffix")
        if not 0 <= self.start <= self.stop <= len(designs) * len(suffixes):
            raise ConfigurationError(
                f"label rows [{self.start}, {self.stop}) out of range for "
                f"{len(designs)} designs x {len(suffixes)} suffixes"
            )
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "suffixes", suffixes)

    @property
    def parts(self) -> Tuple[str, ...]:
        """The N + M strings every row is made of."""
        return self.designs + self.suffixes

    def __len__(self) -> int:
        return self.stop - self.start

    def _rows(self) -> List[str]:
        """The rows, built by one comprehension over the designs they
        touch, then cut to the range."""
        if not len(self):
            return []
        per_design = len(self.suffixes)
        first = self.start // per_design
        last = (self.stop - 1) // per_design + 1
        rows = [
            design + suffix
            for design in self.designs[first:last]
            for suffix in self.suffixes
        ]
        offset = self.start - first * per_design
        del rows[offset + len(self):], rows[:offset]
        return rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows())

    @overload
    def __getitem__(self, index: SupportsIndex) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> Sequence[str]: ...

    def __getitem__(
        self, index: Union[SupportsIndex, slice]
    ) -> Union[str, Sequence[str]]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return tuple(self._rows()[index])
            return replace(
                self,
                start=self.start + start,
                stop=self.start + max(start, stop),
            )
        row = operator.index(index)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("label column index out of range")
        design, suffix = divmod(self.start + row, len(self.suffixes))
        return self.designs[design] + self.suffixes[suffix]

    def take(self, indices: np.ndarray) -> Tuple[str, ...]:
        """The rows at ``indices`` (negative ones count from the end),
        built without touching any other row."""
        rows = np.asarray(indices, dtype=np.intp)
        rows = np.where(rows < 0, rows + len(self), rows)
        if rows.size and not (0 <= rows.min() and rows.max() < len(self)):
            raise IndexError("label column index out of range")
        designs, suffixes = self.designs, self.suffixes
        design, suffix = np.divmod(rows + self.start, len(suffixes))
        return tuple(
            designs[d] + suffixes[s]
            for d, s in zip(design.tolist(), suffix.tolist())
        )

    def _factorization(self) -> Tuple[Any, ...]:
        return (self.designs, self.suffixes, self.start, self.stop)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelColumn):
            if self._factorization() == other._factorization():
                return True
            return len(self) == len(other) and self._rows() == other._rows()
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and self._rows() == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._rows()))


def _concat_labels(parts: Sequence[Sequence[str]]) -> Sequence[str]:
    """Labels of row-wise stacked parts.

    Adjacent ranges of one factorization (the shards of one study)
    stay one :class:`LabelColumn`; anything else becomes a tuple.
    """
    columns = [part for part in parts if isinstance(part, LabelColumn)]
    if len(columns) == len(parts) and all(
        part.start == previous.stop
        and part.suffixes == columns[0].suffixes
        and part.designs == columns[0].designs
        for previous, part in zip(columns, columns[1:])
    ):
        return replace(columns[0], stop=columns[-1].stop)
    return tuple(label for part in parts for label in part)


def checked_labels(
    labels: Optional[Sequence[str]], rows: int
) -> Optional[Sequence[str]]:
    """Per-row labels, one string per row (or ``None``).

    A :class:`LabelColumn` is adopted as it is once its N + M parts
    are checked to be strings; any other sequence becomes a tuple of
    ``str``.
    """
    if labels is None:
        return None
    if isinstance(labels, LabelColumn):
        if not all(isinstance(part, str) for part in labels.parts):
            raise ConfigurationError("label column parts must be strings")
        checked: Sequence[str] = labels
    else:
        checked = tuple(map(str, labels))
    if len(checked) != rows:
        raise ConfigurationError(f"{len(checked)} labels for {rows} rows")
    return checked


_Sealed = TypeVar("_Sealed", bound="SealedColumns")


class SealedColumns:
    """Construction shared by the package's frozen column containers.

    The public (dataclass) constructor copies every column before
    :meth:`_seal` checks and freezes it, so a caller's array is never
    frozen or aliased.  :meth:`_adopt` is the one internal constructor,
    for arrays the package has just allocated — planner and assembler
    columns, kernel outputs, ``take``/``concat``/merge results: the
    same checks with the same error text, minus the copy.
    """

    def _seal(self, copy: bool) -> None:
        """Check, (copy,) and freeze every field: each check, once."""
        raise NotImplementedError

    def __post_init__(self) -> None:
        self._seal(copy=True)

    @classmethod
    def _adopt(cls: Type[_Sealed], **values: Any) -> _Sealed:
        """An instance over arrays the caller hands over (no copy).

        ``values`` are the dataclass fields (omitted ones keep their
        class defaults).  The columns are frozen in place, so the
        caller must hold no other writeable reference to them.
        """
        instance = cls.__new__(cls)
        vars(instance).update(values)
        instance._seal(copy=False)
        return instance


# eq=False: dataclass-generated __eq__/__hash__ choke on ndarray fields
# (ambiguous truth value / unhashable); identity semantics apply instead.
@dataclass(frozen=True, eq=False)
class DesignMatrix(SealedColumns):
    """N design points, one NumPy column per F-1 parameter.

    Matrices compare by identity; use :meth:`content_hash` to test two
    matrices for equal content.

    Columns may be passed as scalars or 1-D sequences; scalars (and
    length-1 columns) broadcast against the longest column.  Every
    entry must be finite and strictly positive — the same contract the
    scalar :class:`~repro.core.model.F1Model` enforces per point.

    Zero-row matrices are legal: they arise naturally from empty
    :meth:`~repro.batch.result.BatchResult.where` /:meth:`take`
    selections and evaluate to empty results.  Only the named
    constructor :meth:`from_models` insists on at least one row, since
    an empty *input collection* there is almost certainly a caller
    bug.

    ``labels`` is ``None``, a tuple with one string per row, or a
    :class:`LabelColumn`, which the study planner builds for preset,
    fleet and single-axis knob rows: it holds N design labels and M
    scenario suffixes instead of N·M strings.  :meth:`take` builds only
    the rows it takes, and :meth:`concat` keeps adjacent ranges of one
    column factorized; either way the labels read as the same strings.

    A knob study's matrix is built from :class:`ColumnBlock` factors
    (see :attr:`blocks`): the seal checks the factors and writes each
    column once from them.  The columns are the same eager 1-D arrays
    either way; :meth:`take` and :meth:`concat` return plain matrices.
    """

    sensing_range_m: np.ndarray
    a_max: np.ndarray
    f_sensor_hz: np.ndarray
    f_compute_hz: np.ndarray
    f_control_hz: np.ndarray
    labels: Optional[Sequence[str]] = None
    #: Fraction-of-roof knee rule these rows were authored under, when
    #: known (e.g. :meth:`from_models`); the engine uses it unless the
    #: caller passes an explicit ``knee_fraction``.
    knee_fraction: Optional[float] = None
    #: The blocks a block compile built the rows from, each holding the
    #: five column factors; ``None`` for any other matrix.  Set only
    #: through ``_adopt(_blocks=...)``, which writes the columns.
    _blocks: ClassVar[Optional[Tuple[ColumnBlock, ...]]] = None

    def _seal(self, copy: bool) -> None:
        if self.knee_fraction is not None:
            require_fraction("knee_fraction", self.knee_fraction)
        if self._blocks is not None:
            rows = self._seal_blocks(self._blocks)
        else:
            columns, rows = broadcast_rows(
                _COLUMN_NAMES, [getattr(self, name) for name in _COLUMN_NAMES]
            )
            for name, column in zip(_COLUMN_NAMES, columns):
                column = sealed_column(name, column, rows, copy)
                object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", checked_labels(self.labels, rows))

    def _seal_blocks(self, blocks: Sequence[ColumnBlock]) -> int:
        """Check each column's factors, write the column once from them,
        and keep the five factors, frozen; returns the row count.

        A scalar factor is kept as one ``(1, …, 1)`` array per value,
        which every block shares: a kernel over it runs the same array
        loop, with the same warnings, as over the rows it stands for.
        """
        shared: Dict[Tuple[bytes, int], np.ndarray] = {}

        def factor(value: Any, ndim: int) -> np.ndarray:
            part = np.asarray(value, dtype=np.float64)
            if part.ndim == 0:
                part = shared.setdefault(
                    (part.tobytes(), ndim), part.reshape((1,) * ndim)
                )
            part.flags.writeable = False
            return part

        rows = 0
        for block in blocks:
            if block.start != rows or block.stop - block.start != int(
                np.prod(block.shape)
            ):
                raise ConfigurationError(
                    f"block [{block.start}, {block.stop}) of shape "
                    f"{block.shape} does not continue rows [0, {rows})"
                )
            rows = block.stop
        kept: List[Dict[str, np.ndarray]] = [{} for _ in blocks]
        for name in _COLUMN_NAMES:
            parts = [
                factor(block.columns[name], len(block.shape))
                for block in blocks
            ]
            require_column(name, parts)
            for part, factors in zip(parts, kept):
                factors[name] = part
            column = block_rows(blocks, parts, rows)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(
            self,
            "_blocks",
            tuple(
                replace(block, columns=factors)
                for block, factors in zip(blocks, kept)
            ),
        )
        return rows

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        sensing_range_m: ArrayLike,
        a_max: ArrayLike,
        f_sensor_hz: ArrayLike,
        f_compute_hz: ArrayLike,
        f_control_hz: ArrayLike = DEFAULT_CONTROL_RATE_HZ,
        labels: Optional[Sequence[str]] = None,
        knee_fraction: Optional[float] = None,
    ) -> "DesignMatrix":
        """Build a matrix from columns (scalars broadcast)."""
        return cls(
            sensing_range_m=sensing_range_m,  # type: ignore[arg-type]
            a_max=a_max,  # type: ignore[arg-type]
            f_sensor_hz=f_sensor_hz,  # type: ignore[arg-type]
            f_compute_hz=f_compute_hz,  # type: ignore[arg-type]
            f_control_hz=f_control_hz,  # type: ignore[arg-type]
            labels=labels,
            knee_fraction=knee_fraction,
        )

    @classmethod
    def from_models(
        cls,
        models: Iterable[F1Model],
        labels: Optional[Sequence[str]] = None,
    ) -> "DesignMatrix":
        """Columnize an iterable of scalar F-1 models.

        The batch engine only implements the closed-form
        fraction-of-roof knee rule, so models using any other
        :class:`~repro.core.knee.KneeStrategy` — or mixing different
        fractions — are rejected rather than silently re-evaluated
        under a different knee.  The models' (uniform) fraction is
        recorded on the matrix and honored by ``evaluate_matrix``.
        """
        from ..core.knee import FractionOfRoofKnee

        rows = []
        fractions = set()
        for m in models:
            if not isinstance(m.knee_strategy, FractionOfRoofKnee):
                raise ConfigurationError(
                    "the batch engine only supports FractionOfRoofKnee; "
                    f"got {type(m.knee_strategy).__name__}"
                )
            fractions.add(m.knee_strategy.fraction)
            rows.append(
                (
                    m.sensing_range_m,
                    m.a_max,
                    m.pipeline.f_sensor_hz,
                    m.pipeline.f_compute_hz,
                    m.pipeline.f_control_hz,
                )
            )
        if not rows:
            raise ConfigurationError("a design matrix needs at least one row")
        if len(fractions) > 1:
            raise ConfigurationError(
                "models mix knee fractions "
                f"{sorted(fractions)}; one matrix takes one knee rule"
            )
        columns = np.asarray(rows, dtype=np.float64).T
        return cls.from_arrays(
            *columns, labels=labels, knee_fraction=fractions.pop()
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.sensing_range_m.size)

    @property
    def blocks(self) -> Tuple[ColumnBlock, ...]:
        """The rows as :class:`ColumnBlock` factors of the five columns.

        The blocks a knob study's block compile built the matrix from,
        or, for any other matrix, one block made of its own columns.
        """
        if self._blocks is not None:
            return self._blocks
        rows = len(self)
        columns = dict(zip(_COLUMN_NAMES, self.columns()))
        return (ColumnBlock(0, rows, (rows,), columns),)

    #: CPython's per-str object overhead (ASCII), used to estimate
    #: label memory without a Python-level loop over every string.
    _STR_OVERHEAD_BYTES = 49

    @cached_property
    def nbytes(self) -> int:
        """Memory pinned by the columns and any labels (bytes).

        Label memory is an estimate (byte length plus the CPython
        object overhead) of the strings the matrix holds: one per row,
        or a :class:`LabelColumn`'s N + M parts.  Block factors count
        too, each buffer once: a lone block's full-shape factor is its
        column, and blocks share scalar and whole-axis factors.
        Computed once per (immutable) matrix.
        """
        arrays = list(self.columns())
        for block in self._blocks or ():
            arrays.extend(block.columns.values())
        buffers = {(array.ctypes.data, array.nbytes) for array in arrays}
        total = sum(nbytes for _, nbytes in buffers)
        labels = self.labels
        if isinstance(labels, LabelColumn):
            labels = labels.parts
        if labels is not None:
            total += sum(map(len, labels))
            total += len(labels) * self._STR_OVERHEAD_BYTES
        return total

    @property
    def column_names(self) -> Tuple[str, ...]:
        return _COLUMN_NAMES

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The five parameter columns in canonical order."""
        return tuple(getattr(self, name) for name in _COLUMN_NAMES)

    def label_at(self, index: int) -> str:
        """The row's label, or a positional placeholder."""
        if self.labels is not None:
            return self.labels[index]
        return f"#{index}"

    def model_at(self, index: int) -> F1Model:
        """The scalar :class:`F1Model` of one row (for cross-checks)."""
        return F1Model.from_components(
            sensing_range_m=float(self.sensing_range_m[index]),
            a_max=float(self.a_max[index]),
            f_sensor_hz=float(self.f_sensor_hz[index]),
            f_compute_hz=float(self.f_compute_hz[index]),
            f_control_hz=float(self.f_control_hz[index]),
        )

    @cached_property
    def _content_hash(self) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(len(self).to_bytes(8, "little"))
        for column in self.columns():
            digest.update(column.tobytes())
        labels: Any = self.labels
        if isinstance(labels, LabelColumn):
            labels = labels._factorization()
        if labels is not None:
            # The label component uses the C-level tuple hash: byte-wise
            # digesting 100k label strings costs ~5x a full re-evaluation,
            # defeating the cache this digest exists to serve.
            digest.update(hash(labels).to_bytes(8, "little", signed=True))
        return digest.hexdigest()

    def content_hash(self) -> str:
        """A digest of the full matrix content, keying an opt-in cache.

        Computed once per (immutable) matrix.  Stable within a process;
        for labelled matrices it is *not* stable across processes (the
        label component uses Python's seeded string hashing), which the
        in-process :class:`~repro.batch.cache.BatchCache` never needs.
        A :class:`LabelColumn` contributes its factorization (parts and
        range), never its rows, so two matrices with equal rows digest
        alike only when their labels are held the same way: a missed
        cache hit, never a wrong one.
        """
        return self._content_hash

    def take(self, indices: Union[Sequence[int], np.ndarray]) -> "DesignMatrix":
        """A new matrix holding the selected rows, in the given order."""
        index_array = np.asarray(indices, dtype=np.intp)
        labels = self.labels
        if isinstance(labels, LabelColumn):
            labels = labels.take(index_array)
        elif labels is not None:
            labels = tuple(labels[i] for i in index_array)
        return DesignMatrix._adopt(
            **{name: getattr(self, name)[index_array] for name in _COLUMN_NAMES},
            labels=labels,
            knee_fraction=self.knee_fraction,
        )

    @classmethod
    def concat(cls, matrices: Sequence["DesignMatrix"]) -> "DesignMatrix":
        """Stack matrices row-wise, in order (the shard-merge primitive).

        All parts must agree on the knee rule, and either all carry
        labels or none do — concatenating a labelled shard into an
        unlabelled matrix would silently misattribute rows.  A single
        part is returned as-is (no copy).  Labels of adjacent ranges of
        one :class:`LabelColumn` stay factorized; any other labels are
        joined into one tuple.
        """
        parts = list(matrices)
        if not parts:
            raise ConfigurationError("concat needs at least one matrix")
        if len(parts) == 1:
            return parts[0]
        fractions = {m.knee_fraction for m in parts}
        if len(fractions) > 1:
            raise ConfigurationError(
                f"matrices mix knee fractions {sorted(map(str, fractions))}; "
                "one matrix takes one knee rule"
            )
        labelled = [m.labels for m in parts if m.labels is not None]
        if labelled and len(labelled) != len(parts):
            raise ConfigurationError(
                "cannot concat labelled and unlabelled matrices"
            )
        return cls._adopt(
            **{
                name: np.concatenate([getattr(m, name) for m in parts])
                for name in _COLUMN_NAMES
            },
            labels=_concat_labels(labelled) if labelled else None,
            knee_fraction=fractions.pop(),
        )
