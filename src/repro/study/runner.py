"""Execute compiled study plans through the shared batch engine.

:func:`run_study` is the single execution path every analysis surface
now funnels through: it evaluates the plan's design matrix with
:func:`~repro.batch.engine.evaluate_matrix` (memoized only in a
:class:`~repro.batch.cache.BatchCache` the caller passes), applies the
spec's ``filters`` and ``rank`` clauses — ranking through the O(n)
:func:`~repro.batch.result.stable_top_k` — and wraps everything in a
serializable :class:`~repro.study.result.StudyResult`.

Passing ``executor=`` / ``chunk_rows=`` / ``checkpoint=`` runs the
study's spec through the sharded layer instead
(:mod:`repro.batch.executor`): the grid is evaluated in row-range
chunks — serially, across threads, or across worker processes that
rebuild only their own rows — and merged back into a result that is
bitwise identical to the single-pass path.  With ``checkpoint`` set,
every completed shard persists as one JSONL record, and a re-run (or
``resume=True``, the CLI's ``--resume``) picks up from the completed
shards instead of starting over.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

import numpy as np

from ..batch.cache import BatchCache
from ..batch.engine import evaluate_matrix
from ..batch.result import BatchResult, stable_top_k
from ..io.serialization import BOUND_NAME_TO_CODE, STATUS_NAME_TO_CODE
from ..obs.tracer import maybe_span
from .planner import StudyPlan, compile_spec, study_axes
from .result import StudyResult
from .spec import (
    EXTRA_NUMERIC_COLUMNS,
    FilterClause,
    NUMERIC_RESULT_COLUMNS,
    StudySpec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..batch.executor import ParallelExecutor
    from ..obs.progress import ProgressCallback
    from ..obs.tracer import Tracer

_OPS: Dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _numeric_column(
    extras: Dict[str, np.ndarray], batch: BatchResult, name: str
) -> np.ndarray:
    if name in NUMERIC_RESULT_COLUMNS:
        return getattr(batch, name)
    assert name in EXTRA_NUMERIC_COLUMNS  # spec validation guarantees
    return extras[name]


def _filter_mask(
    extras: Dict[str, np.ndarray],
    batch: BatchResult,
    clause: FilterClause,
) -> np.ndarray:
    op = _OPS[clause.op]
    # Spec validation guarantees category values are known names.
    if clause.column == "bound":
        return op(batch.bound_codes, BOUND_NAME_TO_CODE[clause.value])
    if clause.column == "status":
        return op(batch.status_codes, STATUS_NAME_TO_CODE[clause.value])
    return op(
        _numeric_column(extras, batch, clause.column), float(clause.value)
    )


def _select(
    spec: StudySpec,
    batch: BatchResult,
    extras: Dict[str, np.ndarray],
) -> np.ndarray:
    """Apply the spec's filters and rank; indices in final order."""
    mask = np.ones(len(batch), dtype=bool)
    for clause in spec.filters:
        mask &= _filter_mask(extras, batch, clause)
    indices = np.flatnonzero(mask)
    if spec.rank is not None:
        keys = _numeric_column(extras, batch, spec.rank.by)[indices]
        if spec.rank.descending:
            keys = -keys
        # Stable, like BatchResult.argsort: tied rows keep their
        # original (enumeration) order in both directions.
        top_k = len(indices) if spec.rank.top_k is None else spec.rank.top_k
        indices = indices[stable_top_k(keys, top_k)]
    return indices


def run_study(
    study: Union[StudySpec, StudyPlan],
    cache: Optional[BatchCache] = None,
    executor: Optional["ParallelExecutor"] = None,
    chunk_rows: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    tracer: Optional["Tracer"] = None,
    progress: Optional["ProgressCallback"] = None,
) -> StudyResult:
    """Compile (if needed) and execute a study.

    ``cache`` opts into result memoization exactly as in
    :func:`~repro.batch.engine.evaluate_matrix`; by default nothing is
    hashed or pinned, because recompiling and re-evaluating a study
    costs less than hashing its matrix.  A sharded run never touches
    a cache: its full matrix never exists in this process, and pinning
    the merged result would undo the memory bound that chunked
    streaming is for.

    ``executor`` / ``chunk_rows`` opt into sharded execution (see the
    module docstring) of the spec, which for a :class:`StudyPlan` is
    ``plan.spec``: the shards compile their own rows, bitwise equal to
    the plan's.  ``checkpoint`` names a directory that receives
    one JSONL record per completed shard, and ``resume=True``
    additionally *requires* that directory to hold a matching run's
    manifest (the ``--resume`` contract: resuming a checkpoint that
    does not exist is an error, not a silent fresh start).

    ``tracer`` opts into observability (:mod:`repro.obs`): the run
    records ``study.compile`` / ``shard.evaluate`` / ``study.merge`` /
    ``study.select`` phase spans (plus engine- and executor-level
    detail), and the finished result carries the whole payload in
    :attr:`StudyResult.telemetry`.  ``progress`` fires once per
    completed shard on the sharded paths.  Both default to ``None``
    and cost only a null-check when unset.
    """

    sharded = (
        executor is not None or chunk_rows is not None
        or checkpoint is not None or resume
    )
    if sharded:
        # Each shard compiles its own rows: the full grid is never
        # built here, so there is nothing to compile or cache up front.
        from ..batch.executor import _run_sharded

        spec = study.spec if isinstance(study, StudyPlan) else study
        batch, extras, _ = _run_sharded(
            spec,
            executor=executor,
            chunk_rows=chunk_rows,
            checkpoint_dir=checkpoint,
            resume=resume,
            tracer=tracer,
            progress=progress,
        )
        axes = study_axes(spec)
    else:
        if isinstance(study, StudyPlan):
            plan = study
        else:
            with maybe_span(tracer, "study.compile") as span:
                plan = compile_spec(study)
                span.set(rows=len(plan.matrix))
        spec = plan.spec
        batch = evaluate_matrix(
            plan.matrix,
            knee_fraction=spec.knee_fraction,
            tolerance=spec.tolerance,
            cache=cache,
            tracer=tracer,
        )
        extras = {name: getattr(plan, name) for name in EXTRA_NUMERIC_COLUMNS}
        axes = plan.axes
    with maybe_span(tracer, "study.select", rows=len(batch)) as span:
        selected = _select(spec, batch, extras)
        span.set(selected=len(selected))
    return StudyResult(
        spec=spec,
        axes=axes,
        batch=batch,
        selected_indices=selected,
        telemetry=tracer.to_telemetry() if tracer is not None else None,
        **extras,
    )
