"""One-pass batch evaluation of a design matrix.

:func:`evaluate_matrix` runs every vectorized F-1 kernel over the
:attr:`~repro.batch.matrix.DesignMatrix.blocks` of a design matrix and
assembles a :class:`~repro.batch.result.BatchResult`.  A knob study's
matrix holds the factors its block compile built, so each kernel runs
at the shape its inputs broadcast to: Eq. 3's action throughput over
the stage rates' axes, the roof and the knee over range and
``a_max``, and only the safe velocity, the knee test and the
optimality verdict over every row.  Each output is written once into
its rows; an output that already has every row, as every output of a
matrix of plain 1-D columns does, is adopted without a copy.  Nothing
is memoized unless the caller passes
a content-addressed :class:`~repro.batch.cache.BatchCache` as
``cache=``: keying one hashes every matrix column, which costs about
as much as the kernels it would save.

Sharded execution lives one layer up: :mod:`repro.batch.executor`
splits a :class:`~repro.study.spec.StudySpec` into row ranges, and
each shard compiles its own rows and runs this same pass over them,
so the merged result is bitwise identical to one pass over the whole
grid.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

import numpy as np

from ..core.knee import DEFAULT_KNEE_FRACTION
from ..units import require_fraction, require_nonnegative
from . import kernels
from .cache import BatchCache, CacheStats
from .matrix import DesignMatrix, block_rows
from .result import BatchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.tracer import Tracer

#: A process-wide cache for callers that opt in with
#: ``cache=DEFAULT_CACHE``.  No evaluation path in the package passes
#: it, so by default it stays empty and its counters stay at zero.
#: Results are immutable and content-addressed, so a hit can never be
#: stale; a forked child inherits a snapshot, so a caller sharing it
#: across processes resets it with :func:`clear_default_cache`.
DEFAULT_CACHE = BatchCache(maxsize=64)


def clear_default_cache() -> None:
    """Drop every entry (and the counters) of :data:`DEFAULT_CACHE`."""
    DEFAULT_CACHE.clear()


def evaluate_matrix(
    matrix: DesignMatrix,
    knee_fraction: Optional[float] = None,
    tolerance: float = 0.05,
    cache: Optional[BatchCache] = None,
    tracer: Optional["Tracer"] = None,
) -> BatchResult:
    """Evaluate every design point of ``matrix`` in one vectorized pass.

    ``knee_fraction`` is the fraction-of-roof knee rule's ``rho`` (the
    scalar default strategy); when omitted, the fraction recorded on
    the matrix (e.g. by ``DesignMatrix.from_models``) applies, falling
    back to the calibrated default.  ``tolerance`` is the optimality
    band around the knee.  The result is numerically identical to
    building an :class:`~repro.core.model.F1Model` per row.

    ``cache`` opts into memoization: a result already in that cache is
    served from it, and a new one lands there, keyed by the matrix's
    :meth:`~repro.batch.matrix.DesignMatrix.content_hash` and the
    kernel parameters.  The default, ``None``, hashes and pins nothing.

    ``tracer`` opts into observability (see :mod:`repro.obs`): the
    evaluation records an ``engine.evaluate`` span (with a
    ``cache_hit`` attribute) plus, with a ``cache``,
    ``cache.hits``/``cache.misses`` counters attributed via
    :meth:`~repro.batch.cache.BatchCache.stats_snapshot` deltas, and a
    ``rows.evaluated`` counter.  It defaults to ``None`` —
    uninstrumented calls pay a null-check, nothing more.
    """
    if knee_fraction is None:
        knee_fraction = (
            matrix.knee_fraction
            if matrix.knee_fraction is not None
            else DEFAULT_KNEE_FRACTION
        )
    require_fraction("knee_fraction", knee_fraction)
    require_nonnegative("tolerance", tolerance)

    started = perf_counter() if tracer is not None else 0.0
    cache_before = (
        cache.stats_snapshot()
        if cache is not None and tracer is not None
        else None
    )

    if cache is not None:
        key = (matrix.content_hash(), knee_fraction, tolerance)
        cached = cache.get(key)
        if cached is not None:
            if tracer is not None:
                _record_evaluation(
                    tracer, started, cache, cache_before, matrix,
                    cache_hit=True,
                )
            return cached

    blocks = matrix.blocks
    rows = len(matrix)
    columns: Dict[str, np.ndarray] = {}
    for block in blocks:
        # Each block's outputs go into their rows before the next block
        # runs; a lone block's full-shape output is the column itself.
        outputs = _evaluate_block(block.columns, knee_fraction, tolerance)
        for name, value in outputs.items():
            if len(blocks) == 1:
                columns[name] = block_rows(blocks, (value,), rows)
                continue
            if name not in columns:
                columns[name] = np.empty(rows, dtype=np.result_type(value))
            block.rows(columns[name])[...] = value
    result = BatchResult._adopt(
        matrix=matrix,
        knee_fraction=knee_fraction,
        tolerance=tolerance,
        **columns,
    )
    if tracer is not None:
        tracer.counter("rows.evaluated").add(len(matrix))
    if cache is not None:
        cache.put(key, result)
    if tracer is not None:
        _record_evaluation(
            tracer, started, cache, cache_before, matrix, cache_hit=False
        )
    return result


def _evaluate_block(
    columns: Mapping[str, np.ndarray], knee_fraction: float, tolerance: float
) -> Dict[str, Any]:
    """Every kernel over one block's factors, each at the shape its
    inputs broadcast to.

    Eq. 3's action throughput takes the stage rates' shape, the roof
    and the knee that of range and ``a_max``; only the safe velocity,
    the knee test of the bound code and the optimality verdict take
    every cell of the block.
    """
    d = columns["sensing_range_m"]
    a = columns["a_max"]
    f_sensor = columns["f_sensor_hz"]
    f_compute = columns["f_compute_hz"]
    f_control = columns["f_control_hz"]
    f_action = kernels.action_throughput(f_sensor, f_compute, f_control)
    knee_hz = kernels.knee_throughput(d, a, knee_fraction)
    return {
        "roof_velocity": kernels.roof_velocity(d, a),
        "knee_hz": knee_hz,
        "knee_velocity": kernels.knee_velocity(d, a, knee_fraction),
        "action_throughput_hz": f_action,
        "safe_velocity": kernels.safe_velocity_at_rate(f_action, d, a),
        "bound_codes": kernels.classify_bounds(
            f_sensor, f_compute, f_control, f_action, knee_hz
        ),
        "status_codes": kernels.optimality_status(f_action, knee_hz, tolerance),
    }


def _record_evaluation(
    tracer: "Tracer",
    started: float,
    cache: Optional[BatchCache],
    cache_before: Optional["CacheStats"],
    matrix: DesignMatrix,
    cache_hit: bool,
) -> None:
    """Close out one traced evaluation: span + windowed cache counters."""
    tracer.record_clock(
        "engine.evaluate",
        started,
        perf_counter(),
        rows=len(matrix),
        cache_hit=cache_hit,
    )
    if cache is not None and cache_before is not None:
        window = cache.stats_snapshot().delta(cache_before)
        if window.hits:
            tracer.counter("cache.hits").add(window.hits)
        if window.misses:
            tracer.counter("cache.misses").add(window.misses)
