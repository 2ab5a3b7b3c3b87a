"""repro.batch — vectorized fleet-scale F-1 evaluation.

Every consumer of the F-1 model used to walk design points one
:class:`~repro.core.model.F1Model` at a time; this subsystem evaluates
them by the column instead.  A :class:`DesignMatrix` holds the physics
and pipeline parameters of N design points as structure-of-arrays NumPy
columns, :func:`evaluate_matrix` runs the closed-form F-1 kernels over
all of them at once (numerically identical to the scalar path), and the
resulting :class:`BatchResult` supports selection, sorting, top-k and
table rendering.  Each column is validated once, when the package
allocates it, and never copied again; a content-hash
:class:`BatchCache` memoizes results only for callers that pass one.
:func:`scenario_grid` expands Cartesian parameter axes (wind-derated
accelerations, payloads, sensing ranges, DVFS points) into one
matrix.

The assembly layer (:mod:`repro.batch.assembly`) columnizes the
Table II accounting chain itself — payload mass, TDP-derived
heatsinks, thrust budgets and accelerations — once for every design
kind: a knob study's blocks and whole UAV configurations
(:func:`assemble_configurations`, preset and fleet studies) run
through the same vectorized chain, so neither sweeps nor fleets touch
per-point Python.

Quickstart::

    import numpy as np
    from repro.batch import evaluate_matrix, scenario_grid

    grid = scenario_grid(
        sensing_range_m=np.linspace(2.0, 20.0, 50),
        a_max=np.linspace(5.0, 50.0, 40),
        f_sensor_hz=(30.0, 60.0),
        f_compute_hz=np.geomspace(1.0, 1000.0, 25),
    )
    result = evaluate_matrix(grid)           # 100 000 points, one pass
    print(result.top_k(10).table())
"""

from . import kernels
from .assembly import FleetAssembly, assemble_configurations
from .cache import BatchCache, CacheStats
from .engine import DEFAULT_CACHE, clear_default_cache, evaluate_matrix
from ..errors import ShardExecutionError
from .executor import (
    CheckpointStore,
    ParallelExecutor,
    Shard,
    ShardManifest,
    ShardResult,
    default_chunk_rows,
    iter_chunks,
    shard_ranges,
    top_k_sharded,
)
from .grid import (
    cartesian_product,
    cartesian_row_count,
    cartesian_slice,
    scenario_grid,
)
from .kernels import BOUND_KINDS, DESIGN_STATUSES
from .matrix import DesignMatrix, LabelColumn
from .result import BatchResult, BatchRow, concat_results, merge_top_k

# The raw kernels stay namespaced (`repro.batch.kernels.*`): several
# share names with the *validated* scalar helpers in repro.core, and
# re-exporting unvalidated twins at package level invites silent misuse.

__all__ = [
    "kernels",
    "FleetAssembly",
    "assemble_configurations",
    "BatchCache",
    "CacheStats",
    "DEFAULT_CACHE",
    "clear_default_cache",
    "evaluate_matrix",
    "CheckpointStore",
    "ParallelExecutor",
    "Shard",
    "ShardExecutionError",
    "ShardManifest",
    "ShardResult",
    "default_chunk_rows",
    "iter_chunks",
    "shard_ranges",
    "top_k_sharded",
    "cartesian_product",
    "cartesian_row_count",
    "cartesian_slice",
    "scenario_grid",
    "BOUND_KINDS",
    "DESIGN_STATUSES",
    "DesignMatrix",
    "LabelColumn",
    "BatchResult",
    "BatchRow",
    "concat_results",
    "merge_top_k",
]
