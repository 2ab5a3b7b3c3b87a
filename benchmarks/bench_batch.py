"""Benchmark: scalar-loop vs. batch F-1 evaluation at fleet scale.

Three end-to-end comparisons:

* **engine** — the same design grids through the per-point
  :class:`~repro.core.model.F1Model` loop and the vectorized
  :mod:`repro.batch` engine (evaluation only).
* **assembly** — whole knob sweeps through the per-point
  ``Knobs.build_uav().f1(...)`` idiom and the columnar row chain,
  ``assemble_columns(knob_columns(...))`` (assembly *plus*
  evaluation), the regime `sweep_grid` multi-knob studies live in.
* **fleet-assembly** — a preset x scenario study compiled through the
  per-row expansion (one ``dataclasses.replace`` per row, then
  ``assemble_configurations`` and a derated second matrix build) and
  through ``compile_spec``'s column expansion, asserting the two
  matrices are bitwise equal.

Each runs at 1k / 10k / 100k points; engine and assembly assert the
batch path wins by the required margin at 10k and above.  A fourth
comparison — **study** — runs the same knob grid through the declarative
:mod:`repro.study` layer (spec construction + planner compile +
dispatch) and asserts the abstraction costs < 5% over the raw
``assemble_columns(knob_columns(...))`` + ``evaluate_matrix`` row
path at 100k points, so the spec-first API can never quietly become
a tax.  Set ``REPRO_RECORD_BENCH=1`` to append the measured numbers to
``benchmarks/results/bench_batch.json`` so the bench trajectory keeps
populating across machines and revisions.  Set ``REPRO_BENCH_SMOKE=1``
(CI does) to run tiny grids that exercise every code path without
timing assertions, so the benchmark code itself cannot rot; adding
``REPRO_BENCH_OUT=<dir>`` (the CI regression gate does) records a
smoke-speed run at small-but-stable sizes into ``<dir>`` for
``check_regression.py`` (see ``_recording.py``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np

from _recording import GATE, SMOKE, record
from repro.batch import (
    DesignMatrix,
    assemble_configurations,
    cartesian_product,
    evaluate_matrix,
    scenario_grid,
)
from repro.batch.assembly import KNOB_COLUMNS, assemble_columns, knob_columns
from repro.dse import DesignSpace
from repro.skyline.knobs import Knobs
from repro.study import DesignSpec, ScenarioSpec, StudySpec, compile_spec

if SMOKE:
    SIZES = (1_000,) if GATE else (64,)
else:
    SIZES = (1_000, 10_000, 100_000)

#: Required end-to-end advantage of the columnar assembly chain at 10k+
#: points (the acceptance bar; measured speedups are far higher).
MIN_ASSEMBLY_SPEEDUP = 10.0

#: Allowed relative overhead of the declarative study layer (spec
#: compile + dispatch) over the raw assembly + evaluation it plans.
MAX_STUDY_OVERHEAD = 0.05


def _grid(n_points: int) -> DesignMatrix:
    """A representative scenario grid with exactly ``n_points`` rows."""
    per_axis = max(2, round(n_points ** (1.0 / 4.0)))
    grid = scenario_grid(
        sensing_range_m=np.linspace(2.0, 20.0, per_axis),
        a_max=np.linspace(5.0, 50.0, per_axis),
        f_sensor_hz=np.linspace(15.0, 90.0, per_axis),
        f_compute_hz=np.geomspace(1.0, 1000.0, per_axis),
    )
    if len(grid) < n_points:
        raise AssertionError(f"grid too small: {len(grid)} < {n_points}")
    return grid.take(np.arange(n_points))


def _knob_columns(n_points: int) -> dict:
    """Three crossed Table II knob axes, truncated to ``n_points``."""
    per_axis = int(np.ceil(n_points ** (1.0 / 3.0)))
    columns = cartesian_product(
        {
            "compute_tdp_w": np.linspace(1.0, 30.0, per_axis),
            "compute_runtime_s": np.geomspace(0.002, 0.5, per_axis),
            "payload_weight_g": np.linspace(0.0, 500.0, per_axis),
        }
    )
    return {name: column[:n_points] for name, column in columns.items()}


def _scalar_loop(matrix: DesignMatrix) -> np.ndarray:
    """The pre-batch consumer idiom: one F1Model per design point."""
    velocities = np.empty(len(matrix))
    for i in range(len(matrix)):
        model = matrix.model_at(i)
        velocities[i] = model.safe_velocity
        _ = model.knee.throughput_hz
        _ = model.bound
    return velocities


def _scalar_assembly_loop(base: Knobs, columns: dict) -> np.ndarray:
    """The pre-assembly sweep idiom: build_uav + f1 per knob point."""
    n = len(next(iter(columns.values())))
    velocities = np.empty(n)
    for i in range(n):
        knobs = replace(
            base, **{name: float(col[i]) for name, col in columns.items()}
        )
        model = knobs.build_uav().f1(knobs.f_compute_hz)
        velocities[i] = model.safe_velocity
        _ = model.knee.throughput_hz
        _ = model.bound
    return velocities


def _knob_chain(base: Knobs, columns: dict) -> DesignMatrix:
    """The row chain: ``knob_columns`` over the swept columns and the
    base's other knobs (scalars), then ``assemble_columns``."""
    knobs = {name: columns.get(name, getattr(base, name)) for name in KNOB_COLUMNS}
    return assemble_columns(
        knob_columns(knobs, base.rotor_count), 1.0 / knobs["compute_runtime_s"]
    ).matrix


def _batch_assembly(base: Knobs, columns: dict):
    """The columnar chain: row-chain assembly + one engine pass."""
    return evaluate_matrix(_knob_chain(base, columns), cache=None)


def _time(fn, *args):
    fn(*args)  # warm-up
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _measure_engine(n_points: int) -> dict:
    matrix = _grid(n_points)
    scalar_s, scalar_velocities = _time(_scalar_loop, matrix)
    batch_s, result = _time(
        lambda m: evaluate_matrix(m, cache=None), matrix
    )
    np.testing.assert_allclose(
        result.safe_velocity, scalar_velocities, atol=1e-9
    )
    return {
        "points": n_points,
        "scalar_s": round(scalar_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(scalar_s / batch_s, 1),
    }


def _measure_assembly(n_points: int) -> dict:
    base = Knobs()
    columns = _knob_columns(n_points)
    scalar_s, scalar_velocities = _time(
        _scalar_assembly_loop, base, columns
    )
    batch_s, result = _time(_batch_assembly, base, columns)
    np.testing.assert_allclose(
        result.safe_velocity[: scalar_velocities.size],
        scalar_velocities,
        atol=1e-9,
    )
    return {
        "points": n_points,
        "scalar_s": round(scalar_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(scalar_s / batch_s, 1),
    }


def _fleet_spec(n_points: int) -> StudySpec:
    """8 preset designs x (payloads x 2 scales x 2 redundancies), with
    the payload axis sized for at least ``n_points`` rows."""
    payloads = -(-n_points // 32)
    return StudySpec(
        design=DesignSpec.presets(
            ("dji-spark", "custom-s500-b"),
            ("navion", "jetson-tx2"),
            ("dronet", "trailnet"),
        ),
        scenarios=ScenarioSpec(
            extra_payload_g=tuple(np.linspace(0.0, 250.0, payloads)),
            a_max_scale=(0.6, 1.0),
            compute_redundancy=(1, 2),
        ),
    )


def _per_row_fleet_compile(spec: StudySpec) -> DesignMatrix:
    """The per-row expansion: one validated configuration per row."""
    design = spec.design
    axes = spec.scenarios.axes()
    candidates = list(
        DesignSpace(
            design.uav_names, design.compute_names, design.algorithm_names
        ).candidates()
    )
    rows = [dict(zip(axes, row)) for row in itertools.product(*axes.values())]
    uavs, labels = [], []
    for c in candidates:
        for values in rows:
            uavs.append(
                replace(
                    c.uav,
                    extra_payload_g=(
                        c.uav.extra_payload_g + values["extra_payload_g"]
                    ),
                    compute_redundancy=int(values["compute_redundancy"]),
                )
            )
            suffix = ",".join(f"{n}={v:g}" for n, v in values.items())
            labels.append(
                f"{c.uav_name}+{c.compute_name}+{c.algorithm_name} [{suffix}]"
            )
    rates = np.repeat([c.f_compute_hz for c in candidates], len(rows))
    matrix = assemble_configurations(uavs, rates, labels=labels).matrix
    scale = np.tile([v["a_max_scale"] for v in rows], len(candidates))
    return DesignMatrix.from_arrays(
        sensing_range_m=matrix.sensing_range_m,
        a_max=matrix.a_max * scale,
        f_sensor_hz=matrix.f_sensor_hz,
        f_compute_hz=matrix.f_compute_hz,
        f_control_hz=matrix.f_control_hz,
        labels=matrix.labels,
        knee_fraction=matrix.knee_fraction,
    )


def _measure_fleet_assembly(n_points: int) -> dict:
    spec = _fleet_spec(n_points)
    reference = _per_row_fleet_compile(spec)
    columnar = compile_spec(spec).matrix
    for name, got, want in zip(
        columnar.column_names, columnar.columns(), reference.columns()
    ):
        assert got.tobytes() == want.tobytes(), name
    assert columnar.labels == reference.labels
    scalar_s = _best_of(_per_row_fleet_compile, spec)
    batch_s = _best_of(compile_spec, spec)
    return {
        "points": len(columnar),
        "scalar_s": round(scalar_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(scalar_s / batch_s, 1),
    }


def _record(benchmark: str, rows: list) -> None:
    record("bench_batch.json", benchmark, rows)


def _print_rows(title: str, rows: list) -> None:
    for row in rows:
        print(
            f"[{title}] {row['points']:>7} points: "
            f"scalar {row['scalar_s']:.4f}s, "
            f"batch {row['batch_s']:.4f}s ({row['speedup']}x)"
        )


def test_bench_batch_vs_scalar():
    rows = [_measure_engine(n) for n in SIZES]
    _print_rows("engine", rows)
    _record("engine", rows)
    if SMOKE:
        return
    for row in rows:
        if row["points"] >= 10_000:
            assert row["batch_s"] < row["scalar_s"], row


def test_bench_assembly_vs_scalar():
    rows = [_measure_assembly(n) for n in SIZES]
    _print_rows("assembly", rows)
    _record("assembly", rows)
    if SMOKE:
        return
    for row in rows:
        if row["points"] >= 10_000:
            assert row["speedup"] >= MIN_ASSEMBLY_SPEEDUP, row


def test_bench_fleet_assembly_vs_per_row():
    rows = [_measure_fleet_assembly(n) for n in SIZES]
    _print_rows("fleet-assembly", rows)
    _record("fleet-assembly", rows)


def test_bench_batch_100k_under_one_second():
    n_points = 1_000 if SMOKE else 100_000
    matrix = _grid(n_points)
    elapsed, _ = _time(lambda m: evaluate_matrix(m, cache=None), matrix)
    if not SMOKE:
        assert elapsed < 1.0, f"100k-point evaluation took {elapsed:.3f}s"


def _study_axes(n_points: int) -> dict:
    """Three crossed knob axes as plain value tuples (spec input)."""
    per_axis = int(np.ceil(n_points ** (1.0 / 3.0)))
    return {
        "compute_tdp_w": tuple(np.linspace(1.0, 30.0, per_axis)),
        "compute_runtime_s": tuple(np.geomspace(0.002, 0.5, per_axis)),
        "payload_weight_g": tuple(np.linspace(0.0, 500.0, per_axis)),
    }


def _raw_knob_run(base: Knobs, axes: dict):
    """What the planner compiles to, wired by hand (the baseline)."""
    return evaluate_matrix(
        _knob_chain(base, cartesian_product(axes)), cache=None
    )


def _study_run(axes: dict):
    """The declarative path: spec -> plan -> result, cache off."""
    from repro.study import DesignSpec, StudySpec, run_study

    spec = StudySpec(design=DesignSpec.knob_axes(axes=axes))
    return run_study(spec, cache=None)


def _best_of(fn, *args, repeats: int = 3) -> float:
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_study_overhead():
    """Spec compile + dispatch must stay < 5% over raw evaluate_matrix."""
    n_points = (1_000 if GATE else 64) if SMOKE else 100_000
    axes = _study_axes(n_points)
    raw_s = _best_of(_raw_knob_run, Knobs(), axes)
    study_s = _best_of(_study_run, axes)
    overhead = study_s / raw_s - 1.0
    per_axis = len(axes["compute_tdp_w"])
    row = {
        "points": per_axis ** 3,
        "raw_s": round(raw_s, 6),
        "study_s": round(study_s, 6),
        "overhead": round(overhead, 4),
    }
    print(
        f"[study] {row['points']:>7} points: raw {raw_s:.4f}s, "
        f"study {study_s:.4f}s ({overhead:+.1%} overhead)"
    )
    _record("study", [row])
    if SMOKE:
        return
    assert overhead < MAX_STUDY_OVERHEAD, row


def test_bench_sweep_grid_end_to_end():
    """sweep_grid stays wired front to back (smoke-sized on purpose)."""
    from repro.skyline.sweep import sweep_grid

    grid = sweep_grid(
        Knobs(),
        {
            "compute_tdp_w": np.linspace(1.0, 30.0, 4),
            "compute_runtime_s": np.geomspace(0.002, 0.5, 4),
            "payload_weight_g": np.linspace(0.0, 500.0, 3),
        },
    )
    assert grid.shape == (4, 4, 3)
    assert sum(grid.bound_counts().values()) == len(grid)


def test_bench_batch_cache_makes_repeats_free(benchmark):
    from repro.batch import BatchCache

    n_points = 1_000 if SMOKE else 100_000
    matrix = _grid(n_points)
    cache = BatchCache()
    evaluate_matrix(matrix, cache=cache)  # populate

    result = benchmark(evaluate_matrix, matrix, cache=cache)
    assert len(result) == n_points
    assert cache.stats.hits >= 1
