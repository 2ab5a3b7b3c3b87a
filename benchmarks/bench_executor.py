"""Benchmark: sharded/parallel execution vs the single-process engine.

Four comparisons, each asserting bitwise equivalence before timing:

* **executor-study** — a million-point knob-grid study through
  ``run_study`` single-process vs a warm 4-worker process pool
  (full-result merge: the IPC-heavy mode).
* **executor-topk** — the same grid reduced to its global top-16
  (:func:`repro.batch.top_k_sharded`): workers return only their local
  winners, so IPC is O(k) and the pool's parallelism shows through.
  This is the headline ``>= 3x on 4 workers`` row; the assertion only
  arms when the host actually exposes >= 4 usable CPUs (the recorded
  rows carry ``cpu_count`` so a 1-CPU container's honest numbers are
  never mistaken for a regression).
* **executor-memory** — ``tracemalloc`` peak of chunked streaming
  top-k vs full materialization, asserting chunked mode's peak is
  bounded by the chunk size (it shrinks with ``chunk_rows`` and stays
  a small fraction of the full-grid peak).
* **result-codec** — ``to_json`` + ``from_json`` of a 16k-row
  ``StudyResult`` over a ``base64`` encode and decode of the same
  result's column bytes (minimum of 5 runs each, same size in smoke
  and full mode): the cost of shipping a result, in units of the
  codec's irreducible work.

``REPRO_BENCH_SMOKE=1`` shrinks every grid and disables the timing
assertions (the equivalence assertions stay); ``REPRO_RECORD_BENCH=1``
/ ``REPRO_BENCH_OUT=<dir>`` record rows to
``benchmarks/results/bench_executor.json`` or ``<dir>`` (see
``_recording.py``).
"""

from __future__ import annotations

import base64
import os
import time
import tracemalloc

import numpy as np

from _recording import GATE, SMOKE, record
from repro.batch import (
    ParallelExecutor,
    clear_default_cache,
    default_chunk_rows,
    top_k_sharded,
)
from repro.study import DesignSpec, StudyResult, StudySpec, run_study, study_size

N_WORKERS = 4
TOP_K = 16

#: The acceptance bar: parallel top-k at 1M points on 4 workers.
MIN_PARALLEL_SPEEDUP = 3.0

#: Chunked streaming must stay under this fraction of the full peak.
MAX_CHUNKED_PEAK_RATIO = 0.25

#: Axis lengths of the result-codec study: 16 x 32 x 32 = 16k rows.
CODEC_SHAPE = (16, 32, 32)

if SMOKE:
    PER_AXIS = 10 if GATE else 8  # 1000 / 512 points
else:
    PER_AXIS = 100  # 1,000,000 points


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _spec(*points: int) -> StudySpec:
    """A knob study with ``points`` per axis (one count, or one per axis)."""
    tdp, runtime, payload = points * 3 if len(points) == 1 else points
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={
                "compute_tdp_w": tuple(np.linspace(1.0, 30.0, tdp)),
                "compute_runtime_s": tuple(
                    np.geomspace(0.002, 0.5, runtime)
                ),
                "payload_weight_g": tuple(
                    np.linspace(0.0, 500.0, payload)
                ),
            }
        )
    )


def _best_of(fn, repeats: int = 3) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _row(points: int, single_s: float, parallel_s: float) -> dict:
    return {
        "points": points,
        "workers": N_WORKERS,
        "cpu_count": _usable_cpus(),
        "single_s": round(single_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(single_s / parallel_s, 2),
    }


def test_bench_executor_full_merge():
    spec = _spec(PER_AXIS)
    points = study_size(spec)
    chunk = default_chunk_rows(points, N_WORKERS)
    single = run_study(spec, cache=None)
    with ParallelExecutor(n_workers=N_WORKERS) as ex:
        ex.warm_up()
        parallel = run_study(
            spec, cache=None, executor=ex, chunk_rows=chunk
        )
        assert single.equals(parallel)  # bitwise, per the contract
        single_s = _best_of(lambda: run_study(spec, cache=None))
        parallel_s = _best_of(
            lambda: run_study(
                spec, cache=None, executor=ex, chunk_rows=chunk
            )
        )
    row = _row(points, single_s, parallel_s)
    print(
        f"[executor-study] {points:>8} points: single {single_s:.4f}s, "
        f"{N_WORKERS} workers {parallel_s:.4f}s ({row['speedup']}x, "
        f"{row['cpu_count']} cpus)"
    )
    record("bench_executor.json", "executor-study", [row])


def test_bench_executor_topk_speedup():
    spec = _spec(PER_AXIS)
    points = study_size(spec)
    chunk = default_chunk_rows(points, N_WORKERS)

    def single_run():
        return run_study(spec, cache=None).batch.top_k(TOP_K)

    with ParallelExecutor(n_workers=N_WORKERS) as ex:
        ex.warm_up()

        def parallel_run():
            return top_k_sharded(
                spec, TOP_K, executor=ex, chunk_rows=chunk
            )

        from repro.io.serialization import batch_results_equal

        _, merged = parallel_run()
        assert batch_results_equal(single_run(), merged)
        single_s = _best_of(single_run)
        parallel_s = _best_of(parallel_run)
    row = _row(points, single_s, parallel_s)
    print(
        f"[executor-topk] {points:>8} points: single {single_s:.4f}s, "
        f"{N_WORKERS} workers {parallel_s:.4f}s ({row['speedup']}x, "
        f"{row['cpu_count']} cpus)"
    )
    record("bench_executor.json", "executor-topk", [row])
    if SMOKE or _usable_cpus() < N_WORKERS:
        return  # honest numbers are recorded either way
    if row["speedup"] < MIN_PARALLEL_SPEEDUP:
        # Shared runners jitter; re-measure once (fresh pool) before
        # declaring the bar missed.  A genuine regression fails twice.
        with ParallelExecutor(n_workers=N_WORKERS) as retry_ex:
            retry_ex.warm_up()
            parallel_s = min(
                parallel_s,
                _best_of(
                    lambda: top_k_sharded(
                        spec, TOP_K, executor=retry_ex, chunk_rows=chunk
                    ),
                    repeats=5,
                ),
            )
        row = _row(points, single_s, parallel_s)
        print(f"[executor-topk] retry: {row['speedup']}x")
    assert row["speedup"] >= MIN_PARALLEL_SPEEDUP, row


def _peak_of(fn) -> int:
    clear_default_cache()
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    return max(peak - before, 1)


def test_bench_executor_chunked_memory():
    per_axis = PER_AXIS if SMOKE else 80  # 512k points keeps this quick
    spec = _spec(per_axis)
    points = study_size(spec)
    chunk = max(16, points // 16)
    tracemalloc.start()
    try:
        chunk_peak = _peak_of(
            lambda: top_k_sharded(spec, TOP_K, chunk_rows=chunk)
        )
        half_chunk_peak = _peak_of(
            lambda: top_k_sharded(spec, TOP_K, chunk_rows=chunk // 2)
        )
        full_peak = _peak_of(lambda: run_study(spec, cache=None))
    finally:
        tracemalloc.stop()
    row = {
        "points": points,
        "chunk_rows": chunk,
        "chunk_peak_mb": round(chunk_peak / 1e6, 3),
        "half_chunk_peak_mb": round(half_chunk_peak / 1e6, 3),
        "full_peak_mb": round(full_peak / 1e6, 3),
        "peak_ratio": round(chunk_peak / full_peak, 4),
    }
    print(
        f"[executor-memory] {points:>8} points: full "
        f"{row['full_peak_mb']:.1f} MB, chunked({chunk}) "
        f"{row['chunk_peak_mb']:.1f} MB, chunked({chunk // 2}) "
        f"{row['half_chunk_peak_mb']:.1f} MB "
        f"(ratio {row['peak_ratio']})"
    )
    record("bench_executor.json", "executor-memory", [row])
    if SMOKE:
        return
    # Chunked mode's peak is bounded by the chunk, not the grid:
    # a small fraction of full materialization, and shrinking (with
    # slack for fixed overheads) as the chunk shrinks.
    assert row["peak_ratio"] < MAX_CHUNKED_PEAK_RATIO, row
    assert half_chunk_peak < 0.75 * chunk_peak, row


def test_bench_executor_serial_streaming_overhead():
    """Chunked serial streaming stays close to the one-pass engine
    (it is the memory-bound mode, not a parallelism mode)."""
    spec = _spec(PER_AXIS)
    points = study_size(spec)
    chunk = default_chunk_rows(points, N_WORKERS)
    single = run_study(spec, cache=None)
    chunked = run_study(spec, cache=None, chunk_rows=chunk)
    assert single.equals(chunked)
    single_s = _best_of(lambda: run_study(spec, cache=None))
    chunked_s = _best_of(
        lambda: run_study(spec, cache=None, chunk_rows=chunk)
    )
    row = {
        "points": points,
        "chunk_rows": chunk,
        "single_s": round(single_s, 6),
        "chunked_s": round(chunked_s, 6),
        "overhead": round(chunked_s / single_s - 1.0, 4),
    }
    print(
        f"[executor-serial] {points:>8} points: single {single_s:.4f}s, "
        f"chunked {chunked_s:.4f}s ({row['overhead']:+.1%} overhead)"
    )
    record("bench_executor.json", "executor-serial", [row])
    if not SMOKE:
        # Streaming pays per-chunk assembly plus one concat copy;
        # anything past 2x the one-pass engine means a real regression.
        assert row["overhead"] < 1.0, row


def test_bench_result_codec(tmp_path):
    """Encoding and decoding a result costs a small multiple of a
    base64 round trip of its column bytes, the work no JSON codec of
    those columns can skip (it ships bytes, not float text)."""
    spec = _spec(*CODEC_SHAPE)
    points = study_size(spec)
    result = run_study(spec, cache=None)
    text = result.to_json()
    assert StudyResult.from_json(text).equals(result)
    # A framed file is a header line, then every column's raw bytes.
    path = tmp_path / "result.frame"
    result.save(path)
    columns = path.read_bytes().split(b"\n", 1)[1]
    base64_s = _best_of(
        lambda: base64.b64decode(base64.b64encode(columns)), repeats=5
    )
    codec_s = _best_of(
        lambda: StudyResult.from_json(result.to_json()), repeats=5
    )
    row = {
        "points": points,
        "base64_s": round(base64_s, 6),
        "codec_s": round(codec_s, 6),
        "bytes_per_row": round(len(text) / points, 1),
        "codec_ratio": round(codec_s / base64_s, 4),
    }
    print(
        f"[result-codec] {points:>8} points: base64 {base64_s:.4f}s, "
        f"to_json + from_json {codec_s:.4f}s "
        f"({row['codec_ratio']}x, {row['bytes_per_row']} B/row)"
    )
    record("bench_executor.json", "result-codec", [row])
