"""Sharded executor suite: chunking, parallel fan-out, merges,
checkpoints, cache hygiene and the study CLI's scaling flags.

The load-bearing property throughout: every sharded/parallel run of a
study spec is *bitwise* identical to the single-pass ``run_study`` it
replaces (the kernels are elementwise, so chunk boundaries cannot
change a double).  Process-backed tests are kept
small and few — they exercise real worker processes, which are slow to
spawn on CI — while the property suites evaluate shards inline.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autonomy.workloads import ALGORITHMS
from repro.batch import (
    DEFAULT_CACHE,
    CheckpointStore,
    DesignMatrix,
    ParallelExecutor,
    Shard,
    cartesian_product,
    cartesian_row_count,
    cartesian_slice,
    clear_default_cache,
    concat_results,
    default_chunk_rows,
    evaluate_matrix,
    iter_chunks,
    merge_top_k,
    scenario_grid,
    shard_ranges,
    top_k_sharded,
)
from repro.batch.executor import DEFAULT_CHUNK_ROWS, ShardResult, _evaluate_shard
from repro.batch.result import SORTABLE_COLUMNS
from repro.compute.platforms import PLATFORMS
from repro.dse import DesignSpace, explore
from repro.errors import ConfigurationError, ShardExecutionError
from repro.io.serialization import (
    MANIFEST_VERSION,
    SHARD_RECORD_TABLE,
    batch_results_equal,
    decode_frame,
    encode_frame,
    design_matrices_equal,
    shard_manifest_from_dict,
    shard_record_from_dict,
    shard_record_to_dict,
)
from repro.obs import Tracer
from repro.skyline.cli import main as cli_main
from repro.skyline.knobs import Knobs
from repro.skyline.sweep import sweep_knob
from repro.study import (
    DesignSpec,
    ScenarioSpec,
    StudyResult,
    StudySpec,
    compile_chunk,
    compile_spec,
    run_study,
    study_axes,
    study_size,
)
from repro.uav.configuration import UAVConfiguration
from repro.uav.registry import UAV_PRESETS, get_preset


def _grid(n_rows: int = 120) -> DesignMatrix:
    rng = np.random.default_rng(7)
    return DesignMatrix.from_arrays(
        sensing_range_m=rng.uniform(2.0, 20.0, n_rows),
        a_max=rng.uniform(5.0, 50.0, n_rows),
        f_sensor_hz=rng.uniform(15.0, 90.0, n_rows),
        f_compute_hz=rng.uniform(0.5, 500.0, n_rows),
        f_control_hz=rng.uniform(50.0, 400.0, n_rows),
    )


def _line_spec(n_rows: int) -> StudySpec:
    """A one-axis knob study of exactly ``n_rows`` rows."""
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={
                "compute_runtime_s": tuple(np.geomspace(0.002, 0.5, n_rows))
            }
        )
    )


def _knob_spec(**kwargs) -> StudySpec:
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={
                "compute_tdp_w": (1.0, 10.0, 30.0),
                "compute_runtime_s": (0.01, 0.1, 0.4),
                "payload_weight_g": (0.0, 150.0),
            }
        ),
        **kwargs,
    )


def _preset_scenario_spec() -> StudySpec:
    """A preset design crossed with all three scenario axes."""
    return StudySpec(
        design=DesignSpec.presets(
            uav_names=("dji-spark", "custom-s500-b"),
            compute_names=("navion", "jetson-tx2"),
            algorithm_names=("dronet",),
        ),
        scenarios=ScenarioSpec(
            extra_payload_g=(0.0, 40.0),
            a_max_scale=(0.6, 1.0),
            compute_redundancy=(1, 2),
        ),
    )


def _fleet_scenario_spec() -> StudySpec:
    """A labelled fleet crossed with all three scenario axes."""
    return StudySpec(
        design=DesignSpec.fleet(
            uavs=(
                get_preset("dji-spark"),
                get_preset("asctec-pelican"),
                get_preset("custom-s500-b"),
            ),
            f_compute_hz=(5.0, 50.0, 20.0),
            labels=("spark", "pelican", "s500"),
        ),
        scenarios=ScenarioSpec(
            extra_payload_g=(0.0, 25.0, 60.0),
            a_max_scale=(0.7, 1.0),
            compute_redundancy=(1, 2),
        ),
    )


def _huge_preset_spec() -> StudySpec:
    """Every preset, platform and algorithm x 2,000 scenario rows:
    756,000 rows, 378 designs."""
    return StudySpec(
        design=DesignSpec.presets(
            uav_names=tuple(UAV_PRESETS),
            compute_names=tuple(PLATFORMS),
            algorithm_names=tuple(ALGORITHMS),
        ),
        scenarios=ScenarioSpec(
            extra_payload_g=tuple(np.linspace(0.0, 200.0, 50)),
            a_max_scale=tuple(np.linspace(0.5, 1.0, 20)),
            compute_redundancy=(1, 2),
        ),
    )


# ---------------------------------------------------------------------------
# Cartesian index arithmetic
# ---------------------------------------------------------------------------
def _reference_columns(axes) -> dict:
    """Row-major Cartesian columns by ``itertools.product`` (last axis
    fastest): a reference independent of :mod:`repro.batch.grid`."""
    rows = list(itertools.product(*axes.values()))
    return {
        name: np.array([row[i] for row in rows], dtype=np.float64)
        for i, name in enumerate(axes)
    }


class TestCartesianSlice:
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_match_full_product(self, sizes, data):
        axes = {
            f"axis{i}": np.linspace(1.0, 2.0 + i, n)
            for i, n in enumerate(sizes)
        }
        total = cartesian_row_count(axes)
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, total))
        expected = _reference_columns(axes)
        part = cartesian_slice(axes, start, stop)
        full = cartesian_product(axes)
        for name in axes:
            np.testing.assert_array_equal(
                part[name], expected[name][start:stop]
            )
            np.testing.assert_array_equal(full[name], expected[name])

    @pytest.mark.parametrize(
        "shape",
        [(1,), (4,), (1, 1), (1, 3), (3, 1), (2, 3), (3, 1, 2), (2, 2, 3),
         (2, 1, 3, 2)],
        ids=str,
    )
    def test_every_range_of_small_shapes(self, shape):
        # Every [start, stop), so slices start and end mid-run of
        # every slower axis; the columns are fresh arrays, because
        # DesignMatrix._adopt freezes them without copying.
        axes = {
            f"axis{i}": np.arange(n, dtype=np.float64) + 10.0 * i
            for i, n in enumerate(shape)
        }
        expected = _reference_columns(axes)
        total = cartesian_row_count(axes)
        for start in range(total + 1):
            for stop in range(start, total + 1):
                part = cartesian_slice(axes, start, stop)
                assert list(part) == list(axes)
                for name, axis in axes.items():
                    assert part[name].dtype == np.float64
                    assert (
                        part[name].tobytes()
                        == expected[name][start:stop].tobytes()
                    )
                    assert not np.shares_memory(part[name], axis)
        for name, column in cartesian_product(axes).items():
            assert column.tobytes() == expected[name].tobytes()
            assert not np.shares_memory(column, axes[name])

    def test_chunks_reassemble_the_grid(self):
        axes = {"a": (1.0, 2.0, 3.0), "b": (4.0, 5.0), "c": (6.0, 7.0)}
        expected = _reference_columns(axes)
        for chunk in (1, 2, 5, 12, 100):
            parts = [
                cartesian_slice(axes, start, stop)
                for start, stop in shard_ranges(
                    cartesian_row_count(axes), chunk
                )
            ]
            for name in axes:
                np.testing.assert_array_equal(
                    np.concatenate([p[name] for p in parts]), expected[name]
                )

    def test_out_of_range_slice_is_an_error(self):
        axes = {"a": (1.0, 2.0)}
        with pytest.raises(ConfigurationError, match="out of range"):
            cartesian_slice(axes, 0, 3)
        with pytest.raises(ConfigurationError, match="out of range"):
            cartesian_slice(axes, -1, 1)

    def test_needs_at_least_one_axis(self):
        with pytest.raises(ConfigurationError, match="at least one axis"):
            cartesian_slice({}, 0, 0)
        with pytest.raises(ConfigurationError, match="at least one axis"):
            cartesian_row_count({})


class TestShardRanges:
    def test_covers_every_row_once(self):
        for total, chunk in ((10, 3), (10, 10), (10, 100), (1, 1), (7, 2)):
            ranges = shard_ranges(total, chunk)
            rows = [i for s, e in ranges for i in range(s, e)]
            assert rows == list(range(total))
            assert all(e - s <= chunk for s, e in ranges)

    def test_chunk_rows_validated(self):
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            shard_ranges(10, 0)

    def test_default_chunk_rows_bounds(self):
        assert default_chunk_rows(10_000_000, 4) == DEFAULT_CHUNK_ROWS
        assert default_chunk_rows(100, 4) == 7  # ~4 shards per worker
        assert default_chunk_rows(1, 1) == 1


# ---------------------------------------------------------------------------
# Chunking and merging
# ---------------------------------------------------------------------------
class TestMatrixChunks:
    def test_chunks_concat_back_bitwise(self):
        spec = _line_spec(57)
        shards = list(iter_chunks(spec, chunk_rows=13))
        assert [s.index for s in shards] == list(range(len(shards)))
        assert shards[-1].stop == study_size(spec)
        rebuilt = DesignMatrix.concat(
            [compile_chunk(spec, s.start, s.stop).matrix for s in shards]
        )
        assert design_matrices_equal(compile_spec(spec).matrix, rebuilt)

    def test_concat_rejects_mixed_labels_and_knees(self):
        plain = _grid(4)
        labelled = DesignMatrix.from_arrays(
            *plain.columns(), labels=[f"r{i}" for i in range(4)]
        )
        kneed = DesignMatrix.from_arrays(*plain.columns(), knee_fraction=0.7)
        with pytest.raises(ConfigurationError, match="labelled"):
            DesignMatrix.concat([plain, labelled])
        with pytest.raises(ConfigurationError, match="knee fractions"):
            DesignMatrix.concat([plain, kneed])
        with pytest.raises(ConfigurationError, match="at least one"):
            DesignMatrix.concat([])

    def test_concat_results_rejects_mixed_contracts(self):
        matrix = _grid(6)
        a = evaluate_matrix(matrix, tolerance=0.05, cache=None)
        b = evaluate_matrix(matrix, tolerance=0.10, cache=None)
        with pytest.raises(ConfigurationError, match="contracts"):
            concat_results([a, b])
        assert concat_results([a]) is a


#: Study specs of every design kind, without and with scenario axes.
_PROPERTY_SPECS = {
    ("knobs", False): _knob_spec(),
    ("knobs", True): _knob_spec(
        scenarios=ScenarioSpec(
            extra_payload_g=(0.0, 75.0), a_max_scale=(1.0, 0.8)
        )
    ),
    ("presets", False): StudySpec(
        design=DesignSpec.presets(
            uav_names=("dji-spark", "asctec-pelican"),
            compute_names=("intel-ncs", "jetson-tx2"),
            algorithm_names=("dronet", "trailnet"),
        )
    ),
    ("presets", True): _preset_scenario_spec(),
    ("fleet", False): StudySpec(
        design=DesignSpec.fleet(
            uavs=(get_preset("dji-spark"), get_preset("custom-s500-b")),
            f_compute_hz=(5.0, 50.0),
        )
    ),
    ("fleet", True): _fleet_scenario_spec(),
}


class TestShardedEvaluate:
    @given(
        key=st.sampled_from(sorted(_PROPERTY_SPECS)),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_serial_sharding_is_bitwise_identical(self, key, data):
        """Sharded equals the single pass, bitwise, for every design
        kind, chunking and reduction, with shards evaluated inline."""
        spec = _PROPERTY_SPECS[key]
        n_rows = study_size(spec)
        chunk = data.draw(st.integers(1, n_rows + 1), label="chunk_rows")
        single = run_study(spec, cache=None)
        if data.draw(st.booleans(), label="top_k"):
            k = data.draw(st.integers(1, n_rows + 2), label="k")
            by = data.draw(st.sampled_from(SORTABLE_COLUMNS), label="by")
            descending = data.draw(st.booleans(), label="descending")
            indices, merged = top_k_sharded(
                spec, k, by=by, descending=descending, chunk_rows=chunk
            )
            assert batch_results_equal(
                single.batch.top_k(k, by=by, descending=descending), merged
            )
            np.testing.assert_array_equal(
                indices,
                single.batch.top_k_indices(k, by=by, descending=descending),
            )
        else:
            sharded = run_study(spec, cache=None, chunk_rows=chunk)
            assert sharded.to_json() == single.to_json()

    def test_process_pool_identical(self):
        # A fleet x scenario study: labelled rows, and shards that cut
        # through a design's block of scenario rows.
        spec = _fleet_scenario_spec()
        reference = run_study(spec, cache=None)
        with ParallelExecutor(n_workers=2) as executor:
            sharded = run_study(
                spec, cache=None, executor=executor, chunk_rows=5
            )
        assert sharded.to_json() == reference.to_json()

    def test_warm_up_reads_every_worker_task(self):
        # A warm-up task that cannot reach a worker (it does not pickle,
        # or the worker dies at start-up) must raise, not pass silently.
        with ParallelExecutor(n_workers=2) as executor:
            executor.warm_up()
            assert executor._pool is not None

    def test_labels_survive_sharding(self):
        spec = _fleet_scenario_spec()
        single = run_study(spec, cache=None)
        sharded = run_study(spec, cache=None, chunk_rows=7)
        assert sharded.batch.matrix.labels == single.batch.matrix.labels


# ---------------------------------------------------------------------------
# Top-k merging
# ---------------------------------------------------------------------------
class TestTopKMerge:
    def test_merge_equals_full_top_k_with_ties(self):
        # knee_hz ignores compute_runtime_s, so rows tie across that
        # axis, and at 7-row chunks the ties straddle shard boundaries.
        spec = _knob_spec()
        full = run_study(spec, cache=None).batch
        for k in (1, 5, 17, 60, 200):
            expected = full.top_k(k, by="knee_hz")
            indices, merged = top_k_sharded(
                spec, k, by="knee_hz", chunk_rows=7
            )
            assert batch_results_equal(expected, merged)
            np.testing.assert_array_equal(
                indices, full.top_k_indices(k, by="knee_hz")
            )

    def test_top_k_holds_one_chunk_not_the_grid(self):
        # Peak memory is one chunk's compile and evaluation plus O(k),
        # never the full grid.
        spec = StudySpec(
            design=DesignSpec.knob_axes(
                axes={
                    "compute_tdp_w": tuple(np.linspace(1.0, 30.0, 20)),
                    "compute_runtime_s": tuple(
                        np.geomspace(0.002, 0.5, 100)
                    ),
                    "payload_weight_g": tuple(np.linspace(0.0, 500.0, 100)),
                }
            )
        )
        n_rows = study_size(spec)
        full = run_study(spec, cache=None).batch
        expected = full.top_k_indices(16)
        tracemalloc.start()
        try:
            indices, _ = top_k_sharded(spec, 16, chunk_rows=n_rows // 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(indices, expected)
        assert peak < full.matrix.nbytes / 4, (peak, full.matrix.nbytes)

    def test_top_k_over_a_spec_never_materializes(self):
        spec = _knob_spec()
        full = run_study(spec, cache=None).batch
        indices, merged = top_k_sharded(spec, 4, chunk_rows=5)
        assert batch_results_equal(full.top_k(4), merged)

    def test_merge_top_k_validates(self):
        result = evaluate_matrix(_grid(5), cache=None)
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            merge_top_k([(np.arange(5), result)], 0)
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_top_k([], 3)
        with pytest.raises(ConfigurationError, match="indices"):
            merge_top_k([(np.arange(3), result)], 3)


# ---------------------------------------------------------------------------
# Sharded studies
# ---------------------------------------------------------------------------
class TestShardedStudies:
    @given(chunk=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_knob_study_identical_at_any_chunking(self, chunk):
        spec = _knob_spec()
        single = run_study(spec, cache=None)
        sharded = run_study(spec, cache=None, chunk_rows=chunk)
        assert single.equals(sharded)

    def test_scenarios_identical(self):
        spec = _knob_spec(
            scenarios=ScenarioSpec(
                extra_payload_g=(0.0, 75.0), a_max_scale=(1.0, 0.8)
            )
        )
        single = run_study(spec, cache=None)
        for chunk in (1, 5, 11, 1000):
            assert single.equals(run_study(spec, cache=None, chunk_rows=chunk))

    def test_single_axis_labels_identical(self):
        spec = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_runtime_s": (0.01, 0.1, 0.25, 1.0)}
            )
        )
        single = run_study(spec, cache=None)
        sharded = run_study(spec, cache=None, chunk_rows=3)
        assert single.equals(sharded)
        assert sharded.batch.matrix.labels == single.batch.matrix.labels

    def test_knob_payload_error_is_independent_of_chunking(self):
        # Rows (0, -5), (0, -20) and (10, -20) go negative.  The spec
        # names the first of them, in row-major order, when it is
        # built, so no chunking of the study ever runs.
        with pytest.raises(ConfigurationError) as built:
            StudySpec(
                design=DesignSpec.knob_axes(
                    axes={"payload_weight_g": (0.0, 10.0, 50.0)}
                ),
                scenarios=ScenarioSpec(extra_payload_g=(-5.0, -20.0)),
            )
        assert str(built.value) == (
            "study spec field 'scenarios.extra_payload_g': payload goes "
            "negative at payload_weight_g=0, extra_payload_g=-5 (-5 g); "
            "deltas cannot shed more than the payload knob carries"
        )

    def test_preset_shard_memory_is_bounded_by_its_rows(self):
        # A shard of a preset x scenario study gathers only the
        # designs its rows touch (at most chunk + 2·M rows), never
        # the whole 756,000-row plan.
        spec = _huge_preset_spec()
        assert study_size(spec) == 756_000
        start = 500_000 - 1_000  # mid-design, like most shards
        tracemalloc.start()
        try:
            shard = compile_chunk(spec, start, start + 4_096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(shard) == 4_096
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_preset_shard_composes_only_its_own_designs(self, monkeypatch):
        # The last 4-row shard of 3 UAVs x 3 platforms x 2 algorithms
        # x 4 scenario rows holds one design: one (UAV, compute) pair.
        spec = StudySpec(
            design=DesignSpec.presets(
                uav_names=("dji-spark", "asctec-pelican", "nano-uav"),
                compute_names=("intel-ncs", "jetson-tx2", "raspi4"),
                algorithm_names=("dronet", "trailnet"),
            ),
            scenarios=ScenarioSpec(extra_payload_g=(0.0, 10.0, 20.0, 30.0)),
        )
        composed = []
        with_compute = UAVConfiguration.with_compute

        def counting(uav, compute, name=None):
            composed.append(compute.name)
            return with_compute(uav, compute, name)

        monkeypatch.setattr(UAVConfiguration, "with_compute", counting)
        total = study_size(spec)
        compile_chunk(spec, total - 4, total)
        assert composed == ["raspi4"]
        composed.clear()
        # Rows [20, 60) are designs 5 through 14: UAV 0's last
        # platform, all three of UAV 1's and UAV 2's first two.
        compile_chunk(spec, 20, 60)
        assert composed == ["raspi4", "intel-ncs", "jetson-tx2"] * 2

    def test_presets_and_fleet_identical(self):
        presets = StudySpec(
            design=DesignSpec.presets(
                uav_names=("dji-spark", "asctec-pelican"),
                compute_names=("intel-ncs", "jetson-tx2"),
                algorithm_names=("dronet",),
            )
        )
        fleet = StudySpec(
            design=DesignSpec.fleet(
                uavs=(get_preset("dji-spark"), get_preset("asctec-pelican")),
                f_compute_hz=(5.0, 50.0),
            ),
            scenarios=ScenarioSpec(compute_redundancy=(1.0, 2.0)),
        )
        for spec in (presets, fleet, _preset_scenario_spec()):
            single = run_study(spec, cache=None)
            assert single.equals(run_study(spec, cache=None, chunk_rows=3))

    def test_process_study_identical(self):
        spec = _knob_spec()
        single = run_study(spec, cache=None)
        with ParallelExecutor(n_workers=2) as executor:
            parallel = run_study(
                spec, cache=None, executor=executor, chunk_rows=5
            )
        assert single.equals(parallel)

    def test_study_axes_and_size_match_the_planner(self):
        for spec in (
            _knob_spec(),
            _knob_spec(scenarios=ScenarioSpec(extra_payload_g=(0.0, 10.0))),
            StudySpec(
                design=DesignSpec.presets(
                    uav_names=("dji-spark",),
                    compute_names=("intel-ncs", "jetson-tx2"),
                    algorithm_names=("dronet", "trailnet"),
                )
            ),
            _preset_scenario_spec(),
        ):
            plan = compile_spec(spec)
            assert study_axes(spec) == plan.axes
            assert study_size(spec) == len(plan)

    def test_compile_chunk_validates_range(self):
        spec = _knob_spec()
        with pytest.raises(ConfigurationError, match="out of range"):
            compile_chunk(spec, 0, study_size(spec) + 1)
        with pytest.raises(ConfigurationError, match="out of range"):
            compile_chunk(spec, 3, 3)

    def test_sharded_plan_input(self):
        spec = _knob_spec()
        plan = compile_spec(spec)
        single = run_study(plan, cache=None)
        sharded = run_study(plan, cache=None, chunk_rows=4)
        assert single.equals(sharded)

    def test_a_sharded_run_digests_its_spec_once(
        self, tmp_path, monkeypatch
    ):
        from repro.distrib import DistributedExecutor

        calls = []
        digest = StudySpec.content_digest
        monkeypatch.setattr(
            StudySpec,
            "content_digest",
            lambda spec: calls.append(spec) or digest(spec),
        )
        spec = _knob_spec()
        run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path / "a")
        assert len(calls) == 1
        top_k_sharded(spec, 3, chunk_rows=5, checkpoint_dir=tmp_path / "b")
        assert len(calls) == 2
        for _ in range(2):  # a fresh work dir, then a full resume
            with DistributedExecutor(tmp_path / "c") as executor:
                run_study(spec, cache=None, executor=executor, chunk_rows=5)
        assert len(calls) == 4


def _fleet_scenarios_spec() -> StudySpec:
    """7 presets x 9 platforms x 6 algorithms x 100 scenario rows:
    37,800 rows of 378 designs, the shape of perfbench's fleet study."""
    return StudySpec(
        design=DesignSpec.presets(
            uav_names=tuple(sorted(UAV_PRESETS))[:7],
            compute_names=tuple(sorted(PLATFORMS))[:9],
            algorithm_names=tuple(sorted(ALGORITHMS))[:6],
        ),
        scenarios=ScenarioSpec(
            extra_payload_g=tuple(np.linspace(0.0, 200.0, 10)),
            a_max_scale=tuple(np.linspace(0.6, 1.0, 5)),
            compute_redundancy=(1, 2),
        ),
    )


def _retained(call):
    """``call()``'s result, the ``tracemalloc`` bytes it retains and
    the bytes it held at its peak."""
    call()  # first-call imports and registry lookups are not retained
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


class TestFleetLabelMemory:
    """A preset or fleet study holds N design labels and M scenario
    suffixes, never one label string per row."""

    def test_compile_spec_retains_no_per_row_labels(self):
        # The numeric columns are 2.0 MiB; 37,800 labels of about 100
        # characters would add 5.7 MiB.
        spec = _fleet_scenarios_spec()
        plan, retained, _ = _retained(lambda: compile_spec(spec))
        assert len(plan) == 37_800
        assert retained < 3 * 2**20, f"retained {retained / 2**20:.2f} MiB"

    def test_compile_spec_peaks_near_its_own_output(self):
        # The chain runs over 63 (UAV, compute) pairs x 100 scenario
        # rows, and only the seven output columns (2.1 MiB) are
        # expanded to rows; expanding every configuration column to
        # rows first peaked at 7.9 MiB.
        spec = _fleet_scenarios_spec()
        plan, _, peak = _retained(lambda: compile_spec(spec))
        assert len(plan) == 37_800
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_sharded_result_retains_no_per_row_labels(self):
        # 80 inline shards, merged: the numeric columns are 3.5 MiB.
        spec = _fleet_scenarios_spec()
        result, retained, _ = _retained(
            lambda: run_study(
                spec,
                executor=ParallelExecutor(n_workers=1),
                chunk_rows=math.ceil(37_800 / 80),
            )
        )
        assert len(result.batch) == 37_800
        assert retained < 4.5 * 2**20, f"retained {retained / 2**20:.2f} MiB"

    def test_matrix_nbytes_counts_the_label_parts(self):
        matrix = compile_spec(_fleet_scenarios_spec()).matrix
        strings = 378 + 100
        parts = matrix.labels.designs + matrix.labels.suffixes
        assert len(parts) == strings
        assert matrix.nbytes == (
            sum(column.nbytes for column in matrix.columns())
            + sum(map(len, parts))
            + strings * DesignMatrix._STR_OVERHEAD_BYTES
        )

    def test_matrix_nbytes_counts_an_adopted_factor_once(self):
        # A one-axis knob study is one block, and its full-shape a_max
        # factor is the a_max column: one buffer, counted once.  The
        # other factors are (1,) arrays, one per distinct value.
        spec = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_tdp_w": tuple(np.linspace(1.0, 30.0, 1_000))}
            )
        )
        matrix = compile_spec(spec).matrix
        (block,) = matrix.blocks
        assert np.shares_memory(block.columns["a_max"], matrix.a_max)
        scalars = {f.tobytes() for f in block.columns.values() if f.size == 1}
        parts = matrix.labels.parts
        assert matrix.nbytes == (
            5 * 8 * 1_000
            + 8 * len(scalars)
            + sum(map(len, parts))
            + len(parts) * DesignMatrix._STR_OVERHEAD_BYTES
        )


# ---------------------------------------------------------------------------
# The one pipeline: reducer x store x workers
# ---------------------------------------------------------------------------
_PIPELINE_CASES = [
    (source, reducer, store, workers)
    for source in ("spec", "fleet")
    for reducer in ("concat", "top-k")
    for store in ("none", "checkpoint", "leased")
    for workers in (1, 2)
]


class TestShardedPipeline:
    """Every combination the pipeline runs is bitwise identical to the
    one-pass result.  The "spec" source is the knob study, "fleet" a
    labelled fleet crossed with scenario axes.  One worker evaluates
    shards inline, two run a process pool.  A leased store is a
    distributed work dir; its second worker is a joining worker
    thread."""

    @pytest.mark.parametrize(
        "source,reducer,store,workers", _PIPELINE_CASES
    )
    def test_bitwise_identical_to_one_pass(
        self, tmp_path, source, reducer, store, workers
    ):
        import threading

        from repro.distrib import DistributedExecutor, run_worker

        spec = _knob_spec() if source == "spec" else _fleet_scenario_spec()
        one_pass = run_study(spec, cache=None)
        full = one_pass.batch
        joiner = None
        if store == "leased":
            executor = DistributedExecutor(
                tmp_path, worker_id="init", lease_ttl_s=10.0,
                poll_interval_s=0.02,
            )
            if workers == 2:
                joiner = threading.Thread(
                    target=run_worker,
                    args=(tmp_path,),
                    kwargs={
                        "worker_id": "join", "lease_ttl_s": 10.0,
                        "poll_interval_s": 0.02, "wait_s": 30.0,
                    },
                )
                joiner.start()
        else:
            executor = ParallelExecutor(n_workers=workers)
        checkpoint = tmp_path if store == "checkpoint" else None
        try:
            with executor:
                if reducer == "top-k":
                    indices, got = top_k_sharded(
                        spec, 7, executor=executor, chunk_rows=4,
                        checkpoint_dir=checkpoint,
                    )
                else:
                    result = run_study(
                        spec, cache=None, executor=executor, chunk_rows=4,
                        checkpoint=checkpoint,
                    )
        finally:
            if joiner is not None:
                joiner.join(timeout=60)
                assert not joiner.is_alive()
        if reducer == "top-k":
            assert batch_results_equal(full.top_k(7), got)
            np.testing.assert_array_equal(indices, full.top_k_indices(7))
        else:
            assert one_pass.equals(result)
            assert result.to_json() == one_pass.to_json()


# ---------------------------------------------------------------------------
# Checkpoints and resume
# ---------------------------------------------------------------------------
def _read_framed(data: bytes) -> ShardResult:
    return decode_frame(SHARD_RECORD_TABLE.title, data, shard_record_from_dict)


def _framed(shard: ShardResult) -> bytes:
    return b"".join(
        encode_frame(lambda payload: shard_record_to_dict(shard, payload))
    )


def _edit_header(data: bytes, edit) -> bytes:
    """A framed record with ``edit`` applied to its header line."""
    line, payload = data.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode() + b"\n" + payload


def _short_extras(data: bytes) -> bytes:
    """A record whose accounting column is one row short of its batch."""
    shard = _read_framed(data)
    shard.extras["total_mass_g"] = shard.extras["total_mass_g"][:-1]
    return _framed(shard)


class TestCheckpoints:
    def test_checkpoint_writes_manifest_and_shards(self, tmp_path):
        spec = _knob_spec()
        run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        parsed = shard_manifest_from_dict(manifest)
        assert parsed.total_rows == study_size(spec)
        assert parsed.chunk_rows == 5
        shard_files = sorted(tmp_path.glob("shard-*.jsonl"))
        assert len(shard_files) == parsed.n_shards
        header = json.loads(shard_files[0].read_bytes().split(b"\n", 1)[0])
        assert header["start"] == 0 and header["stop"] == 5

    def test_resume_reuses_completed_shards(self, tmp_path, monkeypatch):
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        shard_files = sorted(tmp_path.glob("shard-*.jsonl"))
        shard_files[1].unlink()  # simulate an interrupted run

        calls = []
        import repro.batch.executor as executor_module

        original = executor_module._evaluate_shard
        monkeypatch.setattr(
            executor_module,
            "_evaluate_shard",
            lambda *args: calls.append(args) or original(*args),
        )
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=tmp_path, resume=True
        )
        assert len(calls) == 1  # only the missing shard re-ran
        assert first.equals(resumed)

    def test_resume_adopts_the_manifest_chunking(self, tmp_path):
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=7, checkpoint=tmp_path)
        resumed = run_study(spec, cache=None, checkpoint=tmp_path, resume=True)
        assert first.equals(resumed)

    def test_resume_without_a_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no checkpoint manifest"):
            run_study(
                _knob_spec(),
                cache=None,
                checkpoint=tmp_path / "missing",
                resume=True,
            )

    def test_resume_without_a_directory_is_an_error(self):
        with pytest.raises(ConfigurationError, match="checkpoint directory"):
            run_study(_knob_spec(), cache=None, resume=True)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: b"{ definitely not json\n",
            lambda data: b"\xff\xfe not utf-8\n",
            lambda data: _edit_header(
                data, lambda header: header["batch"].update(tolerance="loose")
            ),
            _short_extras,
        ],
        ids=["text-garbage", "invalid-utf8", "str-tolerance", "short-extras"],
    )
    def test_corrupt_shard_is_recomputed_not_trusted(self, tmp_path, damage):
        """A record that fails to parse or validate reads as absent: the
        resume recomputes it instead of aborting or trusting it."""
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        shard = sorted(tmp_path.glob("shard-*.jsonl"))[2]
        original = shard.read_bytes()
        shard.write_bytes(damage(original))
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=tmp_path, resume=True
        )
        assert first.equals(resumed)
        assert shard.read_bytes() == original  # rewritten

    def test_misfiled_shard_record_is_recomputed_not_trusted(self, tmp_path):
        """A record whose range disagrees with its index (hand-edited,
        misfiled) must be recomputed — trusting it would silently
        misplace rows in the merge."""
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        shards = sorted(tmp_path.glob("shard-*.jsonl"))
        shards[2].write_bytes(
            _edit_header(shards[2].read_bytes(), lambda header: header.update(index=1))
        )
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=tmp_path, resume=True
        )
        assert first.equals(resumed)

    def test_traced_resume_records_one_checkpoint_read_span(
        self, tmp_path, monkeypatch
    ):
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        size = sum(path.stat().st_size for path in tmp_path.glob("shard-*.jsonl"))
        tracer = Tracer()
        resumed = run_study(
            spec, cache=None, checkpoint=tmp_path, resume=True, tracer=tracer
        )
        assert resumed.equals(first)
        reads = [span for span in tracer.spans if span.name == "checkpoint.read"]
        assert [span.attributes for span in reads] == [{"shards": 4, "bytes": size}]
        recorded = []
        monkeypatch.setattr(
            Tracer, "record_clock", lambda *args, **kwargs: recorded.append(args)
        )
        run_study(spec, cache=None, checkpoint=tmp_path, resume=True)
        assert recorded == []  # an untraced resume records nothing

    def test_traced_load_shard_records_the_record_it_reads(self, tmp_path):
        run_study(_knob_spec(), cache=None, chunk_rows=5, checkpoint=tmp_path)
        tracer = Tracer()
        store = CheckpointStore.open(
            tmp_path, CheckpointStore.peek_manifest(tmp_path), tracer=tracer
        )
        assert store.load_shard(1) is not None
        store.shard_path(2).unlink()
        assert store.load_shard(2) is None  # nothing on disk: nothing read
        (span,) = [span for span in tracer.spans if span.name == "checkpoint.read"]
        size = store.shard_path(1).stat().st_size
        assert span.attributes == {"shards": 1, "bytes": size}

    def test_corrupt_manifest_is_a_clean_error(self, tmp_path):
        spec = _knob_spec()
        run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        for damage in (b"{ nope", b"\xff\xfe{}"):  # bad JSON, bad UTF-8
            (tmp_path / "manifest.json").write_bytes(damage)
            with pytest.raises(
                ConfigurationError, match="manifest .* unreadable"
            ):
                run_study(
                    spec, cache=None, chunk_rows=5,
                    checkpoint=tmp_path, resume=True,
                )

    def test_mismatched_manifest_is_rejected(self, tmp_path):
        run_study(_knob_spec(), cache=None, chunk_rows=5, checkpoint=tmp_path)
        other = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_tdp_w": (2.0, 20.0)}
            )
        )
        with pytest.raises(ConfigurationError, match="different run"):
            run_study(
                other, cache=None, chunk_rows=5,
                checkpoint=tmp_path, resume=True,
            )
        with pytest.raises(ConfigurationError, match="different run"):
            run_study(
                _knob_spec(), cache=None, chunk_rows=6,
                checkpoint=tmp_path, resume=True,
            )

    def test_second_writer_of_a_record_inside_the_first_rename(
        self, tmp_path, monkeypatch
    ):
        # A stolen shard that finishes twice writes one record twice.
        # With one shared temporary name, the second writer renamed the
        # first writer's temporary away and the first rename raised.
        run_study(_knob_spec(), cache=None, chunk_rows=5, checkpoint=tmp_path)
        store = CheckpointStore.open(
            tmp_path, CheckpointStore.peek_manifest(tmp_path)
        )
        result = store.load_shard(1)
        record = store.shard_path(1).read_bytes()
        before = sorted(path.name for path in tmp_path.iterdir())
        real_replace, writes = os.replace, []

        def replace(src, dst):
            if not writes:  # the first rename: the second writer first
                writes.append(dst)
                store.write(result)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        store.write(result)
        monkeypatch.undo()
        assert writes == [store.shard_path(1)]
        assert store.shard_path(1).read_bytes() == record
        assert sorted(path.name for path in tmp_path.iterdir()) == before

    def test_checkpointed_top_k_resumes(self, tmp_path):
        spec = _line_spec(40)
        expected = run_study(spec, cache=None).batch.top_k(5)
        top_k_sharded(spec, 5, chunk_rows=10, checkpoint_dir=tmp_path)
        indices, merged = top_k_sharded(
            spec, 5, chunk_rows=10, checkpoint_dir=tmp_path, resume=True
        )
        assert batch_results_equal(expected, merged)

    def test_top_k_record_in_a_full_run_is_recomputed(self, tmp_path):
        """A record shaped for another reduction reads as absent: a
        top-k record merged as a full shard would drop rows."""
        spec = _knob_spec()
        top_k_sharded(spec, 2, chunk_rows=5, checkpoint_dir=tmp_path / "k2")
        full = tmp_path / "full"
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=full)
        (full / "shard-000001.jsonl").write_bytes(
            (tmp_path / "k2" / "shard-000001.jsonl").read_bytes()
        )
        store = CheckpointStore.open(full, CheckpointStore.peek_manifest(full))
        assert store.load_shard(1) is None
        assert sorted(store.load_completed()) == [0, 2, 3]
        assert [entry.split(":")[0] for entry in store.skipped] == [
            "shard-000001.jsonl", "shard-000001.jsonl",
        ]
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=full, resume=True
        )
        assert len(resumed) == 18
        assert first.equals(resumed)

    def test_top_k_records_of_another_k_are_recomputed(self, tmp_path):
        spec = _knob_spec()
        expected = run_study(spec, cache=None).batch.top_k(5)
        top_k_sharded(spec, 1, chunk_rows=9, checkpoint_dir=tmp_path / "k1")
        k5 = tmp_path / "k5"
        top_k_sharded(spec, 5, chunk_rows=9, checkpoint_dir=k5)
        for name in ("shard-000000.jsonl", "shard-000001.jsonl"):
            (k5 / name).write_bytes((tmp_path / "k1" / name).read_bytes())
        indices, merged = top_k_sharded(
            spec, 5, chunk_rows=9, checkpoint_dir=k5, resume=True
        )
        assert len(merged) == 5
        assert batch_results_equal(expected, merged)

    def test_manifest_wire_format_validation(self):
        for version in (99, 1):  # a future and a retired generation
            with pytest.raises(ConfigurationError, match="'version'"):
                shard_manifest_from_dict({"version": version})
        with pytest.raises(ConfigurationError, match="'kind'"):
            shard_manifest_from_dict(
                {
                    "version": MANIFEST_VERSION, "kind": "nonsense",
                    "digest": "x",
                    "total_rows": 1, "chunk_rows": 1, "n_shards": 1,
                    "knee_fraction": None, "tolerance": 0.05,
                    "reduce": None,
                }
            )
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            shard_manifest_from_dict([1, 2])


# ---------------------------------------------------------------------------
# Cache hygiene (the DEFAULT_CACHE satellite bugfix)
# ---------------------------------------------------------------------------
class TestCacheHygiene:
    def test_no_default_path_touches_the_default_cache(self):
        """Only a caller passing ``cache=`` memoizes: studies, matrix
        evaluations, sweeps, the DSE explorer and process-pool shards
        all leave DEFAULT_CACHE's counters and entries at zero."""
        clear_default_cache()
        spec = _knob_spec()
        run_study(spec)
        evaluate_matrix(_grid(8))
        sweep_knob(Knobs(), "sensor_range_m", [2.0, 4.0, 8.0])
        explore(DesignSpace(("dji-spark",), ("intel-ncs",), ("dronet",)))
        with ParallelExecutor(n_workers=2) as executor:
            run_study(spec, executor=executor, chunk_rows=5)
            top_k_sharded(spec, 3, executor=executor, chunk_rows=10)
        stats = DEFAULT_CACHE.stats_snapshot()
        assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)

    def test_clear_default_cache_is_the_public_reset(self):
        evaluate_matrix(_grid(6))
        clear_default_cache()
        assert len(DEFAULT_CACHE) == 0

    def test_concurrent_specs_never_cross_contaminate(self):
        """Back-to-back sharded runs of different specs each match
        their own single-process reference — no stale cross-spec hits
        from shared worker/module state."""
        spec_a = _knob_spec()
        spec_b = StudySpec(
            design=DesignSpec.knob_axes(
                axes={
                    "compute_tdp_w": (2.0, 20.0, 29.0),
                    "compute_runtime_s": (0.02, 0.2, 0.3),
                    "payload_weight_g": (10.0, 160.0),
                }
            )
        )
        reference_a = run_study(spec_a, cache=None)
        reference_b = run_study(spec_b, cache=None)
        with ParallelExecutor(n_workers=2) as executor:
            for _ in range(2):
                assert reference_a.equals(
                    run_study(spec_a, executor=executor, chunk_rows=5)
                )
                assert reference_b.equals(
                    run_study(spec_b, executor=executor, chunk_rows=5)
                )

    def test_inline_shards_never_pin_chunks_in_the_cache(self):
        """Inline shards must honor the memory contract: chunk results
        never land in the process-wide default cache, and neither does
        the merged result of a sharded spec."""
        spec = _knob_spec()
        single = run_study(spec, cache=None)
        reference = single.batch.top_k(4)
        clear_default_cache()
        with ParallelExecutor(n_workers=1) as executor:
            _, result = top_k_sharded(spec, 4, executor=executor, chunk_rows=10)
            study = run_study(spec, executor=executor, chunk_rows=5)
        assert batch_results_equal(reference, result)
        assert single.equals(study)
        assert len(DEFAULT_CACHE) == 0

    def test_worker_shard_evaluation_uses_a_scoped_key(self):
        """Two shards with identical row *shapes* but different values
        evaluate to different results."""
        clear_default_cache()
        spec = _knob_spec()
        shards = list(iter_chunks(spec, chunk_rows=6))
        first = _evaluate_shard(spec, shards[0])
        second = _evaluate_shard(spec, shards[1])
        assert not batch_results_equal(first["batch"], second["batch"])


# ---------------------------------------------------------------------------
# Executor surface validation
# ---------------------------------------------------------------------------
class TestExecutorValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ParallelExecutor(n_workers=0)

    def test_bad_chunk_rows_names_the_knob(self):
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            run_study(_knob_spec(), cache=None, chunk_rows=0)
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            list(iter_chunks(_knob_spec(), chunk_rows=-1))

    def test_iter_chunks_rejects_unknown_sources(self):
        with pytest.raises(ConfigurationError, match="StudySpec"):
            list(iter_chunks(object(), chunk_rows=4))
        with pytest.raises(ConfigurationError, match="StudySpec"):
            top_k_sharded(object(), 3)

    def test_only_a_study_spec_shards(self, tmp_path):
        matrix = _grid(12)
        for shard in (
            lambda: run_study(matrix, chunk_rows=4, checkpoint=tmp_path),
            lambda: top_k_sharded(matrix, 3, checkpoint_dir=tmp_path),
            lambda: list(iter_chunks(matrix, chunk_rows=4)),
        ):
            with pytest.raises(
                ConfigurationError, match="takes a StudySpec, got DesignMatrix"
            ):
                shard()
        assert list(tmp_path.iterdir()) == []

    def test_top_k_checks_by_before_writing_a_manifest(self, tmp_path):
        # An unknown column is refused before the manifest is stamped,
        # so the corrected call can still use the same directory.
        spec = _knob_spec()
        with pytest.raises(ConfigurationError, match="'bogus'"):
            top_k_sharded(
                spec, 2, by="bogus", chunk_rows=2, checkpoint_dir=tmp_path
            )
        assert list(tmp_path.iterdir()) == []
        indices, _ = top_k_sharded(
            spec, 2, chunk_rows=2, checkpoint_dir=tmp_path
        )
        np.testing.assert_array_equal(
            indices, run_study(spec, cache=None).batch.top_k_indices(2)
        )

    def test_scenario_grid_roundtrip_through_spec_chunks(self):
        spec = _knob_spec()
        chunks = [
            compile_chunk(spec, start, stop)
            for start, stop in shard_ranges(study_size(spec), 4)
        ]
        merged = DesignMatrix.concat([c.matrix for c in chunks])
        assert design_matrices_equal(compile_spec(spec).matrix, merged)
        # Preset and fleet designs, at chunk sizes that split a
        # design's block of M scenario rows.
        for spec in (_preset_scenario_spec(), _fleet_scenario_spec()):
            plan = compile_spec(spec)
            m = math.prod(map(len, spec.scenarios.axes().values()))
            assert m > 2
            for chunk_rows in (1, 3, m - 1, m + 1):
                chunks = [
                    compile_chunk(spec, start, stop)
                    for start, stop in shard_ranges(len(plan), chunk_rows)
                ]
                merged = DesignMatrix.concat([c.matrix for c in chunks])
                for got, want in zip(merged.columns(), plan.matrix.columns()):
                    assert got.tobytes() == want.tobytes()
                assert merged.labels == plan.matrix.labels
                for name in ("total_mass_g", "compute_tdp_w"):
                    got = np.concatenate([getattr(c, name) for c in chunks])
                    assert got.tobytes() == getattr(plan, name).tobytes()


# ---------------------------------------------------------------------------
# CLI: scaling flags, exit codes, resume failure modes
# ---------------------------------------------------------------------------
class TestStudyCLIScaling:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_knob_spec().to_json())
        return str(path)

    def test_workers_flag_runs_sharded(self, capsys, tmp_path):
        code = cli_main(
            [
                "study", "--spec", self._spec_file(tmp_path),
                "--workers", "2", "--chunk-rows", "5", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(StudyResult.from_dict(data)) == 18

    def test_bad_workers_exits_2_naming_the_flag(self, capsys):
        code = cli_main(
            ["study", "--knob", "compute_tdp_w", "--values", "1", "5",
             "--workers", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "0" in err

    def test_bad_chunk_rows_exits_2_naming_the_flag(self, capsys):
        code = cli_main(
            ["study", "--knob", "compute_tdp_w", "--values", "1", "5",
             "--chunk-rows", "-3"]
        )
        assert code == 2
        assert "--chunk-rows" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--backend", "--distributed"])
    def test_deleted_path_flags_are_unknown(self, capsys, flag):
        # The worker count and --work-dir choose how a study runs.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                ["study", "--knob", "compute_tdp_w", "--values", "1", "5",
                 flag]
            )
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert cli_main(
            ["study", "--spec", spec, "--chunk-rows", "5",
             "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["study", "--spec", spec, "--resume", str(ckpt)]
        ) == 0
        assert "18 designs" in capsys.readouterr().out

    def test_resume_missing_dir_is_a_clean_error(self, capsys, tmp_path):
        code = cli_main(
            ["study", "--spec", self._spec_file(tmp_path),
             "--resume", str(tmp_path / "never-written")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_resume_corrupt_dir_is_a_clean_error(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert cli_main(
            ["study", "--spec", spec, "--chunk-rows", "5",
             "--checkpoint", str(ckpt)]
        ) == 0
        (ckpt / "manifest.json").write_text("{ broken")
        capsys.readouterr()
        code = cli_main(["study", "--spec", spec, "--resume", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest" in err
        assert "Traceback" not in err

    def test_checkpoint_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                ["study", "--knob", "compute_tdp_w", "--values", "1",
                 "--checkpoint", str(tmp_path), "--resume", str(tmp_path)]
            )


# ---------------------------------------------------------------------------
# Shard failure context (ShardExecutionError)
# ---------------------------------------------------------------------------
class TestShardFailureContext:
    def _failing_shard(self, index: int = 3) -> Shard:
        # Rows [10, 20) of the 18-row knob study do not exist, so
        # compile_chunk raises inside the worker — a genuine in-shard
        # failure that survives pickling to a process pool.
        return Shard(index=index, start=10, stop=20)

    def test_serial_failure_names_shard_and_row_range(self):
        executor = ParallelExecutor(n_workers=1)
        with pytest.raises(ShardExecutionError) as excinfo:
            list(executor.map_shards(_knob_spec(), [self._failing_shard()]))
        err = excinfo.value
        assert err.shard_index == 3
        assert (err.start, err.stop) == (10, 20)
        assert "shard 3" in str(err)
        assert "[10, 20)" in str(err)
        # The original failure stays attached for debugging.
        assert isinstance(err.__cause__, ConfigurationError)

    def test_process_pool_failure_keeps_shard_context(self):
        # Regression: a worker-process traceback used to surface as a
        # bare ConfigurationError with no hint of which rows died.
        with ParallelExecutor(n_workers=2) as executor:
            with pytest.raises(ShardExecutionError) as excinfo:
                list(
                    executor.map_shards(
                        _knob_spec(), [self._failing_shard(index=7)]
                    )
                )
        err = excinfo.value
        assert err.shard_index == 7
        assert (err.start, err.stop) == (10, 20)
        assert "shard 7" in str(err)

    def test_shard_error_is_picklable_with_fields(self):
        import pickle

        err = ShardExecutionError(
            "shard 2 (rows [4, 8)) failed", shard_index=2, start=4, stop=8
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ShardExecutionError)
        assert clone.shard_index == 2
        assert (clone.start, clone.stop) == (4, 8)
        assert str(clone) == str(err)

    def test_wrapper_does_not_double_wrap(self, monkeypatch):
        import repro.batch.executor as executor_module

        inner = ShardExecutionError("already wrapped", shard_index=1)

        def explode(*args):
            raise inner

        monkeypatch.setattr(
            executor_module, "_evaluate_shard_task", explode
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            executor_module._evaluate_shard(_knob_spec(), Shard(0, 0, 1))
        assert excinfo.value is inner


# ---------------------------------------------------------------------------
# Observability: tracer + progress through the executor stack
# ---------------------------------------------------------------------------
class TestExecutorObservability:
    def test_sharded_study_records_phase_spans(self):
        from repro.obs import Tracer

        spec = _line_spec(40)
        tracer = Tracer()
        result = run_study(spec, cache=None, chunk_rows=11, tracer=tracer)
        names = set(tracer.span_names())
        assert {
            "shard.compile", "shard.evaluate", "shard.task",
            "engine.evaluate", "study.merge",
        } <= names
        # Worker-side rows attributes sum to the grid size.
        rows = sum(
            s.attributes["rows"]
            for s in tracer.spans
            if s.name == "shard.evaluate"
        )
        assert rows == len(result)
        assert tracer.counters_snapshot()["shards.completed"] == 4
        # Tracing never perturbs the numbers.
        assert batch_results_equal(
            result.batch, run_study(spec, cache=None).batch
        )

    def test_spec_sharded_records_compile_span_with_totals(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run_study(_knob_spec(), cache=None, chunk_rows=5, tracer=tracer)
        compile_spans = [
            s for s in tracer.spans if s.name == "study.compile"
        ]
        assert len(compile_spans) == 1
        assert compile_spans[0].attributes["rows"] == 18
        assert compile_spans[0].attributes["shards"] == 4

    def test_worker_spans_land_on_shard_tracks(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run_study(_line_spec(30), cache=None, chunk_rows=10, tracer=tracer)
        worker_tids = {
            s.tid for s in tracer.spans if s.name == "shard.evaluate"
        }
        assert worker_tids == {1, 2, 3}  # shard index + 1
        driver_tids = {
            s.tid for s in tracer.spans if s.name == "shard.task"
        }
        assert driver_tids == {0}

    def test_process_workers_ship_telemetry_home(self):
        from repro.obs import Tracer

        spec = _line_spec(24)
        tracer = Tracer()
        with ParallelExecutor(n_workers=2) as executor:
            result = run_study(
                spec,
                cache=None,
                executor=executor,
                chunk_rows=12,
                tracer=tracer,
            )
        names = set(tracer.span_names())
        assert "shard.evaluate" in names  # absorbed from the workers
        task_spans = [s for s in tracer.spans if s.name == "shard.task"]
        assert len(task_spans) == 2
        for span in task_spans:
            assert span.attributes["compute_s"] >= 0.0
            assert span.attributes["queue_wait_s"] >= 0.0
        counters = tracer.counters_snapshot()
        assert counters["rows.evaluated"] == len(result)
        assert batch_results_equal(
            result.batch, run_study(spec, cache=None).batch
        )

    def test_shard_results_carry_worker_telemetry(self):
        from repro.obs import Tracer

        spec = _line_spec(20)
        shards = list(iter_chunks(spec, chunk_rows=10))
        with ParallelExecutor(n_workers=2) as executor:
            results = list(
                executor.map_shards(spec, shards, tracer=Tracer())
            )
        for result in results:
            assert result.telemetry is not None
            assert result.telemetry["elapsed_s"] >= 0.0
            assert any(
                e["name"] == "shard.evaluate"
                for e in result.telemetry["events"]
            )

    def test_in_process_shards_record_directly(self):
        # Inline shards share the parent's process and epoch: their
        # spans land straight in the tracer (exact times, shard
        # tracks), and the ShardResult ships no wire payload at all.
        from repro.obs import Tracer

        executor = ParallelExecutor(n_workers=1)
        spec = _line_spec(20)
        shards = list(iter_chunks(spec, chunk_rows=10))
        tracer = Tracer()
        results = list(executor.map_shards(spec, shards, tracer=tracer))
        for result in results:
            assert result.telemetry is None
        evaluate_tids = {
            s.tid for s in tracer.spans if s.name == "shard.evaluate"
        }
        assert evaluate_tids == {1, 2}
        task_spans = [s for s in tracer.spans if s.name == "shard.task"]
        assert len(task_spans) == 2
        for span in task_spans:
            assert span.attributes["compute_s"] >= 0.0
            assert span.attributes["queue_wait_s"] >= 0.0
        assert tracer.counters_snapshot()["rows.evaluated"] == 20
        # Untraced runs carry none either.
        for result in executor.map_shards(spec, shards):
            assert result.telemetry is None

    def test_progress_fires_per_shard_with_row_totals(self):
        from repro.obs import Progress

        snapshots = []
        spec = _line_spec(35)
        run_study(
            spec, cache=None, chunk_rows=10, progress=snapshots.append
        )
        assert [p.done for p in snapshots] == [1, 2, 3, 4]
        assert all(isinstance(p, Progress) for p in snapshots)
        assert all(p.total == 4 for p in snapshots)
        assert all(p.rows_total == 35 for p in snapshots)
        assert snapshots[-1].rows_done == 35
        assert snapshots[-1].fraction == 1.0

    def test_progress_counts_checkpoint_restored_shards(self, tmp_path):
        snapshots = []
        spec = _line_spec(30)
        run_study(spec, cache=None, chunk_rows=10, checkpoint=tmp_path)
        run_study(
            spec,
            cache=None,
            chunk_rows=10,
            checkpoint=tmp_path,
            progress=snapshots.append,
        )
        # Every shard resumes from the checkpoint, yet progress still
        # walks to completion.
        assert [p.done for p in snapshots] == [1, 2, 3]
        assert snapshots[-1].rows_done == 30

    def test_resumed_shards_counted_in_tracer(self, tmp_path):
        from repro.obs import Tracer

        spec = _line_spec(30)
        run_study(spec, cache=None, chunk_rows=10, checkpoint=tmp_path)
        tracer = Tracer()
        run_study(
            spec,
            cache=None,
            chunk_rows=10,
            checkpoint=tmp_path,
            tracer=tracer,
        )
        assert tracer.counters_snapshot()["shards.resumed"] == 3

    def test_checkpoint_writes_traced(self, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        run_study(
            _line_spec(30),
            cache=None,
            chunk_rows=10,
            checkpoint=tmp_path,
            tracer=tracer,
        )
        assert tracer.counters_snapshot()["checkpoint.writes"] == 3
        assert "checkpoint.write" in tracer.span_names()

    def test_top_k_sharded_traced(self):
        from repro.obs import Tracer

        spec = _line_spec(40)
        tracer = Tracer()
        indices, batch = top_k_sharded(
            spec, k=5, chunk_rows=10, tracer=tracer
        )
        names = set(tracer.span_names())
        assert "shard.reduce" in names
        assert "study.merge" in names
        reference_indices, reference = top_k_sharded(
            spec, k=5, chunk_rows=10
        )
        np.testing.assert_array_equal(indices, reference_indices)
        assert batch_results_equal(batch, reference)


# ---------------------------------------------------------------------------
# CLI observability flags
# ---------------------------------------------------------------------------
class TestStudyCLIObservability:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_knob_spec().to_json())
        return str(path)

    def test_traced_sharded_study_emits_chrome_trace(
        self, capsys, tmp_path
    ):
        # The acceptance path: a sharded study with --trace writes a
        # valid Chrome trace whose spans cover every phase and whose
        # per-shard row counts sum to the grid size.
        trace = tmp_path / "trace.json"
        code = cli_main(
            [
                "study", "--spec", self._spec_file(tmp_path),
                "--workers", "2", "--chunk-rows", "5",
                "--trace", str(trace), "--json",
            ]
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {
            "study.compile", "shard.evaluate", "study.merge",
            "study.select",
        } <= names
        rows = sum(
            e["args"]["rows"]
            for e in events
            if e["ph"] == "X" and e["name"] == "shard.evaluate"
        )
        assert rows == 18  # the full 3 x 3 x 2 grid, exactly once
        # stdout stays pure JSON, telemetry included.
        data = json.loads(capsys.readouterr().out)
        assert data["telemetry"]["counters"]["shards.completed"] == 4

    def test_metrics_and_progress_go_to_stderr(self, capsys, tmp_path):
        code = cli_main(
            [
                "study", "--spec", self._spec_file(tmp_path),
                "--chunk-rows", "5", "--metrics", "--progress", "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout still parses
        assert "shards 4/4" in captured.err  # progress reached the end
        assert "shard.evaluate" in captured.err  # metrics table
        assert "rows.evaluated" in captured.err

    def test_untraced_study_carries_no_telemetry(self, capsys, tmp_path):
        code = cli_main(
            ["study", "--spec", self._spec_file(tmp_path), "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "telemetry" not in data
