"""Tests for the repro.batch subsystem: matrix, kernels, engine,
result, cache, scenario grids — and scalar/batch equivalence."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchCache,
    DesignMatrix,
    evaluate_matrix,
    merge_top_k,
    scenario_grid,
)
from repro.batch.grid import grid_shape
from repro.batch.matrix import LabelColumn
from repro.batch.result import stable_top_k
from repro.core.bounds import BoundKind
from repro.core.model import F1Model
from repro.dse.explorer import evaluate as scalar_evaluate
from repro.dse.explorer import explore
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError

EQ_TOL = 1e-9

positive_param = st.floats(
    min_value=0.05, max_value=1e4, allow_nan=False, allow_infinity=False
)
stage_rate = st.floats(
    min_value=0.1, max_value=2e4, allow_nan=False, allow_infinity=False
)


def assert_row_matches_scalar(result, index: int, model: F1Model) -> None:
    assert result.roof_velocity[index] == pytest.approx(
        model.roof_velocity, abs=EQ_TOL
    )
    assert result.knee_hz[index] == pytest.approx(
        model.knee.throughput_hz, abs=EQ_TOL
    )
    assert result.knee_velocity[index] == pytest.approx(
        model.knee.velocity, abs=EQ_TOL
    )
    assert result.action_throughput_hz[index] == pytest.approx(
        model.action_throughput_hz, abs=EQ_TOL
    )
    assert result.safe_velocity[index] == pytest.approx(
        model.safe_velocity, abs=EQ_TOL
    )
    assert result.bound_at(index) is model.bound
    assert result.status_at(index) is model.optimality().status


class TestScalarBatchEquivalence:
    @given(
        designs=st.lists(
            st.tuples(
                positive_param, positive_param, stage_rate, stage_rate,
                stage_rate,
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_designs_match_scalar_model(self, designs):
        models = [
            F1Model.from_components(d, a, f_s, f_c, f_ctl)
            for d, a, f_s, f_c, f_ctl in designs
        ]
        result = evaluate_matrix(
            DesignMatrix.from_models(models), cache=None
        )
        for index, model in enumerate(models):
            assert_row_matches_scalar(result, index, model)

    @pytest.mark.parametrize(
        "f_sensor, f_compute, f_control",
        [
            (60.0, 60.0, 1000.0),   # sensor/compute tie -> sensor
            (60.0, 60.0, 60.0),     # three-way tie -> sensor
            (90.0, 60.0, 60.0),     # compute/control tie -> compute
            (60.0, 90.0, 60.0),     # sensor/control tie -> sensor
        ],
    )
    def test_bound_classification_at_stage_rate_ties(
        self, f_sensor, f_compute, f_control
    ):
        model = F1Model.from_components(
            10.0, 50.0, f_sensor, f_compute, f_control
        )
        result = evaluate_matrix(
            DesignMatrix.from_models([model]), cache=None
        )
        assert result.bound_at(0) is model.bound
        assert result.bound_at(0) is not BoundKind.PHYSICS

    def test_knee_fraction_and_tolerance_forwarded(self):
        from repro.core.knee import FractionOfRoofKnee

        model = F1Model.from_components(
            10.0, 50.0, 60.0, 95.0, knee_strategy=FractionOfRoofKnee(0.9)
        )
        result = evaluate_matrix(
            DesignMatrix.from_models([model]),
            knee_fraction=0.9,
            tolerance=0.3,
            cache=None,
        )
        assert_row_matches_scalar(result, 0, model)
        assert result.status_at(0) is model.optimality(tolerance=0.3).status

    def test_model_knee_fraction_carried_by_matrix(self):
        from repro.core.knee import FractionOfRoofKnee

        model = F1Model.from_components(
            10.0, 50.0, 60.0, 30.0, knee_strategy=FractionOfRoofKnee(0.5)
        )
        matrix = DesignMatrix.from_models([model])
        assert matrix.knee_fraction == 0.5
        result = evaluate_matrix(matrix, cache=None)  # fraction not re-passed
        assert_row_matches_scalar(result, 0, model)
        # An explicit argument still wins over the recorded fraction.
        overridden = evaluate_matrix(matrix, knee_fraction=0.9, cache=None)
        assert overridden.knee_fraction == 0.9

    def test_mixed_knee_fractions_rejected(self):
        from repro.core.knee import FractionOfRoofKnee

        models = [
            F1Model.from_components(
                10.0, 50.0, 60.0, 90.0,
                knee_strategy=FractionOfRoofKnee(fraction),
            )
            for fraction in (0.5, 0.9)
        ]
        with pytest.raises(ConfigurationError, match="mix knee fractions"):
            DesignMatrix.from_models(models)

    def test_100k_grid_under_one_second_and_matches_scalar_sample(self):
        import time

        grid = scenario_grid(
            sensing_range_m=np.linspace(2.0, 20.0, 50),
            a_max=np.linspace(5.0, 50.0, 40),
            f_sensor_hz=(30.0, 60.0),
            f_compute_hz=np.geomspace(1.0, 1000.0, 25),
        )
        assert len(grid) == 100_000
        start = time.perf_counter()
        result = evaluate_matrix(grid, cache=None)
        assert time.perf_counter() - start < 1.0
        rng = np.random.default_rng(7)
        for index in rng.choice(len(grid), size=1000, replace=False):
            assert_row_matches_scalar(
                result, int(index), grid.model_at(int(index))
            )


class TestDesignMatrix:
    def test_scalars_broadcast_against_columns(self):
        matrix = DesignMatrix.from_arrays(
            sensing_range_m=10.0,
            a_max=(10.0, 20.0, 30.0),
            f_sensor_hz=60.0,
            f_compute_hz=(10.0, 100.0, 1000.0),
        )
        assert len(matrix) == 3
        assert matrix.sensing_range_m.tolist() == [10.0, 10.0, 10.0]
        assert matrix.f_control_hz.tolist() == [1000.0] * 3

    def test_incompatible_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignMatrix.from_arrays(10.0, (1.0, 2.0), 60.0, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_and_nonfinite_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            DesignMatrix.from_arrays(10.0, (50.0, bad), 60.0, 100.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignMatrix.from_models([])

    def test_unsupported_knee_strategy_rejected(self):
        from repro.core.knee import MaxCurvatureKnee

        model = F1Model.from_components(
            10.0, 50.0, 60.0, 90.0, knee_strategy=MaxCurvatureKnee()
        )
        with pytest.raises(ConfigurationError, match="FractionOfRoofKnee"):
            DesignMatrix.from_models([model])

    def test_label_count_must_match(self):
        with pytest.raises(ConfigurationError):
            DesignMatrix.from_arrays(
                10.0, (1.0, 2.0), 60.0, 100.0, labels=("only-one",)
            )

    def test_columns_are_frozen(self):
        matrix = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        with pytest.raises(ValueError):
            matrix.a_max[0] = 1.0

    def test_caller_array_not_frozen(self):
        mine = np.array([10.0, 20.0])
        DesignMatrix.from_arrays(mine, 50.0, 60.0, 100.0)
        mine[0] = 11.0  # still writable

    def test_content_hash_tracks_content(self):
        a = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        b = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        c = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 101.0)
        d = DesignMatrix.from_arrays(
            10.0, 50.0, 60.0, 100.0, labels=("x",)
        )
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()
        assert a.content_hash() != d.content_hash()

    def test_model_at_round_trips(self):
        matrix = DesignMatrix.from_arrays(3.0, 9.81, 60.0, 1.1)
        model = matrix.model_at(0)
        assert model.sensing_range_m == 3.0
        assert model.pipeline.f_compute_hz == 1.1

    def test_take_preserves_labels_and_order(self):
        matrix = DesignMatrix.from_arrays(
            10.0, (1.0, 2.0, 3.0), 60.0, 100.0, labels=("a", "b", "c")
        )
        subset = matrix.take([2, 0])
        assert subset.labels == ("c", "a")
        assert subset.a_max.tolist() == [3.0, 1.0]


def _labelled(labels):
    """A matrix with one row per label (row i has sensing range i + 1)."""
    return DesignMatrix.from_arrays(
        np.arange(1.0, len(labels) + 1.0), 50.0, 60.0, 100.0, labels=labels
    )


@st.composite
def label_columns(draw):
    """A label column over drawn parts and range, with its rows built
    the obvious way."""
    part = st.text(alphabet="ab+ =", max_size=3)
    designs = draw(st.lists(part, max_size=5))
    suffixes = draw(st.lists(part, min_size=1, max_size=4))
    size = len(designs) * len(suffixes)
    start = draw(st.integers(0, size))
    stop = draw(st.integers(start, size))
    rows = [d + s for d in designs for s in suffixes][start:stop]
    return LabelColumn(tuple(designs), tuple(suffixes), start, stop), rows


class TestLabelColumn:
    """N design labels x M suffixes read as the tuple of their rows."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=label_columns(), data=st.data())
    def test_property_reads_as_the_tuple_of_its_rows(self, drawn, data):
        column, rows = drawn
        assert list(column) == rows
        assert len(column) == len(rows)
        # Integer indexes: negative ones and NumPy ints included.
        for index in range(-len(rows), len(rows)):
            assert column[index] == rows[index]
            assert column[np.intp(index)] == rows[index]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                column[index]
        # Step-1 slices stay factorized; other steps build the rows.
        start = data.draw(st.integers(-len(rows) - 1, len(rows) + 1))
        stop = data.draw(st.integers(-len(rows) - 1, len(rows) + 1))
        part = column[start:stop]
        assert isinstance(part, LabelColumn)
        assert list(part) == rows[start:stop]
        step = data.draw(st.sampled_from([2, 3, -1, -2]))
        stepped = column[start:stop:step]
        assert type(stepped) is tuple
        assert stepped == tuple(rows[start:stop:step])
        # Equality by value, either operand order, and a hash to match.
        for other in (tuple(rows), list(rows)):
            assert column == other and other == column
            assert not (column != other) and not (other != column)
            longer = other + type(other)(["z"])
            assert column != longer and longer != column
        assert hash(column) == hash(tuple(rows))
        # Process-pool shards return the column pickled.
        thawed = pickle.loads(pickle.dumps(column))
        assert isinstance(thawed, LabelColumn) and thawed == column
        # A matrix builds only the rows it takes.
        matrix = _labelled(column)
        assert matrix.labels is column
        taken = data.draw(
            st.lists(st.integers(-len(rows), len(rows) - 1), max_size=6)
            if rows else st.just([])
        )
        subset = matrix.take(np.asarray(taken, dtype=np.intp))
        assert subset.labels == tuple(rows[i] for i in taken)
        assert type(subset.labels) is tuple

    @settings(max_examples=100, deadline=None)
    @given(drawn=label_columns(), data=st.data())
    def test_property_concat_keeps_adjacent_ranges_factorized(
        self, drawn, data
    ):
        column, rows = drawn
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=3))
        )
        bounds = [0, *cuts, len(rows)]
        parts = [_labelled(column[a:b]) for a, b in zip(bounds, bounds[1:])]
        joined = DesignMatrix.concat(parts).labels
        assert isinstance(joined, LabelColumn)
        assert list(joined) == rows
        # The same range as one part: the column's own factorization.
        assert joined == column and hash(joined) == hash(column)
        # A part held as a tuple, or a gap between ranges, joins the
        # rows into a tuple.
        mixed = [_labelled(tuple(parts[0].labels)), *parts[1:]]
        assert DesignMatrix.concat(mixed).labels == tuple(rows)
        assert type(DesignMatrix.concat(mixed).labels) is tuple
        if len(rows) >= 2:
            gap = DesignMatrix.concat(
                [_labelled(column[:1]), _labelled(column[2:])]
            ).labels
            assert type(gap) is tuple
            assert gap == tuple(rows[:1] + rows[2:])

    def test_parts_must_be_strings_and_range_must_fit(self):
        with pytest.raises(ConfigurationError, match="strings"):
            _labelled(LabelColumn(("a", 5), ("",), 0, 2))
        with pytest.raises(ConfigurationError, match="out of range"):
            LabelColumn(("a", "b"), ("x", "y"), 1, 5)
        with pytest.raises(ConfigurationError, match="suffix"):
            LabelColumn(("a",), (), 0, 0)
        with pytest.raises(ConfigurationError, match="3 labels for 2 rows"):
            DesignMatrix.from_arrays(
                (1.0, 2.0), 5.0, 60.0, 100.0,
                labels=LabelColumn(("a", "b", "c"), ("",), 0, 3),
            )

    def test_nbytes_and_content_hash_read_the_parts(self):
        designs = tuple(f"design-{i}" for i in range(300))
        suffixes = tuple(f" [scenario={i}]" for i in range(50))
        column = LabelColumn(designs, suffixes, 0, 10_000)
        matrix = _labelled(column)
        strings = designs + suffixes
        assert matrix.nbytes == 5 * 8 * 10_000 + sum(map(len, strings)) + (
            len(strings) * DesignMatrix._STR_OVERHEAD_BYTES
        )
        # Equal factorizations digest alike; a shifted range does not.
        assert matrix.content_hash() == _labelled(
            LabelColumn(designs, suffixes, 0, 10_000)
        ).content_hash()
        assert matrix.content_hash() != _labelled(
            LabelColumn(designs, suffixes, 1, 10_001)
        ).content_hash()


class TestScenarioGrid:
    def test_shape_is_cartesian_product(self):
        shape = grid_shape((5.0, 10.0), (10.0, 20.0, 30.0), 60.0, (1.0, 2.0))
        assert shape == (2, 3, 1, 2, 1)
        grid = scenario_grid(
            (5.0, 10.0), (10.0, 20.0, 30.0), 60.0, (1.0, 2.0)
        )
        assert len(grid) == 12

    def test_last_axis_varies_fastest(self):
        grid = scenario_grid(
            (5.0, 10.0), 20.0, 60.0, (1.0, 2.0)
        )
        assert grid.f_compute_hz.tolist() == [1.0, 2.0, 1.0, 2.0]
        assert grid.sensing_range_m.tolist() == [5.0, 5.0, 10.0, 10.0]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_grid((), 20.0, 60.0, 100.0)


class TestBatchResult:
    @pytest.fixture()
    def result(self):
        matrix = DesignMatrix.from_arrays(
            sensing_range_m=(10.0, 10.0, 3.0, 5.0),
            a_max=(50.0, 50.0, 9.0, 20.0),
            f_sensor_hz=(120.0, 60.0, 60.0, 30.0),
            f_compute_hz=(178.0, 1.1, 90.0, 240.0),
            labels=("fast", "slow", "mid", "sensor-capped"),
        )
        return evaluate_matrix(matrix, cache=None)

    def test_top_k_matches_full_sort(self, result):
        top = result.top_k(2)
        full = result.sort_by("safe_velocity")
        assert top.matrix.labels == full.matrix.labels[:2]
        assert np.all(np.diff(full.safe_velocity) <= 0)

    def test_top_k_boundary_ties_resolve_in_original_order(self):
        # 40 identical copies of each parameter set: ties straddle any k.
        f_compute = np.tile((5.0, 50.0, 500.0), 40)
        matrix = DesignMatrix.from_arrays(
            10.0, 50.0, 60.0, f_compute,
            labels=[f"row{i}" for i in range(f_compute.size)],
        )
        result = evaluate_matrix(matrix, cache=None)
        for k in (1, 5, 41, 100):
            top = result.top_k(k)
            full = result.sort_by()
            assert top.matrix.labels == full.matrix.labels[:k]

    def test_top_k_clamps_and_validates(self, result):
        assert len(result.top_k(100)) == len(result)
        with pytest.raises(ConfigurationError):
            result.top_k(0)

    def test_where_filters_rows(self, result):
        physics = result.where(result.bound_codes == 0)
        assert len(physics) == 1
        assert all(b is BoundKind.PHYSICS for b in physics.bounds())
        empty = result.where(np.zeros(len(result), dtype=bool))
        assert len(empty) == 0
        assert empty.describe() == "0 designs"
        with pytest.raises(ConfigurationError):
            result.where(np.ones(len(result)))  # not boolean

    def test_unknown_sort_column_rejected(self, result):
        with pytest.raises(ConfigurationError):
            result.sort_by("mass")

    def test_bound_counts_partition(self, result):
        counts = result.bound_counts()
        assert sum(counts.values()) == len(result)

    def test_row_and_rows_materialize(self, result):
        row = result.row(1)
        assert row.label == "slow"
        assert row.bound is BoundKind.COMPUTE
        assert row.provisioning_factor < 1.0
        assert len(result.rows()) == len(result)

    def test_table_renders_and_truncates(self, result):
        text = result.table(limit=2)
        assert "fast" in text
        assert "... 2 more rows" in text
        assert len(result.table().splitlines()) == len(result) + 2

    def test_describe_summarizes(self, result):
        text = result.describe()
        assert f"{len(result)} designs" in text


#: Rank keys that stress the top-k selection: ties, signed zeros,
#: infinities and NaN, mixed with arbitrary doubles.
rank_key = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _with_safe_velocity(values: np.ndarray):
    """A result whose ``safe_velocity`` column is ``values``."""
    matrix = DesignMatrix.from_arrays(10.0, 50.0, 60.0, np.ones(len(values)))
    return replace(evaluate_matrix(matrix), safe_velocity=values)


class TestStableTopK:
    """The one ranking primitive equals the stable full sort, always."""

    @given(
        values=st.lists(rank_key, min_size=1, max_size=40),
        k=st.integers(1, 45),
        descending=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_top_k_equals_the_stable_full_sort(self, values, k, descending):
        result = _with_safe_velocity(np.array(values))
        np.testing.assert_array_equal(
            result.top_k_indices(k, descending=descending),
            result.argsort(descending=descending)[:k],
        )
        keys = -result.safe_velocity if descending else result.safe_velocity
        np.testing.assert_array_equal(
            stable_top_k(keys, k), np.argsort(keys, kind="stable")[:k]
        )

    def test_nan_at_the_boundary_keeps_k_rows(self):
        result = _with_safe_velocity(np.array([3.0, np.nan, np.nan, 1.0]))
        assert result.top_k_indices(3).tolist() == [0, 3, 1]
        assert result.top_k_indices(3, descending=False).tolist() == [3, 0, 1]


class TestMergeTopK:
    """Folding per-part top-k sets equals the whole result's top-k."""

    @given(
        values=st.lists(rank_key, min_size=1, max_size=40),
        k=st.integers(1, 45),
        descending=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_folded_parts_equal_the_whole_top_k(
        self, values, k, descending, data
    ):
        result = _with_safe_velocity(np.array(values))
        cuts = data.draw(
            st.sets(st.integers(1, len(values)), max_size=6), label="cuts"
        )
        bounds = sorted({0, len(values), *cuts})
        # Fold one part at a time, as the sharded top-k reduction does.
        running = None
        for start, stop in zip(bounds, bounds[1:]):
            part = result.take(np.arange(start, stop))
            local = part.top_k_indices(k, descending=descending)
            candidate = (start + local, part.take(local))
            running = merge_top_k(
                [candidate] if running is None else [running, candidate],
                k,
                descending=descending,
            )
        indices, merged = running
        expected = result.top_k_indices(k, descending=descending)
        np.testing.assert_array_equal(indices, expected)
        assert (
            merged.safe_velocity.tobytes()
            == result.safe_velocity[expected].tobytes()
        )


class TestBatchCache:
    def test_repeated_evaluation_hits_cache(self):
        cache = BatchCache(maxsize=4)
        matrix = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        first = evaluate_matrix(matrix, cache=cache)
        again = evaluate_matrix(matrix, cache=cache)
        assert again is first
        rebuilt = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        assert evaluate_matrix(rebuilt, cache=cache) is first
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_kernel_parameters_key_the_cache(self):
        cache = BatchCache(maxsize=4)
        matrix = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        base = evaluate_matrix(matrix, cache=cache)
        other = evaluate_matrix(matrix, knee_fraction=0.9, cache=cache)
        assert other is not base
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = BatchCache(maxsize=2)
        matrices = [
            DesignMatrix.from_arrays(10.0, 50.0, 60.0, rate)
            for rate in (1.0, 2.0, 3.0)
        ]
        results = [evaluate_matrix(m, cache=cache) for m in matrices]
        assert len(cache) == 2
        assert evaluate_matrix(matrices[0], cache=cache) is not results[0]

    def test_stats_and_clear(self):
        cache = BatchCache(maxsize=2)
        assert cache.stats.hit_rate == 0.0
        matrix = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        evaluate_matrix(matrix, cache=cache)
        evaluate_matrix(matrix, cache=cache)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ConfigurationError):
            BatchCache(maxsize=0)
        with pytest.raises(ConfigurationError):
            BatchCache(max_bytes=0)

    def test_concurrent_put_keeps_byte_bound_and_book_keeping(self):
        import threading

        # Pre-build equally sized distinct results, then hammer put()
        # from several threads under a budget that forces constant
        # eviction.  After the dust settles every invariant must hold:
        # both bounds respected and total_bytes equal to the bytes of
        # the entries actually retained.
        results = [
            evaluate_matrix(
                DesignMatrix.from_arrays(
                    10.0, 50.0, 60.0, np.linspace(1.0, 100.0, 64) + shift
                ),
                cache=None,
            )
            for shift in range(24)
        ]
        one = results[0].nbytes
        assert all(r.nbytes == one for r in results)
        cache = BatchCache(maxsize=16, max_bytes=4 * one)
        barrier = threading.Barrier(6)

        def hammer(thread_id: int) -> None:
            barrier.wait()
            for round_number in range(50):
                for i, result in enumerate(results):
                    cache.put((thread_id, i), result)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats
        assert 1 <= stats.entries <= 4
        assert stats.total_bytes <= stats.max_bytes
        retained = sum(r.nbytes for r in cache._entries.values())
        assert stats.total_bytes == retained

    def test_byte_budget_evicts_and_skips_oversized(self):
        matrix = DesignMatrix.from_arrays(
            10.0, 50.0, 60.0, np.linspace(1.0, 100.0, 100)
        )
        result = evaluate_matrix(matrix, cache=None)
        # Budget fits exactly one result: a second entry evicts the first.
        cache = BatchCache(maxsize=8, max_bytes=result.nbytes)
        evaluate_matrix(matrix, cache=cache)
        other = DesignMatrix.from_arrays(
            10.0, 50.0, 60.0, np.linspace(1.0, 100.0, 100) + 1.0
        )
        evaluate_matrix(other, cache=cache)
        assert len(cache) == 1
        assert cache.stats.total_bytes <= cache.stats.max_bytes
        # A result bigger than the whole budget is never stored.
        tiny = BatchCache(maxsize=8, max_bytes=1)
        evaluate_matrix(matrix, cache=tiny)
        assert len(tiny) == 0


class TestBatchResultOwnership:
    def test_caller_arrays_not_frozen_by_result(self):
        from repro.batch.result import BatchResult

        matrix = DesignMatrix.from_arrays(10.0, 50.0, 60.0, 100.0)
        template = evaluate_matrix(matrix, cache=None)
        mine = np.array([1.0])
        BatchResult(
            matrix=matrix,
            roof_velocity=mine,
            knee_hz=template.knee_hz,
            knee_velocity=template.knee_velocity,
            action_throughput_hz=template.action_throughput_hz,
            safe_velocity=template.safe_velocity,
            bound_codes=template.bound_codes,
            status_codes=template.status_codes,
            knee_fraction=template.knee_fraction,
            tolerance=template.tolerance,
        )
        mine[0] = 2.0  # still writable


class TestConsumerEquivalence:
    def test_explore_matches_scalar_evaluate(self):
        space = DesignSpace(
            uav_names=("dji-spark", "asctec-pelican"),
            compute_names=("intel-ncs", "jetson-tx2"),
            algorithm_names=("dronet", "trailnet"),
        )
        batch_results = {r.label: r for r in explore(space)}
        for candidate in space.candidates():
            scalar = scalar_evaluate(candidate)
            batched = batch_results[scalar.label]
            assert batched.safe_velocity == pytest.approx(
                scalar.safe_velocity, abs=EQ_TOL
            )
            assert batched.knee_hz == pytest.approx(
                scalar.knee_hz, abs=EQ_TOL
            )
            assert batched.bound is scalar.bound

    def test_sweep_accepts_numpy_values(self):
        from repro.skyline.knobs import Knobs
        from repro.skyline.sweep import sweep_knob

        result = sweep_knob(
            Knobs(), "sensor_range_m", np.linspace(5.0, 20.0, 4)
        )
        assert len(result.points) == 4
        velocities = [p.safe_velocity for p in result.points]
        assert velocities == sorted(velocities)  # range helps v_safe
        with pytest.raises(ConfigurationError):
            sweep_knob(Knobs(), "sensor_range_m", np.array([]))


class TestCacheStatsAttribution:
    def _result(self, rate: float = 100.0):
        return evaluate_matrix(
            DesignMatrix.from_arrays(10.0, 50.0, 60.0, rate), cache=None
        )

    def test_hit_rate_zero_traffic_is_zero_not_nan(self):
        from repro.batch import CacheStats

        stats = BatchCache().stats
        assert stats.hits == stats.misses == 0
        assert stats.hit_rate == 0.0
        # Same for a zero-traffic delta window.
        window = stats.delta(stats)
        assert isinstance(window, CacheStats)
        assert window.hit_rate == 0.0

    def test_snapshot_delta_isolates_a_window(self):
        cache = BatchCache()
        cache.put("a", self._result())
        cache.get("a")
        cache.get("missing")
        before = cache.stats_snapshot()
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        window = cache.stats_snapshot().delta(before)
        assert window.hits == 2
        assert window.misses == 1
        assert window.hit_rate == pytest.approx(2 / 3)
        # State fields keep the *latest* snapshot's values.
        assert window.entries == 1
        assert window.total_bytes == cache.stats.total_bytes

    def test_reset_stats_keeps_entries(self):
        cache = BatchCache()
        cache.put("a", self._result())
        cache.get("a")
        cache.get("missing")
        cache.reset_stats()
        stats = cache.stats
        assert stats.hits == 0 and stats.misses == 0
        assert len(cache) == 1
        assert cache.get("a") is not None  # entry survived the reset

    def test_concurrent_get_put_counters_consistent(self):
        import threading

        cache = BatchCache(maxsize=64)
        result = self._result()
        n_threads, rounds = 6, 200
        barrier = threading.Barrier(n_threads)

        def traffic(thread_id: int) -> None:
            barrier.wait()
            key = ("k", thread_id)
            for _ in range(rounds):
                cache.get(key)    # miss first time, hits after the put
                cache.put(key, result)
                cache.get(key)

        threads = [
            threading.Thread(target=traffic, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats_snapshot()
        # Every get() incremented exactly one counter: no tears, no
        # double counts, under the instance lock.
        assert stats.hits + stats.misses == n_threads * rounds * 2
        assert stats.misses == n_threads  # only each key's first get
