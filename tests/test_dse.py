"""Tests for design-space exploration: space, explorer, Pareto,
selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.explorer import evaluate, explore, results_table
from repro.dse.pareto import MAX_VELOCITY, MIN_MASS, MIN_TDP, pareto_front
from repro.dse.selector import SelectionCriteria, select_best
from repro.dse.space import Candidate, DesignSpace
from repro.errors import ConfigurationError, InfeasibleDesignError


@pytest.fixture(scope="module")
def small_space() -> DesignSpace:
    return DesignSpace(
        uav_names=("dji-spark", "asctec-pelican"),
        compute_names=("intel-ncs", "jetson-tx2", "raspi4"),
        algorithm_names=("dronet", "trailnet"),
    )


@pytest.fixture(scope="module")
def results(small_space):
    return explore(small_space)


class TestDesignSpace:
    def test_size(self, small_space):
        assert len(small_space) == 2 * 3 * 2

    def test_candidates_complete_and_unique(self, small_space):
        keys = [c.key for c in small_space.candidates()]
        assert len(keys) == len(small_space)
        assert len(set(keys)) == len(keys)

    def test_candidate_composition(self, small_space):
        candidate = next(iter(small_space.candidates()))
        assert candidate.uav.compute.name == candidate.compute_name
        assert candidate.f_compute_hz > 0

    def test_a_range_is_that_cut_of_the_whole_enumeration(
        self, small_space
    ):
        everything = list(small_space.candidates())
        n = len(everything)
        for start in range(n):
            for stop in range(start + 1, n + 2):
                assert (
                    list(small_space.candidates(start, stop))
                    == everything[start:stop]
                ), (start, stop)
        assert list(small_space.candidates(5)) == everything[5:]

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignSpace((), ("jetson-tx2",), ("dronet",))

    def test_throughput_computed_once_per_compute_algorithm_pair(
        self, small_space, monkeypatch
    ):
        import repro.dse.space as space_module
        from repro.autonomy.workloads import get_algorithm
        from repro.compute.platforms import get_platform

        calls = []

        class CountingAlgorithm:
            def __init__(self, name):
                self.name = name
                self.algorithm = get_algorithm(name)

            def throughput_on(self, platform):
                calls.append((platform.name, self.name))
                return self.algorithm.throughput_on(platform)

        monkeypatch.setattr(space_module, "get_algorithm", CountingAlgorithm)
        candidates = list(small_space.candidates())
        pairs = [
            (c, a)
            for c in small_space.compute_names
            for a in small_space.algorithm_names
        ]
        assert sorted(calls) == sorted(pairs)
        assert [c.key for c in candidates] == [
            (u, c, a)
            for u in small_space.uav_names
            for c, a in pairs
        ]
        assert [c.f_compute_hz for c in candidates] == [
            get_algorithm(a).throughput_on(get_platform(c))
            for _ in small_space.uav_names
            for c, a in pairs
        ]


class TestExplorer:
    def test_sorted_by_velocity(self, results):
        velocities = [r.safe_velocity for r in results]
        assert velocities == sorted(velocities, reverse=True)

    def test_evaluate_consistent_with_f1(self, small_space):
        candidate = next(iter(small_space.candidates()))
        result = evaluate(candidate)
        model = candidate.uav.f1(candidate.f_compute_hz)
        assert result.safe_velocity == model.safe_velocity
        assert result.bound == model.bound

    def test_table_renders_all_rows(self, results):
        text = results_table(results)
        assert len(text.splitlines()) == len(results) + 2

    def test_labels_unique(self, results):
        labels = [r.label for r in results]
        assert len(set(labels)) == len(labels)


class TestPareto:
    def test_front_nonempty_subset(self, results):
        front = pareto_front(results, (MAX_VELOCITY, MIN_TDP))
        assert front
        assert set(r.label for r in front) <= set(r.label for r in results)

    def test_no_member_dominated(self, results):
        front = pareto_front(results, (MAX_VELOCITY, MIN_TDP))
        for a in front:
            for b in results:
                dominated = (
                    b.safe_velocity >= a.safe_velocity
                    and b.compute_tdp_w <= a.compute_tdp_w
                    and (
                        b.safe_velocity > a.safe_velocity
                        or b.compute_tdp_w < a.compute_tdp_w
                    )
                )
                assert not dominated, (a.label, b.label)

    def test_single_objective_front_is_argmax(self, results):
        front = pareto_front(results, (MAX_VELOCITY,))
        best = max(results, key=lambda r: r.safe_velocity)
        assert front[0].safe_velocity == best.safe_velocity

    def test_three_objectives(self, results):
        front = pareto_front(results, (MAX_VELOCITY, MIN_TDP, MIN_MASS))
        assert front  # nonempty and well-defined

    def test_requires_objectives(self, results):
        with pytest.raises(ConfigurationError):
            pareto_front(results, ())

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_front_invariant_under_shuffle(self, results, seed):
        import random

        shuffled = list(results)
        random.Random(seed).shuffle(shuffled)
        front_a = {r.label for r in pareto_front(results)}
        front_b = {r.label for r in pareto_front(shuffled)}
        assert front_a == front_b


class TestSelector:
    def test_unconstrained_picks_fastest(self, results):
        best = select_best(results)
        assert best.safe_velocity == max(r.safe_velocity for r in results)

    def test_mass_constraint(self, results):
        criteria = SelectionCriteria(max_total_mass_g=400.0)
        best = select_best(results, criteria)
        assert best.total_mass_g <= 400.0

    def test_tdp_constraint(self, results):
        criteria = SelectionCriteria(max_compute_tdp_w=2.0)
        best = select_best(results, criteria)
        assert best.compute_tdp_w <= 2.0

    def test_infeasible_raises(self, results):
        criteria = SelectionCriteria(min_safe_velocity=1e9)
        with pytest.raises(InfeasibleDesignError):
            select_best(results, criteria)
