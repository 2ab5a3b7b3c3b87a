"""grid-memory and fleet-scenarios: repeated in-memory ``run_study``.

One closed-loop caller issues studies back to back.  Every
``RERUN_EVERY``-th study repeats one of the three most recent distinct
specs, so the process-wide ``DEFAULT_CACHE`` serves hits beside
misses: distinct studies are the primary operation (``op``), repeats
the read side (``read``).

Traced operations make the same public calls split by layer: spec
parse, ``compile_spec`` (planner), the matrix content hash that keys
the cache, and ``run_study`` on the compiled plan, whose
``engine.evaluate`` / ``study.select`` spans give the kernels, cache
and runner (select) layers.
"""

from __future__ import annotations

import dataclasses
import itertools
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from common import SCALAR_TOL, Deadline, Outcome, SpeedProbe, scalar_mismatches
from layers import OpTrace, tracer_spans
from repro.batch.engine import DEFAULT_CACHE
from repro.dse.space import DesignSpace
from repro.obs import Tracer
from repro.study import StudyResult, StudySpec, compile_spec, run_study
from specs import RERUN_EVERY, Sizes, fleet_spec, knob_spec

#: How many recent distinct specs a repeat picks from.
RECENT = 3


def run_op(text: str, trace: Optional[OpTrace]) -> StudyResult:
    """One study from spec text; traced, the same calls split by layer."""
    if trace is None:
        return run_study(StudySpec.from_json(text))
    with trace.call("spec"):
        spec = StudySpec.from_json(text)
    with trace.call("planner"):
        plan = compile_spec(spec)
    with trace.call("cache"):
        plan.matrix.content_hash()
    tracer = Tracer()
    with trace.call():
        result = run_study(plan, tracer=tracer)
    trace.absorb(tracer_spans(tracer))
    return result


class StudyLoop:
    """The closed loop shared by grid-memory and fleet-scenarios."""

    def __init__(
        self,
        make_spec: Callable[[], StudySpec],
        sizes: Sizes,
        check_rng: np.random.Generator,
        outcome: Outcome,
    ) -> None:
        self.make_spec = make_spec
        self.sizes = sizes
        self.check_rng = check_rng
        self.outcome = outcome
        self.probe = SpeedProbe()
        self.recent: List[str] = []
        self.first: Dict[str, StudyResult] = {}
        self.studies = 0
        self._designs: Dict[Any, List[Any]] = {}

    def warm_up(self, count: int = 2) -> None:
        for _ in range(count):
            run_study(self.make_spec())

    def phase(self, seconds: float, traced: bool) -> None:
        deadline = Deadline(seconds)
        while not deadline.passed():
            self.studies += 1
            repeat = self.studies % RERUN_EVERY == 0 and self.recent
            if repeat:
                text = self.recent[int(self.check_rng.integers(len(self.recent)))]
            else:
                text = self.make_spec().to_json()
            self.step(text, "read" if repeat else "op", traced)

    def step(self, text: str, kind: str, traced: bool) -> None:
        outcome = self.outcome
        outcome.attempted += 1
        scale = self.probe.scale()
        trace = OpTrace(rows=0) if traced else None
        started = perf_counter()
        try:
            result = run_op(text, trace)
        except Exception as exc:  # a failed op is counted, not fatal
            outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return
        if trace is None:
            outcome.record(kind, perf_counter() - started, scale, len(result))
        else:
            trace.rows = len(result)
            trace.normalize(scale)
            outcome.trace(kind, trace)
        self.check(text, kind, result)

    # -- output checks (outside the timed calls) -------------------------
    def check(self, text: str, kind: str, result: StudyResult) -> None:
        if kind == "read":
            if not result.equals(self.first[text]):
                self.outcome.fail("read: repeat differs from the first run")
            return
        self.first[text] = result
        self.recent.append(text)
        if len(self.recent) > RECENT:
            self.first.pop(self.recent.pop(0))
        problems = self.check_rows(result) + check_selection(result)
        if problems:
            self.outcome.fail(f"op: {'; '.join(problems)}")

    def check_rows(self, result: StudyResult) -> List[str]:
        """A seeded sample of rows against the scalar F-1 chain."""
        rows = self.check_rng.choice(
            len(result), size=min(self.sizes.check_rows, len(result)),
            replace=False,
        )
        problems = []
        for row in rows.tolist():
            uav, f_compute_hz, scale = self.scalar_design(result.spec, row)
            model = uav.f1(f_compute_hz)
            if scale != 1.0:
                model = model.with_acceleration(model.a_max * scale)
            bad = scalar_mismatches(
                result.batch, row, model, result.spec.tolerance
            )
            if not np.isclose(
                result.total_mass_g[row], uav.total_mass_g,
                rtol=SCALAR_TOL, atol=SCALAR_TOL,
            ):
                bad.append("total_mass_g")
            if result.compute_tdp_w[row] != uav.compute.tdp_w:
                bad.append("compute_tdp_w")
            if bad:
                problems.append(f"row {row} differs in {', '.join(bad)}")
        return problems

    def scalar_design(self, spec: StudySpec, row: int) -> Any:
        """(UAV, compute rate, a_max scale) of one row, built scalar-wise."""
        design = spec.design
        if design.kind == "knobs":
            names = [name for name, _ in design.axes]
            sizes = [len(values) for _, values in design.axes]
            index = np.unravel_index(row, sizes)
            knobs = dataclasses.replace(
                design.base,
                **{
                    name: values[i]
                    for name, (_, values), i in zip(names, design.axes, index)
                },
            )
            return knobs.build_uav(), knobs.f_compute_hz, 1.0
        scenarios = spec.scenarios.axes()
        combos = list(itertools.product(*scenarios.values()))
        candidate = self.candidates(design)[row // len(combos)]
        values = dict(zip(scenarios, combos[row % len(combos)]))
        uav = dataclasses.replace(
            candidate.uav,
            extra_payload_g=(
                candidate.uav.extra_payload_g + values["extra_payload_g"]
            ),
            compute_redundancy=int(values["compute_redundancy"]),
        )
        return uav, candidate.f_compute_hz, values["a_max_scale"]

    def candidates(self, design: Any) -> List[Any]:
        key = (design.uav_names, design.compute_names, design.algorithm_names)
        if key not in self._designs:
            self._designs[key] = list(DesignSpace(*key).candidates())
        return self._designs[key]


def check_selection(result: StudyResult) -> List[str]:
    """The filter and top-k rank kept exactly the rows they should."""
    spec = result.spec
    values = result.batch.safe_velocity
    mask = np.ones(len(values), dtype=bool)
    for clause in spec.filters:
        mask &= values > clause.value
    selected = result.selected_indices
    expected = min(spec.rank.top_k, int(mask.sum()))
    if len(selected) != expected:
        return [f"selected {len(selected)} rows, expected {expected}"]
    if not mask[selected].all():
        return ["a selected row fails the filter"]
    kept = values[selected]
    if np.any(np.diff(kept) > 0):
        return ["selected rows are not ranked by safe_velocity"]
    rest = mask.copy()
    rest[selected] = False
    if rest.any() and kept.size and values[rest].max() > kept[-1]:
        return ["a better row was left out of the top-k"]
    return []


def run(
    workload: str,
    sizes: Sizes,
    rng: np.random.Generator,
    check_rng: np.random.Generator,
    seconds: float,
    trace: bool,
) -> Outcome:
    """Run grid-memory or fleet-scenarios.

    With ``trace`` the run measures untraced for half the time and
    traced for the other half; the untraced half is the base of
    ``trace.overhead_ratio``.
    """

    def make_spec() -> StudySpec:
        if workload == "grid-memory":
            return knob_spec(rng, sizes.grid_shape)
        return fleet_spec(rng, sizes)

    outcome = Outcome()
    loop = StudyLoop(make_spec, sizes, check_rng, outcome)
    loop.warm_up()
    if not trace:
        loop.phase(seconds, traced=False)
        return outcome
    loop.phase(seconds / 2, traced=False)
    before = DEFAULT_CACHE.stats_snapshot()
    loop.phase(seconds / 2, traced=True)
    window = DEFAULT_CACHE.stats_snapshot().delta(before)
    outcome.layer_metrics.update(
        {
            "cache.hits": window.hits,
            "cache.misses": window.misses,
            "cache.hit_ratio": window.hit_rate,
        }
    )
    return outcome
