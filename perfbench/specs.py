"""Seeded inputs for every workload.

Each generator is a pure function of a :class:`numpy.random.Generator`
and a size preset, so one ``--seed`` always produces the same studies,
schedules and requests.  The program under test only ever receives
what these functions return: StudySpec JSON text (library workloads)
or StudySpec / analyze request documents (serve-mixed).

Sizes are fixed per preset and only the values inside the axes vary
with the seed, so every seed does the same amount of work and the
spread between seeds measures the machine, not the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.autonomy.workloads import ALGORITHMS
from repro.compute.platforms import PLATFORMS
from repro.study import (
    DesignSpec,
    FilterClause,
    RankClause,
    ScenarioSpec,
    StudySpec,
)
from repro.uav.registry import UAV_PRESETS

#: Largest payload (g) a knob grid or a preset scenario adds.  Every
#: preset, with two redundant computers, still flies at this payload
#: (the preset and knob feasibility checks pin it), so no seed makes
#: a study fail.
MAX_EXTRA_PAYLOAD_G = 250.0

#: Rows every study keeps after ``rank`` (the interactive "top-k").
TOP_K = 16

#: grid-memory and fleet-scenarios: every this-many-th study repeats a
#: recent spec, so the cache serves hits beside misses.
RERUN_EVERY = 4

#: persist-resume: shards per checkpointed study.
PERSIST_SHARDS = 8

#: serve-mixed: offered load (requests/s) of the open-loop schedule.
SERVE_RATE_HZ = 5.0

#: serve-mixed: (new, re-submit, analyze) requests per shuffled block.
SERVE_BLOCK = (14, 6, 3)


@dataclass(frozen=True)
class Sizes:
    """One size preset: how big each workload's inputs are."""

    grid_shape: Tuple[int, int, int]
    fleet_presets: Tuple[int, int, int]  # uavs, platforms, algorithms
    fleet_scenarios: Tuple[int, int]  # payload deltas, a_max scales
    persist_shape: Tuple[int, int, int]
    serve_shape: Tuple[int, int, int]
    check_rows: int


SIZES: Dict[str, Sizes] = {
    "full": Sizes(
        grid_shape=(63, 63, 63),
        fleet_presets=(7, 9, 6),
        fleet_scenarios=(10, 5),
        persist_shape=(16, 32, 32),
        serve_shape=(20, 20, 20),
        check_rows=8,
    ),
    # Seconds-long inputs for the benchmark's own tests.
    "tiny": Sizes(
        grid_shape=(8, 8, 8),
        fleet_presets=(2, 2, 2),
        fleet_scenarios=(2, 2),
        persist_shape=(8, 8, 8),
        serve_shape=(4, 4, 8),
        check_rows=4,
    ),
}


def knob_spec(rng: np.random.Generator, shape: Tuple[int, int, int]) -> StudySpec:
    """A 3-axis knob grid with a seeded filter and a top-k rank."""
    n_tdp, n_runtime, n_payload = shape
    axes = {
        "compute_tdp_w": np.linspace(
            rng.uniform(1.0, 4.0), rng.uniform(20.0, 40.0), n_tdp
        ),
        "compute_runtime_s": np.geomspace(
            rng.uniform(0.002, 0.006), rng.uniform(0.2, 0.6), n_runtime
        ),
        "payload_weight_g": np.linspace(
            0.0, rng.uniform(150.0, MAX_EXTRA_PAYLOAD_G), n_payload
        ),
    }
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={name: values.tolist() for name, values in axes.items()}
        ),
        filters=(
            FilterClause("safe_velocity", ">", float(rng.uniform(1.0, 3.0))),
        ),
        rank=RankClause(by="safe_velocity", top_k=TOP_K),
    )


def fleet_spec(rng: np.random.Generator, sizes: Sizes) -> StudySpec:
    """The presets cross product crossed with a seeded scenario grid."""
    n_uavs, n_platforms, n_algorithms = sizes.fleet_presets
    n_payloads, n_scales = sizes.fleet_scenarios
    return StudySpec(
        design=DesignSpec.presets(
            sorted(UAV_PRESETS)[:n_uavs],
            sorted(PLATFORMS)[:n_platforms],
            sorted(ALGORITHMS)[:n_algorithms],
        ),
        scenarios=ScenarioSpec(
            extra_payload_g=np.linspace(
                0.0, rng.uniform(100.0, MAX_EXTRA_PAYLOAD_G), n_payloads
            ).tolist(),
            a_max_scale=np.linspace(
                rng.uniform(0.5, 0.7), 1.0, n_scales
            ).tolist(),
            compute_redundancy=(1, 2),
        ),
        rank=RankClause(by="safe_velocity", top_k=TOP_K),
    )


def analyze_request(rng: np.random.Generator) -> Dict[str, Any]:
    """One ``POST /v1/analyze`` body: a preset at a seeded runtime."""
    return {
        "uav": str(rng.choice(sorted(UAV_PRESETS))),
        "runtime_s": float(rng.uniform(0.005, 0.5)),
    }


@dataclass(frozen=True)
class Request:
    """One slot of the serve-mixed open-loop schedule."""

    index: int
    due_s: float  # offset from the start of the timed phase
    kind: str  # "new" | "resubmit" | "analyze"
    body: Dict[str, Any]
    target: int = -1  # resubmit: index of the new-study slot it repeats


def serve_schedule(
    rng: np.random.Generator,
    sizes: Sizes,
    seconds: float,
    warm_targets: int,
) -> List[Request]:
    """The seeded open-loop schedule for ``seconds`` of serve traffic.

    Arrivals are evenly spaced at ``SERVE_RATE_HZ`` with a seeded
    jitter of up to 40% of the gap, so the offered load is the same
    for every seed.  Kinds come in shuffled blocks of
    ``SERVE_BLOCK`` (new, re-submit, analyze), which keeps the mix
    exact.  A re-submit repeats a new study due at least 1.5 s before
    it, so it normally reads a finished, stored result; early ones
    repeat one of the ``warm_targets`` studies finished during set-up
    (negative targets ``-1 .. -warm_targets``).
    """
    gap = 1.0 / SERVE_RATE_HZ
    count = max(1, int(seconds * SERVE_RATE_HZ))
    block = (
        ["new"] * SERVE_BLOCK[0]
        + ["resubmit"] * SERVE_BLOCK[1]
        + ["analyze"] * SERVE_BLOCK[2]
    )
    kinds: List[str] = []
    while len(kinds) < count:
        kinds.extend(rng.permutation(block).tolist())
    dues = np.arange(count) * gap + rng.uniform(-0.4, 0.4, count) * gap
    dues = np.sort(np.maximum(dues, 0.0))
    schedule: List[Request] = []
    new_slots: List[int] = []
    for index, (due, kind) in enumerate(zip(dues.tolist(), kinds)):
        if kind == "new":
            spec = knob_spec(rng, sizes.serve_shape)
            schedule.append(Request(index, due, kind, spec.to_dict()))
            new_slots.append(index)
        elif kind == "resubmit":
            ready = [i for i in new_slots if schedule[i].due_s <= due - 1.5]
            if ready:
                target = int(rng.choice(ready[-8:]))
            else:
                target = -1 - int(rng.integers(warm_targets))
            schedule.append(Request(index, due, kind, {}, target))
        else:
            schedule.append(Request(index, due, kind, analyze_request(rng)))
    return schedule
