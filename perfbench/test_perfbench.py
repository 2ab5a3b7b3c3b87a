"""The benchmark's own tests, on tiny inputs (``python3 -m pytest perfbench``)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from common import Outcome
from layers import span_layers
from library import StudyLoop, check_selection
from repro.study import ScenarioSpec, StudySpec, compile_spec, run_study
from run import GATED, PER_LAYER, WORKLOADS
from specs import MAX_EXTRA_PAYLOAD_G, SIZES, fleet_spec, knob_spec, serve_schedule

HERE = Path(__file__).resolve().parent


def run_benchmark(*args: str, root: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), *args], cwd=root,
        capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_gated_metric(workload):
    done = run_benchmark(
        "--workload", workload, "--size", "tiny", "--seconds", "1",
        "--seed", "3",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(GATED)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    done = run_benchmark(
        "--workload", "persist-resume", "--size", "tiny", "--seconds", "2",
        "--trace", "1", "--artifact-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == dict(PER_LAYER)
    assert metrics["checkpoint.writes"]["value"] == 8
    artifact = json.loads((tmp_path / "trace-persist-resume-seed0.json").read_text())
    assert artifact["per_layer"]["result.save.share"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    # A checkout holding only the benchmark: nothing to build or run.
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_benchmark("--workload", "grid-memory", root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_metric_lists_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(GATED)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_same_seed_same_inputs():
    sizes = SIZES["tiny"]
    for make in (
        lambda rng: knob_spec(rng, sizes.grid_shape).to_json(),
        lambda rng: fleet_spec(rng, sizes).to_json(),
        lambda rng: repr(serve_schedule(rng, sizes, 5.0, 2)),
    ):
        assert make(np.random.default_rng(9)) == make(np.random.default_rng(9))
        assert make(np.random.default_rng(9)) != make(np.random.default_rng(10))


def test_heaviest_inputs_stay_feasible():
    # The largest payload with two computers on every preset, and the
    # heaviest knob corner, compile: no seed can make a study fail.
    sizes = SIZES["full"]
    spec = fleet_spec(np.random.default_rng(0), sizes)
    heaviest = dataclasses.replace(
        spec,
        scenarios=ScenarioSpec(
            extra_payload_g=(MAX_EXTRA_PAYLOAD_G,), compute_redundancy=(2,)
        ),
    )
    assert len(compile_spec(heaviest)) == np.prod(sizes.fleet_presets)
    knobs = knob_spec(np.random.default_rng(0), (2, 2, 2))
    corner = dataclasses.replace(
        knobs.design,
        axes=(
            ("compute_tdp_w", (40.0,)),
            ("compute_runtime_s", (0.002,)),
            ("payload_weight_g", (MAX_EXTRA_PAYLOAD_G,)),
        ),
    )
    assert compile_spec(StudySpec(design=corner)).matrix.a_max[0] > 0


def test_span_layers_split_self_time():
    spans = [
        ("study.compile", 1.0, 0, {}),
        ("shard.task", 5.0, 0, {}),
        ("shard.compile", 1.5, 1, {}),
        ("shard.evaluate", 3.0, 1, {}),
        ("engine.evaluate", 2.5, 1, {"cache_hit": False}),
        ("engine.evaluate", 0.25, 0, {"cache_hit": True}),
        ("study.select", 0.5, 0, {}),
    ]
    assert span_layers(spans) == {
        "planner": 2.5, "kernels": 2.5, "executor": 1.0, "cache": 0.25,
        "runner": 0.5,
    }


def test_output_checks_catch_wrong_results():
    rng = np.random.default_rng(4)
    spec = knob_spec(rng, SIZES["tiny"].grid_shape)
    result = run_study(spec, cache=None)
    assert check_selection(result) == []
    shuffled = dataclasses.replace(
        result, selected_indices=result.selected_indices[::-1]
    )
    assert check_selection(shuffled)

    loop = StudyLoop(lambda: spec, SIZES["tiny"], rng, Outcome())
    assert loop.check_rows(result) == []
    skewed = dataclasses.replace(
        result,
        batch=dataclasses.replace(
            result.batch, safe_velocity=result.batch.safe_velocity * 1.001
        ),
    )
    assert loop.check_rows(skewed)
