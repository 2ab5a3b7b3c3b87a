"""The optional ledger pass: the ROADMAP baseline table, measured again.

One 1M-row study with three knob axes (``compute_tdp_w`` x
``compute_runtime_s`` x ``payload_weight_g``, ``cache=None``) runs once
through every row of the ROADMAP's baseline table, traced where the
API takes a tracer, and the table prints with the recorded baseline
beside today's wall-clock figure and the host-speed-normalized one
(see ``common.SpeedProbe``).  It is not a gated workload: one pass at this
size takes tens of seconds and about a gigabyte of memory.

    python3 perfbench/run.py --ledger
"""

from __future__ import annotations

import shutil
from time import perf_counter
from typing import Any, Callable, List, Tuple

import numpy as np

from common import ROOT, SpeedProbe
from layers import span_layers, tracer_spans
from repro.batch import evaluate_matrix
from repro.obs import Tracer
from repro.study import DesignSpec, StudyResult, StudySpec, compile_spec, run_study

#: The ROADMAP baseline, row by row (2-CPU container, same study).
BASELINE = {
    "compile": "78 ms",
    "kernels": "38 ms",
    "run_study, single pass": "104 ms",
    "run_study, 16 serial chunks": "113 ms",
    "to_json": "5.98 s (227 MB)",
    "from_json": "3.20 s",
    "checkpointed run, 8 shards": "5.80 s (checkpoint.write 5.65 s)",
    "full resume": "3.09 s",
}

SIDE = 100  # points per axis: 100**3 = 1M rows


def ledger_spec() -> StudySpec:
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={
                "compute_tdp_w": np.linspace(1.0, 30.0, SIDE).tolist(),
                "compute_runtime_s": np.geomspace(0.002, 0.5, SIDE).tolist(),
                "payload_weight_g": np.linspace(0.0, 250.0, SIDE).tolist(),
            }
        )
    )


def main() -> int:
    spec = ledger_spec()
    rows: List[Tuple[str, str]] = []
    probe = SpeedProbe()
    scales: List[float] = []

    def timed(call: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``call``; keep the host-speed factor measured before it."""
        scales.append(probe.scale())
        started = perf_counter()
        value = call()
        return value, perf_counter() - started

    def ms(seconds: float) -> str:
        return f"{seconds * 1e3:.0f} ms"

    plan, seconds = timed(lambda: compile_spec(spec))
    rows.append(("compile", ms(seconds)))
    _, seconds = timed(lambda: evaluate_matrix(plan.matrix, cache=None))
    rows.append(("kernels", ms(seconds)))
    del plan
    result, seconds = timed(lambda: run_study(spec, cache=None))
    rows.append(("run_study, single pass", ms(seconds)))
    _, seconds = timed(
        lambda: run_study(spec, cache=None, chunk_rows=len(result) // 16)
    )
    rows.append(("run_study, 16 serial chunks", ms(seconds)))
    text, seconds = timed(result.to_json)
    rows.append(("to_json", f"{seconds:.2f} s ({len(text) / 1e6:.0f} MB)"))
    decoded, seconds = timed(lambda: StudyResult.from_json(text))
    rows.append(("from_json", f"{seconds:.2f} s"))
    identical = decoded.equals(result)
    del text, decoded

    directory = ROOT / ".perfbench-work" / "ledger"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        tracer = Tracer()
        written, seconds = timed(
            lambda: run_study(
                spec, cache=None, checkpoint=directory,
                chunk_rows=len(result) // 8, tracer=tracer,
            )
        )
        write_s = span_layers(tracer_spans(tracer)).get("checkpoint.write", 0.0)
        rows.append((
            "checkpointed run, 8 shards",
            f"{seconds:.2f} s (checkpoint.write {write_s:.2f} s)",
        ))
        resumed, seconds = timed(
            lambda: run_study(spec, cache=None, checkpoint=directory, resume=True)
        )
        rows.append(("full resume", f"{seconds:.2f} s"))
        identical = identical and written.equals(result) and resumed.equals(result)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"ledger: {len(result)}-row 3-axis study, cache=None")
    print(f"  {'layer / path':<30} {'ROADMAP baseline':<34} "
          f"{'today':<34} host-speed factor")
    for (name, today), scale in zip(rows, scales):
        print(f"  {name:<30} {BASELINE[name]:<34} {today:<34} {scale:.2f}")
    print("  (multiply a time by its factor for seconds on the reference "
          "host)")
    print(f"  round trips bitwise identical: {identical}")
    return 0 if identical else 1
