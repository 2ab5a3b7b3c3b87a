"""The repository benchmark: end-to-end and per-layer metrics.

Run every workload (each in a fresh process) and print every
end-to-end metric by name with its unit::

    python3 perfbench/run.py

Run one workload, as a regression check does; the last line of
standard output is one JSON object::

    python3 perfbench/run.py --workload grid-memory --seed 3 --seconds 20 --trace 0

``--trace 1`` is the separate traced invocation: half the time
untraced, half traced, then a per-layer table (self time and share of
operation wall, counts) and one JSON artifact under
``.perfbench-out/``.  ``--size tiny`` shrinks every input so the
benchmark's own tests run in seconds; ``--ledger`` runs the optional
1M-row ledger pass instead (see ``ledger.py``).  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

from common import ROOT

HERE = Path(__file__).resolve()

WORKLOADS = ("grid-memory", "fleet-scenarios", "persist-resume", "serve-mixed")

#: End-to-end metrics gated in BENCHMARK.json: (name, unit).  Every workload
#: reports all of them; see BENCHMARK.json for bounds.
GATED = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_s", "s"),
    ("read_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Printed beside the gated metrics where the workload has them.
REPORTED = (
    ("op_p90_s", "s"),
    ("fleet_p50_s", "s"),
    ("failed_ratio", "ratio"),
)

#: Print order of the end-to-end metrics.
ORDER = (
    "setup_s", "rows_per_s", "op_p50_s", "op_p90_s", "read_p50_s",
    "fleet_p50_s", "failed_ratio", "peak_rss_mb",
)

#: Median self time per traced operation, by layer (see ``layers``).
LAYER_TIMES = {
    "spec": "spec.parse_s",
    "planner": "planner.compile_s",
    "kernels": "kernels.evaluate_s",
    "runner": "runner.select_s",
    "executor": "executor.shard_s",
    "merge": "merge.concat_s",
    "checkpoint.write": "checkpoint.write_s",
    "checkpoint.read": "checkpoint.read_s",
    "result.save": "result.save_s",
    "result.load": "result.load_s",
}

#: Per-layer metrics in the traced run's JSON line: (name, unit).  A
#: metric of a layer the workload never reaches is n/a: ``null`` in the
#: artifact, "n/a" in the table and 0 in the JSON line.
PER_LAYER = (
    ("spec.parse_s", "s"),
    ("spec.share", "ratio"),
    ("planner.compile_s", "s"),
    ("planner.ns_per_row", "ns"),
    ("planner.share", "ratio"),
    ("kernels.evaluate_s", "s"),
    ("kernels.ns_per_row", "ns"),
    ("kernels.bytes_per_row", "B/row"),
    ("kernels.share", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.share", "ratio"),
    ("runner.select_s", "s"),
    ("runner.share", "ratio"),
    ("executor.shards", "count"),
    ("executor.shard_s", "s"),
    ("executor.share", "ratio"),
    ("merge.concat_s", "s"),
    ("merge.share", "ratio"),
    ("result.encode_s", "s"),
    ("result.decode_s", "s"),
    ("result.save_s", "s"),
    ("result.load_s", "s"),
    ("result.bytes_per_row", "B/row"),
    ("result.save.share", "ratio"),
    ("result.load.share", "ratio"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.writes", "count"),
    ("checkpoint.read_s", "s"),
    ("checkpoint.bytes_per_row", "B/row"),
    ("checkpoint.write.share", "ratio"),
    ("checkpoint.read.share", "ratio"),
    ("distrib.claimed", "count"),
    ("distrib.stolen", "count"),
    ("distrib.computed", "count"),
    ("distrib.loaded", "count"),
    ("distrib.useful_ratio", "ratio"),
    ("distrib.wait_s", "s"),
    ("distrib.wait_polls", "count"),
    ("serve.submit_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.fetch_s", "s"),
    ("serve.response_bytes", "bytes"),
    ("serve.analyze_p50_s", "s"),
    ("serve.server_study_s", "s"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.failed", "count"),
    ("serve.rejected", "count"),
    ("serve.share", "ratio"),
    ("load.late_p90_s", "s"),
    ("load.late.share", "ratio"),
    ("trace.op_wall_s", "s"),
    ("trace.residue_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Fresh set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="end-to-end and per-layer benchmark of the repository"
    )
    parser.add_argument(
        "--workload", default="all", choices=("all",) + WORKLOADS,
        help="one workload, or all of them in fresh processes (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="length of the timed phase (default 20)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--artifact-dir", default=str(ROOT / ".perfbench-out"),
        help="where the traced run writes its JSON artifact",
    )
    parser.add_argument(
        "--ledger", action="store_true",
        help="run the 1M-row ledger pass instead of a workload",
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def require_program() -> None:
    """Import the program from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------
def work_dir(workload: str) -> Path:
    return ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"


def setup_probe(args: argparse.Namespace) -> None:
    """Imports plus one operation of the workload, in a fresh process."""
    import numpy as np

    from specs import SIZES

    sizes = SIZES[args.size]
    rng = np.random.default_rng(args.seed)
    if args.workload == "persist-resume":
        import math

        from persist import write
        from repro.study import study_size
        from specs import PERSIST_SHARDS, knob_spec

        spec = knob_spec(rng, sizes.persist_shape)
        chunk_rows = math.ceil(study_size(spec) / PERSIST_SHARDS)
        base = work_dir(args.workload)
        try:
            write(
                spec.to_json(), base / "checkpoint", base / "result.json",
                chunk_rows, None,
            )
        finally:
            shutil.rmtree(base, ignore_errors=True)
    else:
        from library import run_op
        from specs import fleet_spec, knob_spec

        spec = (
            knob_spec(rng, sizes.grid_shape)
            if args.workload == "grid-memory"
            else fleet_spec(rng, sizes)
        )
        run_op(spec.to_json(), None)
    print("ready", flush=True)


def probe_setup(args: argparse.Namespace) -> List[float]:
    """Set-up time of fresh processes: start to first operation done.

    Each sample is scaled by the host-speed probe taken just before it.
    """
    from common import SpeedProbe

    speed = SpeedProbe()
    samples = []
    for probe in range(SETUP_PROBES):
        command = [
            sys.executable, str(HERE), "--setup-probe",
            "--workload", args.workload, "--size", args.size,
            "--seed", str(args.seed * SETUP_PROBES + probe),
        ]
        scale = speed.scale()
        started = perf_counter()
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        line = child.stdout.readline()
        elapsed = perf_counter() - started
        child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {command}")
        samples.append(elapsed * scale)
    return samples


def kernel_bytes_per_row() -> int:
    """Bytes the kernels read and write per row, computed from dtypes."""
    from repro.batch import DesignMatrix, evaluate_matrix

    result = evaluate_matrix(
        DesignMatrix.from_arrays(10.0, 10.0, 60.0, 60.0), cache=None
    )
    read = sum(column.itemsize for column in result.matrix.columns())
    written = sum(
        getattr(result, name).itemsize
        for name in (
            "roof_velocity", "knee_hz", "knee_velocity",
            "action_throughput_hz", "safe_velocity", "bound_codes",
            "status_codes",
        )
    )
    return read + written


def per_layer(outcome: Any) -> Dict[str, Optional[float]]:
    """Every per-layer metric of a traced run; ``None`` where n/a.

    A layer's time and share come from the operation kind (``op`` or
    ``read``) in which its share is largest: resume and ``load`` are
    read-side layers, for instance.  The fleet operation has no share
    table: its two workers run at once, so their self times do not
    partition its wall.
    """
    from layers import LAYERS, share_table

    kinds = {
        kind: ops for kind, ops in outcome.traces.items()
        if kind != "fleet" and ops
    }
    tables = {kind: share_table(ops) for kind, ops in kinds.items()}
    metrics: Dict[str, Optional[float]] = {name: None for name, _ in PER_LAYER}
    for layer in LAYERS:
        held = [kind for kind in tables if layer in tables[kind]]
        if not held:
            continue
        kind = max(held, key=lambda k: tables[k][layer]["share"])
        row = tables[kind][layer]
        metrics[f"{layer}.share"] = row["share"]
        if layer in LAYER_TIMES:
            metrics[LAYER_TIMES[layer]] = row["self_s"]
        if layer in ("planner", "kernels"):
            ops = kinds[kind]
            metrics[f"{layer}.ns_per_row"] = (
                sum(op.layers.get(layer, 0.0) for op in ops)
                / max(1, sum(op.rows for op in ops)) * 1e9
            )
    metrics["kernels.bytes_per_row"] = kernel_bytes_per_row()
    ops = kinds.get("op", [])
    untraced = outcome.samples.get("op", [])
    if ops:
        wall = median([op.wall_s for op in ops])
        metrics["trace.op_wall_s"] = wall
        metrics["trace.residue_share"] = tables["op"]["residue"]["share"]
        metrics["executor.shards"] = median([float(op.shards) for op in ops])
        if untraced:
            metrics["trace.overhead_ratio"] = wall / median(untraced) - 1.0
    # Workload-measured counts and times; a workload may set one to None.
    metrics.update(outcome.layer_metrics)
    return metrics


def print_end_to_end(
    e2e: Dict[str, Optional[float]], outcome: Any, setups: int
) -> None:
    """Every end-to-end metric with its unit and sample count.

    Times are host-speed normalized; the raw wall-clock median follows
    in brackets.
    """
    kinds = {"op_p50_s": "op", "op_p90_s": "op", "read_p50_s": "read",
             "fleet_p50_s": "fleet"}
    units = dict(GATED + REPORTED)
    for name in ORDER:
        value = e2e.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        line = f"  {name:<14} {shown:>12} {units[name]}"
        kind = kinds.get(name)
        if name == "setup_s":
            line += f"  (n={setups})"
        elif name == "op_p90_s" and value is not None:
            line += f"  (n={len(outcome.samples[kind])})"
        elif kind is not None and value is not None:
            line += (f"  (n={len(outcome.samples[kind])}, raw p50 "
                     f"{median(outcome.raw[kind]):.6g} s)")
        print(line)
    print(f"  attempted {outcome.attempted}, failed {len(outcome.failures)}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED: {failure}")


def run_workload(args: argparse.Namespace) -> int:
    import numpy as np

    from common import own_peak_rss_mb
    from layers import format_share_table
    from specs import SIZES

    sizes = SIZES[args.size]
    rng = np.random.default_rng(args.seed)
    check_rng = np.random.default_rng([args.seed, 1])
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        import serve_mixed

        outcome, setup = serve_mixed.run(
            sizes, rng, check_rng, args.seconds, trace
        )
    else:
        setup = probe_setup(args)
        if args.workload == "persist-resume":
            import persist

            base = work_dir(args.workload)
            try:
                outcome = persist.run(sizes, rng, args.seconds, trace, base)
            finally:
                shutil.rmtree(base, ignore_errors=True)
        else:
            import library

            outcome = library.run(
                args.workload, sizes, rng, check_rng, args.seconds, trace
            )
        outcome.peak_rss_mb = own_peak_rss_mb()

    e2e = {"setup_s": median(setup), **outcome.end_to_end()}
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"size {args.size}{', traced' if trace else ''})")
    print_end_to_end(e2e, outcome, len(setup))

    if trace:
        metrics = per_layer(outcome)
        for kind, ops in sorted(outcome.traces.items()):
            if kind != "fleet" and ops:
                print(format_share_table(f"layers of '{kind}'", ops))
        print("per-layer metrics (kernels.bytes_per_row is computed from "
              "column dtypes):")
        for name, _ in PER_LAYER:
            value = metrics[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<28} {shown}")
        artifact_dir = Path(args.artifact_dir)
        artifact_dir.mkdir(parents=True, exist_ok=True)
        artifact = artifact_dir / f"trace-{args.workload}-seed{args.seed}.json"
        artifact.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size,
            "end_to_end": e2e, "per_layer": metrics,
            "raw_p50_s": {
                kind: median(values) for kind, values in outcome.raw.items()
            },
            "traced_ops": {k: len(v) for k, v in outcome.traces.items()},
            "failures": outcome.failures,
        }, indent=2, sort_keys=True))
        print(f"artifact: {artifact}")
        reported = {
            name: {"value": metrics[name] or 0.0, "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        missing = [name for name, _ in GATED if e2e.get(name) is None]
        if missing:
            outcome.fail(f"no measurement for {', '.join(missing)}")
        reported = {
            name: {"value": e2e.get(name) or 0.0, "unit": unit}
            for name, unit in GATED
        }
    correct = not outcome.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": len(outcome.failures),
        "metrics": reported,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process
# ---------------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    results: Dict[str, Dict[str, Any]] = {}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(HERE), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
            "--artifact-dir", args.artifact_dir,
        ]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {workload} printed no result", file=sys.stderr)
            return 1
        status = status or child.returncode
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {
        f"{workload}.{name}": metric
        for workload, result in results.items()
        for name, metric in result["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    require_program()
    if args.ledger:
        import ledger

        return ledger.main()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
