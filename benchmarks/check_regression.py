#!/usr/bin/env python
"""Fail CI when a freshly recorded benchmark run regresses the baseline.

Usage (what the CI ``bench`` job runs)::

    REPRO_BENCH_SMOKE=1 REPRO_BENCH_OUT=bench-out \\
        python -m pytest benchmarks/bench_batch.py \\
                         benchmarks/bench_executor.py -q -s   # x3
    python benchmarks/check_regression.py --current bench-out

The committed baselines live in ``benchmarks/results/*.json`` (a list
of entries per file, each ``{benchmark, smoke, cpu_count, rows}`` —
see ``_recording.py``).  For every ``(file, benchmark, smoke, points)``
coordinate present in both the current run and the baseline, the
*medians* of the gated metric are compared and any regression beyond
``--threshold`` (default 25%) fails the run.

Two deliberate choices keep the gate meaningful on shared runners:

* Only **machine-normalized** metrics gate — speedups, overheads,
  peak-memory ratios and the result codec's cost in units of a
  ``base64`` round trip of the same result's column bytes, each
  measured against a same-process, same-machine counterpart inside
  the bench itself.  Raw seconds are recorded and reported but never
  gated (a slow runner is not a regression).
* Parallel-executor speedups only gate at *scale* (``points`` >=
  10k): below that, pool dispatch dominates and the ratio is noise.
  The smoke-speed gate rows are recorded at 1000 points for the
  engine/assembly/study metrics (1024 for fleet-assembly), where the
  measured run-to-run spread is comfortably inside the threshold.

Exit codes: 0 (no regressions), 1 (regression), 2 (bad invocation).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: benchmark name -> (gated metric key, direction, min points to gate).
METRICS = {
    "engine": ("speedup", "higher", 0),
    "assembly": ("speedup", "higher", 0),
    "fleet-assembly": ("speedup", "higher", 0),
    "study": ("overhead", "lower", 0),
    "executor-study": ("speedup", "higher", 10_000),
    "executor-topk": ("speedup", "higher", 10_000),
    "executor-serial": ("overhead", "lower", 10_000),
    "executor-memory": ("peak_ratio", "lower", 0),
    "result-codec": ("codec_ratio", "lower", 0),
    "obs-overhead": ("amp_ratio", "lower", 0),
    "serve-coalesce": ("hit_rate", "higher", 0),
    "serve-saturate": ("reject_rate", "higher", 0),
    "distrib-identity": ("match_rate", "higher", 0),
}

#: Absolute slack for lower-is-better metrics whose baseline sits near
#: zero (a 25% relative band around 0.01 would gate on noise).
#: ``amp_ratio`` (tracing cost per shard relative to a minimal one-row
#: shard) gets a wider band: its minima-of-3 smoke measurement swings
#: by ~0.1 on a noisy runner while a real per-shard regression
#: (doubling the instrumentation cost) moves it by ~0.2.
ABSOLUTE_SLACK = {"overhead": 0.05, "peak_ratio": 0.05, "amp_ratio": 0.08}

Key = Tuple[str, str, bool, int]


def load_values(directory: Path) -> Dict[Key, List[float]]:
    """Every gated metric value, keyed by (file, benchmark, smoke, points)."""
    values: Dict[Key, List[float]] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            entries = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: {path} is not valid JSON: {exc}")
        if not isinstance(entries, list):
            continue
        for entry in entries:
            benchmark = entry.get("benchmark")
            if benchmark not in METRICS:
                continue
            metric, _, _ = METRICS[benchmark]
            smoke = bool(entry.get("smoke", False))
            for row in entry.get("rows", ()):
                value = row.get(metric)
                points = row.get("points")
                if value is None or points is None:
                    continue
                key = (path.name, benchmark, smoke, int(points))
                values.setdefault(key, []).append(float(value))
    return values


def check(
    baseline: Dict[Key, List[float]],
    current: Dict[Key, List[float]],
    threshold: float,
) -> int:
    failures = 0
    compared = 0
    for key in sorted(current):
        file_name, benchmark, smoke, points = key
        metric, direction, min_points = METRICS[benchmark]
        label = (
            f"{benchmark}@{points}{' (smoke)' if smoke else ''} "
            f"[{metric}]"
        )
        if key not in baseline:
            print(f"  SKIP {label}: no comparable baseline")
            continue
        current_median = statistics.median(current[key])
        baseline_median = statistics.median(baseline[key])
        if points < min_points:
            print(
                f"  INFO {label}: {baseline_median:g} -> "
                f"{current_median:g} (below gating scale, not gated)"
            )
            continue
        compared += 1
        slack = ABSOLUTE_SLACK.get(metric, 0.0)
        if direction == "higher":
            bar = baseline_median * (1.0 - threshold)
            regressed = current_median < bar
        else:
            bar = baseline_median * (1.0 + threshold) + slack
            regressed = current_median > bar
        verdict = "FAIL" if regressed else "ok"
        print(
            f"  {verdict:>4} {label}: baseline {baseline_median:g}, "
            f"current {current_median:g} "
            f"({'floor' if direction == 'higher' else 'ceiling'} {bar:g})"
        )
        failures += int(regressed)
    print(
        f"{compared} metric(s) gated, {failures} regression(s) "
        f"beyond {threshold:.0%}"
    )
    if compared == 0:
        # A gate that compares nothing guards nothing: bench sizes or
        # recording keys drifted away from the committed baselines.
        # Fail loudly instead of going silently green forever.
        print(
            "error: no recorded metric matched any committed baseline "
            "coordinate — refresh benchmarks/results/ (REPRO_RECORD_BENCH=1 "
            "REPRO_BENCH_SMOKE=1) or fix the drifted bench sizes"
        )
        return 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate recorded benchmark medians against baselines"
    )
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "results"),
        help="directory of committed baseline JSON files",
    )
    parser.add_argument(
        "--current", required=True,
        help="directory a fresh run recorded into (REPRO_BENCH_OUT)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative regression allowed before failing (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        parser.error(
            f"--threshold must be in (0, 1), got {args.threshold}"
        )
    baseline_dir = Path(args.baseline)
    current_dir = Path(args.current)
    for name, directory in (
        ("--baseline", baseline_dir), ("--current", current_dir)
    ):
        if not directory.is_dir():
            parser.error(f"{name} directory {directory} does not exist")
    baseline = load_values(baseline_dir)
    current = load_values(current_dir)
    if not current:
        parser.error(
            f"--current directory {current_dir} holds no recorded rows"
        )
    return check(baseline, current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
