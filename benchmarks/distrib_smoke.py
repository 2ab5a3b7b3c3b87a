#!/usr/bin/env python
"""End-to-end distributed smoke: 3 processes, one killed mid-shard.

What CI's ``distrib-smoke`` job runs (not pytest-collected — this is a
script with an exit code, like ``repro.serve.client``'s smoke mode):

1. publish a study into a shared work dir: an in-process initiator
   run stamps ``manifest.json`` + ``spec.json``, and its shard records
   are then removed so the fleet starts from nothing;
2. start a *victim* ``repro-skyline worker`` process whose shard
   computations are artificially slowed (the
   ``REPRO_DISTRIB_INJECT_SHARD_DELAY_S`` fault-injection knob), wait
   until it holds a lease, and SIGKILL it — a real mid-shard crash,
   lease on disk, no release, no heartbeats to come;
3. start a healthy joiner ``repro-skyline worker`` process and the
   initiator ``repro-skyline study --work-dir`` process (three
   workers total, counting the corpse);
4. assert the initiator's merged result is **bitwise identical** to an
   in-process single-host run of the same spec, and that the finished
   work dir's ``leases/`` holds nothing but ``.clock-*`` probes: no
   lease generation and no temporary.

Everything the run produced (spec, work dir contents, worker outputs,
a summary verdict) is left in ``--artifact-dir`` for the workflow
artifact.

Usage::

    python benchmarks/distrib_smoke.py --artifact-dir distrib-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic, sleep

from repro.batch import shard_ranges
from repro.distrib import DistributedExecutor
from repro.study import DesignSpec, StudySpec, run_study
from repro.study.result import StudyResult

N_ROWS = 16
CHUNK_ROWS = 2  # -> 8 shards
LEASE_TTL_S = 2.0
VICTIM_DELAY_S = 30.0  # the victim never finishes a shard on its own
KILL_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 300.0


def _spec() -> StudySpec:
    values = [1.0 + 0.5 * i for i in range(N_ROWS)]
    return StudySpec(
        design=DesignSpec.knob_axes(axes={"compute_tdp_w": values})
    )


def _worker_argv(work_dir: Path, worker_id: str) -> list:
    return [
        sys.executable, "-m", "repro.skyline.cli", "worker",
        "--work-dir", str(work_dir), "--worker-id", worker_id,
        "--lease-ttl", str(LEASE_TTL_S), "--poll", "0.1",
        "--wait", "60", "--json",
    ]


def _wait_for_lease_of(work_dir: Path, owner: str) -> bool:
    """True once ``owner`` holds a lease file in the work dir."""
    deadline = monotonic() + KILL_TIMEOUT_S
    leases = work_dir / "leases"
    while monotonic() < deadline:
        for path in leases.glob("shard-*.lease.json"):
            try:
                body = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if body.get("owner") == owner:
                return True
        sleep(0.05)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact-dir", default="distrib-smoke",
        help="directory for the work dir, logs and summary verdict",
    )
    args = parser.parse_args(argv)
    artifacts = Path(args.artifact_dir)
    work_dir = artifacts / "work-dir"
    artifacts.mkdir(parents=True, exist_ok=True)

    spec = _spec()
    (artifacts / "spec.json").write_text(
        spec.to_json(indent=2) + "\n", encoding="utf-8"
    )
    expected = run_study(spec)  # the single-host reference, in-process

    # Publish the study, then let the victim claim before anyone else.
    with DistributedExecutor(work_dir, worker_id="publisher") as executor:
        run_study(spec, executor=executor, chunk_rows=CHUNK_ROWS)
    for record in work_dir.glob("shard-*.jsonl"):
        record.unlink()
    n_shards = len(shard_ranges(N_ROWS, CHUNK_ROWS))

    victim_env = {
        **os.environ,
        "REPRO_DISTRIB_INJECT_SHARD_DELAY_S": str(VICTIM_DELAY_S),
    }
    victim_log = (artifacts / "victim.log").open("w", encoding="utf-8")
    victim = subprocess.Popen(
        _worker_argv(work_dir, "victim"),
        stdout=victim_log, stderr=subprocess.STDOUT, env=victim_env,
    )
    summary = {"n_shards": n_shards, "workers": 3}
    try:
        if not _wait_for_lease_of(work_dir, "victim"):
            print("FAIL: victim never claimed a lease", file=sys.stderr)
            return 1
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        summary["victim_killed_mid_shard"] = True

        joiner_log = (artifacts / "joiner.log").open("w", encoding="utf-8")
        joiner = subprocess.Popen(
            _worker_argv(work_dir, "joiner"),
            stdout=joiner_log, stderr=subprocess.STDOUT,
        )
        initiator = subprocess.run(
            [
                sys.executable, "-m", "repro.skyline.cli", "study",
                "--spec", str(artifacts / "spec.json"),
                "--work-dir", str(work_dir),
                "--worker-id", "initiator",
                "--lease-ttl", str(LEASE_TTL_S), "--json",
            ],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        (artifacts / "initiator.log").write_text(
            initiator.stderr, encoding="utf-8"
        )
        if initiator.returncode != 0:
            print(
                f"FAIL: initiator exited {initiator.returncode}:\n"
                f"{initiator.stderr}",
                file=sys.stderr,
            )
            return 1
        joiner_rc = joiner.wait(timeout=RUN_TIMEOUT_S)
        summary["joiner_exit"] = joiner_rc
    finally:
        for proc in (victim,):
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()

    merged = StudyResult.from_dict(json.loads(initiator.stdout))
    identical = merged.equals(expected)
    leases_dir = sorted(p.name for p in (work_dir / "leases").iterdir())
    litter = [name for name in leases_dir if not name.startswith(".clock-")]
    records = len(list(work_dir.glob("shard-*.jsonl")))
    summary.update(
        {
            "bitwise_identical": identical,
            "leases_dir": leases_dir,
            "orphaned_leases": litter,
            "shard_records": records,
            "ok": bool(
                identical
                and not litter
                and records == n_shards
                and joiner_rc == 0
            ),
        }
    )
    (artifacts / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary, indent=2))
    if not summary["ok"]:
        print("FAIL: see summary above", file=sys.stderr)
        return 1
    print(
        "distrib smoke OK: crash mid-shard recovered, merge bitwise "
        "identical, only clock probes left in leases/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
