"""Command-line interface for the Skyline tool.

Examples::

    repro-skyline analyze --uav dji-spark --compute intel-ncs \\
        --algorithm dronet --plot spark.svg
    repro-skyline analyze --uav asctec-pelican --runtime 0.909 --json
    repro-skyline sweep --knob compute_tdp_w --values 1 5 15 30
    repro-skyline sweep --knob compute_tdp_w --values 1 5 15 30 --json
    repro-skyline study --spec study.json --out result.json
    repro-skyline study --knob compute_runtime_s --values 0.01 0.1 1.0
    repro-skyline study --spec big.json --workers 4 --chunk-rows 65536 \\
        --checkpoint ckpt/
    repro-skyline study --spec big.json --workers 4 --resume ckpt/
    repro-skyline study --spec big.json --workers 4 --chunk-rows 65536 \\
        --trace trace.json --metrics --progress --json > result.json
    repro-skyline study --spec big.json --distributed \\
        --work-dir /mnt/shared/run1 --lease-ttl 30 --json
    repro-skyline worker --work-dir /mnt/shared/run1 --wait 60
    repro-skyline serve --port 8351 --max-concurrent 2 --max-queue 32
    repro-skyline list
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..autonomy.workloads import ALGORITHMS
from ..compute.platforms import PLATFORMS
from ..errors import ReproError
from ..uav.registry import UAV_PRESETS
from .tool import Skyline


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description="F-1 roofline analysis for autonomous UAVs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="characterize one UAV + compute + algorithm"
    )
    analyze.add_argument(
        "--uav", required=True, choices=sorted(UAV_PRESETS),
        help="UAV preset",
    )
    analyze.add_argument(
        "--compute", choices=sorted(PLATFORMS),
        help="onboard computer (default: the preset's)",
    )
    group = analyze.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS),
        help="pre-configured autonomy algorithm",
    )
    group.add_argument(
        "--runtime", type=float,
        help="compute runtime knob (seconds per decision)",
    )
    analyze.add_argument(
        "--sensor-range", type=float, help="sensor range override (m)"
    )
    analyze.add_argument(
        "--sensor-fps", type=float, help="sensor framerate override (Hz)"
    )
    analyze.add_argument("--plot", help="write the F-1 chart to this SVG path")
    analyze.add_argument(
        "--ascii", action="store_true", help="print a terminal chart"
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the full characterization as JSON on stdout",
    )

    sweep = sub.add_parser(
        "sweep", help="sweep one Table II knob over a value range"
    )
    from ..batch.assembly import KNOB_COLUMNS

    sweep.add_argument(
        "--knob", required=True, choices=sorted(KNOB_COLUMNS)
    )
    sweep.add_argument(
        "--values", required=True, type=float, nargs="+",
        help="knob values to evaluate",
    )
    sweep.add_argument("--plot", help="write the sweep chart to this SVG")
    sweep.add_argument(
        "--json", action="store_true",
        help="emit the full study result as JSON on stdout",
    )

    study = sub.add_parser(
        "study",
        help="run a declarative StudySpec (JSON file or quick flags)",
    )
    source = study.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec", help="path to a StudySpec JSON document ('-' = stdin)"
    )
    source.add_argument(
        "--knob", choices=sorted(KNOB_COLUMNS),
        help="quick mode: sweep one knob of the default Knobs",
    )
    study.add_argument(
        "--values", type=float, nargs="+",
        help="knob values for --knob quick mode",
    )
    study.add_argument(
        "--limit", type=int, default=20,
        help="table rows to print (default 20)",
    )
    study.add_argument(
        "--json", action="store_true",
        help="emit the full study result as JSON on stdout",
    )
    study.add_argument(
        "--out", help="also write the result JSON to this path"
    )
    study.add_argument(
        "--workers", type=int,
        help="fan shards out over this many workers (>= 1)",
    )
    study.add_argument(
        "--chunk-rows", type=int,
        help="rows per shard (>= 1; default scales with --workers, "
        "capped to bound memory)",
    )
    study.add_argument(
        "--backend", choices=("process", "thread", "serial"),
        help="worker backend (requires --workers; default: process)",
    )
    resume_group = study.add_mutually_exclusive_group()
    resume_group.add_argument(
        "--checkpoint", metavar="DIR",
        help="write one JSONL record per completed shard to DIR "
        "(re-running reuses completed shards)",
    )
    resume_group.add_argument(
        "--resume", metavar="DIR",
        help="resume from DIR's completed shards (DIR must hold a "
        "matching run's manifest)",
    )
    study.add_argument(
        "--distributed", action="store_true",
        help="pull shards from a shared --work-dir under the lease "
        "protocol instead of a local pool (other hosts join with "
        "'repro-skyline worker'; see docs/distributed-protocol.md)",
    )
    study.add_argument(
        "--work-dir", metavar="DIR",
        help="shared work directory for --distributed (manifest, "
        "spec.json, shard records and leases)",
    )
    study.add_argument(
        "--worker-id",
        help="this worker's id in lease files "
        "(default: <hostname>-<pid>)",
    )
    study.add_argument(
        "--lease-ttl", type=float, metavar="SECONDS",
        help="seconds without a heartbeat before a worker's shard "
        "lease is re-claimable (default 30)",
    )
    study.add_argument(
        "--trace", metavar="FILE",
        help="record phase/shard spans and write a chrome://tracing "
        "trace JSON to FILE (load it in Perfetto)",
    )
    study.add_argument(
        "--metrics", action="store_true",
        help="print a span/counter metrics table to stderr after the run",
    )
    study.add_argument(
        "--progress", action="store_true",
        help="print per-shard progress lines (shards done, rows/s, ETA) "
        "to stderr while the study runs",
    )

    worker = sub.add_parser(
        "worker",
        help="join a distributed study: pull shards from a shared "
        "work dir until every shard has a record",
    )
    worker.add_argument(
        "--work-dir", metavar="DIR", required=True,
        help="the shared work directory of the study to join",
    )
    worker.add_argument(
        "--worker-id",
        help="this worker's id in lease files "
        "(default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, metavar="SECONDS",
        help="seconds without a heartbeat before this worker's shard "
        "leases are re-claimable (default 30)",
    )
    worker.add_argument(
        "--poll", type=float, metavar="SECONDS",
        help="seconds between polls for remotely-leased shards "
        "(default: lease-ttl / 4, capped at 1)",
    )
    worker.add_argument(
        "--wait", type=float, default=0.0, metavar="SECONDS",
        help="wait up to this long for the initiator to publish the "
        "study before giving up (default 0: fail fast)",
    )
    worker.add_argument(
        "--json", action="store_true",
        help="emit the worker report as JSON on stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="run the skyline HTTP service (inline analyze + queued "
        "studies with coalescing and progress streaming)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8351,
        help="TCP port (default 8351; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int,
        help="fan each study's shards over this many workers (>= 1; "
        "default: in-process serial)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="queued studies before new submissions get 429 "
        "(default 16)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=1,
        help="studies executing at once (default 1)",
    )
    serve.add_argument(
        "--backend", choices=("process", "thread", "serial"),
        help="worker backend (requires --workers; default: process)",
    )
    serve.add_argument(
        "--chunk-rows", type=int,
        help="rows per shard (>= 1; default scales with study size)",
    )
    serve.add_argument(
        "--checkpoint-root", metavar="DIR",
        help="write per-study shard checkpoints under DIR "
        "(restarting the server reuses completed shards)",
    )
    serve.add_argument(
        "--distrib-root", metavar="DIR",
        help="run each study as a distributed work dir under DIR "
        "(external 'repro-skyline worker' processes can join; "
        "mutually exclusive with --checkpoint-root)",
    )

    sub.add_parser("list", help="list presets, platforms and algorithms")
    return parser


def _run_analyze(args: argparse.Namespace) -> int:
    session = Skyline.from_preset(
        args.uav,
        compute_name=args.compute,
        sensor_range_m=args.sensor_range,
        sensor_framerate_hz=args.sensor_fps,
    )
    if args.algorithm is not None:
        report = session.evaluate_algorithm(args.algorithm)
    else:
        report = session.evaluate_throughput(
            1.0 / args.runtime, label=f"runtime={args.runtime:g}s"
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.text())
        if args.ascii:
            print()
            print(session.ascii())
    if args.plot:
        session.figure().save(args.plot)
        # Keep stdout pure JSON in --json mode.
        stream = sys.stderr if args.json else sys.stdout
        print(f"\nF-1 chart written to {args.plot}", file=stream)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from .knobs import Knobs
    from .sweep import sweep_knob

    if args.json:
        # The same sweep, expressed as a study.
        from ..study import DesignSpec, StudySpec, run_study

        spec = StudySpec(
            design=DesignSpec.knob_axes(Knobs(), {args.knob: args.values})
        )
        print(json.dumps(run_study(spec).to_dict()))
    else:
        result = sweep_knob(Knobs(), args.knob, args.values)
        print(result.table())
        crossovers = result.crossover_values()
        if crossovers:
            print(f"\nbound changes at {args.knob} = "
                  + ", ".join(f"{v:g}" for v in crossovers))
    if args.plot:
        result = sweep_knob(Knobs(), args.knob, args.values)
        result.figure().save(args.plot)
        stream = sys.stderr if args.json else sys.stdout
        print(f"sweep chart written to {args.plot}", file=stream)
    return 0


def _run_study(args: argparse.Namespace) -> int:
    from ..study import DesignSpec, StudySpec, run_study

    if args.workers is not None and args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.chunk_rows is not None and args.chunk_rows < 1:
        print(
            f"error: --chunk-rows must be >= 1, got {args.chunk_rows}",
            file=sys.stderr,
        )
        return 2
    if args.backend is not None and args.workers is None:
        print(
            "error: --backend requires --workers (without workers the "
            "study runs single-process)",
            file=sys.stderr,
        )
        return 2
    if args.distributed:
        if args.work_dir is None:
            print(
                "error: --distributed needs --work-dir (the shared "
                "directory all workers meet in)",
                file=sys.stderr,
            )
            return 2
        if args.backend is not None:
            print(
                "error: --backend applies to local worker pools; a "
                "--distributed run computes its shards in-process "
                "(parallelism comes from more workers joining)",
                file=sys.stderr,
            )
            return 2
        if args.checkpoint is not None or args.resume is not None:
            print(
                "error: --checkpoint/--resume do not combine with "
                "--distributed (the --work-dir already is the "
                "checkpoint; re-running with the same --work-dir "
                "resumes)",
                file=sys.stderr,
            )
            return 2
        if args.lease_ttl is not None and not args.lease_ttl > 0:
            print(
                f"error: --lease-ttl must be > 0, got {args.lease_ttl}",
                file=sys.stderr,
            )
            return 2
    else:
        for flag, value in (
            ("--work-dir", args.work_dir),
            ("--worker-id", args.worker_id),
            ("--lease-ttl", args.lease_ttl),
        ):
            if value is not None:
                print(
                    f"error: {flag} requires --distributed",
                    file=sys.stderr,
                )
                return 2
    if args.spec is not None:
        if args.values is not None:
            print(
                "error: --values only applies to --knob quick mode",
                file=sys.stderr,
            )
            return 2
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            from pathlib import Path

            text = Path(args.spec).read_text(encoding="utf-8")
        spec = StudySpec.from_json(text)
    else:
        if not args.values:
            print(
                "error: --knob quick mode needs --values", file=sys.stderr
            )
            return 2
        spec = StudySpec(
            design=DesignSpec.knob_axes(axes={args.knob: args.values})
        )

    tracer = None
    if args.trace or args.metrics:
        from ..obs import Tracer

        tracer = Tracer()
    progress = None
    if args.progress:
        from ..obs import ProgressPrinter

        # Progress (like every diagnostic) goes to stderr so --json
        # stdout stays machine-parseable.
        progress = ProgressPrinter()

    executor = None
    if args.distributed:
        from ..distrib import DEFAULT_LEASE_TTL_S, DistributedExecutor

        executor = DistributedExecutor(
            args.work_dir,
            worker_id=args.worker_id,
            lease_ttl_s=(
                args.lease_ttl
                if args.lease_ttl is not None
                else DEFAULT_LEASE_TTL_S
            ),
            n_workers=args.workers or 1,
        )
    elif args.workers is not None:
        from ..batch.executor import ParallelExecutor

        executor = ParallelExecutor(
            n_workers=args.workers, backend=args.backend or "process"
        )
    try:
        result = run_study(
            spec,
            executor=executor,
            chunk_rows=args.chunk_rows,
            checkpoint=args.resume or args.checkpoint,
            resume=args.resume is not None,
            tracer=tracer,
            progress=progress,
        )
    finally:
        if executor is not None:
            executor.close()
    if args.trace:
        from ..obs import write_chrome_trace

        write_chrome_trace(args.trace, tracer)
    if args.metrics:
        from ..obs import metrics_report

        print(metrics_report(tracer), file=sys.stderr)
    if args.out:
        result.save(args.out)
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(result.describe())
        print()
        print(result.table(limit=args.limit))
        if args.out:
            print(f"\nstudy result written to {args.out}")
        if args.trace:
            print(f"trace written to {args.trace}")
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    if args.lease_ttl is not None and not args.lease_ttl > 0:
        print(
            f"error: --lease-ttl must be > 0, got {args.lease_ttl}",
            file=sys.stderr,
        )
        return 2
    if args.poll is not None and not args.poll > 0:
        print(
            f"error: --poll must be > 0, got {args.poll}",
            file=sys.stderr,
        )
        return 2
    if args.wait < 0:
        print(
            f"error: --wait must be >= 0, got {args.wait}",
            file=sys.stderr,
        )
        return 2
    from ..distrib import DEFAULT_LEASE_TTL_S, run_worker

    report = run_worker(
        args.work_dir,
        worker_id=args.worker_id,
        lease_ttl_s=(
            args.lease_ttl
            if args.lease_ttl is not None
            else DEFAULT_LEASE_TTL_S
        ),
        poll_interval_s=args.poll,
        wait_s=args.wait,
    )
    if args.json:
        import dataclasses

        print(json.dumps(dataclasses.asdict(report)))
    else:
        print(
            f"worker {report.worker_id}: study {report.spec_digest} "
            f"complete ({report.shards_total} shards: "
            f"{report.computed} computed here, {report.loaded} by "
            f"other workers, {report.resumed} already checkpointed) "
            f"in {report.elapsed_s:.2f}s"
        )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from time import sleep

    if not 0 <= args.port <= 65535:
        print(
            f"error: --port must be in [0, 65535], got {args.port}",
            file=sys.stderr,
        )
        return 2
    if args.workers is not None and args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.max_queue < 1:
        print(
            f"error: --max-queue must be >= 1, got {args.max_queue}",
            file=sys.stderr,
        )
        return 2
    if args.max_concurrent < 1:
        print(
            f"error: --max-concurrent must be >= 1, got "
            f"{args.max_concurrent}",
            file=sys.stderr,
        )
        return 2
    if args.chunk_rows is not None and args.chunk_rows < 1:
        print(
            f"error: --chunk-rows must be >= 1, got {args.chunk_rows}",
            file=sys.stderr,
        )
        return 2
    if args.backend is not None and args.workers is None:
        print(
            "error: --backend requires --workers (without workers "
            "each study runs in-process)",
            file=sys.stderr,
        )
        return 2
    if args.distrib_root is not None and args.checkpoint_root is not None:
        print(
            "error: --distrib-root and --checkpoint-root are mutually "
            "exclusive (a distributed work dir already checkpoints "
            "every shard)",
            file=sys.stderr,
        )
        return 2

    from ..serve import ServeConfig, ServerHandle

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        study_workers=args.workers,
        backend=args.backend or "process",
        chunk_rows=args.chunk_rows,
        checkpoint_root=args.checkpoint_root,
        distrib_root=args.distrib_root,
    )
    handle = ServerHandle(config).start()
    # Diagnostics to stderr, like every other subcommand.
    print(
        f"repro-skyline serve listening on "
        f"http://{args.host}:{handle.port} "
        f"(max_concurrent={args.max_concurrent}, "
        f"max_queue={args.max_queue})",
        file=sys.stderr,
    )
    try:
        while True:
            sleep(3600)
    except KeyboardInterrupt:
        print("repro-skyline serve: shutting down", file=sys.stderr)
    finally:
        handle.stop()
    return 0


def _run_list() -> int:
    print("UAV presets:")
    for name in sorted(UAV_PRESETS):
        print(f"  {name}")
    print("\nCompute platforms:")
    for name, platform in sorted(PLATFORMS.items()):
        print(f"  {name:<16s} {platform.tdp_w:7.3f} W  "
              f"{platform.flight_mass_g:7.1f} g flight mass")
    print("\nAutonomy algorithms:")
    for name in sorted(ALGORITHMS):
        print(f"  {name}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "study":
            return _run_study(args)
        if args.command == "worker":
            return _run_worker(args)
        if args.command == "serve":
            return _run_serve(args)
        return _run_list()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
