"""serve-mixed: open-loop HTTP traffic against ``repro-skyline serve``.

The server runs in its own process (the real CLI, ``serve --port 0``),
so the load generator never shares its interpreter lock.  Two client
threads, each with one keep-alive connection, work through a seeded
schedule (see :func:`specs.serve_schedule`): one carries the new
studies, the other the re-submits and analyze calls, so a cheap read
never queues behind a client busy polling for a study.  Every request
waits for its due time and its latency is timed from that due time, so
a stall also charges the requests queued behind it.

Request kinds: ``new`` (a distinct knob study: submit, poll, fetch the
result text -- the primary operation), ``resubmit`` (a finished study
again: the coalesced, stored-result read path) and ``analyze``
(``POST /v1/analyze``).  Every check runs after the timed phase.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass
from statistics import median
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import ROOT, Outcome, SpeedProbe, percentile, proc_peak_rss_mb
from layers import OpTrace, telemetry_spans
from repro.serve import ServeClient
from repro.serve.protocol import parse_analyze_request, run_analyze
from repro.study import StudyResult, StudySpec, run_study
from specs import Request, Sizes, knob_spec, serve_schedule

#: How often a client polls for a result that is not ready yet (s).
POLL_S = 0.01

#: How often the generator's main thread probes the host speed (s).
PROBE_EVERY_S = 0.2

#: A probe runs only if no request is due within this long (s), so it
#: never delays one.
PROBE_CLEAR_S = 0.02

#: Longest a client waits for one study before giving up (s).
STUDY_TIMEOUT_S = 60.0

#: Server boots per run; set-up time is their median.
BOOTS = 3

#: Studies finished during set-up that early re-submits repeat.
WARM_TARGETS = 2

#: New studies re-run in-process to check the served result bitwise.
EQUALS_SAMPLE = 3

_BOOT = (
    "import sys\n"
    "from repro.skyline.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class ServerProcess:
    """One ``repro-skyline serve`` child process on a free port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-c", _BOOT, "serve", "--port", "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            # "repro-skyline serve listening on http://127.0.0.1:PORT (...)"
            line = self.process.stderr.readline()
            address = line.split("http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}") from None

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Interrupt (the CLI's clean shutdown) and reap the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


@dataclass
class Reply:
    """What one scheduled request got back, and when."""

    request: Request
    late_s: float = 0.0
    latency_s: float = 0.0
    submit_s: float = 0.0
    wait_s: float = 0.0
    fetch_s: float = 0.0
    end: float = 0.0
    text: Optional[str] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    scale: float = 1.0  # host-speed factor (see SpeedProbe)


def fetch_study(
    client: ServeClient, body: Dict[str, Any], reply: Reply
) -> None:
    """Submit a spec document, poll until done, keep the result text."""
    started = perf_counter()
    study_id = client.submit(body)["study_id"]
    submitted = perf_counter()
    while True:
        asked = perf_counter()
        text = client.result_text(study_id)
        if text is not None:
            break
        if asked - started > STUDY_TIMEOUT_S:
            raise TimeoutError(f"study {study_id} did not finish")
        sleep(POLL_S)
    reply.end = perf_counter()
    reply.submit_s = submitted - started
    reply.wait_s = asked - submitted
    reply.fetch_s = reply.end - asked
    reply.text = text


def boot(
    warm_docs: List[Dict[str, Any]], analyze: Dict[str, Any]
) -> Tuple[ServerProcess, float]:
    """Start a server and warm it up; returns it with the set-up time."""
    started = perf_counter()
    server = ServerProcess()
    try:
        with ServeClient(port=server.port) as client:
            client.wait_ready(timeout_s=60.0, poll_s=0.01)
            client.analyze(analyze)
            for doc in warm_docs:
                fetch_study(client, doc, Reply(Request(-1, 0.0, "new", doc)))
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - started


class Traffic:
    """The open-loop generator: one thread and connection per lane."""

    def __init__(
        self, port: int, schedule: List[Request],
        warm_docs: List[Dict[str, Any]],
    ) -> None:
        self.port = port
        self.schedule = schedule
        self.warm_docs = warm_docs
        self.replies: List[Optional[Reply]] = [None] * len(schedule)
        # Two lanes (client threads and connections): studies, reads.
        self.lanes = [
            [r for r in schedule if r.kind == "new"],
            [r for r in schedule if r.kind != "new"],
        ]
        self.start = 0.0
        # Host-speed samples (clock, scale), taken only while the server
        # and both clients are idle.
        self.speeds: List[Tuple[float, float]] = []
        self.lock = threading.Lock()
        self.in_flight = 0
        self.sent = 0

    def body(self, request: Request) -> Dict[str, Any]:
        if request.kind != "resubmit":
            return request.body
        if request.target < 0:
            return self.warm_docs[-1 - request.target]
        return self.schedule[request.target].body

    def run(self) -> None:
        """Drive the schedule; the main thread samples the host speed.

        A speed sample is kept only if no request was in flight or
        started while it ran, so the program's own load never slows the
        probe that normalizes it.  The server is idle before the first
        request and after the last, so those two samples always count.
        """
        probe = SpeedProbe()
        self.speeds.append((perf_counter(), probe.scale()))
        self.start = perf_counter() + 0.05
        dues = [self.start + request.due_s for request in self.schedule]
        threads = [
            threading.Thread(
                target=self.client_loop, args=(lane,), name=f"client-{i}"
            )
            for i, lane in enumerate(self.lanes)
        ]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            now = perf_counter()
            i = bisect_left(dues, now)
            with self.lock:
                idle, sent = self.in_flight == 0, self.sent
            if idle and (i == len(dues) or dues[i] - now > PROBE_CLEAR_S):
                scale = probe.scale()
                with self.lock:
                    if self.in_flight == 0 and self.sent == sent:
                        self.speeds.append((perf_counter(), scale))
            sleep(PROBE_EVERY_S)
        for thread in threads:
            thread.join()
        self.speeds.append((perf_counter(), probe.scale()))
        for reply in self.replies:
            if reply is not None:
                due = self.start + reply.request.due_s
                reply.scale = self.scale_at((due + reply.end) / 2)

    def scale_at(self, clock: float) -> float:
        """The host-speed sample nearest in time to ``clock``."""
        times = [when for when, _ in self.speeds]
        i = bisect_left(times, clock)
        nearest = min(
            (j for j in (i - 1, i) if 0 <= j < len(times)),
            key=lambda j: abs(times[j] - clock),
        )
        return self.speeds[nearest][1]

    def client_loop(self, lane: List[Request]) -> None:
        with ServeClient(port=self.port, timeout_s=60.0) as client:
            for request in lane:
                due = self.start + request.due_s
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                reply = Reply(request, late_s=perf_counter() - due)
                with self.lock:
                    self.in_flight += 1
                    self.sent += 1
                try:
                    if request.kind == "analyze":
                        reply.report = client.analyze(request.body)
                        reply.end = perf_counter()
                    else:
                        fetch_study(client, self.body(request), reply)
                except Exception as exc:  # counted as a failed request
                    reply.error = f"{type(exc).__name__}: {exc}"
                    reply.end = perf_counter()
                finally:
                    with self.lock:
                        self.in_flight -= 1
                reply.latency_s = reply.end - due
                self.replies[request.index] = reply


def server_study_s(telemetry: Dict[str, Any]) -> float:
    """The served study's wall time: the extent of its track-0 spans."""
    events = [e for e in telemetry.get("events", ()) if e["tid"] == 0]
    if not events:
        return 0.0
    return (
        max(e["start_us"] + e["dur_us"] for e in events)
        - min(e["start_us"] for e in events)
    ) * 1e-6


def check_and_trace(
    replies: List[Reply],
    warm_texts: List[Optional[str]],
    expected_rows: int,
    check_rng: np.random.Generator,
    traced_from: float,
    outcome: Outcome,
) -> None:
    """Output checks for every reply; traced replies become OpTraces."""
    new_indices = [r.request.index for r in replies if r.request.kind == "new"]
    sample = set(
        check_rng.permutation(new_indices)[:EQUALS_SAMPLE].tolist()
    )
    texts: Dict[int, str] = {}
    extra: Dict[str, List[float]] = {}
    for reply in replies:
        request = reply.request
        traced = request.due_s >= traced_from
        if reply.error is not None:
            outcome.fail(f"{request.kind} #{request.index}: {reply.error}")
            continue
        if request.kind == "analyze":
            local = run_analyze(parse_analyze_request(dict(request.body)))
            if reply.report != local:
                outcome.fail(f"analyze #{request.index}: report differs")
            if traced:
                extra.setdefault("serve.analyze_p50_s", []).append(
                    reply.latency_s * reply.scale
                )
            continue
        try:
            served = StudyResult.from_json(reply.text)
        except Exception as exc:
            outcome.fail(f"{request.kind} #{request.index}: undecodable: {exc}")
            continue
        if len(served) != expected_rows:
            outcome.fail(f"{request.kind} #{request.index}: {len(served)} rows")
        if request.kind == "new":
            texts[request.index] = reply.text
            if request.index in sample:
                local = run_study(StudySpec.from_dict(request.body))
                if not served.equals(local):
                    outcome.fail(f"new #{request.index}: differs from run_study")
        else:
            target = request.target
            original = warm_texts[-1 - target] if target < 0 else texts.get(target)
            if original is not None and reply.text != original:
                outcome.fail(f"resubmit #{request.index}: bytes differ")
        if traced:
            trace_reply(reply, served, outcome, extra)
    for name, values in extra.items():
        outcome.layer_metrics[name] = median(values)


def trace_reply(
    reply: Reply, served: StudyResult, outcome: Outcome,
    extra: Dict[str, List[float]],
) -> None:
    """One traced reply as layer self times of its latency.

    The server may run a study while its submit is still in flight, so
    the study is not nested in any one client call; the ``serve`` layer
    is the request time the study does not cover (HTTP, queueing,
    result encoding, polling) and the study's own spans split the rest.
    """
    trace = OpTrace(rows=len(served), wall_s=reply.latency_s)
    in_flight = reply.submit_s + reply.wait_s + reply.fetch_s
    if reply.request.kind == "resubmit":
        trace.add({"load.late": reply.late_s, "serve": in_flight})
        trace.normalize(reply.scale)
        outcome.trace("read", trace)
        return
    telemetry = served.telemetry or {}
    study_s = server_study_s(telemetry)
    trace.add({"load.late": reply.late_s, "serve": max(0.0, in_flight - study_s)})
    trace.absorb(telemetry_spans(telemetry))
    trace.normalize(reply.scale)
    outcome.trace("op", trace)
    for name, value in {
        "serve.submit_s": reply.submit_s * reply.scale,
        "serve.wait_s": reply.wait_s * reply.scale,
        "serve.fetch_s": reply.fetch_s * reply.scale,
        "serve.server_study_s": study_s * reply.scale,
        "serve.response_bytes": len(reply.text),
        "result.bytes_per_row": len(reply.text) / len(served),
    }.items():
        extra.setdefault(name, []).append(value)


def run(
    sizes: Sizes,
    rng: np.random.Generator,
    check_rng: np.random.Generator,
    seconds: float,
    trace: bool,
) -> Tuple[Outcome, List[float]]:
    """Run serve-mixed; returns the outcome and the set-up samples."""
    outcome = Outcome()
    warm_docs = [
        knob_spec(rng, sizes.serve_shape).to_dict()
        for _ in range(WARM_TARGETS)
    ]
    schedule = serve_schedule(rng, sizes, seconds, WARM_TARGETS)
    analyze = {"uav": "dji-spark", "runtime_s": 0.1}
    probe = SpeedProbe()
    scale = probe.scale()
    server, elapsed = boot(warm_docs, analyze)
    setup = [elapsed * scale]
    for _ in range(BOOTS - 1):
        server.stop()
        scale = probe.scale()
        server, elapsed = boot(warm_docs, analyze)
        setup.append(elapsed * scale)
    try:
        with ServeClient(port=server.port) as client:
            warm_texts = [
                client.result_text(client.submit(doc)["study_id"])
                for doc in warm_docs
            ]
        traffic = Traffic(server.port, schedule, warm_docs)
        traffic.run()
        with ServeClient(port=server.port) as client:
            stats = client.stats()["counters"]
        outcome.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    replies = [r for r in traffic.replies if r is not None]
    outcome.attempted = len(schedule)
    if len(replies) < len(schedule):
        outcome.fail(f"{len(schedule) - len(replies)} request(s) never ran")
    expected_rows = int(np.prod(sizes.serve_shape))
    traced_from = seconds / 2 if trace else float("inf")
    for reply in replies:
        if reply.error is not None or reply.request.due_s >= traced_from:
            continue
        if reply.request.kind == "new":
            outcome.record("op", reply.latency_s, reply.scale, expected_rows)
        elif reply.request.kind == "resubmit":
            outcome.record("read", reply.latency_s, reply.scale, 0)
    # Open loop: the schedule fixes how many studies arrive, so rows
    # count against the (normalized) time the new studies took, as on
    # the closed-loop workloads, not against the schedule's wall span.
    outcome.busy_s = sum(outcome.samples.get("op", []))
    check_and_trace(
        replies, warm_texts, expected_rows, check_rng, traced_from, outcome
    )
    if trace:
        submitted = stats.get("serve.studies.submitted", 0)
        coalesced = stats.get("serve.studies.coalesced", 0)
        outcome.layer_metrics.update(
            {
                # The server traces every study: no untraced half exists.
                "trace.overhead_ratio": None,
                "serve.executed": stats.get("serve.studies.executed", 0),
                "serve.failed": stats.get("serve.studies.failed", 0),
                "serve.rejected": stats.get("serve.studies.rejected", 0),
                "serve.coalesced": coalesced,
                "serve.coalesce_ratio": (
                    coalesced / (coalesced + submitted)
                    if coalesced + submitted else 0.0
                ),
                "load.late_p90_s": percentile(
                    [r.late_s for r in replies], 90
                ),
            }
        )
    return outcome, setup
