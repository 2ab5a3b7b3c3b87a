"""Benchmark: distributed studies (repro.distrib) as a fleet.

Two measurements over one shared work dir (threads standing in for
hosts — the protocol only sees the filesystem, so thread-workers
exercise exactly the claim/steal/heartbeat paths real hosts do):

* **distrib-identity** — a 3-worker fleet (initiator + 2 joiners)
  finishing a study whose shard 0 is held by a pre-seeded *ghost
  lease* (a crashed worker that will never heartbeat again).  The
  gated ``match_rate`` is 1.0 iff the merged result is byte-identical
  to the single-host run *and* the finished dir holds zero lease
  files — deterministically 1.0 while the protocol works and 0.0 the
  moment recovery or the merge breaks, which is what a regression
  gate wants.  Raw seconds (serial vs fleet) ride along ungated.
* **distrib-claims** — lease-layer accounting for the same run:
  total shards computed across the fleet (duplicate work shows up as
  the excess over ``n_shards``), steals, and wait polls.  Recorded
  for the trajectory, never gated (contention is scheduler weather).

``REPRO_BENCH_SMOKE=1`` shrinks the grid; ``REPRO_RECORD_BENCH=1`` /
``REPRO_BENCH_OUT=<dir>`` record rows to
``benchmarks/results/bench_distrib.json`` or ``<dir>``.
"""

from __future__ import annotations

import threading
import warnings
from time import perf_counter

from _recording import SMOKE, record

from repro.batch import shard_ranges
from repro.distrib import DistributedExecutor, LeaseStore, run_worker
from repro.obs import Tracer
from repro.study import DesignSpec, StudySpec, run_study

N_ROWS = 64 if SMOKE else 2048
CHUNK_ROWS = 8 if SMOKE else 64
N_JOINERS = 2

#: The ghost's declared ttl: tiny, so the fleet steals immediately.
GHOST_TTL_S = 0.05


def _spec(n_rows: int) -> StudySpec:
    values = [1.0 + 0.01 * i for i in range(n_rows)]
    return StudySpec(
        design=DesignSpec.knob_axes(axes={"compute_tdp_w": values})
    )


def test_bench_distrib_identity(tmp_path):
    """Fleet + ghost lease vs single host: byte-identical, no litter."""
    spec = _spec(N_ROWS)
    started = perf_counter()
    serial = run_study(spec)
    serial_s = perf_counter() - started

    n_shards = len(shard_ranges(N_ROWS, CHUNK_ROWS))
    # The ghost claimed shard 0 before the initiator even stamped the
    # work dir; joiners wait for the initiator's manifest and spec.
    ghost = LeaseStore(
        tmp_path, spec.content_digest(), "ghost", lease_ttl_s=GHOST_TTL_S
    )
    assert ghost.try_claim(0) is not None

    tracer = Tracer()
    reports = []

    def join(i: int) -> None:
        reports.append(
            run_worker(
                tmp_path,
                worker_id=f"joiner-{i}",
                lease_ttl_s=10.0,
                poll_interval_s=0.02,
                wait_s=30.0,
                tracer=tracer,
            )
        )

    threads = [
        threading.Thread(target=join, args=(i,)) for i in range(N_JOINERS)
    ]
    started = perf_counter()
    for thread in threads:
        thread.start()
    with warnings.catch_warnings():
        # The ghost's expiry warning is this bench's expected path.
        warnings.simplefilter("ignore", RuntimeWarning)
        with DistributedExecutor(
            tmp_path,
            worker_id="initiator",
            lease_ttl_s=10.0,
            poll_interval_s=0.02,
        ) as executor:
            distributed = run_study(
                spec, executor=executor, chunk_rows=CHUNK_ROWS, tracer=tracer
            )
    for thread in threads:
        thread.join()
    distrib_s = perf_counter() - started

    orphans = len(list((tmp_path / "leases").glob("*.lease.json")))
    # equals() is bitwise on every column; telemetry (span timings,
    # which legitimately differ run-to-run) is excluded by contract.
    identical = distributed.equals(serial)
    match_rate = 1.0 if identical and orphans == 0 else 0.0
    counters = tracer.counters_snapshot()
    computed_total = counters.get("distrib.shards.computed", 0)

    record(
        "bench_distrib.json",
        "distrib-identity",
        [
            {
                "points": N_ROWS,
                "chunk_rows": CHUNK_ROWS,
                "workers": N_JOINERS + 1,
                "n_shards": n_shards,
                "match_rate": match_rate,
                "orphaned_leases": orphans,
                "serial_s": serial_s,
                "distrib_s": distrib_s,
            }
        ],
    )
    record(
        "bench_distrib.json",
        "distrib-claims",
        [
            {
                "points": N_ROWS,
                "n_shards": n_shards,
                "computed_total": computed_total,
                "duplicate_shards": max(0, computed_total - n_shards),
                "stolen": counters.get("distrib.leases.stolen", 0),
                "swept": counters.get("distrib.leases.swept", 0),
                "wait_polls": counters.get("distrib.wait_polls", 0),
            }
        ],
    )
    print(
        f"\ndistrib-identity: {N_JOINERS + 1} workers, {n_shards} shards "
        f"(+1 ghost lease): match_rate={match_rate:.0f}, "
        f"computed_total={computed_total}, "
        f"stolen={counters.get('distrib.leases.stolen', 0)}, "
        f"serial={serial_s:.3f}s fleet={distrib_s:.3f}s"
    )
    assert identical, "distributed result diverged from single-host run"
    assert orphans == 0, f"{orphans} lease file(s) left after completion"
    assert computed_total >= n_shards
