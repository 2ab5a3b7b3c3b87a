"""Shard leases over a shared checkpoint directory.

The PR-4 checkpoint protocol already makes a directory of atomic
``shard-<index>.jsonl`` records a coordination-free description of
*what is done*; this module adds the complementary claim layer for
*who is working on what*.  A shard's lease is the highest-numbered of
its generation files, ``<work-dir>/leases/`` entries named
``shard-<index>.<generation>.lease.json``.
A claim is the exclusive **creation** of the next generation, so each
generation has exactly one winner and no lease file is ever moved; the
file's **mtime** is the liveness signal (bumped by heartbeats), and
its **deletion** is the release.

Correctness never depends on leases: shard evaluation is deterministic
and records are published with write-then-rename, so two workers
computing the same shard produce byte-identical records and the second
rename is a no-op.  Leases exist purely to keep N hosts from wasting
work on the same shard, which is why every failure path here degrades
to "treat as free and re-claim" rather than wedging a shard.

Clocks: wall-clock timestamps are banned from the wire (hosts disagree
about them).  Staleness is judged entirely on the *shared filesystem's*
clock, by comparing a lease file's mtime against the mtime of a probe
file freshly written to the same directory.  Both stamps come from the
same fileserver, so worker clock skew cancels out.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError, StaleLeaseError
from ..io.serialization import lease_record_from_dict, lease_record_to_dict
from ..obs.tracer import Tracer

#: Subdirectory of the work dir holding lease files (and the clock
#: probes); kept apart from the shard records so ``shard-*.jsonl``
#: globs never see lease traffic.
LEASE_DIR_NAME = "leases"

#: Default lease time-to-live.  A worker that misses heartbeats for
#: this long is presumed dead and its shard becomes claimable.
DEFAULT_LEASE_TTL_S = 30.0

#: ``shard-<index>.<generation>.lease.json``; temporaries never match.
_LEASE_NAME = re.compile(r"shard-(\d+)\.(\d+)\.lease\.json")


@dataclass(frozen=True)
class LeaseRecord:
    """The body of one lease file (see :mod:`repro.io.serialization`).

    The body is identity and diagnostics only — liveness lives in the
    file's mtime and precedence in its generation, never in these
    fields.
    """

    spec_digest: str
    shard_index: int
    owner: str
    lease_ttl_s: float


class LeaseStore:
    """Claim, heartbeat, steal and release shard leases in a work dir.

    One instance per (worker, study): ``owner`` names this worker in
    every lease it takes, ``spec_digest`` pins the store to one study
    so a lease from a different study in the same directory is treated
    as foreign (corrupt) rather than honored.  The instance remembers
    the generation of each lease it wins; its heartbeats and releases
    touch that file and no other.

    Every mutation is one syscall: the exclusive create of a new
    generation, an ``os.utime`` of the holder's own file, or the unlink
    of a released, superseded or finished lease.  So any interleaving
    with other workers — or a crash at any point — leaves the directory
    in a state the protocol recovers from.
    """

    def __init__(
        self,
        work_dir: Union[str, Path],
        spec_digest: str,
        owner: str,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not spec_digest:
            raise ConfigurationError("lease store needs a non-empty digest")
        if not owner or any(sep in owner for sep in ("/", "\\", "\0")):
            raise ConfigurationError(
                f"worker id {owner!r} must be non-empty and contain no "
                "path separators (it names files in the work dir)"
            )
        if not lease_ttl_s > 0:
            raise ConfigurationError(
                f"lease_ttl_s must be > 0, got {lease_ttl_s}"
            )
        self.directory = Path(work_dir) / LEASE_DIR_NAME
        self.spec_digest = spec_digest
        self.owner = owner
        self.lease_ttl_s = float(lease_ttl_s)
        self._tracer = tracer
        self._held: Dict[int, int] = {}
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- paths and the filesystem clock --------------------------------
    def lease_path(self, index: int, generation: int) -> Path:
        return self.directory / f"shard-{index:06d}.{generation}.lease.json"

    def clock_s(self) -> float:
        """Now, according to the work dir's filesystem.

        Writes (atomically replaces) this worker's private probe file
        and returns its mtime: the same clock that stamps every lease
        file, so expiry comparisons are skew-free across hosts.
        """
        probe = self.directory / f".clock-{self.owner}"
        tmp = self.directory / f".clock-{self.owner}.tmp"
        tmp.write_text("", encoding="utf-8")
        os.replace(tmp, probe)
        return probe.stat().st_mtime

    # -- reading -------------------------------------------------------
    def _files(self, indices: Container[int]) -> List[Tuple[int, Path]]:
        """(generation, path) of every lease file of the shards
        ``indices``, highest generation first."""
        found: List[Tuple[int, Path]] = []
        for path in self.directory.iterdir():
            match = _LEASE_NAME.fullmatch(path.name)
            if match and int(match[1]) in indices:
                found.append((int(match[2]), path))
        return sorted(found, reverse=True)

    def _inspect(self, index: int) -> Tuple[str, int, Optional[LeaseRecord]]:
        """(state, generation, record) of a shard's top generation file.

        States: ``"free"`` (no lease file, or the top one vanished as it
        was read), ``"held"`` (live), ``"expired"`` (no heartbeat within
        the holder's declared ttl), or ``"corrupt"`` (unparseable, torn,
        or from a different study/protocol — always claimable, never
        trusted).  ``generation`` is the top one, 0 when there is none;
        a claim creates the next.
        """
        files = self._files((index,))
        if not files:
            return "free", 0, None
        generation, path = files[0]
        try:
            raw = path.read_bytes()
            mtime = path.stat().st_mtime
        except OSError:
            return "free", generation, None
        try:
            record = lease_record_from_dict(json.loads(raw))
        except (ValueError, ConfigurationError):  # not UTF-8 JSON, or invalid
            return "corrupt", generation, None
        if record.spec_digest != self.spec_digest:
            return "corrupt", generation, record
        if self.clock_s() - mtime > record.lease_ttl_s:
            return "expired", generation, record
        return "held", generation, record

    def holder(self, index: int) -> Optional[LeaseRecord]:
        """The live holder of a shard's lease, if any."""
        state, _, record = self._inspect(index)
        return record if state == "held" else None

    # -- claiming ------------------------------------------------------
    def try_claim(self, index: int) -> Optional[LeaseRecord]:
        """Claim a shard's lease; ``None`` if a live worker holds it or
        another claimant wins.

        Free, expired and corrupt leases are claimed alike: by one
        exclusive create of the generation above the one inspected.
        Exactly one of N concurrent claimants wins each generation, and
        a claimant whose inspected generation was superseded meanwhile
        loses, so no claim can retire a fresh lease.  The winner then
        deletes the lower generations.
        A corrupt (torn, truncated, foreign) lease is *warned about*
        and treated as expired; it must never wedge its shard.
        """
        state, top, existing = self._inspect(index)
        if state == "held":
            return None
        if state == "corrupt":
            warnings.warn(
                f"lease file {self.lease_path(index, top).name} is corrupt "
                f"or torn; treating shard {index} as unclaimed",
                RuntimeWarning,
                stacklevel=2,
            )
            self._count("distrib.leases.corrupt")
        record = LeaseRecord(
            spec_digest=self.spec_digest,
            shard_index=index,
            owner=self.owner,
            lease_ttl_s=self.lease_ttl_s,
        )
        payload = json.dumps(lease_record_to_dict(record)) + "\n"
        if not self._create_exclusive(self.lease_path(index, top + 1), payload):
            return None
        self._held[index] = top + 1
        for generation, path in self._files((index,)):
            if generation <= top:
                path.unlink(missing_ok=True)
        self._count("distrib.leases.claimed")
        if state == "expired" and existing is not None:
            self._count("distrib.leases.stolen")
            warnings.warn(
                f"lease on shard {index} held by {existing.owner!r} "
                f"expired (no heartbeat within "
                f"{existing.lease_ttl_s:g}s); re-claiming",
                RuntimeWarning,
                stacklevel=2,
            )
        return record

    # -- holding -------------------------------------------------------
    def heartbeat(self, index: int) -> None:
        """Refresh this worker's lease on a shard (an mtime bump).

        Raises :class:`~repro.errors.StaleLeaseError` once a higher
        generation exists, naming its holder, or when the lease file
        has vanished — the signal to abandon the shard (its record, if
        we still publish one, is byte-identical to the thief's, so
        nothing is lost).
        """
        mine = self._held.get(index, 0)
        _, top, record = self._inspect(index)
        if top > mine:
            owner = record.owner if record is not None else None
            holder = repr(owner) if owner is not None else "a newer claimant"
            raise StaleLeaseError(
                f"lease on shard {index} now belongs to {holder} (this "
                f"worker {self.owner!r} was presumed dead and its lease "
                f"re-claimed)",
                shard_index=index,
                owner=owner,
            )
        try:
            os.utime(self.lease_path(index, mine))
        except FileNotFoundError:
            raise StaleLeaseError(
                f"lease on shard {index} vanished (released or stolen "
                f"after missed heartbeats)",
                shard_index=index,
                owner=self.owner,
            ) from None
        self._count("distrib.heartbeats")

    def release(self, index: int) -> bool:
        """Delete this worker's own lease file on a shard.

        Returns ``False`` if that file is already gone (releases are
        idempotent; a completed shard's lease may be swept by whichever
        worker observes the record first, and a newer generation's
        winner deletes the older ones).  A newer generation, another
        worker's lease, is never touched.
        """
        generation = self._held.pop(index, None)
        if generation is None:
            return False
        try:
            self.lease_path(index, generation).unlink()
        except FileNotFoundError:
            return False
        self._count("distrib.leases.released")
        return True

    def sweep(self, indices: Iterable[int]) -> int:
        """Remove every lease generation (any owner's) of shards known
        to be complete.

        Once a shard's record is on disk its lease files are pure
        litter — including a crashed worker's, which would otherwise
        linger for a ttl, and the older generations a claimant left
        when it died before deleting them.  Returns the number of lease
        files removed.
        """
        removed = 0
        for _generation, path in self._files(set(indices)):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            self._count("distrib.leases.swept", removed)
        return removed

    def _create_exclusive(self, path: Path, payload: str) -> bool:
        """Publish a complete lease file iff ``path`` does not exist.

        Write-then-hard-link: the payload is fully written *before* the
        name appears, and ``os.link`` fails atomically if the name
        exists — so readers never observe a half-written fresh lease.
        Filesystems without hard links fall back to an ``O_EXCL``
        create (the fallback has a microscopic torn-read window, which
        the corrupt-lease recovery path already tolerates).
        """
        tmp = path.with_name(path.name + f".new-{self.owner}")
        tmp.write_text(payload, encoding="utf-8")
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        except OSError:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            try:
                os.write(fd, payload.encode("utf-8"))
            finally:
                os.close(fd)
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def _count(self, name: str, n: int = 1) -> None:
        if self._tracer is not None:
            self._tracer.counter(name).add(n)
