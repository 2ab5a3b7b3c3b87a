"""Shard leases over a shared checkpoint directory.

The PR-4 checkpoint protocol already makes a directory of atomic
``shard-<index>.jsonl`` records a coordination-free description of
*what is done*; this module adds the complementary claim layer for
*who is working on what*.  A lease is a small JSON file under
``<work-dir>/leases/`` whose **creation** (``O_CREAT | O_EXCL``) is the
claim arbitration, whose **mtime** is the liveness signal (refreshed
atomically by heartbeats), and whose **deletion** is the release.

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
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from ..errors import ConfigurationError, LeaseConflictError, StaleLeaseError
from ..io.serialization import lease_record_from_dict, lease_record_to_dict
from ..obs.tracer import Tracer

#: Subdirectory of the work dir holding lease files (and the clock
#: probes); kept apart from the shard records so ``shard-*.jsonl``
#: globs never see lease traffic.
LEASE_DIR_NAME = "leases"

#: Default lease time-to-live.  A worker that misses heartbeats for
#: this long is presumed dead and its shard becomes claimable.
DEFAULT_LEASE_TTL_S = 30.0


@dataclass(frozen=True)
class LeaseRecord:
    """The body of one lease file (see :mod:`repro.io.serialization`).

    The body is identity and diagnostics only — liveness lives in the
    file's mtime, never in these fields.
    """

    spec_digest: str
    shard_index: int
    owner: str
    lease_ttl_s: float
    heartbeats: int


def _generation(stat: os.stat_result) -> Tuple[int, int]:
    """A lease file's identity: every create, heartbeat and steal
    publishes a new inode with a new mtime."""
    return stat.st_ino, stat.st_mtime_ns


class LeaseStore:
    """Claim, heartbeat, steal and release shard leases in a work dir.

    One instance per (worker, study): ``owner`` names this worker in
    every lease it takes, ``spec_digest`` pins the store to one study
    so a lease from a different study in the same directory is treated
    as foreign (corrupt) rather than honored.

    All mutating operations are single-syscall-atomic (``O_EXCL``
    create, ``os.replace`` rewrite, ``os.replace`` steal-rename,
    unlink), so any interleaving with other workers — or a crash at any
    point — leaves the directory in a state the protocol recovers from.
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
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- paths and the filesystem clock --------------------------------
    def lease_path(self, index: int) -> Path:
        return self.directory / f"shard-{index:06d}.lease.json"

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
    def _inspect(
        self, path: Path, now_s: Optional[float] = None
    ) -> Tuple[str, Optional[LeaseRecord], Optional[Tuple[int, int]]]:
        """(state, record, generation) for one lease file.

        States: ``"missing"``, ``"held"`` (live), ``"expired"`` (no
        heartbeat within the holder's declared ttl), or ``"corrupt"``
        (unparseable, torn, or from a different study/protocol — always
        claimable, never trusted).  ``generation`` identifies the file
        inspected (see :func:`_generation`); ``None`` when missing.
        """
        try:
            raw = path.read_text(encoding="utf-8")
            stat = path.stat()
        except OSError:
            return "missing", None, None
        generation = _generation(stat)
        try:
            record = lease_record_from_dict(json.loads(raw))
        except (json.JSONDecodeError, ConfigurationError):
            return "corrupt", None, generation
        if record.spec_digest != self.spec_digest:
            return "corrupt", record, generation
        if now_s is None:
            now_s = self.clock_s()
        if now_s - stat.st_mtime > record.lease_ttl_s:
            return "expired", record, generation
        return "held", record, generation

    def holder(self, index: int) -> Optional[LeaseRecord]:
        """The live holder of a shard's lease, if any."""
        state, record, _ = self._inspect(self.lease_path(index))
        return record if state == "held" else None

    def active(self) -> Dict[int, LeaseRecord]:
        """Every live lease in the directory, keyed by shard index."""
        now_s = self.clock_s()
        live: Dict[int, LeaseRecord] = {}
        for path in sorted(self.directory.glob("shard-*.lease.json")):
            state, record, _ = self._inspect(path, now_s=now_s)
            if state == "held" and record is not None:
                live[record.shard_index] = record
        return live

    # -- claiming ------------------------------------------------------
    def try_claim(self, index: int) -> Optional[LeaseRecord]:
        """Claim a shard's lease; ``None`` if a live worker holds it.

        Free shard: a single ``O_EXCL`` create wins or loses the race
        outright.  Expired or corrupt lease: the old file is first
        renamed aside to a per-owner tombstone — ``os.replace`` of a
        vanished source raises, so exactly one of N concurrent stealers
        gets to retire the old lease and contend for the fresh claim.
        A stealer retires only the generation it inspected: a late one
        whose lease was re-claimed meanwhile loses instead of retiring
        the fresh lease.
        A corrupt (torn, truncated, foreign) lease is *warned about*
        and treated as expired; it must never wedge its shard.
        """
        path = self.lease_path(index)
        record = LeaseRecord(
            spec_digest=self.spec_digest,
            shard_index=index,
            owner=self.owner,
            lease_ttl_s=self.lease_ttl_s,
            heartbeats=0,
        )
        payload = json.dumps(lease_record_to_dict(record)) + "\n"
        if self._create_exclusive(path, payload):
            self._count("distrib.leases.claimed")
            return record
        state, existing, generation = self._inspect(path)
        if state == "held":
            return None
        if state == "missing":
            # Released between our failed create and the inspect; one
            # immediate retry, then defer to the next claim pass.
            if self._create_exclusive(path, payload):
                self._count("distrib.leases.claimed")
                return record
            return None
        if state == "corrupt":
            warnings.warn(
                f"lease file {path.name} is corrupt or torn; treating "
                f"shard {index} as unclaimed",
                RuntimeWarning,
                stacklevel=2,
            )
            self._count("distrib.leases.corrupt")
        tombstone = path.with_name(path.name + f".stale-{self.owner}")
        try:
            if _generation(path.stat()) != generation:
                return None  # a faster stealer re-claimed it since
            os.replace(path, tombstone)
        except OSError:
            return None  # another stealer retired it first
        try:
            retired = _generation(tombstone.stat()) == generation
            if not retired:
                # A fresh lease replaced the inspected one between the
                # check and the rename: put it back (unless a claimant
                # took the free name meanwhile) and lose.
                os.link(tombstone, path)
        except OSError:
            retired = False
        tombstone.unlink(missing_ok=True)
        if not retired:
            return None
        if self._create_exclusive(path, payload):
            self._count("distrib.leases.claimed")
            if state == "expired":
                self._count("distrib.leases.stolen")
                if existing is not None:
                    warnings.warn(
                        f"lease on shard {index} held by "
                        f"{existing.owner!r} expired (no heartbeat "
                        f"within {existing.lease_ttl_s:g}s); re-claiming",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            return record
        return None

    def claim(self, index: int) -> LeaseRecord:
        """Like :meth:`try_claim`, but a refusal raises.

        Raises :class:`~repro.errors.LeaseConflictError` naming the
        live holder when the shard is taken.
        """
        record = self.try_claim(index)
        if record is not None:
            return record
        holder = self.holder(index)
        owner = holder.owner if holder is not None else None
        held_by = f" by {owner!r}" if owner is not None else ""
        raise LeaseConflictError(
            f"shard {index} is already leased{held_by}; it becomes "
            f"claimable if its holder misses heartbeats for "
            f"{self.lease_ttl_s:g}s",
            shard_index=index,
            owner=owner,
        )

    # -- holding -------------------------------------------------------
    def heartbeat(self, index: int) -> LeaseRecord:
        """Refresh a held lease's liveness (atomic rewrite, mtime bump).

        Raises :class:`~repro.errors.StaleLeaseError` if the lease has
        vanished or was re-claimed by another worker — the signal to
        abandon the shard (its record, if we still publish one, is
        byte-identical to the thief's, so nothing is lost).
        """
        path = self.lease_path(index)
        state, record, _ = self._inspect(path)
        if record is None or state == "missing":
            raise StaleLeaseError(
                f"lease on shard {index} vanished (released or stolen "
                f"after missed heartbeats)",
                shard_index=index,
                owner=self.owner,
            )
        if record.owner != self.owner:
            raise StaleLeaseError(
                f"lease on shard {index} now belongs to "
                f"{record.owner!r} (this worker {self.owner!r} was "
                f"presumed dead and its lease re-claimed)",
                shard_index=index,
                owner=record.owner,
            )
        refreshed = replace(record, heartbeats=record.heartbeats + 1)
        tmp = path.with_name(path.name + f".hb-{self.owner}")
        tmp.write_text(
            json.dumps(lease_record_to_dict(refreshed)) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        self._count("distrib.heartbeats")
        return refreshed

    def release(self, index: int) -> bool:
        """Drop this worker's lease on a shard.

        Returns ``False`` if the lease is already gone (releases are
        idempotent; a completed shard's lease may be swept by whichever
        worker observes the record first).  Raises
        :class:`~repro.errors.StaleLeaseError` if another live worker
        holds the shard now — deleting *their* lease would invite a
        third claim.
        """
        path = self.lease_path(index)
        state, record, _ = self._inspect(path)
        if state == "missing":
            return False
        if record is not None and record.owner != self.owner:
            if state == "held":
                raise StaleLeaseError(
                    f"cannot release shard {index}: its lease now "
                    f"belongs to {record.owner!r} (this worker "
                    f"{self.owner!r} was presumed dead)",
                    shard_index=index,
                    owner=record.owner,
                )
            return False  # expired foreign lease; leave it to a stealer
        path.unlink(missing_ok=True)
        self._count("distrib.leases.released")
        return True

    def sweep(self, indices: Iterable[int]) -> int:
        """Remove leases (any owner's) for shards known to be complete.

        Once a shard's record is on disk its lease is pure litter —
        including a crashed worker's, which would otherwise linger for
        a ttl.  Also clears abandoned steal-tombstones.  Returns the
        number of lease files removed.
        """
        removed = 0
        for index in indices:
            path = self.lease_path(index)
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
            for tombstone in self.directory.glob(f"{path.name}.stale-*"):
                tombstone.unlink(missing_ok=True)
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
