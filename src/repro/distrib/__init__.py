"""Multi-host distributed studies over the shard-checkpoint protocol.

A shared work directory *is* the coordinator: the PR-4 manifest +
atomic shard records say what is done, and this package's lease files
say who is working on what.  ``docs/distributed-protocol.md`` pins the
wire formats (under
:data:`repro.io.serialization.DISTRIB_PROTOCOL_VERSION`) and
``docs/operations.md`` covers running a fleet.

Two entry points:

* initiate and collect — ``run_study(spec,
  executor=DistributedExecutor(work_dir))``, or
  ``repro-skyline study --spec SPEC --work-dir DIR``;
* join and help — :func:`run_worker`, or
  ``repro-skyline worker --work-dir DIR``.
"""

from .executor import (
    SPEC_FILE_NAME,
    DistributedExecutor,
    default_worker_id,
    publish_spec,
)
from .lease import (
    DEFAULT_LEASE_TTL_S,
    LEASE_DIR_NAME,
    LeaseRecord,
    LeaseStore,
)
from .worker import WorkerReport, open_study, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "LEASE_DIR_NAME",
    "SPEC_FILE_NAME",
    "DistributedExecutor",
    "LeaseRecord",
    "LeaseStore",
    "WorkerReport",
    "default_worker_id",
    "open_study",
    "publish_spec",
    "run_worker",
]
