"""Fleet transfer scheduler: fair-share queue, leases, admission, batching.

See DESIGN.md §11 for the scheduling model.  The public surface:

* :class:`FairShareQueue` / :class:`ScheduledTask` — byte-weighted fair
  queuing with FIFO tie-breaks (``queue``).
* :class:`FleetScheduler` / :class:`SchedulerConfig` — the worker pool
  facade with lease-based claims (``workers``).
* :class:`SchedulerLimits` / :class:`AdmissionController` — bounded
  queue, quotas, per-endpoint backpressure (``limits``).
* :class:`BatchCoalescer` — small-file coalescing (``batching``).
* :class:`ShardedFleetScheduler` / :func:`user_shard` — the sharded
  control plane (``sharding``, DESIGN.md §14).
"""

from repro.scheduler.batching import (
    DEFAULT_BATCH_MAX_FILES,
    DEFAULT_BATCH_THRESHOLD_BYTES,
    BatchCoalescer,
    CoalescedBatch,
)
from repro.scheduler.leases import Lease, LeaseTable
from repro.scheduler.limits import (
    DEFAULT_RETRY_AFTER_S,
    AdmissionController,
    SchedulerLimits,
    ServiceTimeEwma,
)
from repro.scheduler.queue import (
    FairShareQueue,
    ScheduledTask,
    TaskState,
    jain_index,
)
from repro.scheduler.sharding import (
    ShardedFleetScheduler,
    user_shard,
)
from repro.scheduler.workers import (
    FleetScheduler,
    SchedulerConfig,
    Worker,
)

__all__ = [
    "AdmissionController",
    "BatchCoalescer",
    "CoalescedBatch",
    "DEFAULT_BATCH_MAX_FILES",
    "DEFAULT_BATCH_THRESHOLD_BYTES",
    "DEFAULT_RETRY_AFTER_S",
    "FairShareQueue",
    "FleetScheduler",
    "Lease",
    "LeaseTable",
    "ScheduledTask",
    "SchedulerConfig",
    "SchedulerLimits",
    "ServiceTimeEwma",
    "ShardedFleetScheduler",
    "TaskState",
    "Worker",
    "jain_index",
    "user_shard",
]
