"""Differential harness: the sharded control plane vs the single scheduler.

Two claims, two test families (DESIGN.md §14):

* **N=1 is the single scheduler, bitwise.**  An identical 5k-job,
  50-user workload — crashes included — runs through `FleetScheduler`
  and `ShardedFleetScheduler(shards=1)`; the PR-5 fingerprint
  (completion order, delivered bytes, crash/requeue/batch counts,
  virtual clock) must be equal field for field.

* **Any N dispatches the same job set.**  A Hypothesis property drives
  arbitrary workloads through arbitrary shard counts and asserts the
  union of per-shard dispatches equals the single-shard job set — no
  duplicates, no losses — and per-user delivered bytes are preserved.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import (
    FleetScheduler,
    ScheduledTask,
    SchedulerConfig,
    ShardedFleetScheduler,
)
from repro.sim.faults import ChaosConfig
from repro.sim.world import World

N_JOBS = 5000
N_USERS = 50
WORKER_HOSTS = tuple(f"wh-{i}" for i in range(8))

_CONFIG = dict(
    workers=len(WORKER_HOSTS), worker_hosts=WORKER_HOSTS,
    lease_s=40.0, heartbeat_s=8.0, max_task_attempts=100,
)


def scheduler_fingerprint(world: World, scheduler) -> dict:
    """The equivalence fingerprint, scheduler-shape agnostic.

    Works for both :class:`FleetScheduler` and
    :class:`ShardedFleetScheduler`: completion order by task id,
    delivered bytes per user, every lifecycle count summed across all
    label series, and the virtual clock.  Two runs with equal
    fingerprints dispatched the same work in the same order with the
    same failures — the bit-for-bit N=1 gate compares nothing else.
    """
    metrics = world.metrics

    def total(name: str) -> float:
        metric = metrics.get(name)
        return metric.total() if metric is not None else 0.0

    completed = scheduler.completed_tasks
    return {
        "completion_order": [t.task_id for t in completed],
        "delivered_bytes": {t.task_id: t.delivered_bytes for t in completed},
        "bytes_by_user": scheduler.queue.delivered_bytes(),
        "submitted": total("scheduler_submitted_total"),
        "completed": total("scheduler_completed_total"),
        "failed": total("scheduler_task_failures_total"),
        "requeued": total("scheduler_requeued_total"),
        "expired": total("scheduler_lease_expirations_total"),
        "crashes": total("scheduler_worker_crashes_total"),
        "batches": total("scheduler_batches_coalesced_total"),
        "batched_files": total("scheduler_batched_files_total"),
        "virtual_clock": world.now,
    }


def _drive(make_sched, seed=7, chaos=True):
    """Run the canonical 5k-job workload and return its fingerprint."""
    world = World(seed=seed)
    if chaos:
        world.chaos.configure(ChaosConfig(
            host_crash_every_s=600.0, host_downtime_s=(10.0, 30.0),
            horizon_s=10 * 24 * 3600.0,
        ))
        world.chaos.arm(hosts=list(WORKER_HOSTS))
    sched = make_sched(world)
    for i in range(N_USERS):
        sched.set_weight(f"user{i}", 1.0 + (i % 4))
    for i in range(N_JOBS):
        size = 1000 + (i * 7919) % 50000
        sched.submit(ScheduledTask(
            task_id="", user=f"user{i % N_USERS}",
            src_endpoint=f"ep-{i % 4}", dst_endpoint=f"ep-{(i + 1) % 4}",
            size_hint=size,
            execute=lambda size=size: (world.advance(2.0), size)[1],
            measure=lambda r: r,
        ))
    serviced = sched.run_until_idle(max_ticks=10_000_000)
    assert serviced == N_JOBS
    return scheduler_fingerprint(world, sched)


_fingerprints: dict[str, dict] = {}


def _fingerprint(kind):
    if kind not in _fingerprints:
        if kind == "single":
            _fingerprints[kind] = _drive(
                lambda w: FleetScheduler(w, SchedulerConfig(**_CONFIG)))
        else:
            _fingerprints[kind] = _drive(
                lambda w: ShardedFleetScheduler(
                    w, SchedulerConfig(**_CONFIG), shards=int(kind)))
    return _fingerprints[kind]


def test_n1_fingerprint_bit_for_bit_identical():
    """The tentpole gate: sharded-at-one IS the single scheduler."""
    single = _fingerprint("single")
    sharded = _fingerprint("1")
    for key in single:
        assert sharded[key] == single[key], f"fingerprint field {key!r} diverged"
    # the run was genuinely chaotic, so the equality is earned
    assert single["crashes"] > 0
    assert single["requeued"] > 0


def test_n4_preserves_job_set_and_user_bytes():
    """Sharding changes interleaving, never the work: same job set
    completed exactly once, same bytes delivered to every user."""
    single = _fingerprint("single")
    sharded = _fingerprint("4")
    assert sorted(sharded["completion_order"]) == sorted(single["completion_order"])
    assert len(set(sharded["completion_order"])) == N_JOBS
    assert sharded["delivered_bytes"] == single["delivered_bytes"]
    assert sharded["bytes_by_user"] == single["bytes_by_user"]
    assert sharded["completed"] == single["completed"]
    assert sharded["failed"] == single["failed"] == 0


# -- the union property across arbitrary shard counts -----------------------

def _union_run(seed, shards, njobs, nusers):
    world = World(seed=seed)
    sched = ShardedFleetScheduler(
        world, SchedulerConfig(workers=6), shards=shards)
    executions: list[str] = []

    def payload(task_id):
        def run():
            executions.append(task_id)
            world.advance(1.0)
            return 500
        return run

    for i in range(njobs):
        sched.submit(ScheduledTask(
            task_id=f"t{i}", user=f"u{i % nusers}",
            src_endpoint="a", dst_endpoint="b", size_hint=500,
            execute=payload(f"t{i}"), measure=lambda r: r,
        ))
    assert sched.run_until_idle(max_ticks=1_000_000) == njobs
    return executions, sched.queue.delivered_bytes()


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(5, 60),
    st.integers(1, 8),
)
def test_union_of_shard_dispatches_equals_single_shard_set(
        seed, shards, njobs, nusers):
    """For any shard count: every job dispatches exactly once, and the
    union of per-shard dispatches is the single-shard job set."""
    sharded_execs, sharded_bytes = _union_run(seed, shards, njobs, nusers)
    single_execs, single_bytes = _union_run(seed, 1, njobs, nusers)
    # no losses, no duplicates
    assert sorted(sharded_execs) == sorted(f"t{i}" for i in range(njobs))
    assert len(sharded_execs) == len(set(sharded_execs))
    # the union equals the single-shard set, bytes and all
    assert sorted(sharded_execs) == sorted(single_execs)
    assert sharded_bytes == single_bytes
