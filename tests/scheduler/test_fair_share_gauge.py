"""``scheduler_fair_share_error`` is a drain-exit value.

The fair-share error is an O(active users) scan over the lanes, so the
drain loop never recomputes it per completion: each drain writes it
once per shard on exit, and at that point the gauge equals the queue's
own answer.
"""

import pytest

from repro.scheduler import (
    FairShareQueue,
    FleetScheduler,
    ScheduledTask,
    SchedulerConfig,
    ShardedFleetScheduler,
)
from repro.sim.world import World

#: the unpatched scan, for computing expected values without counting them
_fair_share_error = FairShareQueue.fair_share_error


def _task(world, user, task_id, size):
    return ScheduledTask(
        task_id=task_id, user=user, src_endpoint="a", dst_endpoint="b",
        size_hint=size,
        execute=lambda: (world.advance(1.0), size)[1],
        measure=lambda r: r,
    )


@pytest.fixture
def scans(monkeypatch):
    """Count every FairShareQueue.fair_share_error call, per queue."""
    calls: dict[int, int] = {}

    def counted(queue):
        calls[id(queue)] = calls.get(id(queue), 0) + 1
        return _fair_share_error(queue)

    monkeypatch.setattr(FairShareQueue, "fair_share_error", counted)
    return calls


def _load(sched, world, wave):
    # uneven weights and sizes, so the exit value is not trivially zero
    for i in range(24):
        user = f"u{i % 6}"
        sched.set_weight(user, 1.0 + i % 3)
        sched.submit(_task(world, user, f"w{wave}-t{i:02d}", 1000 * (1 + i % 5)))


@pytest.mark.parametrize("shards", [None, 4])
def test_fair_share_gauge_is_written_once_per_shard_on_drain_exit(scans, shards):
    world = World(seed=5)
    if shards is None:
        sched = FleetScheduler(world, SchedulerConfig(workers=2))
        members = [sched]
    else:
        sched = ShardedFleetScheduler(world, SchedulerConfig(workers=4), shards=shards)
        members = sched.shards
    gauge = world.metrics.get("scheduler_fair_share_error")

    for wave in (1, 2):
        scans.clear()
        _load(sched, world, wave)
        assert sched.run_until_idle(max_ticks=10_000) == 24
        assert scans == {id(m.queue): 1 for m in members}
        for member in members:
            expected = _fair_share_error(member.queue)
            assert gauge.value(**member._metric_shard) == expected
        assert any(_fair_share_error(m.queue) > 0 for m in members)
