"""Unit tests for the byte-weighted fair-share queue."""

import pytest

from repro.scheduler import FairShareQueue, ScheduledTask, TaskState, jain_index


def mk(user, size=1000, priority=0, task_id=""):
    return ScheduledTask(
        task_id=task_id or f"{user}-{size}",
        user=user,
        src_endpoint="src",
        dst_endpoint="dst",
        size_hint=size,
        execute=lambda: None,
        priority=priority,
    )


def drain(q, charge=True):
    """Pop everything, charging actual bytes; returns dispatch order."""
    order = []
    while True:
        task = q.pop_next()
        if task is None:
            return order
        if charge:
            q.charge(task.user, task.size_hint)
        order.append(task)


def test_fifo_within_one_user():
    q = FairShareQueue()
    for i in range(5):
        q.push(mk("alice", task_id=f"t{i}"))
    assert [t.task_id for t in drain(q)] == [f"t{i}" for i in range(5)]


def test_equal_weights_interleave_by_bytes():
    q = FairShareQueue()
    # alice's tasks are 4x bob's size: bob should dispatch ~4 tasks per
    # alice task once virtual times accumulate.
    for i in range(3):
        q.push(mk("alice", size=4000, task_id=f"a{i}"))
    for i in range(12):
        q.push(mk("bob", size=1000, task_id=f"b{i}"))
    order = [t.user for t in drain(q)]
    # byte totals delivered by the midpoint should be close, so bob gets
    # several dispatches between alice's.
    first_half = order[: len(order) // 2]
    assert first_half.count("bob") > first_half.count("alice")
    assert q.delivered_bytes() == {"alice": 12000, "bob": 12000}


def test_weights_shift_byte_shares():
    q = FairShareQueue()
    q.set_weight("heavy", 3.0)
    q.set_weight("light", 1.0)
    # plenty of equal-sized work on both sides; cut dispatch off early to
    # observe the share under contention.
    for i in range(40):
        q.push(mk("heavy", size=1000, task_id=f"h{i}"))
        q.push(mk("light", size=1000, task_id=f"l{i}"))
    served = []
    for _ in range(20):
        task = q.pop_next()
        q.charge(task.user, task.size_hint)
        served.append(task.user)
    heavy_share = served.count("heavy") / len(served)
    assert heavy_share == pytest.approx(0.75, abs=0.1)


def test_priority_band_dispatches_first():
    q = FairShareQueue()
    q.push(mk("alice", task_id="normal"))
    q.push(mk("bob", priority=1, task_id="urgent"))
    assert q.pop_next().task_id == "urgent"


def test_idle_user_earns_no_retroactive_credit():
    q = FairShareQueue()
    # alice works through a lot of bytes while bob is idle
    for i in range(10):
        q.push(mk("alice", size=10_000, task_id=f"a{i}"))
    for _ in range(10):
        q.charge("alice", q.pop_next().size_hint)
    # bob arrives: he enters at the global virtual time, so alice is not
    # locked out for 100k bytes worth of catch-up.
    q.push(mk("bob", size=1000, task_id="b0"))
    q.push(mk("alice", size=1000, task_id="a-new"))
    order = [t.task_id for t in drain(q)]
    # bob goes first (alice's vtime is at/above global), but alice's new
    # task follows immediately rather than after a starvation window.
    assert order == ["b0", "a-new"]


def test_requeue_goes_to_front():
    q = FairShareQueue()
    q.push(mk("alice", task_id="first"))
    q.push(mk("alice", task_id="second"))
    claimed = q.pop_next()
    assert claimed.task_id == "first"
    q.requeue(claimed)
    assert [t.task_id for t in drain(q)] == ["first", "second"]


def test_admissible_hook_skips_lane_without_losing_position():
    q = FairShareQueue()
    q.push(mk("alice", task_id="blocked"))
    q.push(mk("bob", task_id="ok"))
    task = q.pop_next(admissible=lambda t: t.user != "alice")
    assert task.task_id == "ok"
    assert [t.task_id for t in q.tasks()] == ["blocked"]


def test_pop_state_transition_and_depth():
    q = FairShareQueue()
    t = q.push(mk("alice"))
    assert t.state is TaskState.QUEUED and len(q) == 1
    popped = q.pop_next()
    assert popped.state is TaskState.CLAIMED and len(q) == 0


def test_weight_must_be_positive():
    q = FairShareQueue()
    with pytest.raises(ValueError):
        q.set_weight("alice", 0.0)
    with pytest.raises(ValueError):
        q.set_weight("alice", float("nan"))


def test_fair_share_error_zero_when_balanced():
    q = FairShareQueue()
    q.push(mk("a"))
    q.push(mk("b"))
    drain(q)
    assert q.fair_share_error() == pytest.approx(0.0)


def test_jain_index_extremes():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0
    assert jain_index([0, 0]) == 1.0


# -- lane introspection (observability) ------------------------------------


def test_lane_stats_and_vtime_tags():
    q = FairShareQueue()
    q.set_weight("bob", 2.0)
    q.push(mk("alice", size=4000))
    q.push(mk("bob", size=4000))
    stats = {row["user"]: row for row in q.lane_stats()}
    assert stats["alice"]["depth"] == 1
    assert stats["alice"]["vtime"] == 0.0
    assert stats["bob"]["weight"] == 2.0
    assert stats["alice"]["head_seq"] == 1
    drain(q)
    stats = {row["user"]: row for row in q.lane_stats()}
    assert stats["alice"]["depth"] == 0
    assert stats["alice"]["head_seq"] is None
    assert stats["alice"]["delivered_bytes"] == 4000
    # alice charged 4000/1.0, bob 4000/2.0; bob's charge emptied the
    # queue, so global vtime catches up to his finish tag
    assert stats["alice"]["vtime"] == pytest.approx(4000.0)
    assert stats["bob"]["vtime"] == pytest.approx(2000.0)
    assert q.global_vtime == pytest.approx(2000.0)


def test_idle_lane_vtime_reports_reentry_tag():
    q = FairShareQueue()
    q.push(mk("alice", size=8000))
    drain(q)
    assert q.global_vtime == pytest.approx(8000.0)
    # bob never queued: a push now would re-enter at the global vtime,
    # and lane_vtime says so before the push happens
    assert q.lane_vtime("bob") == pytest.approx(8000.0)
    t = q.push(mk("bob"))
    assert q.lane_vtime("bob") == pytest.approx(8000.0)
    assert t.state is TaskState.QUEUED
