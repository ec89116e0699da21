"""Scheduler."""

import pytest

from repro.sim.clock import Clock
from repro.sim.events import Scheduler


def make():
    clock = Clock()
    return clock, Scheduler(clock)


def test_fire_due_runs_past_events_in_order():
    clock, sched = make()
    fired = []
    sched.at(5.0, lambda: fired.append("b"))
    sched.at(1.0, lambda: fired.append("a"))
    clock.advance(10.0)
    assert sched.fire_due() == 2
    assert fired == ["a", "b"]


def test_events_in_future_do_not_fire():
    clock, sched = make()
    fired = []
    sched.at(5.0, lambda: fired.append(1))
    clock.advance(4.999)
    assert sched.fire_due() == 0
    assert fired == []


def test_same_time_events_fire_in_scheduling_order():
    clock, sched = make()
    fired = []
    sched.at(1.0, lambda: fired.append("first"))
    sched.at(1.0, lambda: fired.append("second"))
    clock.advance(1.0)
    sched.fire_due()
    assert fired == ["first", "second"]


def test_after_is_relative():
    clock, sched = make()
    clock.advance(100.0)
    fired = []
    sched.after(5.0, lambda: fired.append(1))
    clock.advance(5.0)
    sched.fire_due()
    assert fired == [1]


def test_cannot_schedule_in_the_past():
    clock, sched = make()
    clock.advance(10.0)
    with pytest.raises(ValueError):
        sched.at(5.0, lambda: None)


def test_cancelled_events_do_not_fire():
    clock, sched = make()
    fired = []
    ev = sched.at(1.0, lambda: fired.append(1))
    ev.cancel()
    clock.advance(2.0)
    assert sched.fire_due() == 0
    assert fired == []


def test_next_due_and_pending():
    clock, sched = make()
    assert sched.next_due is None
    a = sched.at(3.0, lambda: None, label="a")
    sched.at(7.0, lambda: None, label="b")
    assert sched.next_due == 3.0
    assert sched.pending() == 2
    a.cancel()
    assert sched.next_due == 7.0
    assert sched.pending() == 1


def test_nan_time_rejected():
    clock, sched = make()
    with pytest.raises(ValueError):
        sched.at(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        sched.after(float("nan"), lambda: None)
    assert sched.pending() == 0


def test_nan_repeat_interval_rejected():
    clock, sched = make()
    with pytest.raises(ValueError):
        sched.every(float("nan"), lambda: None)
    assert sched.pending() == 0


def test_nan_schedule_cannot_hang_world_advance():
    from repro.sim.world import World

    world = World(seed=1)
    fired = []
    with pytest.raises(ValueError):
        world.scheduler.at(float("nan"), lambda: fired.append(1))
    world.advance(1.0)
    assert fired == [] and world.now == 1.0

