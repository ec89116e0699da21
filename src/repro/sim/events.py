"""A scheduled-event queue.

Used for things that must happen at an absolute virtual time regardless of
what the foreground activity is doing: credential expiry sweeps, usage
report rollups, lease heartbeats, and fault triggers.  The foreground code
advances the clock through :class:`repro.sim.world.World`, which fires due
events.

The queue is a min-heap of ``(time, seq, event)`` tuples, so ordering
comparisons run in C and same-time events fire in scheduling order.
Cancelling marks the record; cancelled records are dropped when they
surface at the head.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.sim.clock import Clock

__all__ = ["ScheduledEvent", "RepeatingEvent", "EventStats", "Scheduler"]


class ScheduledEvent:
    """A callback due at an absolute virtual time (the cancellation handle)."""

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], Any], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True


class RepeatingEvent:
    """A callback re-armed every ``interval`` seconds until cancelled.

    The worker pool's lease heartbeats use this: each firing re-schedules
    the next one, so renewals keep pace with however far a foreground
    transfer advances the clock.  ``cancel`` stops the chain.
    """

    def __init__(self, scheduler: "Scheduler", interval: float,
                 callback: Callable[[], Any], label: str = "") -> None:
        if not interval > 0:  # written so NaN fails too
            raise ValueError(f"repeat interval must be positive (got {interval})")
        self._scheduler = scheduler
        self.interval = interval
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = 0
        self._current = scheduler.after(interval, self._fire, label)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.callback()
        if not self.cancelled:
            self._current = self._scheduler.after(self.interval, self._fire, self.label)

    def cancel(self) -> None:
        """Stop the chain; the pending occurrence never fires."""
        self.cancelled = True
        self._current.cancel()


class EventStats:
    """Counters profilers and benchmarks read off a :class:`Scheduler`."""

    __slots__ = ("total_events",)

    def __init__(self) -> None:
        #: callbacks fired since the scheduler was built
        self.total_events = 0


class Scheduler:
    """Priority queue of :class:`ScheduledEvent`, driven by a :class:`Clock`."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self.stats = EventStats()

    def at(self, time: float, callback: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute virtual time ``time``."""
        now = self._clock._now
        if not time >= now:  # written so NaN fails too
            raise ValueError(f"cannot schedule in the past: {time} < now {now}")
        seq = next(self._seq)
        ev = ScheduledEvent(time, seq, callback, label)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def after(self, delay: float, callback: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        return self.at(self._clock._now + delay, callback, label)

    def every(self, interval: float, callback: Callable[[], Any],
              label: str = "") -> RepeatingEvent:
        """Schedule ``callback`` every ``interval`` seconds until cancelled."""
        return RepeatingEvent(self, interval, callback, label)

    @property
    def next_due(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def fire_due(self) -> int:
        """Run every event whose time is <= now; return how many fired.

        A callback may schedule, cancel, advance the clock, or call
        ``fire_due`` again; the clock is re-read after every firing.
        """
        heap = self._heap
        clock = self._clock
        if not heap or heap[0][0] > clock._now:
            return 0  # the common case: nothing due
        pop = heapq.heappop
        fired = 0
        try:
            while heap:
                time, _seq, ev = heap[0]
                if ev.cancelled:
                    pop(heap)
                    continue
                if time > clock._now:
                    break
                pop(heap)
                fired += 1
                ev.callback()
        finally:
            self.stats.total_events += fired
        return fired
