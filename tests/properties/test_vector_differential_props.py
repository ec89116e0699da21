"""Differential properties: hot-path algorithms vs executable specs.

Each fast implementation in ``src/`` is drained against a deliberately
naive oracle kept here, over random inputs, demanding *identical*
results — firing order, observed clock, event counts, plan geometry.

Covered pairs:

* :class:`repro.sim.events.Scheduler` (heap of ``(time, seq, event)``
  tuples) vs :class:`_ListScanEvents` (a plain list, scanned for the
  minimum on every firing) — random schedules with same-timestamp
  collisions, cancellations, insertions and cancels from inside
  callbacks, and reentrant ``fire_due``.
* :func:`repro.gridftp.mode_e.plan_blocks` vs :func:`_plan_blocks_loop`
  (one loop iteration per block) — random sizes, block sizes, and
  restart range sets.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.gridftp.mode_e import plan_blocks
from repro.sim.clock import Clock
from repro.sim.events import Scheduler
from repro.util.ranges import ByteRangeSet

# -- event engine ----------------------------------------------------------


class _Record:
    def __init__(self, time: float, seq: int, callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ListScanEvents:
    """The event-engine spec: fire the minimum ``(time, seq)`` due record,
    re-scanning the whole list after every callback."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._records: list[_Record] = []
        self._seq = itertools.count()

    def at(self, time: float, callback) -> _Record:
        if not time >= self._clock.now:
            raise ValueError("cannot schedule in the past")
        rec = _Record(time, next(self._seq), callback)
        self._records.append(rec)
        return rec

    def after(self, delay: float, callback) -> _Record:
        return self.at(self._clock.now + delay, callback)

    def _live(self) -> list[_Record]:
        return [r for r in self._records if not r.cancelled]

    def fire_due(self) -> int:
        fired = 0
        while True:
            due = [r for r in self._live() if r.time <= self._clock.now]
            if not due:
                return fired
            rec = min(due, key=lambda r: (r.time, r.seq))
            self._records.remove(rec)
            fired += 1
            rec.callback()

    @property
    def next_due(self) -> float | None:
        live = self._live()
        return min(r.time for r in live) if live else None

    def pending(self) -> int:
        return len(self._live())


#: a coarse delay grid so random schedules collide on timestamps
_DELAYS = st.sampled_from([0.0, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0, 3.0])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _DELAYS, st.integers(0, 5)),
        st.tuples(st.just("cancel"), st.integers(0, 63), st.just(0)),
        st.tuples(st.just("fire"), _DELAYS, st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


class _Driver:
    """Replays one op program against one engine, recording every firing."""

    def __init__(self, engine_cls) -> None:
        self.clock = Clock()
        self.engine = engine_cls(self.clock)
        self.log: list[tuple[object, float]] = []
        self.handles: list = []
        #: sum of every fire_due return value, nested calls included
        self.reported = 0
        self._keys = itertools.count()

    def _fire(self) -> None:
        fired = self.engine.fire_due()  # before reading: calls may nest
        self.reported += fired

    def _nested(self, key: int):
        def cb() -> None:
            self.log.append((("nested", key), self.clock.now))
        return cb

    def _callback(self, key: int, behavior: int):
        def cb() -> None:
            self.log.append((key, self.clock.now))
            if behavior == 1:
                # same-instant insertion: fires after every earlier seq
                self.handles.append(
                    self.engine.at(self.clock.now, self._nested(key)))
            elif behavior == 2:
                self.handles.append(
                    self.engine.after(0.5, self._nested(key)))
            elif behavior == 3 and self.handles:
                # cancel a deterministic victim — possibly an unfired
                # same-timestamp sibling
                self.handles[key % len(self.handles)].cancel()
            elif behavior == 4:
                # reentrant drain: advance mid-callback and fire again
                self.clock.advance(0.25)
                self._fire()
        return cb

    def run(self, ops) -> None:
        for op, arg, behavior in ops:
            if op == "at":
                key = next(self._keys)
                self.handles.append(self.engine.at(
                    self.clock.now + arg, self._callback(key, behavior)))
            elif op == "cancel":
                next(self._keys)  # keep key streams aligned across engines
                if self.handles:
                    self.handles[int(arg) % len(self.handles)].cancel()
            else:  # fire
                next(self._keys)
                self.clock.advance(arg)
                self._fire()
        # final drain: jump past everything still pending
        self.clock.advance(1e6)
        self._fire()


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_event_engines_drain_identically(ops):
    engine = _Driver(Scheduler)
    oracle = _Driver(_ListScanEvents)
    engine.run(ops)
    oracle.run(ops)
    assert engine.log == oracle.log
    assert engine.reported == oracle.reported == len(oracle.log)
    assert engine.engine.pending() == oracle.engine.pending()
    assert engine.engine.next_due == oracle.engine.next_due
    assert engine.clock.now == oracle.clock.now


@settings(max_examples=50, deadline=None)
@given(_OPS)
def test_event_stats_count_every_firing(ops):
    d = _Driver(Scheduler)
    d.run(ops)
    assert d.engine.stats.total_events == len(d.log) == d.reported


# -- mode-E block planning -------------------------------------------------


def _plan_blocks_loop(total_size: int, block_size: int,
                      needed: ByteRangeSet | None) -> list[tuple[int, int]]:
    """The planner spec: one loop iteration per block."""
    if block_size <= 0:
        raise ProtocolError("block size must be positive", code=501)
    if needed is None:
        spans = [(0, total_size)] if total_size > 0 else []
    else:
        spans = [(start, min(end, total_size)) for start, end in needed.ranges]
    plan: list[tuple[int, int]] = []
    for start, end in spans:
        cursor = start
        while cursor < end:
            size = min(block_size, end - cursor)
            plan.append((cursor, size))
            cursor += size
    return plan


_SIZES = st.integers(min_value=0, max_value=4 << 20)
_BLOCKS = st.sampled_from([1, 7, 512, 4096, 65536, 262144])


@st.composite
def _restart_ranges(draw, total_size: int):
    """A valid ``needed`` set: disjoint in-file ranges (or None)."""
    if total_size == 0 or draw(st.booleans()):
        return None
    n = draw(st.integers(1, 12))
    points = sorted(draw(st.lists(
        st.integers(0, total_size), min_size=2 * n, max_size=2 * n)))
    rs = ByteRangeSet()
    added = False
    for a, b in zip(points[::2], points[1::2]):
        if a < b:
            rs.add(a, b)
            added = True
    return rs if added else None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_blocks_matches_scalar_spec(data):
    total = data.draw(_SIZES)
    block = data.draw(_BLOCKS)
    needed = data.draw(_restart_ranges(total))
    assert plan_blocks(total, block, needed) == \
        _plan_blocks_loop(total, block, needed)
