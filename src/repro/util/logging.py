"""Structured event log.

Every interesting action in the simulation (handshakes, command exchanges,
transfers, faults, credential issuance) appends an :class:`Event` to the
world's :class:`EventLog`.  Benchmarks and tests query the log to assert
*how* something happened, not only that it happened — e.g. the OAuth bench
counts which parties ever observed a password.

Events optionally carry the active trace context (``trace_id`` /
``span_id`` — see :mod:`repro.telemetry.trace`), so the flat log and the
span tree cross-reference each other, and the whole log exports as JSON
lines for offline analysis.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: category of the synthetic event recorded when a subscriber raises
SUBSCRIBER_ERROR_CATEGORY = "telemetry.subscriber_error"


@dataclass(slots=True)
class Event:
    """One structured log record.

    ``time`` is virtual seconds, ``category`` a dotted topic such as
    ``"gridftp.command"`` or ``"myproxy.issue"``, and ``fields`` arbitrary
    key/value detail.  ``trace_id``/``span_id`` tie the event into the
    tracer's causal tree when it was emitted inside a span.  Treat
    records as immutable once logged: the class is unfrozen only because
    a frozen dataclass pays object.__setattr__ per field on every
    construction, and emit() sits on the fleet hot path.
    """

    time: float
    category: str
    message: str
    fields: dict[str, Any] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:12.3f}] {self.category:<24} {self.message} {kv}".rstrip()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict (trace keys only when set)."""
        out: dict[str, Any] = {
            "time": self.time,
            "category": self.category,
            "message": self.message,
            "fields": dict(self.fields),
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        return Event(
            time=float(data["time"]),
            category=str(data["category"]),
            message=str(data["message"]),
            fields=dict(data.get("fields", {})),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
        )


class EventLog:
    """Append-only in-memory event log with simple query helpers.

    ``capacity`` bounds memory for fleet-scale runs: when set, the log
    keeps only the newest ``capacity`` events (ring-buffer eviction) and
    counts what it dropped in :attr:`dropped_events`.  It is fixed at
    construction; the default is unbounded.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._events: deque[Event] = deque()
        self._capacity = capacity
        self._subscribers: list[Callable[[Event], None]] = []
        self.dropped_events = 0
        self.subscriber_errors = 0

    def _append(self, event: Event) -> None:
        # the capacity is fixed, so at steady state exactly one event
        # falls off per append
        self._events.append(event)
        cap = self._capacity
        if cap is not None and len(self._events) > cap:
            self._events.popleft()
            self.dropped_events += 1

    # -- recording ----------------------------------------------------------

    def emit(
        self,
        time: float,
        category: str,
        message: str,
        trace_id: str | None = None,
        span_id: str | None = None,
        **fields: Any,
    ) -> Event:
        """Record and return a new event, publishing it to subscribers.

        A subscriber that raises does not abort delivery: the error is
        recorded as a ``telemetry.subscriber_error`` event (appended to
        the log but not re-published, to avoid recursion) and the
        remaining subscribers still receive the original event.
        """
        return self.emit_event(Event(time, category, message, fields,
                                     trace_id, span_id))

    def emit_event(self, ev: Event) -> Event:
        """Record an already-constructed event (hot-path form of emit).

        ``World.emit`` builds the :class:`Event` itself and calls this
        directly, skipping a kwargs repack per record.
        """
        if not self._subscribers:
            # fast path: no publication, no isolation machinery — just the
            # ring append (inlined; steady state evicts exactly one)
            events = self._events
            events.append(ev)
            cap = self._capacity
            if cap is not None and len(events) > cap:
                events.popleft()
                self.dropped_events += 1
            return ev
        self._append(ev)
        for sub in list(self._subscribers):
            try:
                sub(ev)
            except Exception as exc:
                self.subscriber_errors += 1
                self._append(
                    Event(
                        time=ev.time,
                        category=SUBSCRIBER_ERROR_CATEGORY,
                        message="subscriber raised during publish",
                        fields={
                            "subscriber": getattr(sub, "__qualname__", repr(sub)),
                            "error": f"{type(exc).__name__}: {exc}",
                            "event_category": ev.category,
                        },
                        trace_id=ev.trace_id,
                        span_id=ev.span_id,
                    )
                )
        return ev

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Invoke ``callback`` for every future event (used by usage collectors)."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Stop delivering events to ``callback`` (no-op if not subscribed)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def select(self, category: str | None = None, **field_filters: Any) -> list[Event]:
        """Events whose category starts with ``category`` and whose fields match."""
        out = []
        for ev in self._events:
            if category is not None and not ev.category.startswith(category):
                continue
            if any(ev.fields.get(k) != v for k, v in field_filters.items()):
                continue
            out.append(ev)
        return out

    def count(self, category: str | None = None, **field_filters: Any) -> int:
        """Number of matching events."""
        return len(self.select(category, **field_filters))

    def last(self, category: str | None = None) -> Event | None:
        """Most recent matching event, or None."""
        matches = self.select(category)
        return matches[-1] if matches else None

    def clear(self) -> None:
        """Drop all recorded events (subscribers stay registered)."""
        self._events.clear()

    # -- export --------------------------------------------------------------

    def to_jsonl(self, category: str | None = None) -> str:
        """The (optionally filtered) log as JSON lines, one event per line.

        Non-JSON field values are stringified rather than erroring, so a
        log holding rich objects still exports.
        """
        events = self.select(category) if category is not None else list(self._events)
        return "\n".join(
            json.dumps(ev.to_dict(), sort_keys=True, default=str) for ev in events
        )

    @staticmethod
    def from_jsonl(text: str) -> list[Event]:
        """Parse :meth:`to_jsonl` output back into events."""
        return [
            Event.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
