"""The slow-operation log: which operations took long in virtual time?

:class:`SlowOpLog` is a bounded per-world record of the tracer spans
whose virtual duration crossed a threshold (``Tracer`` offers each span
as it ends), so a test can assert e.g. "no single control-channel
exchange took more than a second of virtual time".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class SlowOp:
    """One operation that exceeded the slow threshold."""

    name: str
    start_time: float
    duration_s: float
    span_id: str | None = None


class SlowOpLog:
    """Bounded record of slow operations for one world."""

    def __init__(self, threshold_s: float = 1.0, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_s = threshold_s
        self._entries: deque[SlowOp] = deque(maxlen=capacity)
        self.total_recorded = 0

    def record(
        self, name: str, start_time: float, duration_s: float, span_id: str | None = None
    ) -> bool:
        """Record the op if it crossed the threshold; True if recorded."""
        if duration_s < self.threshold_s:
            return False
        self._entries.append(
            SlowOp(name=name, start_time=start_time, duration_s=duration_s, span_id=span_id)
        )
        self.total_recorded += 1
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SlowOp]:
        return iter(self._entries)

    def entries(self, name: str | None = None) -> list[SlowOp]:
        """Recorded ops, optionally filtered by name prefix."""
        if name is None:
            return list(self._entries)
        return [op for op in self._entries if op.name.startswith(name)]

    def slowest(self, n: int = 10) -> list[SlowOp]:
        """The ``n`` slowest recorded ops, slowest first."""
        return sorted(self._entries, key=lambda op: -op.duration_s)[:n]

    def clear(self) -> None:
        """Drop recorded entries (threshold and capacity stay)."""
        self._entries.clear()
