"""The worldwide GridFTP fleet (Figure 1's data source).

Section II.A: "The Globus GridFTP server is deployed on more than 5,000
servers worldwide and is responsible for an average of more than 10
million transfers totaling approximately half a petabyte of data every
day ... these numbers are based on reporting from GridFTP servers that
choose to enable reporting, presumably a subset of all servers."

:class:`FleetModel` grows a server fleet over a simulated multi-year
window and synthesizes each day's usage records from the *reporting*
subset, feeding them through the same usage pipeline a live server uses
(:mod:`repro.metrics.usage`).  The growth curve is logistic, calibrated
so the final year matches the paper's figures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.util.units import DAY, PB


@dataclass(frozen=True)
class FleetDay:
    """Aggregate usage for one simulated day."""

    day_index: int
    servers_total: int
    servers_reporting: int
    transfers: int
    bytes_moved: int


class FleetModel:
    """Deterministic fleet growth + per-day usage synthesis."""

    def __init__(
        self,
        seed: int = 0,
        days: int = 4 * 365,
        final_servers: int = 5000,
        final_transfers_per_day: float = 10e6,
        final_bytes_per_day: float = 0.5 * PB,
        reporting_fraction: float = 0.6,
        midpoint_fraction: float = 0.55,
        growth_rate: float = 0.006,
    ) -> None:
        self.rng = random.Random(seed)
        self.days = days
        self.final_servers = final_servers
        self.final_transfers_per_day = final_transfers_per_day
        self.final_bytes_per_day = final_bytes_per_day
        self.reporting_fraction = reporting_fraction
        self.midpoint = midpoint_fraction * days
        self.growth_rate = growth_rate

    def _logistic(self, day: int) -> float:
        """Adoption fraction in (0, 1] at ``day``."""
        raw = 1.0 / (1.0 + math.exp(-self.growth_rate * (day - self.midpoint)))
        end = 1.0 / (1.0 + math.exp(-self.growth_rate * (self.days - self.midpoint)))
        return float(raw / end)

    def day(self, day_index: int) -> FleetDay:
        """Synthesize one day of fleet-wide usage."""
        if not 0 <= day_index < self.days:
            raise ValueError(f"day {day_index} outside [0, {self.days})")
        adoption = self._logistic(day_index)
        servers = max(1, int(round(self.final_servers * adoption)))
        reporting = max(1, int(round(servers * self.reporting_fraction)))
        # day-to-day jitter: weekday dips, noisy science campaigns
        jitter = 1.0 + 0.15 * self.rng.gauss(0.0, 1.0)
        weekly = 1.0 - 0.2 * (day_index % 7 >= 5)
        transfers = max(
            0, int(self.final_transfers_per_day * adoption * jitter * weekly)
        )
        mean_size = self.final_bytes_per_day / self.final_transfers_per_day
        bytes_moved = int(transfers * mean_size * (1.0 + 0.1 * self.rng.gauss(0.0, 1.0)))
        return FleetDay(
            day_index=day_index,
            servers_total=servers,
            servers_reporting=reporting,
            transfers=transfers,
            bytes_moved=max(0, bytes_moved),
        )

    def series(self, step_days: int = 7) -> list[FleetDay]:
        """The sampled multi-year series (weekly by default)."""
        return [self.day(d) for d in range(0, self.days, step_days)]

    @staticmethod
    def day_to_time(day_index: int) -> float:
        """Virtual time (seconds) of a day index."""
        return day_index * DAY

