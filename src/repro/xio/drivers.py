"""XIO drivers.

Two kinds, as in Globus XIO:

* **transport drivers** terminate the stack and turn a path + stream
  count into raw throughput (TCP via the model in :mod:`repro.net.tcp`,
  UDT via :mod:`repro.net.udt`);
* **transform drivers** sit above and modify throughput: GSI protection
  caps throughput at cipher speed (the paper's "order of magnitude
  slowdown ... on high-speed links").
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.net.tcp import TCPModel, slow_start_penalty_s, tcp_aggregate_rate
from repro.net.topology import PathStats
from repro.net.udt import UDTModel
from repro.util.units import gbps


class Protection(enum.Enum):
    """Data-channel protection level (FTP PROT command values)."""

    CLEAR = "C"  # no protection
    SAFE = "S"  # integrity only
    PRIVATE = "P"  # integrity + confidentiality


class Driver(ABC):
    """Base class for all drivers."""

    name: str = "driver"

    def rate_through(self, below_bps: float) -> float:
        """Throughput available above this driver given ``below_bps`` under it."""
        return below_bps

    def setup_rtts(self) -> float:
        """Extra round trips this driver adds to channel establishment."""
        return 0.0


class TransportDriver(Driver):
    """A driver that talks to the network directly."""

    @abstractmethod
    def rate(self, path: PathStats, streams: int) -> float:
        """Aggregate steady-state rate over ``streams`` connections."""

    @abstractmethod
    def ramp_penalty_s(self, path: PathStats, streams: int) -> float:
        """Startup (slow-start-like) penalty in seconds."""

    @abstractmethod
    def handshake_rtts(self) -> float:
        """Round trips to establish one connection batch."""


@dataclass
class TcpDriver(TransportDriver):
    """The default transport."""

    model: TCPModel = field(default_factory=TCPModel.untuned)
    name: str = "tcp"

    def rate(self, path: PathStats, streams: int) -> float:
        """Aggregate steady-state rate (TransportDriver interface)."""
        return tcp_aggregate_rate(path, streams, self.model)

    def ramp_penalty_s(self, path: PathStats, streams: int) -> float:
        """Startup ramp cost (TransportDriver interface)."""
        per_stream = self.rate(path, streams) / streams
        return slow_start_penalty_s(path, per_stream, self.model)

    def handshake_rtts(self) -> float:
        """Connection-setup round trips."""
        return self.model.handshake_rtts


@dataclass
class UdtDriver(TransportDriver):
    """UDT transport (loss-insensitive, rate-based)."""

    model: UDTModel = field(default_factory=UDTModel)
    name: str = "udt"

    def rate(self, path: PathStats, streams: int) -> float:
        # UDT flows are rate-controlled; extra flows do not add throughput
        # beyond the bottleneck share a single flow already claims.
        """Aggregate steady-state rate (TransportDriver interface)."""
        return min(self.model.stream_rate(path) * streams, path.bottleneck_bps * self.model.efficiency)

    def ramp_penalty_s(self, path: PathStats, streams: int) -> float:
        """Startup ramp cost (TransportDriver interface)."""
        return 0.0  # rate-based start, no slow-start ramp

    def handshake_rtts(self) -> float:
        """Connection-setup round trips."""
        return self.model.handshake_rtts


@dataclass
class GsiProtectDriver(Driver):
    """Data-channel integrity/confidentiality.

    Throughput is capped by (single-core) cipher speed.  Defaults chosen
    so that PRIVATE costs roughly an order of magnitude on a 10 Gb/s
    path, matching Section II.C: "An order of magnitude slowdown is not
    unusual on high-speed links."
    """

    protection: Protection = Protection.PRIVATE
    integrity_cap_bps: float = gbps(2.4)
    privacy_cap_bps: float = gbps(0.9)
    name: str = "gsi"

    def rate_through(self, below_bps: float) -> float:
        """Throughput above this driver given the rate below it."""
        if self.protection is Protection.CLEAR:
            return below_bps
        if self.protection is Protection.SAFE:
            return min(below_bps, self.integrity_cap_bps)
        return min(below_bps, self.privacy_cap_bps)

    def setup_rtts(self) -> float:
        # per-channel security handshake
        """Extra setup round trips this driver adds."""
        return 0.0 if self.protection is Protection.CLEAR else 2.0

