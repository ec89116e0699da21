"""First-order TCP performance model.

Three effects dominate bulk-transfer throughput on wide-area paths, and
they are exactly the effects GridFTP's optimizations attack:

1. **Window limit** — a single TCP stream cannot exceed ``window / RTT``.
   Untuned stacks of the paper's era default to a 64 KiB window, which on
   a 100 ms path caps a stream at ~5 Mb/s no matter how fat the pipe.
   GridFTP opens *parallel streams* (and tunes windows) to escape this.
2. **Loss limit (Mathis et al.)** — a congestion-avoidance stream cannot
   exceed ``MSS * C / (RTT * sqrt(p))`` for loss rate ``p``.  Parallel
   streams each get their own sqrt(p) budget, so N streams deliver ~N
   times the single-stream rate until the bottleneck saturates.
3. **Slow start** — short transfers never reach steady state; the ramp
   costs roughly ``log2(BDP/MSS)`` RTTs.  This is why moving lots of
   small files is round-trip-bound and why GridFTP pipelining matters.

The model is analytic and deterministic: given a :class:`PathStats` it
returns steady-state rates and slow-start ramp costs.  It is not a
packet simulator, but it reproduces the *shape* of every performance
claim in the paper (see DESIGN.md section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.net.topology import PathStats
from repro.util.units import KB, MB

#: Mathis constant for periodic-loss TCP throughput.
MATHIS_C = math.sqrt(3.0 / 2.0)


@dataclass(frozen=True)
class TCPModel:
    """Tunable TCP stack parameters.

    ``window_bytes`` is the effective (send and receive) socket buffer.
    ``autotuned_window`` represents a host with large, kernel-autotuned
    buffers (what a well-configured data transfer node would have).
    """

    mss_bytes: int = 1460
    window_bytes: int = 64 * KB
    init_cwnd_bytes: int = 10 * 1460  # RFC 6928 initial window
    handshake_rtts: float = 1.5

    def with_window(self, window_bytes: int) -> "TCPModel":
        """A copy of the model with a different socket buffer."""
        return replace(self, window_bytes=int(window_bytes))

    @staticmethod
    def untuned() -> "TCPModel":
        """Era-typical defaults: 64 KiB windows."""
        return TCPModel()

    @staticmethod
    def tuned(window_bytes: int = 16 * MB) -> "TCPModel":
        """A data-transfer-node configuration with large buffers."""
        return TCPModel(window_bytes=window_bytes)


def tcp_stream_rate(path: PathStats, model: TCPModel) -> float:
    """Steady-state rate (bits/s) of ONE stream on ``path``.

    The minimum of the window limit, the Mathis loss limit, and the
    bottleneck link rate.
    """
    limits = [path.bottleneck_bps]
    if path.rtt_s > 0:
        limits.append(model.window_bytes * 8.0 / path.rtt_s)
        if path.loss > 0:
            limits.append(
                model.mss_bytes * 8.0 * MATHIS_C / (path.rtt_s * math.sqrt(path.loss))
            )
    return min(limits)


def tcp_aggregate_rate(path: PathStats, streams: int, model: TCPModel) -> float:
    """Steady-state aggregate rate (bits/s) of ``streams`` parallel streams.

    Streams scale the window and loss limits linearly but can never exceed
    the bottleneck.  This is the quantitative core of GridFTP's
    "parallelism" optimization.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    per_stream = tcp_stream_rate(path, model)
    return min(per_stream * streams, path.bottleneck_bps)


def slow_start_penalty_s(path: PathStats, rate_bps: float, model: TCPModel) -> float:
    """Extra seconds a transfer loses to the slow-start ramp.

    Approximated as the number of doublings needed to grow the congestion
    window from its initial value to the steady-state window, times the
    RTT.  (During the ramp roughly half the steady rate is achieved, so
    charging full RTTs for the doublings and then billing the payload at
    the steady rate is a slight overestimate of ramp cost and a slight
    underestimate of ramp progress; the two roughly cancel.)
    """
    if path.rtt_s <= 0 or rate_bps <= 0:
        return 0.0
    steady_window_bits = rate_bps * path.rtt_s
    init_bits = model.init_cwnd_bytes * 8.0
    if steady_window_bits <= init_bits:
        return 0.0
    doublings = math.log2(steady_window_bits / init_bits)
    return doublings * path.rtt_s

