"""XIO drivers."""

import pytest

from repro.net.tcp import TCPModel
from repro.net.topology import PathStats
from repro.xio.drivers import (
    GsiProtectDriver,
    Protection,
    TcpDriver,
    UdtDriver,
)
from repro.util.units import MB, gbps


def path(rtt=0.05, bw=gbps(10), loss=0.0):
    return PathStats(src="a", dst="b", rtt_s=rtt, bottleneck_bps=bw, loss=loss,
                     link_ids=("l",), hosts=("a", "b"))


def test_tcp_driver_uses_model():
    drv = TcpDriver(model=TCPModel.tuned(16 * MB))
    assert drv.rate(path(), 4) > TcpDriver(model=TCPModel.untuned()).rate(path(), 4)
    assert drv.handshake_rtts() == TCPModel().handshake_rtts


def test_udt_driver_no_slow_start():
    drv = UdtDriver()
    assert drv.ramp_penalty_s(path(), 1) == 0.0
    assert drv.rate(path(), 1) == pytest.approx(0.9 * gbps(10))


def test_gsi_clear_is_free():
    drv = GsiProtectDriver(protection=Protection.CLEAR)
    assert drv.rate_through(gbps(10)) == gbps(10)
    assert drv.setup_rtts() == 0.0


def test_gsi_integrity_caps():
    drv = GsiProtectDriver(protection=Protection.SAFE)
    assert drv.rate_through(gbps(10)) == drv.integrity_cap_bps
    assert drv.rate_through(gbps(1)) == gbps(1)  # below the cap: unchanged


def test_gsi_privacy_order_of_magnitude_on_fast_links():
    """Paper II.C: 'An order of magnitude slowdown is not unusual'."""
    drv = GsiProtectDriver(protection=Protection.PRIVATE)
    slowdown = gbps(10) / drv.rate_through(gbps(10))
    assert 8 <= slowdown <= 15


def test_gsi_adds_handshake():
    assert GsiProtectDriver(protection=Protection.PRIVATE).setup_rtts() == 2.0
