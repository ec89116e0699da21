"""Globus XIO: the extensible, composable I/O driver stack.

"Its extensible I/O interface allows GridFTP to target high-performance
wide-area communication protocols such as UDT and emerging RDMA-based
protocols" (paper Section II.A).  A stack is an ordered list of
transform drivers over exactly one transport driver; the data channel
asks the stack for achievable throughput and setup cost on a given path.
"""

from repro.xio.stack import XIOStack
from repro.xio.drivers import (
    Driver,
    TransportDriver,
    TcpDriver,
    UdtDriver,
    GsiProtectDriver,
    Protection,
)

__all__ = [
    "XIOStack",
    "Driver",
    "TransportDriver",
    "TcpDriver",
    "UdtDriver",
    "GsiProtectDriver",
    "Protection",
]
