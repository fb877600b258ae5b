"""A from-scratch TCP implementation with pluggable congestion control.

This package is the "network stack" that NetKernel serves from NSMs and
that legacy guests run in-kernel.  Public surface:

* :class:`TcpStack` — a protocol instance bound to a NIC.
* :class:`TcpConnection` / :class:`TcpState` — one endpoint.
* :class:`Listener` — passive open + accept queue.
* :mod:`repro.tcp.cc` — reno, cubic, bbr, ctcp, dctcp.
"""

from . import cc
from .buffers import OutOfOrder, ReceiveBuffer, SendBuffer
from .connection import ConnectionReset, TcpConfig, TcpConnection, TcpState
from .listener import Listener
from .rtt import RttEstimator
from .segment import TcpSegment
from .stack import StackConfig, StackStats, TcpStack

__all__ = [
    "cc",
    "TcpSegment",
    "TcpConfig",
    "TcpConnection",
    "TcpState",
    "ConnectionReset",
    "Listener",
    "RttEstimator",
    "SendBuffer",
    "ReceiveBuffer",
    "OutOfOrder",
    "StackConfig",
    "StackStats",
    "TcpStack",
]
