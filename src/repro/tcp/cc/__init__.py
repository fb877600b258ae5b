"""Pluggable congestion-control algorithms.

Importing this package registers every algorithm in the by-name registry:
``reno``, ``cubic``, ``bbr``, ``ctcp``, ``dctcp``.
"""

from .base import CongestionControl, RateSample, available, make, register
from .bbr import Bbr
from .ctcp import CompoundTcp
from .cubic import Cubic
from .dctcp import Dctcp
from .reno import Reno

__all__ = [
    "CongestionControl",
    "RateSample",
    "available",
    "make",
    "register",
    "Reno",
    "Cubic",
    "Bbr",
    "CompoundTcp",
    "Dctcp",
]
