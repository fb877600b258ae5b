"""IP-address bookkeeping for simulated hosts, VMs and NSMs."""

from __future__ import annotations

from typing import Iterator, NamedTuple

__all__ = ["Endpoint", "AddressAllocator", "EPHEMERAL_BASE"]

#: First ephemeral port a TCP or QUIC stack hands out (and wraps back to).
EPHEMERAL_BASE = 32768


class Endpoint(NamedTuple):
    """A transport endpoint: (ip, port)."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


class AddressAllocator:
    """Hands out unique dotted-quad addresses from a /16-style pool."""

    def __init__(self, prefix: str = "10.0") -> None:
        parts = prefix.split(".")
        if len(parts) != 2 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ValueError(f"prefix must look like '10.0', got {prefix!r}")
        self.prefix = prefix
        self._next = 1

    def allocate(self) -> str:
        """Return the next unused address in the pool."""
        index = self._next
        self._next += 1
        high, low = divmod(index, 254)
        if high > 255:
            raise RuntimeError("address pool exhausted")
        return f"{self.prefix}.{high}.{low + 1}"

    def __iter__(self) -> Iterator[str]:
        while True:
            yield self.allocate()
