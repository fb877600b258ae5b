"""Shared resources for processes.

:class:`Store` — a FIFO queue of items with optional capacity; ``put`` and
``get`` return events.  It mirrors SimPy's ``Store`` but is written from
scratch.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = ["Store"]


class Store:
    """FIFO item queue with optional capacity.

    ``put(item)`` returns an event that fires when the item is accepted;
    ``get()`` returns an event that fires with the next item.  Items are
    delivered strictly in arrival order.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Queue ``item``; the returned event fires once there is room."""
        event = Event(self.sim)
        self._putters.append((event, item))
        self._drain()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: accept ``item`` now or return False."""
        if self._getters or not self.is_full:
            put_event = self.put(item)
            assert put_event.triggered
            return True
        return False

    def get(self) -> Event:
        """The returned event fires with the next available item."""
        event = Event(self.sim)
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                put_event, item = self._putters.popleft()
                self.items.append(item)
                put_event.succeed()
                progressed = True
            while self._getters and self.items:
                get_event = self._getters.popleft()
                get_event.succeed(self.items.popleft())
                progressed = True
