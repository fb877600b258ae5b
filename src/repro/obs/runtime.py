"""The process-wide tracer slot and its no-op default.

Instrumented components (GuestLib, rings, CoreEngine, ServiceLib, huge
pages, cores, TCP stacks) capture ``get_tracer()`` once at construction.
The default is the :data:`NULL_TRACER`: ``enabled`` is False, so every
hot-path site pays exactly one attribute check and allocates nothing.

To trace a run, install a real :class:`~repro.obs.spans.Tracer` *before*
building the testbed::

    from repro import obs
    tracer = obs.Tracer()
    with obs.runtime.installed(tracer):
        testbed = make_lan_testbed(tracer=tracer)   # or plain factories
        ...

The testbed factories in :mod:`repro.experiments.common` accept a
``tracer=`` argument that installs it and binds the sim clock for you.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .spans import Tracer

__all__ = ["NullTracer", "NULL_TRACER", "get_tracer", "set_tracer", "reset", "installed"]


class NullTracer:
    """The disabled tracer: one falsy ``enabled`` attribute, no state.

    Instrumentation must gate on ``tracer.enabled``; the methods below
    exist only so accidental un-gated calls stay harmless.
    """

    enabled = False
    spans = ()
    spans_dropped = 0

    def span(self, op, layer, tenant=None, parent=None):
        return None

    def record_span(self, op, layer, start, finish, tenant=None, parent=None):
        return None

    def count(self, name, delta=1):
        pass

    def high_water(self, name, value):
        pass

    def on_cpu(self, core_name, seconds):
        pass

    def bind_flow(self, key, span):
        pass

    def flow_parent(self, key):
        return None

    def attach(self, sim):
        return self

    def __repr__(self) -> str:
        return "<NullTracer>"


NULL_TRACER = NullTracer()

_tracer = NULL_TRACER


def get_tracer():
    """The currently installed tracer (the no-op default if none)."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]):
    """Install ``tracer`` process-wide; ``None`` restores the no-op."""
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return _tracer


def reset() -> None:
    """Restore the no-op default (test teardown hygiene)."""
    set_tracer(None)


@contextmanager
def installed(tracer: Optional[Tracer]):
    """Scoped install: restores the previous tracer on exit."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    try:
        yield _tracer
    finally:
        _tracer = previous
