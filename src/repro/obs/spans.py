"""Spans and the Tracer: cross-layer timing trees for the NetKernel datapath.

A :class:`Span` is one timed operation on one layer — a GuestLib call, a
ring residency, a CoreEngine switch, a ServiceLib op, a huge-page memcpy,
a TCP segment emission.  Spans link to a parent, so a single ``send()``
becomes a tree spanning every layer it crossed; the nqe carries its root
span through the rings, which is what stitches the layers together.

Recording a span never yields and never charges simulated CPU: tracing is
purely observational and a traced run produces bit-identical simulation
results to an untraced one (tests assert this).

Cost discipline (the "zero-allocation-when-disabled" contract):

* disabled — instrumentation sites check ``tracer.enabled`` (one attribute
  load on the :class:`~repro.obs.runtime.NullTracer`) and skip everything;
* sampled — unsampled roots return ``None`` and children are never created
  because no span rides the nqe;
* enabled — one small ``__slots__`` object per span, appended to a flat
  list; the :data:`DEFAULT_MAX_SPANS` cap drops (and counts) the overflow.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional

from .counters import CounterCadence, CounterSet
from .histograms import Log2Histogram
from .sampling import HeadSampler

__all__ = ["Span", "Tracer", "LAYERS"]

#: The datapath layers instrumented out of the box (spans may use others).
LAYERS = ("guestlib", "queue", "coreengine", "servicelib", "hugepage", "tcp", "cpu")

#: Safety cap: beyond this many recorded spans the tracer drops and counts.
DEFAULT_MAX_SPANS = 2_000_000


class Span:
    """One timed operation; ``end()`` closes it (idempotent)."""

    __slots__ = ("tracer", "span_id", "parent_id", "op", "layer", "tenant",
                 "start", "finish", "cpu_ns", "args")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        op: str,
        layer: str,
        tenant: Optional[int],
        start: float,
        parent_id: Optional[int] = None,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.op = op
        self.layer = layer
        self.tenant = tenant
        self.start = start
        self.finish: Optional[float] = None
        self.cpu_ns = 0.0
        self.args: Optional[Dict[str, Any]] = None

    def child(self, op: str, layer: Optional[str] = None,
              tenant: Optional[int] = None) -> Optional["Span"]:
        """Open a child span (inherits layer/tenant unless overridden)."""
        return self.tracer._new_span(
            op,
            layer if layer is not None else self.layer,
            tenant if tenant is not None else self.tenant,
            parent_id=self.span_id,
        )

    def cpu(self, ns: float) -> "Span":
        """Attribute ``ns`` nanoseconds of charged CPU to this span."""
        self.cpu_ns += ns
        return self

    def annotate(self, **kwargs: Any) -> "Span":
        """Attach key/value details (allocated lazily, export-visible)."""
        if self.args is None:
            self.args = {}
        self.args.update(kwargs)
        return self

    def end(self, at: Optional[float] = None) -> "Span":
        """Close the span at ``at`` (default: now).  Idempotent."""
        if self.finish is None:
            self.finish = at if at is not None else self.tracer.now
        return self

    @property
    def duration(self) -> float:
        """Wall (simulated) seconds, 0.0 while still open."""
        if self.finish is None:
            return 0.0
        return self.finish - self.start

    def __repr__(self) -> str:
        state = "open" if self.finish is None else f"{self.duration * 1e9:.0f}ns"
        return f"<Span #{self.span_id} {self.layer}:{self.op} {state}>"


class Tracer:
    """Process-wide recorder of spans, counters and histograms.

    Create one, install it (``repro.obs.runtime.set_tracer`` or the
    ``tracer=`` argument of the testbed factories) *before* building the
    simulation: instrumented components capture the installed tracer at
    construction time.  ``attach(sim)`` binds the simulated clock.
    """

    def __init__(
        self,
        sampler: Optional[HeadSampler] = None,
        cadence: Optional[float] = None,
    ) -> None:
        self.enabled = True
        self.sim = None
        self.sampler = sampler
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self.counters = CounterSet()
        self.cpu_ns_by_core: Dict[str, float] = {}
        self.cadence = CounterCadence(cadence) if cadence is not None else None
        self._histograms: Dict[str, Log2Histogram] = {}
        self._flow_parents: Dict[int, Span] = {}
        self._ids = count(1)

    # ------------------------------------------------------------------ clock --
    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def attach(self, sim) -> "Tracer":
        """Bind the simulator clock (and start the counter cadence)."""
        self.sim = sim
        if self.cadence is not None:
            self.cadence.start(sim, self.counters)
        return self

    # ------------------------------------------------------------------ spans --
    def _new_span(self, op: str, layer: str, tenant: Optional[int],
                  parent_id: Optional[int]) -> Optional[Span]:
        if len(self.spans) >= DEFAULT_MAX_SPANS:
            self.spans_dropped += 1
            return None
        span = Span(self, next(self._ids), op, layer, tenant, self.now, parent_id)
        self.spans.append(span)
        return span

    def span(self, op: str, layer: str, tenant: Optional[int] = None,
             parent: Optional[Span] = None) -> Optional[Span]:
        """Open a span; returns ``None`` when head-sampling skips this root."""
        if parent is not None:
            return parent.child(op, layer, tenant)
        sampler = self.sampler
        if sampler is not None and not sampler.sample(tenant):
            return None
        return self._new_span(op, layer, tenant, parent_id=None)

    def record_span(self, op: str, layer: str, start: float, finish: float,
                    tenant: Optional[int] = None,
                    parent: Optional[Span] = None) -> Optional[Span]:
        """Record an already-finished interval (e.g. ring residency)."""
        span = self._new_span(op, layer, tenant,
                              parent.span_id if parent is not None else None)
        if span is not None:
            span.start = start
            span.finish = finish
        return span

    # ------------------------------------------------- counters / histograms --
    def count(self, name: str, delta: float = 1) -> None:
        self.counters.inc(name, delta)

    def high_water(self, name: str, value: float) -> None:
        self.counters.set_max(name, value)

    def histogram(self, name: str) -> Log2Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Log2Histogram(name)
        return hist

    @property
    def histograms(self) -> Dict[str, Log2Histogram]:
        return self._histograms

    def on_cpu(self, core_name: str, seconds: float) -> None:
        """CPU charge hook (called by ``Core.execute`` when tracing)."""
        by_core = self.cpu_ns_by_core
        by_core[core_name] = by_core.get(core_name, 0.0) + seconds * 1e9

    # -------------------------------------------------------- flow stitching --
    def bind_flow(self, key: int, span: Optional[Span]) -> None:
        """Register ``span`` as the current parent for flow ``key``.

        Lets a layer that lacks call context (the TCP stack emitting
        segments) parent its spans under the operation that caused them
        (the latest ServiceLib send on that connection).
        """
        if span is None:
            self._flow_parents.pop(key, None)
        else:
            self._flow_parents[key] = span

    def flow_parent(self, key: int) -> Optional[Span]:
        return self._flow_parents.get(key)

    def find(self, op: Optional[str] = None, layer: Optional[str] = None) -> List[Span]:
        return [
            span for span in self.spans
            if (op is None or span.op == op) and (layer is None or span.layer == layer)
        ]

    def __repr__(self) -> str:
        return (f"<Tracer spans={len(self.spans)} dropped={self.spans_dropped} "
                f"counters={len(self.counters)} hists={len(self._histograms)}>")
