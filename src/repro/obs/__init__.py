"""repro.obs — cross-layer tracing & telemetry for the NetKernel datapath.

The paper's §2.1/§5 argument is that a provider-run stack is *inspectable
by the provider*.  This package is that inspectability layer:

* :mod:`spans` — span trees tying one socket op across GuestLib -> ring ->
  CoreEngine -> ServiceLib -> huge pages -> TCP;
* :mod:`counters` — cheap per-layer counters with sim-clock cadence
  snapshots;
* :mod:`histograms` — constant-memory log2 latency histograms
  (p50/p99/p999);
* :mod:`sampling` — the deterministic 1-in-N head sampler
  (``repro trace --sample N``);
* :mod:`export` — Chrome ``trace_event`` JSON + flat summary dicts;
* :mod:`runtime` — the process-wide tracer slot with a no-op default, so
  un-instrumented runs pay one attribute check on the hot paths.

Quick use::

    from repro import obs
    tracer = obs.Tracer()
    testbed = make_lan_testbed(tracer=tracer)   # installs + binds the clock
    ... run the workload ...
    obs.write_chrome_trace(tracer, "trace.json")
    print(obs.summary(tracer)["histograms_ns"]["queue.wait_ns.job"]["p99"])

Or from a shell: ``python -m repro trace figure4 --out trace.json``.
"""

from . import runtime
from .counters import CounterCadence, CounterSet
from .runtime import NULL_TRACER, NullTracer
from .export import (
    chrome_trace,
    summary,
    write_chrome_trace,
    write_summary,
)
from .histograms import Log2Histogram
from .sampling import HeadSampler
from .spans import LAYERS, Span, Tracer

__all__ = [
    "runtime",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "Span",
    "LAYERS",
    "CounterSet",
    "CounterCadence",
    "Log2Histogram",
    "HeadSampler",
    "chrome_trace",
    "write_chrome_trace",
    "summary",
    "write_summary",
]
