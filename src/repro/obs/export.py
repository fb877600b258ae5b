"""Exporters: Chrome ``trace_event`` JSON and flat summary dictionaries.

``chrome_trace`` renders the span store as Trace Event Format "complete"
(``ph: "X"``) events — the JSON object form with a ``traceEvents`` list —
which loads directly into ``chrome://tracing`` / Perfetto.  Layers map to
threads of one "netkernel" process, so the per-layer swimlanes line up the
way the Figure 2 datapath is drawn.

``summary`` flattens counters, per-core CPU attribution, histogram
percentiles and per-layer span counts into one JSON-able dict — the
machine-readable artifact benchmarks diff across PRs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .spans import LAYERS, Tracer

__all__ = [
    "chrome_trace",
    "summary",
    "write_chrome_trace",
    "write_summary",
]

#: Stable thread IDs for the built-in layers (extras assigned after, sorted).
_LAYER_TIDS = {layer: index + 1 for index, layer in enumerate(LAYERS)}


def _layer_tids(tracer: Tracer) -> Dict[str, int]:
    tids = dict(_LAYER_TIDS)
    extra = sorted({span.layer for span in tracer.spans} - set(tids))
    for offset, layer in enumerate(extra):
        tids[layer] = len(_LAYER_TIDS) + 1 + offset
    return tids


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Render all finished spans as a Chrome Trace Event Format object
    (one process, pid 1)."""
    tids = _layer_tids(tracer)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "name": "process_name",
            "args": {"name": "netkernel"},
        }
    ]
    for layer, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": layer},
            }
        )
    for span in tracer.spans:
        if span.finish is None:
            continue  # still open at export time
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.tenant is not None:
            args["tenant"] = span.tenant
        if span.cpu_ns:
            args["cpu_ns"] = round(span.cpu_ns, 3)
        if span.args:
            args.update(span.args)
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids[span.layer],
                "name": span.op,
                "cat": span.layer,
                "ts": round(span.start * 1e6, 6),  # microseconds
                "dur": round(span.duration * 1e6, 6),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)
    return path


def summary(tracer: Tracer) -> Dict[str, Any]:
    """Flatten the tracer's aggregates into one JSON-able dict."""
    spans_by_layer: Dict[str, int] = {}
    for span in tracer.spans:
        spans_by_layer[span.layer] = spans_by_layer.get(span.layer, 0) + 1
    return {
        "spans": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "spans_by_layer": dict(sorted(spans_by_layer.items())),
        "counters": dict(sorted(tracer.counters.as_dict().items())),
        "cpu_ns_by_core": dict(sorted(tracer.cpu_ns_by_core.items())),
        "histograms_ns": {
            name: hist.summary()
            for name, hist in sorted(tracer.histograms.items())
        },
        "counter_snapshots": (
            [
                {"t": t, "counters": values}
                for t, values in tracer.cadence.snapshots
            ]
            if tracer.cadence is not None
            else []
        ),
    }


def write_summary(tracer: Tracer, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(summary(tracer), fh, indent=1, sort_keys=False)
    return path
