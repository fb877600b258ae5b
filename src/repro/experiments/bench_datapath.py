"""Datapath wall-clock benchmark: how fast does the simulator itself run?

Unlike the other experiment modules (which regenerate *paper* numbers),
this one measures the *host-side* performance of the simulation kernel
and the NetKernel datapath: wall seconds, simulator events per wall
second, and peak RSS, across the batched/unbatched × traced/untraced
matrix on figure4- and figure5-shaped workloads.  A ``fig4_quic_*`` cell
runs the same figure4 shape against a QUIC-family NSM
(``NsmSpec(stack_family="quic")``) so TCP-vs-QUIC datapath events/sec
can be compared side by side.

The headline number is ``fig4_unbatched_untraced`` — the hot datapath in
its default configuration.  Two committed references anchor it:

* :data:`PRE_BATCHING_BASELINE_WALL_S` — the same workload measured on
  the tree just before the batched-datapath/kernel-fast-path work, used
  to report the speedup;
* ``benchmarks/ref/BENCH_datapath_ref.json`` — a quick-mode reference
  used by CI to fail on >25 % regressions (see :func:`check_regression`).

Wall-clock numbers are best-of-N (noise on shared runners is one-sided:
interference only ever makes a run slower).  Peak RSS is process-wide
and monotonic, so it is reported once, not per config.

Usage::

    python -m repro bench datapath [--quick] [--out BENCH_datapath.json]
    python benchmarks/bench_datapath.py --quick --check benchmarks/ref/BENCH_datapath_ref.json
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netkernel import DEFAULT_BATCH_SIZE, CoreEngineConfig

__all__ = [
    "PRE_BATCHING_BASELINE_WALL_S",
    "PRE_BATCHING_BASELINE_QUICK_WALL_S",
    "BenchConfig",
    "MATRIX",
    "run_bench",
    "run_datapath_bench",
    "check_regression",
    "render",
    "main",
]

#: Wall seconds of the figure4-shaped workload (2 flows, 0.2 s simulated)
#: measured on this tree immediately before the batched-datapath +
#: simulation-kernel fast-path work (best of 3, idle single-core runner).
PRE_BATCHING_BASELINE_WALL_S = 4.399
#: Same, for the --quick shape (1 flow, 0.05 s simulated).
PRE_BATCHING_BASELINE_QUICK_WALL_S = 0.629

#: CI regression gate: fail when the headline config is this much slower
#: than the committed reference.
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class BenchConfig:
    """One cell of the benchmark matrix."""

    key: str
    workload: str  # "figure4" | "figure5"
    batched: bool
    traced: bool


MATRIX: List[BenchConfig] = [
    BenchConfig("fig4_unbatched_untraced", "figure4", batched=False, traced=False),
    BenchConfig("fig4_quic_unbatched_untraced", "figure4_quic", batched=False, traced=False),
    BenchConfig("fig4_batched_untraced", "figure4", batched=True, traced=False),
    BenchConfig("fig4_unbatched_traced", "figure4", batched=False, traced=True),
    BenchConfig("fig4_batched_traced", "figure4", batched=True, traced=True),
    BenchConfig("fig5_unbatched_untraced", "figure5", batched=False, traced=False),
    BenchConfig("fig5_batched_untraced", "figure5", batched=True, traced=False),
]


def _coreengine_config(batched: bool) -> Optional[CoreEngineConfig]:
    if not batched:
        return None  # defaults: batch_size=1, the bit-identical path
    return CoreEngineConfig(batch_size=DEFAULT_BATCH_SIZE)


def _run_config(config: BenchConfig, quick: bool) -> Dict[str, object]:
    """One measured run of one matrix cell; returns its metrics."""
    from .. import obs
    from ..obs import runtime as obs_runtime

    tracer = obs.Tracer() if config.traced else None
    stats: Dict[str, float] = {}
    try:
        if config.workload.startswith("figure4"):
            from .figure4 import measure_lan_throughput

            flows, duration = (1, 0.05) if quick else (2, 0.2)
            started = time.perf_counter()
            value = measure_lan_throughput(
                "netkernel",
                flows,
                duration=duration,
                warmup=duration * 0.25,
                coreengine_config=_coreengine_config(config.batched),
                tracer=tracer,
                stats_out=stats,
                stack_family=(
                    "quic" if config.workload.endswith("_quic") else "tcp"
                ),
            )
            wall = time.perf_counter() - started
            unit = "gbps"
        else:
            from ..host.vm import GuestOS
            from .figure5 import measure_wan_throughput

            duration = 2.0 if quick else 10.0
            started = time.perf_counter()
            value = measure_wan_throughput(
                "netkernel",
                GuestOS.LINUX,
                "cubic",
                duration=duration,
                warmup=duration * 0.125,
                coreengine_config=_coreengine_config(config.batched),
                tracer=tracer,
                stats_out=stats,
            )
            wall = time.perf_counter() - started
            unit = "mbps"
    finally:
        if tracer is not None:
            # The testbed factories install the tracer process-wide.
            obs_runtime.reset()
    events = int(stats.get("events_processed", 0))
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        unit: value,
        "sim_seconds": stats.get("sim_seconds"),
    }


def run_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    """Run the full matrix; returns the BENCH_datapath.json payload.

    Each cell is run ``repeats`` times and the best (lowest) wall time
    kept; throughput values and event counts are identical across
    repeats (the simulation is deterministic), so only timing varies.
    ``jobs`` fans the (config × repeat) cells across worker processes —
    the measured values merge identically, but on a loaded or
    few-core host the *wall times* of concurrent cells contend, so use
    parallel mode for turnaround, serial mode for publishable timings.
    """
    if repeats is None:
        repeats = 2 if quick else 3
    from ..parallel import parallel_map

    cells = [(config, quick) for config in MATRIX for _ in range(repeats)]
    outcomes = parallel_map(
        _run_config,
        cells,
        jobs=jobs,
        keys=[f"{config.key}#{i % repeats}" for i, (config, _) in enumerate(cells)],
    )
    configs: Dict[str, Dict[str, object]] = {}
    for index, config in enumerate(MATRIX):
        runs = outcomes[index * repeats : (index + 1) * repeats]
        best = min(runs, key=lambda run: run["wall_s"])
        best["best_of"] = repeats
        configs[config.key] = best

    headline = configs["fig4_unbatched_untraced"]["wall_s"]
    baseline = (
        PRE_BATCHING_BASELINE_QUICK_WALL_S if quick else PRE_BATCHING_BASELINE_WALL_S
    )
    return {
        "benchmark": "datapath",
        "quick": quick,
        "pre_batching_baseline_wall_s": baseline,
        "headline_wall_s": headline,
        "speedup_vs_pre_batching": baseline / headline if headline > 0 else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "configs": configs,
    }


#: Package-level alias (``repro.experiments.run_datapath_bench``).
run_datapath_bench = run_bench


def check_regression(
    result: Dict[str, object],
    reference: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Optional[str]:
    """Compare the headline config against a committed reference.

    Returns None when within ``tolerance``, else a human-readable failure
    message.  Both payloads must have been produced with the same
    ``quick`` flag (the workloads differ otherwise).
    """
    if bool(result.get("quick")) != bool(reference.get("quick")):
        return (
            "reference/result shape mismatch: "
            f"quick={reference.get('quick')} vs {result.get('quick')}"
        )
    ref_wall = reference["headline_wall_s"]
    wall = result["headline_wall_s"]
    if wall > ref_wall * (1.0 + tolerance):
        return (
            f"datapath regression: fig4_unbatched_untraced took {wall:.3f}s, "
            f"more than {(1.0 + tolerance):.2f}x the committed reference "
            f"{ref_wall:.3f}s"
        )
    return None


def render(result: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_bench` payload."""
    lines = [
        "Datapath benchmark (wall-clock performance of the simulator)",
        f"{'config':>26} {'wall s':>8} {'events':>9} {'events/s':>10} {'value':>12}",
    ]
    for key, row in result["configs"].items():
        value = (
            f"{row['gbps']:.2f} Gbps" if "gbps" in row else f"{row['mbps']:.2f} Mbps"
        )
        lines.append(
            f"{key:>26} {row['wall_s']:>8.3f} {row['events']:>9} "
            f"{row['events_per_s']:>10.0f} {value:>12}"
        )
    speedup = result["speedup_vs_pre_batching"]
    lines.append(
        f"headline: {result['headline_wall_s']:.3f}s vs pre-batching baseline "
        f"{result['pre_batching_baseline_wall_s']:.3f}s "
        f"-> {speedup:.2f}x speedup; peak RSS {result['peak_rss_kb']} KB"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI smoke: ~seconds, not minutes)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per config, best kept (default 3, 2 with --quick)")
    parser.add_argument("--out", default="BENCH_datapath.json",
                        help="result JSON path")
    parser.add_argument("--check", default=None, metavar="REF_JSON",
                        help="fail (exit 1) if the headline config regresses "
                        ">25%% vs this committed reference")
    args = parser.parse_args(argv)

    result = run_bench(quick=args.quick, repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(render(result))
    print(f"results -> {args.out}")

    if args.check is not None:
        with open(args.check) as fh:
            reference = json.load(fh)
        failure = check_regression(result, reference)
        if failure is not None:
            print(f"FAIL: {failure}")
            return 1
        print(
            f"regression check OK vs {args.check} "
            f"(reference headline {reference['headline_wall_s']:.3f}s)"
        )
    return 0
