"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro list                 # what can I run?
    python -m repro table1
    python -m repro figure4 [--duration 0.35]
    python -m repro figure5 [--duration 40 --seeds 1 2 3]
    python -m repro micro
    python -m repro ablation {form,priority,notify,multiplex,
                              containers,qos,fastpass,connscale}
    python -m repro trace figure4 --out trace.json   # cross-layer tracing
    python -m repro chaos [--smoke --seed 7]         # fault injection
    python -m repro chaos --fuzz 8 --jobs 4          # parallel fuzz sweep
    python -m repro stackswap [--quick]  # QUIC NSM swap + tenant isolation
    python -m repro migrate [--chaos --family quic]  # live NSM migration
    python -m repro all                  # everything (several minutes)

Every subcommand but ``trace``, ``list`` and ``all`` is generated from
:mod:`repro.experiments.registry`: its options, and one runner that fans
the experiment's points across ``--jobs N`` worker processes
(repro.parallel; the output is bit-identical to ``--jobs 1``).
Wall-clock and memory benchmarking is not a subcommand: it is
``python3 benchmarks/ledger/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .experiments import registry

__all__ = ["main", "build_parser"]


def _sample_period(text: str) -> int:
    """``--sample N``: a 1-in-N period, so N must be at least 1."""
    period = int(text)
    if period < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (1 = every span), got {period}")
    return period


def run_experiment(args: argparse.Namespace) -> str:
    """``repro <name>`` / ``repro ablation <name>``: one registry entry."""
    if getattr(args, "fuzz", 0):
        return _chaos_fuzz(args)
    params = {dest: getattr(args, dest) for dest in args.params}
    try:
        return registry.load(args.experiment).report(getattr(args, "jobs", 1), **params)
    except registry.UsageError as exc:
        args.usage_error(str(exc))  # exits 2


def _chaos_fuzz(args: argparse.Namespace) -> str:
    """``repro chaos --fuzz N``: a sweep of seeded random fault plans."""
    from .experiments import chaos

    def progress(done: int, total: int, result) -> None:
        status = f"{result.wall_s:.1f}s" if result.ok else f"FAILED: {result.error}"
        print(f"[chaos-fuzz {done}/{total}] {result.key} {status}", file=sys.stderr)

    outcomes = chaos.run_chaos_fuzz(
        count=args.fuzz,
        base_seed=args.seed,
        flows=args.flows,
        duration=args.duration,
        faults=args.faults,
        jobs=args.jobs,
        progress=progress,
    )
    report = chaos.render_fuzz_sweep(outcomes)
    if any(outcome.error is not None for outcome in outcomes):
        print(report)
        raise SystemExit("chaos --fuzz: at least one run FAILED")
    return report


def run_all() -> str:
    """Every paper artifact and ablation, with its default options."""
    parser = build_parser()
    sections: List[str] = []
    for name, entry in registry.ENTRIES.items():
        if entry.title is not None:
            banner, argv = entry.title, [name]
        elif name in registry.ablations():
            banner, argv = f"Ablation: {name}", ["ablation", name]
        else:
            continue
        started = time.time()
        rule = "=" * 72
        sections.append(f"{rule}\n{banner}\n{rule}")
        sections.append(run_experiment(parser.parse_args(argv)))
        sections.append(f"[{time.time() - started:.0f}s]")
    return "\n".join(sections)


def run_trace(args: argparse.Namespace) -> str:
    """Run one experiment datapath with the repro.obs tracer enabled."""
    from . import obs
    from .obs import runtime as obs_runtime

    sampler = obs.HeadSampler(args.sample) if args.sample > 1 else None
    tracer = obs.Tracer(sampler=sampler, cadence=args.cadence)
    try:
        if args.experiment == "figure4":
            from .experiments.figure4 import measure_lan_throughput

            duration = args.duration if args.duration is not None else 0.1
            gbps = measure_lan_throughput(
                "netkernel",
                flows=args.flows,
                duration=duration,
                warmup=duration * 0.25,
                tracer=tracer,
            )
            headline = (
                f"figure4 (netkernel, {args.flows} flow(s), {duration}s sim): "
                f"{gbps:.2f} Gbps"
            )
        else:  # figure5
            from .experiments.figure5 import measure_wan_throughput
            from .host.vm import GuestOS

            duration = args.duration if args.duration is not None else 10.0
            mbps = measure_wan_throughput(
                "netkernel",
                GuestOS.WINDOWS,
                "bbr",
                duration=duration,
                warmup=duration * 0.125,
                tracer=tracer,
            )
            headline = (
                f"figure5 (BBR NSM, {duration}s sim): {mbps:.2f} Mbps"
            )
    finally:
        # The factories installed the tracer process-wide; don't leak it
        # into whatever the interpreter does next.
        obs_runtime.reset()

    obs.write_chrome_trace(tracer, args.out)
    if args.summary_out:
        obs.write_summary(tracer, args.summary_out)
    report = obs.summary(tracer)
    lines = [
        headline,
        f"chrome trace -> {args.out} (open in chrome://tracing or Perfetto)",
    ]
    if args.summary_out:
        lines.append(f"summary -> {args.summary_out}")
    lines.append(
        f"spans: {report['spans']} recorded, {report['spans_dropped']} dropped; "
        f"layers: {', '.join(report['spans_by_layer'])}"
    )
    lines.append(f"{'histogram (ns)':>28} {'count':>9} {'p50':>10} {'p99':>10} {'p999':>10}")
    for name, hist in report["histograms_ns"].items():
        if hist.get("count"):
            lines.append(
                f"{name:>28} {hist['count']:>9} {hist['p50']:>10.0f} "
                f"{hist['p99']:>10.0f} {hist['p999']:>10.0f}"
            )
    return "\n".join(lines)


def _listing() -> str:
    def line(name: str, summary: str) -> str:
        return f"  {name:<10} {summary}"

    entries = registry.ENTRIES.items()
    return "\n".join([
        "available artifacts:",
        *(line(name, e.summary) for name, e in entries if e.title is not None),
        line("ablation", "§5 research-agenda ablations "
             f"({', '.join(sorted(registry.ablations()))})"),
        line("trace", "run figure4/figure5 with the repro.obs tracer on;"
             " export a Chrome trace"),
        *(line(name, e.summary) for name, e in entries
          if e.title is None and e.summary),
        line("all", "everything above in sequence"),
        "",
        "figure4/figure5/ablation/chaos accept --jobs N to fan",
        "independent runs across worker processes (bit-identical output).",
    ])


def _add_options(parser: argparse.ArgumentParser, options) -> List[str]:
    """Add registry ``options``; the experiment's parameter names."""
    dests = [parser.add_argument(*flags, **kwargs).dest for flags, kwargs in options]
    return [dest for dest in dests if dest not in ("jobs", "fuzz")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Network Stack "
        "as a Service in the Cloud' (HotNets 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available artifacts").set_defaults(
        runner=lambda _args: _listing()
    )
    for name, entry in registry.ENTRIES.items():
        if name in registry.ablations():
            continue
        command = sub.add_parser(name, help=entry.title or entry.summary)
        params = _add_options(command, entry.options)
        command.set_defaults(
            runner=run_experiment, experiment=name, params=params,
            usage_error=command.error,
        )
    ablation = sub.add_parser("ablation", help="§5 ablations")
    ablation.add_argument("experiment", choices=sorted(registry.ablations()))
    _add_options(ablation, [registry.JOBS])
    ablation.set_defaults(runner=run_experiment, params=[], usage_error=ablation.error)

    trace = sub.add_parser(
        "trace",
        help="run an experiment with cross-layer tracing (repro.obs)",
    )
    trace.add_argument("experiment", choices=["figure4", "figure5"])
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--summary-out", default=None,
                       help="also write the flat summary dict as JSON")
    trace.add_argument("--duration", type=float, default=None,
                       help="seconds of simulated time (default 0.1 / 10)")
    trace.add_argument("--flows", type=int, default=1,
                       help="bulk flows (figure4 only)")
    trace.add_argument("--sample", type=_sample_period, default=1, metavar="N",
                       help="head-sample 1-in-N root spans (default: all)")
    trace.add_argument("--cadence", type=float, default=None,
                       help="counter snapshot interval in sim seconds")
    trace.set_defaults(runner=run_trace)

    sub.add_parser("all", help="regenerate everything").set_defaults(
        runner=lambda _args: run_all()
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.runner(args))
    except BrokenPipeError:  # output piped into head/less and closed
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
