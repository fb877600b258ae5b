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

``--jobs N`` on figure4/figure5/ablation/chaos fans independent runs
across a worker-process pool (repro.parallel); merged output is
bit-identical to ``--jobs 1``.  Wall-clock and memory benchmarking is
not a subcommand: it is ``python3 benchmarks/ledger/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

__all__ = ["main", "build_parser"]


def _banner(title: str) -> str:
    rule = "=" * 72
    return f"{rule}\n{title}\n{rule}"


def run_table1(args: argparse.Namespace) -> str:
    from .experiments import run_table1 as harness

    return harness().table()


def run_micro(args: argparse.Namespace) -> str:
    from .experiments import run_microbench as harness

    return harness().table()


def _progress_printer(label: str):
    """Per-run progress lines on stderr (parallel sweeps take a while)."""

    def progress(done: int, total: int, result) -> None:
        status = f"{result.wall_s:.1f}s" if result.ok else f"FAILED: {result.error}"
        print(f"[{label} {done}/{total}] {result.key} {status}", file=sys.stderr)

    return progress


def _sample_period(text: str) -> int:
    """``--sample N``: a 1-in-N period, so N must be at least 1."""
    period = int(text)
    if period < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (1 = every span), got {period}")
    return period


def _jobs(args: argparse.Namespace) -> int:
    return max(1, getattr(args, "jobs", 1) or 1)


def run_figure4(args: argparse.Namespace) -> str:
    from .experiments import run_figure4 as harness

    return harness(
        duration=args.duration,
        warmup=args.duration * 0.25,
        jobs=_jobs(args),
        fidelity=getattr(args, "fidelity", "packet"),
    ).table()


def run_figure5(args: argparse.Namespace) -> str:
    from .experiments import run_figure5 as harness

    return harness(
        duration=args.duration,
        seeds=tuple(args.seeds),
        jobs=_jobs(args),
        fidelity=getattr(args, "fidelity", "packet"),
    ).table()


_ABLATIONS: Dict[str, str] = {
    "form": "run_nsm_form_ablation",
    "priority": "run_priority_ablation",
    "notify": "run_notify_ablation",
    "multiplex": "run_multiplexing_ablation",
    "containers": "run_container_ablation",
    "qos": "run_qos_ablation",
    "fastpass": "run_fastpass_ablation",
    "connscale": "run_connscale_ablation",
}


def run_ablation(args: argparse.Namespace) -> str:
    import inspect

    import repro.experiments as experiments

    harness = getattr(experiments, _ABLATIONS[args.which])
    kwargs = {}
    # Grid-shaped ablations accept ``jobs``; single-run ones don't.
    parameters = inspect.signature(harness).parameters
    if "jobs" in parameters:
        kwargs["jobs"] = _jobs(args)
    return harness(**kwargs).table()


def run_all(args: argparse.Namespace) -> str:
    sections: List[str] = []
    for label, runner, ns in (
        ("Table 1", run_table1, args),
        ("§4.2 microbenchmarks", run_micro, args),
        ("Figure 4", run_figure4, argparse.Namespace(duration=0.35)),
        ("Figure 5", run_figure5, argparse.Namespace(duration=40.0, seeds=[1, 2, 3])),
    ):
        started = time.time()
        sections.append(_banner(label))
        sections.append(runner(ns))
        sections.append(f"[{time.time() - started:.0f}s]")
    for which in _ABLATIONS:
        started = time.time()
        sections.append(_banner(f"Ablation: {which}"))
        sections.append(run_ablation(argparse.Namespace(which=which)))
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


def run_chaos(args: argparse.Namespace) -> str:
    """Figure workloads under a fault plan (see repro.experiments.chaos)."""
    from .experiments import chaos

    if args.fuzz:
        outcomes = chaos.run_chaos_fuzz(
            count=args.fuzz,
            base_seed=args.seed,
            flows=args.flows,
            duration=args.duration,
            faults=args.faults,
            jobs=_jobs(args),
            progress=_progress_printer("chaos-fuzz"),
        )
        report = chaos.render_fuzz_sweep(outcomes)
        if any(outcome.error is not None for outcome in outcomes):
            print(report)
            raise SystemExit("chaos --fuzz: at least one run FAILED")
        return report
    if args.smoke:
        result = chaos.run_chaos_smoke(seed=args.seed, flows=args.flows)
        failures = []
        if result.unrecovered:
            failures.append(f"{result.unrecovered} unrecovered flow(s)")
        if not result.failovers:
            failures.append("NSM crash produced no failover")
        if not any(
            rec["kind"] == "hostile-tenant" for rec in result.recovered_faults
        ):
            failures.append("hostile-tenant fault recorded no recovery")
        if failures:
            print(result.table())
            raise SystemExit("chaos --smoke FAILED: " + "; ".join(failures))
        return result.table() + "\nchaos --smoke OK"
    plan = chaos.default_random_plan(
        args.seed, duration=args.duration, faults=args.faults
    )
    result = chaos.run_chaos(plan, flows=args.flows, duration=args.duration)
    return plan.describe() + "\n" + result.table()


def run_migrate(args: argparse.Namespace) -> str:
    """Live NSM migration demo / chaos sweep (see repro.netkernel.migration)."""
    from .experiments import chaos

    if args.smoke:
        results = chaos.run_migration_smoke()
        failures = [f for r in results for f in r.failures]
        report = "\n\n".join(r.table() for r in results)
        if failures:
            print(report)
            raise SystemExit("migrate --smoke FAILED: " + "; ".join(failures))
        return report + "\nmigrate --smoke OK"
    if args.chaos:
        result = chaos.run_migration_chaos(
            family=args.family, flows=args.flows, total_mb=args.total_mb
        )
        if result.failures:
            print(result.table())
            raise SystemExit("migrate --chaos FAILED: " + "; ".join(result.failures))
        return result.table() + "\nmigrate --chaos OK"
    result = chaos.run_migration(
        family=args.family, flows=args.flows, total_mb=args.total_mb
    )
    lines = [
        f"live migration [{args.family}]: "
        f"{'COMMIT' if result.committed else result.final_phase}",
        f"  {result.connections_moved} connection(s) moved, "
        f"{result.bytes_transferred}B of stack state, "
        f"{result.drain_rounds} drain round(s)",
        f"  guest-visible freeze: "
        + (f"{result.freeze_seconds * 1e6:.1f}us"
           if result.freeze_seconds is not None else "-"),
        f"  transfer: {result.bytes_received}/{result.bytes_expected}B "
        f"delivered, {result.guest_errors} guest error(s), "
        f"{len(result.invariant_violations)} invariant violation(s)",
        "  phases: "
        + " -> ".join(f"{p}@{t * 1e3:.3f}ms" for p, t in result.phases),
    ]
    if not (result.zero_loss and result.committed):
        print("\n".join(lines))
        raise SystemExit("migrate: migration was not zero-loss")
    return "\n".join(lines) + "\nmigrate OK"


def run_stackswap(args: argparse.Namespace) -> str:
    """TCP-vs-QUIC stack swap + hostile-tenant isolation (acceptance run)."""
    from .experiments import stackswap

    result = stackswap.run_stackswap(
        flows=args.flows, duration=args.duration, quick=args.quick
    )
    failures = result.failures()
    if failures:
        print(result.table())
        raise SystemExit("stackswap FAILED: " + "; ".join(failures))
    return result.table() + "\nstackswap OK"


def run_list(args: argparse.Namespace) -> str:
    lines = [
        "available artifacts:",
        "  table1     Table 1: memory copy latency",
        "  micro      §4.2: nqe copy cost + channel throughput",
        "  figure4    Figure 4: Cubic native vs Cubic NSM on 40 GbE",
        "  figure5    Figure 5: Windows VM + BBR NSM on the WAN path",
        "  ablation   §5 research-agenda ablations "
        f"({', '.join(sorted(_ABLATIONS))})",
        "  trace      run figure4/figure5 with the repro.obs tracer on;"
        " export a Chrome trace",
        "  chaos      figure4 workload under a seeded fault plan"
        " (NSM crash/failover, timeouts); --fuzz N for a sweep",
        "  stackswap  same guest app on TCP vs QUIC NSMs (0-RTT setup"
        " latency) + hostile-tenant isolation on a shared NSM",
        "  migrate    live NSM migration mid-transfer (zero-loss handoff);"
        " --chaos sweeps faults across every phase boundary",
        "  all        everything above in sequence",
        "",
        "figure4/figure5/ablation/chaos accept --jobs N to fan",
        "independent runs across worker processes (bit-identical output).",
    ]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Network Stack "
        "as a Service in the Cloud' (HotNets 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available artifacts").set_defaults(
        runner=run_list
    )
    sub.add_parser("table1", help="Table 1").set_defaults(runner=run_table1)
    sub.add_parser("micro", help="§4.2 microbenchmarks").set_defaults(
        runner=run_micro
    )

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan independent runs across N worker processes "
                            "(results bit-identical to --jobs 1)")

    def add_fidelity(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fidelity", choices=["packet", "auto"],
                       default="packet",
                       help="engine fidelity: packet (exact, default) or auto "
                            "(fluid fast path with packet-accurate "
                            "promotion)")

    fig4 = sub.add_parser("figure4", help="Figure 4")
    fig4.add_argument("--duration", type=float, default=0.35,
                      help="seconds of simulated time per point")
    add_fidelity(fig4)
    add_jobs(fig4)
    fig4.set_defaults(runner=run_figure4)

    fig5 = sub.add_parser("figure5", help="Figure 5")
    fig5.add_argument("--duration", type=float, default=40.0)
    fig5.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                      help="loss-process realizations to average")
    add_fidelity(fig5)
    add_jobs(fig5)
    fig5.set_defaults(runner=run_figure5)

    ablation = sub.add_parser("ablation", help="§5 ablations")
    ablation.add_argument("which", choices=sorted(_ABLATIONS))
    add_jobs(ablation)
    ablation.set_defaults(runner=run_ablation)

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

    chaos = sub.add_parser(
        "chaos",
        help="run the figure4 workload under a fault plan (robustness)",
    )
    chaos.add_argument("--smoke", action="store_true",
                       help="CI mode: scripted NSM crash; nonzero exit if "
                            "any flow fails to recover")
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan seed (deterministic)")
    chaos.add_argument("--flows", type=int, default=2,
                       help="concurrent bulk flows")
    chaos.add_argument("--faults", type=int, default=6,
                       help="faults drawn into the random plan")
    chaos.add_argument("--duration", type=float, default=0.35,
                       help="seconds of simulated time")
    chaos.add_argument("--fuzz", type=int, default=0, metavar="N",
                       help="run a sweep of N seeded random fault plans "
                            "(seeds derived from --seed); nonzero exit if "
                            "any run crashes")
    add_jobs(chaos)
    chaos.set_defaults(runner=run_chaos)

    migrate = sub.add_parser(
        "migrate",
        help="live NSM migration: zero-loss tenant-stack handoff, with "
        "an optional chaos sweep over every phase boundary",
    )
    migrate.add_argument("--smoke", action="store_true",
                         help="CI mode: full TCP boundary sweep plus an "
                              "abbreviated QUIC sweep; nonzero exit on any "
                              "lost byte, guest error or invariant violation")
    migrate.add_argument("--chaos", action="store_true",
                         help="inject every migration fault kind at every "
                              "phase boundary (pilot-learned times)")
    migrate.add_argument("--family", choices=["tcp", "quic"], default="tcp",
                         help="protocol stack family to migrate")
    migrate.add_argument("--flows", type=int, default=2,
                         help="concurrent finite bulk flows")
    migrate.add_argument("--total-mb", type=int, default=8, dest="total_mb",
                         help="byte budget per flow (MB) — zero-loss is "
                              "checked against this exact count")
    migrate.set_defaults(runner=run_migrate)

    stackswap = sub.add_parser(
        "stackswap",
        help="swap the stack family under an unchanged guest app (QUIC "
        "0-RTT vs TCP handshake) and prove per-tenant isolation",
    )
    stackswap.add_argument("--quick", action="store_true",
                           help="CI mode: fewer flows, shorter runs")
    stackswap.add_argument("--flows", type=int, default=20,
                           help="measured short flows per stack family")
    stackswap.add_argument("--duration", type=float, default=0.15,
                           help="seconds of simulated time per isolation run")
    stackswap.set_defaults(runner=run_stackswap)

    sub.add_parser("all", help="regenerate everything").set_defaults(
        runner=run_all
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
