"""One pass of one workload, in a process of its own.

``run.py`` starts this file once per (workload, repeat, pass) so peak RSS,
GC state and import caches are per point.  It builds the world, times
``testbed.run`` and prints one JSON object as its last line:

* ``host``  - host-time measurements of this process (noisy);
* ``sim``   - the workload's simulated end-to-end metrics (exact);
* ``exact`` - counters and simulated layer metrics that, like ``sim``,
  must repeat exactly for a fixed seed;
* ``profile`` / ``obs`` - the traced passes' per-layer numbers.

Passes: ``plain`` (nothing attached), ``profile`` (``cProfile`` around the
timed window) and ``obs`` (a full ``repro.obs.Tracer`` in the testbed).
"""

import time

_ENTRY = time.perf_counter()  # setup_s starts here, before the imports

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's own high-water RSS.

    ``ru_maxrss`` survives ``exec`` and so starts at the parent's RSS;
    ``VmHWM`` belongs to this address space alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_", default="plain",
                        choices=("plain", "profile", "obs"))
    parser.add_argument("--pstats", help="where the profile pass dumps raw pstats")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(1, os.path.join(here, os.pardir, os.pardir, "src"))
    import repro  # noqa: F401 - imported alone so its RSS cost is visible
    rss_after_import = _peak_rss_mb()
    from repro import obs

    import layers
    from workloads import BUILDERS

    tracer = obs.Tracer() if args.pass_ == "obs" else None
    world = BUILDERS[args.workload](args.seed, tracer)

    gc_seconds = 0.0
    gc_started = 0.0

    def on_gc(phase, _info):
        nonlocal gc_seconds, gc_started
        if phase == "start":
            gc_started = time.perf_counter()
        else:
            gc_seconds += time.perf_counter() - gc_started

    profiler = cProfile.Profile() if args.pass_ == "profile" else None
    # A clean heap, but the collector's thresholds as the workload would
    # find them by default.
    gc.collect()
    gc.callbacks.append(on_gc)
    gen2_before = gc.get_stats()[2]["collections"]
    setup_s = time.perf_counter() - _ENTRY
    # One run per phase (the fan-in workloads have two: connect, then send).
    phase_walls = []
    cpu_before = time.process_time()
    for until in world.run_until:
        if profiler is not None:
            profiler.enable()
        phase_started = time.perf_counter()
        world.testbed.run(until=until)
        phase_walls.append(time.perf_counter() - phase_started)
        if profiler is not None:
            profiler.disable()
    cpu = time.process_time() - cpu_before
    wall = sum(phase_walls)
    gc.callbacks.remove(on_gc)
    peak_rss = _peak_rss_mb()

    result = world.results()
    events = world.testbed.events_processed
    exact = layers.counters(world, world.run_until[-1], result["delivered_bytes"])
    exact.update(world.extra)
    exact["fail_share"] = result["failed"] / result["attempted"]
    host = {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "sim.us_per_event": wall / events * 1e6,
        "api.connect_phase_wall_s": phase_walls[0] if len(phase_walls) > 1 else 0.0,
        "proc.cpu_s": cpu,
        "proc.gc_gen2_collections": gc.get_stats()[2]["collections"] - gen2_before,
        "proc.gc_s": gc_seconds,
        "proc.rss_after_import_mb": rss_after_import,
        "proc.rss_per_conn_kb": (
            (peak_rss - rss_after_import) * 1024.0 / world.connections
            if world.connections else 0.0
        ),
    }
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "pass": args.pass_,
        "host": host,
        "sim": result["sim"],
        "exact": exact,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": [
            {"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in result["checks"]
        ],
    }
    if profiler is not None:
        stats = pstats.Stats(profiler)
        if args.pstats:
            stats.dump_stats(args.pstats)
        out["profile"] = layers.profile_buckets(stats.stats)
    if tracer is not None:
        out["obs"] = layers.obs_metrics(obs.summary(tracer))
        obs.runtime.reset()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    status = main()
    # Tearing down a 10 000-connection world object by object takes the
    # interpreter seconds and tells nobody anything.
    sys.stdout.flush()
    os._exit(status)
