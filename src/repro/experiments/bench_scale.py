"""Scale benchmark: how fast does the simulator run at large connection counts?

Like the perf ledger (``benchmarks/ledger/``), this measures *host-side*
performance, not paper numbers — but in the many-connection regime that the NetKernel
follow-up (arXiv:1903.07119) evaluates: thousands of mostly-idle
connections with sparse, uncoordinated activity, plus short-connection
churn.  Two workload families:

* ``epoll_N`` — one epoll-driven sink serves N persistent connections;
  every client sends a few small messages at staggered times, so each
  ``epoll_wait`` wakeup services O(1) descriptors out of N registered.
  This is the workload where a per-wait O(n_fds) readiness scan melts
  the host CPU (the pre-PR tree) and an O(ready) ready-set does not.
* ``churn_N`` — N closed-loop web clients (connect, request, response,
  close) against one server, stressing connection setup/teardown:
  listener spawn, conntable/fd churn, segment allocation, TIME_WAIT.

Reported per point: wall seconds, simulator events, events per wall
second, and workload progress (messages or requests).  The headline is
``epoll_10000`` events/sec, anchored by two references:

* :data:`PRE_PR_BASELINE` — the same workload measured on the tree just
  before the large-N fast paths (O(ready) epoll, lookup/alloc fast
  paths), committed so ``BENCH_scale.json`` always carries the speedup;
* ``benchmarks/ref/BENCH_scale_ref.json`` — a smoke-mode reference used
  by CI to fail on >25 % regressions.

A ``sweep`` section times ≥8 independent runs serially and through
``repro.parallel`` with 4 workers, recording the wall-clock speedup
(``host_cpus`` is recorded alongside: on a single-core runner the
parallel sweep cannot beat serial, and the number says so honestly).

Usage::

    python -m repro bench scale [--smoke] [--jobs N] [--out BENCH_scale.json]
    python benchmarks/bench_scale.py --smoke --check benchmarks/ref/BENCH_scale_ref.json
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from ..api.epoll import Epoll
from ..net import Endpoint
from ..sim import Simulator

__all__ = [
    "PRE_PR_BASELINE",
    "measure_epoll_point",
    "measure_churn_point",
    "run_bench",
    "run_scale_bench",
    "run_gc_ab",
    "run_sweep",
    "check_regression",
    "render",
    "main",
]

#: events/sec (and wall seconds) of the scale points measured on this
#: tree immediately before the large-N fast paths (best of the runs on
#: an idle single-core runner).  ``epoll_10000`` is the headline.
#:
#: ``churn_64`` history: the row originally committed here (4.513 s wall,
#: 1,086,534 events/s) implied ~4.9M simulator events — but the churn
#: workload is deterministic and processes exactly 1,364,691 events on
#: every tree since the harness landed (bit-identical then and now), so
#: that row could not have been this workload; it was a stale draft
#: measurement.  The values below were re-measured by checking out the
#: pre-fast-paths tree and running this harness's exact workload there
#: (13.05 s wall, 104,582 events/s, 18,045 requests) — not a regression,
#: a bad baseline.  PERFORMANCE.md §8 has the full account.
PRE_PR_BASELINE: Dict[str, Dict[str, float]] = {
    "epoll_100": {"wall_s": 0.838, "events_per_s": 712460.0},
    "epoll_1000": {"wall_s": 9.692, "events_per_s": 523060.0},
    "epoll_10000": {"wall_s": 1375.3, "events_per_s": 59464.0},
    "churn_64": {"wall_s": 13.049, "events_per_s": 104582.0},
}

#: CI regression gate: tolerated events/s shortfall against the reference.
DEFAULT_TOLERANCE = 0.25

#: GC generation thresholds inside a timed window.  The built world is
#: millions of long-lived objects; with the default (700, 10, 10) the
#: run's allocation churn drags gen-1/gen-2 scans over all of them many
#: times per simulated second.  Freezing the world after build and
#: fattening gen 0 leaves collection to the short-lived per-event
#: garbage it can actually reclaim.
GC_THRESHOLDS = (50000, 25, 25)


@contextmanager
def _tuned_gc(enabled: bool = True):
    """Freeze the (already-built) world and raise GC thresholds for a
    timed run; restore both on exit.  ``enabled=False`` is the A/B knob
    :func:`run_gc_ab` uses to measure what the tuning buys."""
    if not enabled:
        yield
        return
    old = gc.get_threshold()
    gc.collect()
    gc.freeze()
    gc.set_threshold(*GC_THRESHOLDS)
    try:
        yield
    finally:
        gc.set_threshold(*old)
        gc.unfreeze()

#: Inter-message stagger: far apart enough that consecutive messages hit
#: the sink in separate epoll wakeups (the sparse-activity regime).
SEND_SPACING = 2e-6
#: Connect-phase stagger per client (keeps SYN backlogs shallow).
CONNECT_SPACING = 2e-6
#: Connections per sink listen port — below the ~32k ephemeral-port
#: space a client stack has per remote ``(ip, port)``.
CONNS_PER_PORT = 30000


class _EpollSink:
    """One epoll loop serving its listeners plus every accepted connection.

    Usually one listen port; the 100k point spreads connections over
    several (a client stack has only ~32k ephemeral ports per remote
    ``(ip, port)``, so beyond that the workload needs more listeners —
    the same reason real frontends at that scale do).
    """

    def __init__(self, sim: Simulator, api, port, read_size: int = 1 << 16):
        self.sim = sim
        self.api = api
        self.ports = [port] if isinstance(port, int) else list(port)
        self.read_size = read_size
        self.bytes = 0
        self.messages = 0
        self.accepted = 0
        self.process = sim.process(self._run(), name=f"epoll-sink:{self.ports[0]}")

    def _run(self):
        listen_fds = set()
        for port in self.ports:
            listen_fd = yield self.api.socket()
            yield self.api.bind(listen_fd, port)
            yield self.api.listen(listen_fd, backlog=512)
            listen_fds.add(listen_fd)
        epoll = Epoll(self.sim, self.api)
        for listen_fd in listen_fds:
            epoll.register(listen_fd)
        while True:
            ready = yield epoll.wait()
            for fd, _events in ready:
                if fd in listen_fds:
                    conn_fd = yield self.api.accept(fd)
                    epoll.register(conn_fd)
                    self.accepted += 1
                    continue
                n = yield self.api.recv(fd, self.read_size)
                if n == 0:
                    epoll.unregister(fd)
                    yield self.api.close(fd)
                    continue
                self.bytes += n
                self.messages += 1


class _SendPlan:
    """The shared half of every sender's schedule (one per world).

    At N=10^6 every per-sender byte is a megabyte of RSS, so the sender
    keeps only its index and computes its absolute send times from this
    shared plan with the exact arithmetic the old per-sender time list
    used (``connect_phase + (m * n + i) * spacing`` — same floats, same
    simulated schedule, bit-identical goldens).
    """

    __slots__ = (
        "connect_phase",
        "n_conns",
        "send_spacing",
        "messages_per_conn",
        "message_bytes",
    )

    def __init__(self, connect_phase, n_conns, send_spacing,
                 messages_per_conn, message_bytes):
        self.connect_phase = connect_phase
        self.n_conns = n_conns
        self.send_spacing = send_spacing
        self.messages_per_conn = messages_per_conn
        self.message_bytes = message_bytes


class _ScheduledSender:
    """Connects once, then sends fixed-size messages at absolute times."""

    __slots__ = ("sim", "api", "remote", "plan", "index", "sent", "process")

    def __init__(
        self,
        sim: Simulator,
        api,
        remote: Endpoint,
        plan: _SendPlan,
        index: int,
    ):
        self.sim = sim
        self.api = api
        self.remote = remote  # shared per listen port, not per sender
        self.plan = plan
        self.index = index
        self.sent = 0
        self.process = sim.process(self._run(), name="sender")

    def _run(self):
        plan = self.plan
        connect_at = self.index * CONNECT_SPACING
        if connect_at > 0:
            yield self.sim.timeout(connect_at)
        fd = yield self.api.socket()
        yield self.api.connect(fd, self.remote)
        for m in range(plan.messages_per_conn):
            at = plan.connect_phase + (m * plan.n_conns + self.index) * plan.send_spacing
            delay = at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            yield self.api.send(fd, plan.message_bytes)
            self.sent += 1


class _EpollWorld:
    """The epoll workload plus everything needed to run/collect it."""

    __slots__ = (
        "testbed",
        "sink",
        "senders",
        "duration",
        "expected",
        "fidelity",
    )


def _epoll_duration(
    n_conns: int,
    messages_per_conn: int = 2,
    send_spacing: float = SEND_SPACING,
) -> float:
    """Sim end time of the epoll workload (closed-form: no build needed)."""
    connect_phase = n_conns * CONNECT_SPACING + 0.005
    return connect_phase + (messages_per_conn * n_conns) * send_spacing + 0.005


def _build_epoll_world(
    n_conns: int,
    messages_per_conn: int = 2,
    message_bytes: int = 512,
    fidelity: str = "packet",
    send_spacing: float = SEND_SPACING,
    offloads: bool = True,
) -> _EpollWorld:
    """Build the epoll workload."""
    from ..net.offload import OffloadConfig
    from .common import install_fluid, make_lan_testbed

    testbed = make_lan_testbed(
        # offloads=False models paravirtual NICs without TSO/GRO — the
        # per-segment regime the paper's guest kernels live in, and where
        # the fluid engine's byte-counter integration pays off most.
        offload=None if offloads else OffloadConfig(tso=False, gro=False),
    )
    world = _EpollWorld()
    # Fidelity hooks must exist before any stack is constructed (stacks
    # snapshot ``sim.fidelity`` at boot), hence install-before-boot.
    world.fidelity = install_fluid(testbed, mode=fidelity)
    server_vm = testbed.hypervisor_b.boot_legacy_vm("server", vcpus=4)
    client_vm = testbed.hypervisor_a.boot_legacy_vm("clients", vcpus=4)

    world.testbed = testbed
    # The client stack has ~32k ephemeral ports per remote (ip, port):
    # past that the sink must spread across listen ports.  Assignment is
    # by *block* (connections 0..cap-1 -> first port, ...), not
    # round-robin: the ephemeral allocator wraps every 32768 connects,
    # and a round-robin whose period divides the wrap would hand two
    # connections the same (local_port, dst_port) pair.  Within a block
    # the spread is < 32768, so local ports cannot repeat.
    n_ports = 1 + (n_conns - 1) // CONNS_PER_PORT
    ports = [5000 + p for p in range(n_ports)]
    world.sink = _EpollSink(testbed.sim, server_vm.api, port=ports)
    connect_phase = n_conns * CONNECT_SPACING + 0.005
    plan = _SendPlan(
        connect_phase, n_conns, send_spacing, messages_per_conn, message_bytes
    )
    remotes = [Endpoint(server_vm.api.ip, port) for port in ports]
    world.senders = []
    for i in range(n_conns):
        world.senders.append(
            _ScheduledSender(
                testbed.sim,
                client_vm.api,
                remotes[i // CONNS_PER_PORT],
                plan,
                i,
            )
        )
    world.duration = _epoll_duration(n_conns, messages_per_conn, send_spacing)
    world.expected = n_conns * messages_per_conn
    return world


def measure_epoll_point(
    n_conns: int,
    messages_per_conn: int = 2,
    message_bytes: int = 512,
    fidelity: str = "packet",
    send_spacing: float = SEND_SPACING,
    offloads: bool = True,
    gc_tuning: bool = True,
) -> Dict[str, object]:
    """N persistent connections into one epoll sink, sparse sends.

    Message ``m`` of client ``i`` lands at ``T0 + (m * N + i) * spacing``
    — every delivery is its own epoll wakeup with O(1) ready fds, which
    is exactly where a per-wait O(n_fds) scan goes quadratic.

    ``fidelity`` selects the engine mode: ``"packet"`` (the default,
    byte-for-byte the pre-existing behaviour), ``"auto"`` or ``"fluid"``
    (see :mod:`repro.sim.fluid`).
    """
    world = _build_epoll_world(
        n_conns,
        messages_per_conn,
        message_bytes,
        fidelity,
        send_spacing,
        offloads,
    )
    with _tuned_gc(gc_tuning):
        started = time.perf_counter()
        world.testbed.run(until=world.duration)
        wall = time.perf_counter() - started
    events = world.testbed.events_processed
    row = {
        "workload": "epoll",
        "connections": n_conns,
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "messages_delivered": world.sink.messages,
        "messages_expected": world.expected,
        "bytes_delivered": world.sink.bytes,
        "sim_seconds": world.duration,
        # ru_maxrss is the process high-water mark, so for the largest
        # cell of a serial matrix (the 10^6-connection point) this *is*
        # the cell's peak — the number the ISSUE-10 memory gate reads.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if fidelity != "packet":
        row["fidelity"] = fidelity
        if world.fidelity is not None:
            row["fluid"] = world.fidelity.stats()
    return row


def measure_churn_point(
    n_clients: int,
    duration: float = 0.1,
    gc_tuning: bool = True,
) -> Dict[str, object]:
    """Short-connection churn: N closed-loop web clients, native stacks."""
    from ..apps import WebClient, WebServer
    from .common import make_lan_testbed

    testbed = make_lan_testbed()
    sim = testbed.sim
    server_vm = testbed.hypervisor_b.boot_legacy_vm("server", vcpus=4)
    client_vm = testbed.hypervisor_a.boot_legacy_vm("clients", vcpus=4)

    WebServer(sim, server_vm.api, port=80)
    clients = [
        WebClient(
            sim,
            client_vm.api,
            Endpoint(server_vm.api.ip, 80),
            start_delay=0.001 + 0.0005 * index,
        )
        for index in range(n_clients)
    ]
    with _tuned_gc(gc_tuning):
        started = time.perf_counter()
        sim.run(until=duration)
        wall = time.perf_counter() - started
    completed = sum(c.completed for c in clients)
    return {
        "workload": "churn",
        "connections": n_clients,
        "wall_s": wall,
        "events": sim.events_processed,
        "events_per_s": sim.events_processed / wall if wall > 0 else 0.0,
        "requests_completed": completed,
        "sim_seconds": duration,
    }


#: (key, kind, size) — full-mode matrix; smoke mode trims to the cheap rows.
FULL_POINTS = [
    ("epoll_100", "epoll", 100),
    ("epoll_1000", "epoll", 1000),
    ("epoll_10000", "epoll", 10000),
    ("epoll_100000", "epoll", 100000),
    ("churn_64", "churn", 64),
]
SMOKE_POINTS = [
    ("epoll_100", "epoll", 100),
    ("epoll_500", "epoll", 500),
    ("churn_16", "churn", 16),
]
#: The large-N CI gate: just the 10k-connection point, checked against
#: ``benchmarks/ref/BENCH_scale_large_ref.json`` for both an events/s
#: floor and a peak-RSS ceiling (the flyweight diet's regression guard —
#: a reverted ``__slots__`` or a new eagerly-allocated per-conn container
#: shows up here as RSS, not speed).
LARGE_POINTS = [
    ("epoll_10000", "epoll", 10000),
]

#: The bulk variant: 64 KiB messages, paced to ~0.5 GB/s aggregate so the
#: path is never overloaded, TSO/GRO off — the per-segment regime
#: (paravirtual NICs without offloads) where packet mode pays hundreds of
#: events per message and the fluid engine's byte-counter integration
#: pays a constant handful.
BULK_MESSAGE_BYTES = 65536
BULK_SEND_SPACING = 130e-6
_BULK = {
    "message_bytes": BULK_MESSAGE_BYTES,
    "send_spacing": BULK_SEND_SPACING,
    "offloads": False,
}

#: Extra cells measured when ``--fidelity auto`` (or ``fluid``) is on.
#: ``**_auto`` cells re-run the sibling packet cell's exact workload under
#: the hybrid engine; ``epoll_10000_bulk`` is the packet twin the headline
#: speedup is computed against.  The 10^6-connection point has no packet
#: twin — at packet fidelity it would run for hours; its row is the
#: honest "a million connections complete" datum, not a comparison.
FLUID_FULL_POINTS = [
    ("epoll_10000_auto", "epoll", 10000, {"fidelity": "auto"}),
    ("epoll_10000_bulk", "epoll", 10000, dict(_BULK)),
    ("epoll_10000_bulk_auto", "epoll", 10000, dict(_BULK, fidelity="auto")),
    ("epoll_1000000_auto", "epoll", 1000000, {"fidelity": "auto"}),
]
FLUID_SMOKE_POINTS = [
    ("epoll_500_auto", "epoll", 500, {"fidelity": "auto"}),
    ("epoll_500_bulk", "epoll", 500, dict(_BULK)),
    ("epoll_500_bulk_auto", "epoll", 500, dict(_BULK, fidelity="auto")),
]

#: The sweep: ≥8 independent runs, serial vs 4 workers.
SWEEP_RUNS = 8
SWEEP_JOBS = 4


def _run_point(
    kind: str, size: int, kwargs: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    # Collect the previous point's dead world (cyclic: conns <-> flows,
    # sims <-> processes) *outside* the timed window — a cheap cell run
    # after an expensive one otherwise pays its predecessor's gen-2
    # collections inside its own wall clock, which is pure noise for the
    # small fluid cells the CI gate compares (observed 10x inflation).
    gc.collect()
    if kind == "epoll":
        return measure_epoll_point(size, **(kwargs or {}))
    return measure_churn_point(size)


def _sweep_task(size: int) -> Dict[str, object]:
    """One unit of the serial-vs-parallel sweep (module-level: picklable)."""
    return measure_epoll_point(size, messages_per_conn=2)


def run_sweep(
    runs: int = SWEEP_RUNS,
    jobs: int = SWEEP_JOBS,
    size: int = 400,
) -> Dict[str, object]:
    """Time ``runs`` independent simulations serially, then with ``jobs``.

    The parallel leg is timed twice — fork-per-run and persistent pool —
    so the pool overheads are visible side by side in
    ``BENCH_scale.json``.
    """
    from ..parallel import ParallelRunner, RunSpec

    tasks = [
        RunSpec(key=f"sweep_{index}", fn=_sweep_task, args=(size,))
        for index in range(runs)
    ]
    serial_started = time.perf_counter()
    serial = ParallelRunner(jobs=1).run(tasks)
    serial_wall = time.perf_counter() - serial_started

    def timed(pool: str):
        started = time.perf_counter()
        outcomes = ParallelRunner(jobs=jobs, pool=pool).run(tasks)
        return outcomes, time.perf_counter() - started

    parallel, parallel_wall = timed("fork")
    pooled, pooled_wall = timed("persistent")

    # Every parallel merge must be bit-identical to the serial one
    # (modulo host wall clock and anything derived from it).
    def mismatch_count(alternative) -> int:
        volatile = ("wall_s", "events_per_s", "peak_rss_kb")
        return sum(
            1
            for s, p in zip(serial, alternative)
            if s.error is None
            and p.error is None
            and {k: v for k, v in s.value.items() if k not in volatile}
            != {k: v for k, v in p.value.items() if k not in volatile}
        )

    failures = sum(
        1
        for outcomes in (serial, parallel, pooled)
        for r in outcomes
        if r.error is not None
    )
    return {
        "runs": runs,
        "jobs": jobs,
        "point_connections": size,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "persistent_wall_s": pooled_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall > 0 else None,
        "persistent_speedup": (
            serial_wall / pooled_wall if pooled_wall > 0 else None
        ),
        "failures": failures,
        "result_mismatches": mismatch_count(parallel) + mismatch_count(pooled),
    }


def run_gc_ab(smoke: bool = False) -> Dict[str, object]:
    """Measure one mid-size epoll point with GC tuning off, then on.

    The matrix itself always runs tuned; this section keeps the payload
    honest about what :func:`_tuned_gc` (``gc.freeze`` after world build
    + :data:`GC_THRESHOLDS`) is worth on this host, so a future default
    change has a number to argue with.  The simulated metrics of the two
    runs are bit-identical — GC timing is invisible to the simulation —
    so only the wall-clock ratio is interesting.
    """
    size = 500 if smoke else 1000
    gc.collect()
    untuned = measure_epoll_point(size, gc_tuning=False)
    gc.collect()
    tuned = measure_epoll_point(size)
    return {
        "point_connections": size,
        "freeze_after_build": True,
        "thresholds": list(GC_THRESHOLDS),
        "untuned_wall_s": untuned["wall_s"],
        "tuned_wall_s": tuned["wall_s"],
        "untuned_events_per_s": untuned["events_per_s"],
        "tuned_events_per_s": tuned["events_per_s"],
        "speedup": (
            untuned["wall_s"] / tuned["wall_s"] if tuned["wall_s"] > 0 else None
        ),
    }


def run_bench(
    smoke: bool = False,
    jobs: Optional[int] = None,
    sweep: bool = True,
    pool: str = "fork",
    fidelity: str = "packet",
    large: bool = False,
) -> Dict[str, object]:
    """Run the scale matrix (and the sweep); returns the JSON payload.

    ``jobs`` fans the matrix points themselves through the parallel
    runner (wall-clock numbers then overlap; events and workload progress
    stay bit-identical to serial).

    ``fidelity="auto"`` (or ``"fluid"``) appends the hybrid-engine cells
    (:data:`FLUID_FULL_POINTS` / :data:`FLUID_SMOKE_POINTS`).  The base
    matrix always runs at packet fidelity, so every ``*_auto`` cell has
    its packet twin measured in the same payload; each auto cell then
    carries ``equiv_events_per_s`` — the twin's event count divided by
    the auto wall time, i.e. "packet-equivalent simulation throughput" —
    and ``speedup_vs_packet_wall``.
    """
    if large:
        points = list(LARGE_POINTS)
    else:
        points = list(SMOKE_POINTS if smoke else FULL_POINTS)
    points = [(key, kind, size, None) for key, kind, size in points]
    if fidelity != "packet" and not large:
        points += FLUID_SMOKE_POINTS if smoke else FLUID_FULL_POINTS
    results: Dict[str, Dict[str, object]] = {}
    if jobs is not None and jobs > 1:
        from ..parallel import ParallelRunner, RunSpec

        tasks = [
            RunSpec(key=key, fn=_run_point, args=(kind, size, kwargs))
            for key, kind, size, kwargs in points
        ]
        runner = ParallelRunner(jobs=jobs, pool=pool)
        for spec, outcome in zip(points, runner.run(tasks)):
            if outcome.error is not None:
                raise RuntimeError(f"scale point {spec[0]} failed: {outcome.error}")
            results[spec[0]] = outcome.value
    else:
        for key, kind, size, kwargs in points:
            results[key] = _run_point(kind, size, kwargs)

    # Auto cells vs their packet twins: the twin of "<base>_auto" is
    # "<base>" when present (bulk pairs), else the plain packet cell of
    # the same size (epoll_10000_auto -> epoll_10000).
    for key, row in results.items():
        if not key.endswith("_auto"):
            continue
        twin = results.get(key[: -len("_auto")])
        if twin is None or row["wall_s"] <= 0:
            continue
        row["packet_twin_events"] = twin["events"]
        row["equiv_events_per_s"] = twin["events"] / row["wall_s"]
        row["speedup_vs_packet_wall"] = twin["wall_s"] / row["wall_s"]

    headline_key = "epoll_500" if smoke and not large else "epoll_10000"
    payload: Dict[str, object] = {
        "benchmark": "scale",
        "smoke": smoke,
        "large": large,
        "host_cpus": os.cpu_count(),
        "headline": headline_key,
        "headline_events_per_s": results[headline_key]["events_per_s"],
        "pre_pr_baseline": PRE_PR_BASELINE,
        "points": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if fidelity != "packet":
        payload["fidelity"] = fidelity
        fluid_headline = "epoll_500_bulk_auto" if smoke else "epoll_10000_bulk_auto"
        if fluid_headline in results:
            payload["fluid_headline"] = fluid_headline
            payload["fluid_headline_equiv_events_per_s"] = results[
                fluid_headline
            ].get("equiv_events_per_s")
    baseline = PRE_PR_BASELINE.get(headline_key)
    if baseline:
        payload["speedup_vs_pre_pr_events_per_s"] = (
            results[headline_key]["events_per_s"] / baseline["events_per_s"]
        )
        payload["speedup_vs_pre_pr_wall"] = (
            baseline["wall_s"] / results[headline_key]["wall_s"]
        )
    payload["gc"] = run_gc_ab(smoke)
    if sweep:
        payload["sweep"] = run_sweep(
            runs=SWEEP_RUNS, jobs=SWEEP_JOBS, size=100 if smoke else 400
        )
    return payload


#: Package-level alias (``repro.experiments.run_scale_bench``).
run_scale_bench = run_bench


def check_regression(
    result: Dict[str, object],
    reference: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Optional[str]:
    """Fail when the headline point's events/sec regresses past tolerance."""
    if bool(result.get("smoke")) != bool(reference.get("smoke")) or bool(
        result.get("large")
    ) != bool(reference.get("large")):
        return (
            "reference/result shape mismatch: "
            f"smoke={reference.get('smoke')}/large={reference.get('large')} "
            f"vs {result.get('smoke')}/{result.get('large')}"
        )
    key = reference.get("headline", "epoll_10000")
    ref_rate = reference["points"][key]["events_per_s"]
    rate = result["points"].get(key, {}).get("events_per_s")
    if rate is None:
        return f"result is missing headline point {key}"
    if rate < ref_rate * (1.0 - tolerance):
        return (
            f"scale regression: {key} ran at {rate:.0f} events/s, "
            f"less than {(1.0 - tolerance):.2f}x the committed reference "
            f"{ref_rate:.0f} events/s"
        )
    # Large-N gate: the memory side.  Wall clock is noisy on shared
    # runners but RSS is not — the flyweight diet's per-connection bytes
    # regress loudly here long before the speed gate notices.
    if reference.get("large"):
        ref_rss = reference["points"][key].get("peak_rss_kb") or reference.get(
            "peak_rss_kb"
        )
        rss = result["points"].get(key, {}).get("peak_rss_kb") or result.get(
            "peak_rss_kb"
        )
        if ref_rss and rss and rss > ref_rss * (1.0 + tolerance):
            return (
                f"scale memory regression: {key} peaked at {rss} KB RSS, "
                f"more than {(1.0 + tolerance):.2f}x the committed "
                f"reference {ref_rss} KB"
            )
    # Hybrid-fidelity gate: when the reference carries fluid cells the
    # result must too, and the packet-equivalent throughput of the fluid
    # headline must not regress past tolerance.
    fluid_key = reference.get("fluid_headline")
    if fluid_key is not None:
        row = result.get("points", {}).get(fluid_key)
        if row is None:
            return f"result is missing fluid headline point {fluid_key}"
        ref_row = reference["points"][fluid_key]
        ref_equiv = ref_row.get("equiv_events_per_s")
        equiv = row.get("equiv_events_per_s")
        if equiv is None:
            return f"fluid point {fluid_key} has no equiv_events_per_s"
        if ref_equiv and equiv < ref_equiv * (1.0 - tolerance):
            return (
                f"fluid regression: {fluid_key} ran at {equiv:.0f} "
                f"packet-equivalent events/s, less than "
                f"{(1.0 - tolerance):.2f}x the committed reference "
                f"{ref_equiv:.0f}"
            )
    return None


#: Fixed schema of the per-point columnar table written beside the JSON.
POINTS_SCHEMA = [
    ("key", "str"),
    ("workload", "str"),
    ("fidelity", "str"),
    ("connections", "i64"),
    ("wall_s", "f64"),
    ("sim_seconds", "f64"),
    ("events", "i64"),
    ("events_per_s", "f64"),
    ("messages_delivered", "i64"),
    ("bytes_delivered", "i64"),
]


def points_table(result: Dict[str, object]):
    """The per-point rows as a fixed-schema :class:`ColumnarTable`.

    Written through ``mmap`` beside ``BENCH_scale.json`` — large-N sweep
    outputs ship between workers (or to later analysis) as one mapped
    file with zero-copy typed columns instead of a pickled dict-of-dicts.
    """
    from ..stats import ColumnarTable

    table = ColumnarTable(POINTS_SCHEMA)
    for key, row in result["points"].items():
        table.append(
            key=key,
            workload=row.get("workload", ""),
            fidelity=row.get("fidelity", "packet"),
            connections=row.get("connections", 0),
            wall_s=row.get("wall_s", 0.0),
            sim_seconds=row.get("sim_seconds", 0.0),
            events=row.get("events", 0),
            events_per_s=row.get("events_per_s", 0.0),
            messages_delivered=row.get("messages_delivered", 0),
            bytes_delivered=row.get("bytes_delivered", 0),
        )
    return table


def render(result: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_bench` payload."""
    lines = [
        "Scale benchmark (simulator performance at large connection counts)",
        f"{'point':>22} {'conns':>7} {'wall s':>9} {'events':>10} "
        f"{'events/s':>10} {'progress':>12}",
    ]
    for key, row in result["points"].items():
        progress = (
            f"{row['messages_delivered']}/{row['messages_expected']} msg"
            if "messages_delivered" in row
            else f"{row['requests_completed']} req"
        )
        lines.append(
            f"{key:>22} {row['connections']:>7} {row['wall_s']:>9.3f} "
            f"{row['events']:>10} {row['events_per_s']:>10.0f} {progress:>12}"
        )
        if "equiv_events_per_s" in row:
            lines.append(
                f"{'':>22} packet-equivalent {row['equiv_events_per_s']:.0f} "
                f"events/s ({row['speedup_vs_packet_wall']:.1f}x the packet "
                "twin's wall time)"
            )
    headline = result["headline"]
    if "speedup_vs_pre_pr_events_per_s" in result:
        lines.append(
            f"headline {headline}: "
            f"{result['headline_events_per_s']:.0f} events/s, "
            f"{result['speedup_vs_pre_pr_events_per_s']:.2f}x the pre-PR "
            f"events/s ({result['speedup_vs_pre_pr_wall']:.2f}x wall)"
        )
    gc_ab = result.get("gc")
    if gc_ab:
        lines.append(
            f"gc: freeze + thresholds {tuple(gc_ab['thresholds'])} on "
            f"{gc_ab['point_connections']} conns: "
            f"{gc_ab['untuned_wall_s']:.2f}s untuned -> "
            f"{gc_ab['tuned_wall_s']:.2f}s tuned "
            f"({gc_ab['speedup']:.2f}x)"
        )
    sweep = result.get("sweep")
    if sweep:
        speedup = sweep["speedup"]
        lines.append(
            f"sweep: {sweep['runs']} runs x {sweep['point_connections']} conns, "
            f"serial {sweep['serial_wall_s']:.2f}s vs "
            f"--jobs {sweep['jobs']} {sweep['parallel_wall_s']:.2f}s "
            f"-> {speedup:.2f}x on {result['host_cpus']} host cpu(s); "
            f"{sweep['result_mismatches']} result mismatch(es)"
        )
        if "persistent_wall_s" in sweep:
            lines.append(
                f"  pools: fork {sweep['parallel_wall_s']:.2f}s, "
                f"persistent {sweep['persistent_wall_s']:.2f}s"
            )
    lines.append(f"peak RSS {result['peak_rss_kb']} KB")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small points (~seconds, not minutes)")
    parser.add_argument("--large", action="store_true",
                        help="CI large-N gate: just the 10k-connection "
                        "epoll point, with an events/s floor and a "
                        "peak-RSS ceiling under --check")
    parser.add_argument("--jobs", type=int, default=None,
                        help="fan matrix points across N worker processes")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the serial-vs-parallel sweep section")
    parser.add_argument("--fidelity", choices=("packet", "fluid", "auto"),
                        default="packet",
                        help="packet (default, the pre-existing matrix) or "
                        "auto/fluid: also measure the hybrid-engine cells "
                        "and their packet-equivalent events/s")
    parser.add_argument("--out", default="BENCH_scale.json",
                        help="result JSON path")
    parser.add_argument("--check", default=None, metavar="REF_JSON",
                        help="fail (exit 1) if the headline point regresses "
                        ">25%% events/s vs this committed reference")
    args = parser.parse_args(argv)

    result = run_bench(
        smoke=args.smoke,
        jobs=args.jobs,
        sweep=not args.no_sweep and not args.large,
        fidelity=args.fidelity,
        large=args.large,
    )
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
        print(f"regression check OK vs {args.check}")
    return 0
