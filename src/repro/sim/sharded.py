"""Sharded conservative-lookahead execution of one simulation.

One large run — ten thousand connections between two hosts — pins a
single core in the classic single-heap event loop, no matter how many
cores the host has.  This module splits such a run into **shards**: each
shard owns its own :class:`~repro.sim.engine.Simulator` (event heap,
clock) plus everything *intra-host* that hangs off it —
VMs, GuestLib, CoreEngine, NSMs, NICs, host switches.  Shards touch each
other only where the model itself has latency: :class:`repro.net.link.Link`
instances whose two ends land in different shards (*cut links*).

The synchronization protocol is the textbook conservative one
(Chandy–Misra–Bryant without null messages, in windowed form):

* Every cut link has ``propagation_delay > 0``, so an event executed in
  shard *s* at time ``t`` can affect another shard no earlier than
  ``t + W`` where ``W = min(propagation_delay)`` over all cut links —
  the **lookahead**.
* The coordinator repeatedly takes ``next = min(peek())`` over all
  shards and lets every shard process its events in the virtual-time
  window ``[next, next + W)`` *independently* — by construction nothing
  another shard does in that window can reach back into it.
* At the window barrier, messages posted to cut-link channels are merged
  in ``(timestamp, src_shard, channel, seq)`` order and injected into
  their destination heaps at their exact timestamps
  (:meth:`Simulator.schedule_call_at`), then the next window starts.

Events landing exactly **on** a window boundary belong to the *next*
window: a cross-shard message timestamped at the boundary is injected
before they run, so same-timestamp merge order is a fixed function of
the schedule, never of which shard ran first.  That makes the whole
scheme deterministic: for a supported topology, ``shards=N`` produces
bit-identical simulated metrics to the single-heap run, for any N and
any executor (pinned by ``tests/test_sim_sharded.py``).

Executors:

* ``serial`` — windows run shard-by-shard on the calling thread.  The
  reference semantics; zero concurrency, zero overhead beyond the
  window bookkeeping.  This is what the in-process ``--shards N``
  experiment paths use for golden equivalence.
* ``thread`` — one persistent thread per shard, two barriers per
  window.  Identical results; concurrent execution (which buys wall
  clock only on GIL-free builds — see DESIGN.md §11).
* a **process** executor lives in :mod:`repro.parallel.shards`: one
  forked worker per shard, window messages exchanged over pipes.  That
  is the one that turns shards into cores on ordinary CPython.

When sharding loses: windows are ``W`` wide, so a run whose event
density per ``W`` of virtual time is small spends its wall clock on
barriers instead of events.  Rule of thumb: you want hundreds of events
per shard per window before any parallel executor pays for itself.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .engine import Simulator
from .events import SimulationError

__all__ = ["ShardChannel", "ShardedSimulation", "adaptive_horizons"]

_INF = float("inf")


def adaptive_horizons(
    peeks: Sequence[float], edges: Sequence[Tuple[int, int, float]]
) -> List[float]:
    """Per-shard adaptive window horizons for the given heap peeks.

    ``edges`` are the cut channels as ``(src_shard, dst_shard,
    min_delay)`` tuples.  Shard ``i``'s horizon is

        ``H_i = min over edges (j -> i) of (E_j + W_ji)``

    (``inf`` for unfed shards) where ``E_j`` is the earliest time shard
    ``j`` could still execute *anything* — its heap peek relaxed
    transitively over the cut edges to a fixed point
    (``E_j = min(peek_j, min over (k -> j) of E_k + W_kj)``, the
    Chandy–Misra earliest-output-time bound; Bellman–Ford over positive
    edge weights, so the loop terminates).

    Raw peeks instead of ``E`` would be unsafe: a shard that ran far
    ahead under a wide horizon in an earlier window would be handed
    messages in its past once a slow upstream chain caught up (upstream's
    *own* upstream can wake it below its heap peek).  The relaxation
    accounts for exactly those chains.
    """
    earliest = list(peeks)
    changed = True
    while changed:
        changed = False
        for src, dst, delay in edges:
            bound = earliest[src] + delay
            if bound < earliest[dst]:
                earliest[dst] = bound
                changed = True
    horizons = [_INF] * len(peeks)
    for src, dst, delay in edges:
        bound = earliest[src] + delay
        if bound < horizons[dst]:
            horizons[dst] = bound
    return horizons


class ShardChannel:
    """One direction of a cut link: a timestamped inter-shard mailbox.

    The owning (source) shard posts ``(delivery_time, payload)`` pairs
    during its window; the coordinator drains the outbox at the barrier
    and injects each payload into the destination shard at its exact
    timestamp.  ``seq`` preserves post order for same-timestamp messages
    of one channel; the coordinator's global sort key
    ``(time, src_shard, channel_id, seq)`` makes the merge total.
    """

    __slots__ = ("channel_id", "src_shard", "dst_shard", "deliver", "min_delay",
                 "_outbox", "_seq", "posted")

    def __init__(
        self,
        channel_id: int,
        src_shard: int,
        dst_shard: int,
        deliver: Callable[[Any], None],
        min_delay: float,
    ) -> None:
        self.channel_id = channel_id
        self.src_shard = src_shard
        self.dst_shard = dst_shard
        self.deliver = deliver
        self.min_delay = min_delay
        self._outbox: List[Tuple[float, int, Any]] = []
        self._seq = count()
        #: Lifetime messages (observability; read by benchmarks).
        self.posted = 0

    def post(self, when: float, payload: Any) -> None:
        """Called from the source shard's event loop (e.g. ``Link``)."""
        self.posted += 1
        self._outbox.append((when, next(self._seq), payload))

    def drain(self) -> List[Tuple[float, int, Any]]:
        out, self._outbox = self._outbox, []
        return out


class ShardedSimulation:
    """N per-shard simulators run in lockstep virtual-time windows."""

    def __init__(self, shards: int, start_time: float = 0.0) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.sims: List[Simulator] = [Simulator(start_time) for _ in range(shards)]
        self.channels: List[ShardChannel] = []
        #: Windows executed so far (observability; read by benchmarks).
        self.windows = 0
        #: Sum over windows of cut channels that carried no message that
        #: window (observability: ``idle / (windows * n_channels)`` is the
        #: channel idle ratio surfaced by ``repro bench datapath``).
        self.idle_channel_rounds = 0
        #: Adaptive lookahead (see :meth:`set_adaptive`): per-shard
        #: horizons that widen past ``min(peek)+W`` when the channels
        #: feeding a shard are ahead (idle).  Off by default — the default
        #: policy's window count is part of the pinned golden behaviour.
        self.adaptive = False
        self._explicit_lookahead: Optional[float] = None

    # -- topology ------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.sims)

    @property
    def lookahead(self) -> float:
        """Window width: min propagation delay over all cut links."""
        if self._explicit_lookahead is not None:
            return self._explicit_lookahead
        if not self.channels:
            return _INF
        return min(channel.min_delay for channel in self.channels)

    def set_lookahead(self, lookahead: float) -> None:
        """Override the computed lookahead (must not exceed it)."""
        if lookahead <= 0:
            raise SimulationError("lookahead must be > 0")
        computed = min((c.min_delay for c in self.channels), default=_INF)
        if lookahead > computed:
            raise SimulationError(
                f"lookahead {lookahead} exceeds the min cut-link "
                f"propagation delay {computed} — windows would violate causality"
            )
        self._explicit_lookahead = lookahead

    def set_adaptive(self, adaptive: bool = True) -> None:
        """Enable per-shard adaptive lookahead windows.

        The default (conservative) policy gives every shard the same
        horizon ``min(peek) + W`` with ``W = min(min_delay)`` over *all*
        channels.  The adaptive policy gives shard ``i`` the horizon
        computed by :func:`adaptive_horizons`:

            ``H_i = min over channels (j -> i) of (E_j + W_ji)``

        where ``E_j`` is shard ``j``'s heap peek relaxed transitively
        over the cut edges (``inf`` when nothing feeds ``i``).  When the
        shards feeding ``i`` have run ahead — their channels to ``i``
        idle — ``H_i`` widens far past the global window, shrinking the
        barrier count; it is also never narrower than the default
        horizon (``E`` bottoms out at ``min(peek)`` and every feed adds
        at least ``W``).

        Causality: shard ``i`` only runs events strictly before ``H_i``,
        and by induction every event shard ``j`` executes from here on —
        local or woken by an upstream chain — is timestamped ``>= E_j``,
        so anything it posts to ``i`` is ``>= E_j + W_ji >= H_i``: never
        in ``i``'s past.  (:meth:`Simulator.schedule_call_at`
        additionally hard-fails on any past-timestamped injection, which
        the adaptive property test leans on.)  Every executor supports
        both policies with bit-identical simulated metrics; only the
        window count — and therefore the barrier overhead — differs.
        """
        self.adaptive = adaptive

    def channel(
        self,
        src_shard: int,
        dst_shard: int,
        deliver: Callable[[Any], None],
        min_delay: float,
    ) -> ShardChannel:
        """Open a raw channel (cut links use :meth:`cut_link`)."""
        for shard in (src_shard, dst_shard):
            if not 0 <= shard < len(self.sims):
                raise ValueError(f"no such shard: {shard}")
        if src_shard == dst_shard:
            raise ValueError("channel endpoints must be in different shards")
        if min_delay <= 0:
            raise SimulationError(
                "cut with zero propagation delay: conservative lookahead "
                "would be 0 and windows could never advance — give the "
                "link a positive propagation_delay or keep both ends in "
                "one shard"
            )
        channel = ShardChannel(
            len(self.channels), src_shard, dst_shard, deliver, min_delay
        )
        self.channels.append(channel)
        return channel

    def cut_link(self, link, src_shard: int, dst_shard: int) -> ShardChannel:
        """Mark ``link`` as crossing from ``src_shard`` into ``dst_shard``.

        The link's queue and serialization stay in the source shard (they
        model the sender's NIC and wire time); only the propagation hop
        crosses, carrying the packet with its exact delivery timestamp.
        """
        if link.sim is not self.sims[src_shard]:
            raise SimulationError(
                f"link {link.name!r} was not built on shard {src_shard}'s simulator"
            )
        channel = self.channel(
            src_shard, dst_shard, link._deliver, link.propagation_delay
        )
        link.channel = channel
        return channel

    def cut_duplex(self, duplex, shard_a: int, shard_b: int) -> None:
        """Cut both halves of a :class:`~repro.net.link.DuplexLink`."""
        if shard_a == shard_b:
            return  # same shard: plain intra-heap scheduling is correct
        self.cut_link(duplex.a_to_b, shard_a, shard_b)
        self.cut_link(duplex.b_to_a, shard_b, shard_a)

    # -- metrics -------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total events over all shards (equals the single-heap count)."""
        return sum(sim.events_processed for sim in self.sims)

    @property
    def messages_exchanged(self) -> int:
        return sum(channel.posted for channel in self.channels)

    @property
    def events_per_window(self) -> float:
        """Barrier efficiency: higher means the windows are earning their
        synchronization cost (the rule of thumb wants hundreds)."""
        return self.events_processed / self.windows if self.windows else 0.0

    @property
    def channel_idle_ratio(self) -> float:
        """Fraction of (window, channel) slots that carried no message —
        high values mean the default policy is barriering for nothing and
        adaptive lookahead (:meth:`set_adaptive`) would widen windows."""
        total = self.windows * len(self.channels)
        return self.idle_channel_rounds / total if total else 0.0

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None, executor: str = "serial") -> None:
        """Run all shards to ``until`` (inclusive), windows in lockstep.

        Semantics match :meth:`Simulator.run`: with ``until`` given, every
        shard's clock ends at exactly ``until`` even if its last event
        fires earlier.
        """
        if executor == "serial":
            self._run_serial(until)
        elif executor == "thread":
            self._run_threaded(until)
        else:
            raise ValueError(f"unknown shard executor: {executor!r}")
        if until is not None:
            for sim in self.sims:
                sim.run(until=until)  # no events left <= until: advances clock

    def next_window(self, until: Optional[float]) -> Optional[float]:
        """Horizon of the next window, or ``None`` when the run is over.

        A horizon of ``inf`` is a valid window (no cut channels: one
        window drains everything) — termination is decided by the next
        event time alone.
        """
        next_t = min(sim.peek() for sim in self.sims)
        if next_t == _INF or (until is not None and next_t > until):
            return None
        return next_t + self.lookahead

    def _window_horizons(self, until: Optional[float]) -> Optional[List[float]]:
        """Per-shard horizons for the next window, or ``None`` when done.

        Default policy: one global horizon for everyone (a list so both
        policies share the executor loops).  Adaptive policy: see
        :meth:`set_adaptive`.
        """
        sims = self.sims
        peeks = [sim.peek() for sim in sims]
        next_t = min(peeks)
        if next_t == _INF or (until is not None and next_t > until):
            return None
        if not self.adaptive:
            return [next_t + self.lookahead] * len(sims)
        return adaptive_horizons(
            peeks,
            [(c.src_shard, c.dst_shard, c.min_delay) for c in self.channels],
        )

    def exchange(self) -> int:
        """Barrier body: merge every channel outbox into the dest heaps."""
        pending: List[Tuple[float, int, int, int, ShardChannel, Any]] = []
        idle = 0
        for channel in self.channels:
            drained = channel.drain()
            if not drained:
                idle += 1
                continue
            for when, seq, payload in drained:
                pending.append(
                    (when, channel.src_shard, channel.channel_id, seq,
                     channel, payload)
                )
        self.idle_channel_rounds += idle
        if not pending:
            return 0
        pending.sort(key=lambda m: (m[0], m[1], m[2], m[3]))
        sims = self.sims
        for when, _src, _cid, _seq, channel, payload in pending:
            sims[channel.dst_shard].schedule_call_at(
                when, channel.deliver, payload
            )
        return len(pending)

    def _run_serial(self, until: Optional[float]) -> None:
        sims = self.sims
        while True:
            horizons = self._window_horizons(until)
            if horizons is None:
                return
            self.windows += 1
            for sim, horizon in zip(sims, horizons):
                sim.run_window(horizon, until)
            self.exchange()

    def _run_threaded(self, until: Optional[float]) -> None:
        n = len(self.sims)
        if n == 1:
            return self._run_serial(until)
        start = threading.Barrier(n + 1)
        finish = threading.Barrier(n + 1)
        state: dict = {"horizons": [0.0] * n, "stop": False}
        errors: List[BaseException] = []

        def shard_main(index: int, sim: Simulator) -> None:
            try:
                while True:
                    start.wait()
                    if state["stop"]:
                        return
                    sim.run_window(state["horizons"][index], until)
                    finish.wait()
            except threading.BrokenBarrierError:
                return  # coordinator aborted after another shard's error
            except BaseException as exc:  # noqa: BLE001 — reraised below
                errors.append(exc)
                finish.abort()

        threads = [
            threading.Thread(target=shard_main, args=(index, sim), daemon=True,
                             name=f"shard-{index}")
            for index, sim in enumerate(self.sims)
        ]
        for thread in threads:
            thread.start()
        try:
            while True:
                horizons = self._window_horizons(until)
                if horizons is None:
                    break
                self.windows += 1
                state["horizons"] = horizons
                start.wait()
                try:
                    finish.wait()
                except threading.BrokenBarrierError:
                    break
                self.exchange()
        finally:
            state["stop"] = True
            try:
                start.wait(timeout=5.0)
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]


def shard_for_host(host_index: int, shards: int) -> int:
    """The legacy topology partitioner: host ``i`` -> shard ``i % shards``.

    Round-robin keeps any N valid.  Asking for more shards than hosts
    used to leave the extras idle *and still paying window barriers*;
    the testbed factories now plan through :mod:`repro.sim.partition`,
    which collapses empty shards at plan time, so ``--shards 4`` on a
    two-host testbed builds two real shards (bit-identical metrics,
    fewer barriers).  This function stays round-robin — it is the
    "host" plan's assignment rule and its contract is pinned by tests.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return host_index % shards


__all__.append("shard_for_host")
