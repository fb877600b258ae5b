"""Hybrid fidelity: a fluid (flow-rate) fast path beside packet fidelity.

At datacenter connection counts the per-packet machinery dominates wall
time even though most flows sit in congestion-control steady state where
nothing *interesting* happens per segment.  The
:class:`FidelityController` lets one :class:`~repro.sim.Simulator` carry
both fidelities at once:

* **Packet mode** (default, always bit-identical to a build without the
  controller installed): every segment is a simulated event — handshake,
  CPU charges, link serialisation, ACK clocking, loss recovery.
* **Fluid mode**: a promoted connection's send direction is an analytic
  flow.  Application writes become byte-counter chunks serviced at the
  flow's allocated rate; one simulator event per chunk delivery replaces
  the dozens of per-segment events, and idle flows cost nothing.

Rates come from a max-min water-fill over each route's capacity, capped
per flow by the congestion controller's exported steady-state rate
(:meth:`~repro.tcp.cc.base.CongestionControl.steady_state_rate`), the
peer's receive window, and a CPU ceiling mirroring the per-segment
processing cost of the packet path.  Rates are re-solved only on *epochs*
— a flow gaining bytes to send, draining or being demoted — never per
delivery; a route's capacity is fixed when the route is made.  There
is one solver, in plain Python: a route's active set holds only flows
with bytes on the wire, and the largest one any benchmark workload has
produced is 2 (``fanin_bulk_fluid``, 10 000 connections, 40 572 solves),
so an array twin would never run (DESIGN.md §16).

Promotion/demotion rules (the fidelity contract):

* A connection is **promotable** only when established, out of recovery,
  with an empty SACK scoreboard, on a registered loss-free route, with no
  fabric arbiter, outside any fault-plan window — and in CC steady state
  (``cwnd >= ssthresh``), window/buffer-limited (cwnd is not the binding
  constraint), or idle (application-limited with nothing in flight).
* A backlogged flow whose binding rate cap would be the **peer window**
  is declined (and demoted if the route's population later shrinks into
  that regime): a window-limited sender stalls and bursts on window
  updates, dynamics ``W/RTT`` overestimates by ~20 % on figure4's
  160 KB sockets.  The packet path simulates those stalls exactly, so
  rwnd-limited bulk flows stay packet.
* Promotion is drain-then-switch: the sender stops pumping new segments
  and switches only once ``snd_una == snd_nxt``, so no bytes are ever
  owned by both fidelities.
* **Demotion** is forced by any fault-plan firing, migration release,
  NIC failure, receiver-buffer pressure, or ``close()``; undelivered
  fluid bytes simply remain unsent in the send buffer (``snd_nxt`` only
  advances at delivery), so the packet path resumes them exactly and
  cwnd/ssthresh carry over untouched.

Byte conservation is structural: in fluid mode ``snd_una == snd_nxt``
always, each delivery advances sender counters and the peer's
``rcv_nxt``/receive buffer by exactly the chunk size, and a cancelled
chunk was never counted anywhere.

The controller is the one home of fluid state.  A connection's one slot,
``TcpConnection._fluid``, is None while packet, else ``_ARMED`` or its
:class:`FluidFlow`; the TCP stack, the NIC, the fault injector and
ServiceLib each make one guarded call on ``sim.fidelity`` (DESIGN.md §15).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..tcp.connection import TcpState
from ..tcp.stack import TimeWait
from .engine import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tcp.connection import TcpConnection
    from ..tcp.stack import TcpStack
    from .engine import Simulator

__all__ = ["FluidRoute", "FluidFlow", "FidelityController"]

_INF = float("inf")
#: ``TcpConnection._fluid`` while promotion waits for the pipe to drain.
_ARMED = "armed"


def _waterfill(
    caps: List[float], capacity: float
) -> Tuple[List[int], List[float], int]:
    """Max-min water-fill of ``capacity`` over flows with per-flow caps.

    Returns ``(order, rates, n_capped)``: ``order`` is the flow indices
    stably sorted ascending by cap, ``rates[pos]`` is the allocation for
    flow ``order[pos]``, and positions ``< n_capped`` are cap-bound (the
    rest split the leftover equally).

    In ascending-cap order, ``remaining_i = capacity - csum(caps)_{i-1}``
    with sequential accumulation, ``share_i = remaining_i / (n - i)``;
    a flow takes ``cap_i`` while ``cap_i < share_i``, and every flow from
    the first uncapped position onward gets that position's share
    verbatim.
    """
    n = len(caps)
    order = sorted(range(n), key=caps.__getitem__)
    rates = [0.0] * n
    prev = 0.0
    k = n
    for pos in range(n):
        cap = caps[order[pos]]
        remaining = capacity - prev
        share = remaining / (n - pos)
        if cap < share:
            rates[pos] = cap
            prev = prev + cap
        else:
            k = pos
            for rest in range(pos, n):
                rates[rest] = share
            break
    return order, rates, k


def _prefix(ip: str) -> str:
    """Route key: the /16-style prefix the testbeds allocate from."""
    return ip.rsplit(".", 2)[0]


class FluidRoute:
    """One directed bottleneck: a (src prefix, dst prefix) capacity pool."""

    __slots__ = (
        "key", "capacity", "latency", "active", "solve_queued", "rwnd_blocked"
    )

    def __init__(self, key: Tuple[str, str], capacity: float, latency: float):
        if capacity <= 0:
            raise ValueError("route capacity must be positive (bytes/s)")
        self.key = key
        self.capacity = float(capacity)  # goodput bytes/second
        self.latency = float(latency)  # one-way seconds
        self.active: List[FluidFlow] = []  # flows with pending bytes
        self.solve_queued = False  # a deferred (coalesced) solve is pending
        #: Connections declined/demoted as rwnd-limited: each stays packet
        #: until its eligibility check finds the share below its window
        #: cap.  They count toward the prospective max-min population in
        #: that check — two backlogged flows must see each other or each
        #: assumes it would get the whole capacity and neither promotes.
        self.rwnd_blocked: set = set()


class FluidFlow:
    """The fluid image of one promoted connection's send direction."""

    __slots__ = (
        "conn",
        "peer",
        "route",
        "rate",
        "cap",
        "rwnd_cap",
        "pending",
        "serviced",
        "submitted",
        "targets",
        "_targets_head",
        "demoted",
        "last_update",
        "active",
        "service",
    )

    def __init__(
        self,
        conn: "TcpConnection",
        peer: "TcpConnection",
        route: FluidRoute,
        service_done: Callable[["FluidFlow"], None],
    ):
        self.conn = conn
        self.peer = peer
        self.route = route
        self.rate = 0.0  # allocated bytes/s (max-min share)
        self.cap = _INF  # per-flow ceiling (cc/rwnd/cpu)
        self.rwnd_cap = _INF  # the peer-window term of cap alone
        self.pending = 0  # bytes submitted, not yet delivered
        self.serviced = 0.0  # bytes serviced by rate integration
        self.submitted = 0  # total bytes ever submitted
        #: (cumulative service target, chunk size) per app write — one
        #: delivery event per write keeps epoll message semantics intact.
        #: A list + head cursor, not a deque: an empty deque is ~0.75 KB,
        #: which alone would be most of the 10^6-flow memory budget.  The
        #: shared ``()`` while idle: no list until the first write, and
        #: none again once :meth:`pop_target` drains it.
        self.targets: Sequence[Tuple[int, int]] = ()
        self._targets_head = 0
        self.demoted = False
        self.last_update = 0.0
        self.active = False
        #: The head chunk's service completion at the fastest rate seen
        #: since it was armed: after a rate drop it fires early and the
        #: rest is rescheduled (:meth:`FidelityController._schedule`).
        self.service = Deadline(conn.sim, self, service_done)

    def head_target(self) -> Optional[Tuple[int, int]]:
        """Oldest unserviced ``(cumulative target, chunk size)``, or None."""
        if self._targets_head < len(self.targets):
            return self.targets[self._targets_head]
        return None

    def pop_target(self) -> None:
        head = self._targets_head + 1
        if head >= len(self.targets):
            self.targets = ()
            self._targets_head = 0
        elif head > 64:  # bound the dead prefix kept for O(1) pops
            del self.targets[:head]
            self._targets_head = 0
        else:
            self._targets_head = head


class FidelityController:
    """Owns routes, fluid flows, rate epochs, and the promotion rules.

    Installed as ``sim.fidelity``; when absent (the default) every hook
    outside this module is a single attribute test, keeping ``--fidelity
    packet`` bit-identical to pre-fluid builds.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: One bound method shared by every flow's service deadline.
        self._service_due = self._service_done
        self.routes: Dict[Tuple[str, str], FluidRoute] = {}
        self._stacks: Dict[str, "TcpStack"] = {}
        self._fault_until = 0.0
        #: Counters surfaced to benches and tests.
        self.promotions = 0
        self.demotions = 0
        self.demotion_reasons: Dict[str, int] = {}
        self.fluid_connects = 0
        self.fluid_bytes_delivered = 0
        self.fluid_chunks_delivered = 0
        self.rate_epochs = 0
        sim.fidelity = self

    # -- topology registration ------------------------------------------------
    def add_route(
        self, src_prefix: str, dst_prefix: str, capacity_bytes_per_s: float,
        latency_s: float,
    ) -> FluidRoute:
        """Register a loss-free directed path between two address prefixes.

        Callers must *not* register lossy paths: loss episodes are exactly
        the dynamics the packet path exists to model.  A connection with
        no route simply never promotes.
        """
        route = FluidRoute((src_prefix, dst_prefix), capacity_bytes_per_s, latency_s)
        self.routes[route.key] = route
        return route

    def register_stack(self, stack: "TcpStack") -> None:
        """Track a stack by IP (TcpStack.__init__ calls this)."""
        self._stacks[stack.ip] = stack

    def route_for(self, src_ip: str, dst_ip: str) -> Optional[FluidRoute]:
        return self.routes.get((_prefix(src_ip), _prefix(dst_ip)))

    # -- fault windows ---------------------------------------------------------
    def on_fault_fired(self, kind: str, duration: float, terminal: bool = False) -> None:
        """A fault-plan entry fired: force every fluid flow back to packets.

        Promotion stays blocked until the fault's recovery time (forever
        for terminal kinds — crashes whose recovery is failover, which
        reshapes the topology out from under any analytic model).
        """
        until = _INF if terminal else self.sim.now + max(duration, 0.0)
        self._fault_until = max(self._fault_until, until)
        for conn in self._fluid_conns():
            self.demote(conn, f"fault:{kind}")

    @property
    def in_fault_window(self) -> bool:
        return self.sim.now < self._fault_until

    def _fluid_conns(self) -> List["TcpConnection"]:
        """Every fluid connection once: the route-active flows first, then
        the rest (armed, or flowing but idle) by stack."""
        conns = dict.fromkeys(
            flow.conn for route in self.routes.values() for flow in route.active
        )
        for stack in self._stacks.values():
            for conn in stack._connections.values():
                # a TIME_WAIT record's connection closed: never fluid
                if conn.__class__ is not TimeWait and conn._fluid is not None:
                    conns.setdefault(conn)
        return list(conns)

    # -- capacity epochs -------------------------------------------------------
    def on_nic_failed(self, nic) -> None:
        """NIC capacity collapsed to zero: demote everything touching it."""
        for conn in self._fluid_conns():
            flow = conn._fluid
            if conn.stack.nic is nic or flow is not _ARMED and (
                flow.peer.stack.nic is nic
            ):
                self.demote(conn, "nic_failure")

    # -- eligibility and promotion ---------------------------------------------
    def _peer_conn(self, conn: "TcpConnection") -> Optional["TcpConnection"]:
        # A peer in TIME_WAIT comes back as its TimeWait record, whose
        # ``state`` says so.
        peer_stack = self._stacks.get(conn.remote.ip)
        if peer_stack is None:
            return None
        return peer_stack._connections.get(
            (conn.remote.port, conn.local.ip, conn.local.port)
        )

    @staticmethod
    def _path_open(stack: "TcpStack") -> bool:
        """No fabric arbiter, and the stack's NIC neither failed nor draining."""
        nic = stack.nic
        return stack.arbiter is None and not (nic.failed or nic.draining)

    def _eligible(self, conn: "TcpConnection") -> Optional["TcpConnection"]:
        """Peer connection when ``conn``'s send direction may go fluid."""
        if self.in_fault_window or conn.state is not TcpState.ESTABLISHED:
            return None
        cold = conn.cold
        if cold.in_fast_recovery or cold.sacked or cold.fin_sent:
            return None
        if conn.send_buffer.fin_requested or not self._path_open(conn.stack):
            return None
        route = self.route_for(conn.local.ip, conn.remote.ip)
        if route is None:
            return None
        peer = self._peer_conn(conn)
        if peer is None or peer.state is not TcpState.ESTABLISHED:
            return None
        if not self._path_open(peer.stack):
            return None
        blocked = route.rwnd_blocked
        if conn in blocked or conn.send_buffer.backlog > 0:
            # A backlogged sender whose prospective max-min share exceeds
            # the peer-window cap would be rwnd-limited in fluid mode —
            # a stall-and-burst regime W/RTT overestimates (see _solve).
            # The prospective population counts active fluid flows plus
            # the route's other rwnd-blocked candidates (pruned lazily):
            # concurrent backlogged flows must see each other, or each
            # assumes the whole capacity and none ever promotes.
            rtt = conn.rtt.srtt or 2.0 * route.latency
            others = 0
            for other in list(blocked):
                if other is conn:
                    continue
                if other.state is not TcpState.ESTABLISHED or other._fluid is not None:
                    blocked.discard(other)
                    continue
                others += 1
            share = route.capacity / (len(route.active) + others + 1)
            if peer.recv_buffer.capacity / rtt < share:
                blocked.add(conn)
                return None
            blocked.discard(conn)
        return peer

    def _steady(self, conn: "TcpConnection") -> bool:
        """CC steady state, or a regime where cwnd is not the constraint."""
        cc = conn.cc
        if cc.cwnd >= cc.ssthresh:
            return True  # past slow start
        if conn.snd_una == conn.snd_nxt and conn.send_buffer.backlog == 0:
            return True  # idle / application-limited
        limit = min(max(conn.snd_wnd, cc.mss), conn.send_buffer.capacity)
        return cc.window() >= limit  # window- or buffer-limited

    def on_established(self, conn: "TcpConnection") -> None:
        """Hook from ``TcpConnection._become_established``."""
        if self.route_for(conn.local.ip, conn.remote.ip) is None:
            # Never eligible (lossy / unrouted path): stop paying the
            # per-ACK promotion check for this connection's lifetime.
            conn._fidelity = None
            return
        self.on_ack_progress(conn)

    def on_ack_progress(self, conn: "TcpConnection") -> None:
        """Hook from the tail of ``TcpConnection._process_ack``."""
        fluid = conn._fluid
        if fluid is _ARMED:
            if self._still_armed(conn) and conn.snd_una == conn.snd_nxt:
                self._promote(conn)
            return
        if fluid is None and self._steady(conn) and self._eligible(conn) is not None:
            if conn.snd_una == conn.snd_nxt:
                self._promote(conn)
            else:
                conn._fluid = _ARMED  # drain-then-switch

    @staticmethod
    def _still_armed(conn: "TcpConnection") -> bool:
        """An armed connection keeps draining unless loss beat the drain;
        then it is disarmed and stays packet."""
        cold = conn.cold
        if cold.in_fast_recovery or cold.sacked:
            conn._fluid = None
            return False
        return True

    def _flow_cap(self, conn: "TcpConnection", peer: "TcpConnection",
                  route: FluidRoute) -> Tuple[float, float]:
        """Per-flow rate ceiling (CC model, peer window, CPU throughput),
        plus the peer-window term alone so :meth:`_solve` can tell when
        rwnd is the binding constraint."""
        rtt = conn.rtt.srtt or 2.0 * route.latency
        rwnd_cap = peer.recv_buffer.capacity / rtt
        cap = conn.cc.steady_state_rate(rtt) or _INF
        cap = min(cap, rwnd_cap)
        # The packet path charges per-segment CPU on both stacks; a fluid
        # flow must not outrun the core that would have carried it.
        for stack in (conn.stack, peer.stack):
            if stack.cores:
                cfg = stack.config
                seg = conn.config.effective_mss
                per_seg_s = (cfg.per_segment_ns + cfg.per_byte_ns * seg) * 1e-9
                if per_seg_s > 0:
                    cap = min(cap, seg / per_seg_s)
        return cap, rwnd_cap

    def _promote(self, conn: "TcpConnection") -> None:
        peer = self._eligible(conn)
        if peer is None:
            conn._fluid = None
            return
        assert conn.snd_una == conn.snd_nxt, "promotion requires a drained pipe"
        route = self.route_for(conn.local.ip, conn.remote.ip)
        conn._fluid = FluidFlow(conn, peer, route, self._service_due)
        self.promotions += 1
        self.pump(conn)  # pick up any backlog the drain held back

    def demote(self, conn: "TcpConnection", reason: str) -> None:
        """Switch a connection back to packet fidelity (always safe).

        Undelivered chunks are cancelled: their bytes were never added to
        ``snd_nxt``, so they are still "written but unsent" and the packet
        path's ``_pump`` transmits them with full per-segment fidelity.
        """
        flow = conn._fluid
        if flow is None:
            return
        conn._fluid = None
        if flow is not _ARMED:
            flow.demoted = True
            flow.service.release()
            if flow.active:
                flow.active = False
                flow.route.active.remove(flow)
                self._solve(flow.route)
            # Refresh the stale window from the peer's actual buffer state —
            # the advertisement the peer's next ACK would carry.
            peer = flow.peer
            conn.snd_wnd = peer.recv_buffer.window(peer.ooo.total())
        self.demotions += 1
        self.demotion_reasons[reason] = self.demotion_reasons.get(reason, 0) + 1
        conn._pump()

    # -- the fluid datapath ----------------------------------------------------
    def pump(self, conn: "TcpConnection") -> bool:
        """``_pump`` of a connection that is not plain packet: hand newly
        written bytes to its flow.  False only when an armed connection
        was disarmed and the packet path sends after all; an armed one
        holds new data until promoted."""
        flow = conn._fluid
        if flow is _ARMED:
            return self._still_armed(conn)
        sent = conn.snd_nxt - conn.data_seq_base
        new = conn.send_buffer.written - sent - flow.pending
        if new <= 0:
            return True
        flow.pending += new
        flow.submitted += new
        if flow.targets:
            flow.targets.append((flow.submitted, new))
        else:
            flow.targets = [(flow.submitted, new)]
        if not flow.active:
            flow.active = True
            flow.route.active.append(flow)
            flow.last_update = self.sim.now
            self._request_solve(flow.route)
        # else: the in-progress schedule already covers the new target
        # once the current one fires (service is work-conserving).
        return True

    #: Active-set size above which arrival/departure epochs coalesce.
    SOLVE_COALESCE_THRESHOLD = 8
    #: Deferral window for coalesced solves (seconds of rate staleness).
    SOLVE_COALESCE_DELAY = 5e-6

    def _request_solve(self, route: FluidRoute) -> None:
        """Re-solve ``route`` now, or batch it under heavy flow overlap.

        With a small active set a solve is exact and cheap, so arrival
        and departure epochs run it inline.  Past the threshold, each
        epoch costs O(active log active) and arrivals can outpace
        service — then epochs within a short window coalesce into one
        deferred solve, bounding solver work to one pass per window at
        the price of rates being up to that window stale.
        """
        if route.solve_queued:
            return
        if len(route.active) <= self.SOLVE_COALESCE_THRESHOLD:
            self._solve(route)
            return
        route.solve_queued = True
        self.sim.schedule_call(
            self.SOLVE_COALESCE_DELAY, self._deferred_solve, route
        )

    def _deferred_solve(self, route: FluidRoute) -> None:
        route.solve_queued = False
        self._solve(route)

    def _solve(self, route: FluidRoute) -> None:
        """Max-min water-fill of ``route.capacity`` over its active flows.

        Exact for a single shared bottleneck with per-flow caps: ascending
        by cap, each flow takes min(cap, equal share of what remains).
        An epoch — runs only on flow arrival/departure/capacity change.
        The allocation itself is :func:`_waterfill`.
        """
        self.rate_epochs += 1
        flows = route.active
        if not flows:
            return
        now = self.sim.now
        for flow in flows:
            self._sync(flow, now)
            flow.cap, flow.rwnd_cap = self._flow_cap(flow.conn, flow.peer, route)
        order, rates, n_capped = _waterfill(
            [flow.cap for flow in flows], route.capacity
        )
        for pos in range(n_capped):
            flow = flows[order[pos]]
            if (
                flow.cap == flow.rwnd_cap
                and flow.pending > flow.peer.recv_buffer.capacity
            ):
                # The peer window binds and the backlog exceeds it: the
                # packet path would stall and burst on window updates —
                # dynamics W/RTT overestimates (~20 % measured on
                # figure4's 160 KB sockets).  Send it back to packets;
                # membership blocks re-promotion until the route's
                # population makes the share smaller than the cap.
                route.rwnd_blocked.add(flow.conn)
                self.demote(flow.conn, "rwnd-limited")
                return  # the demotion re-solved the surviving flows
        for pos, idx in enumerate(order):
            flows[idx].rate = rates[pos]
        for flow in flows:
            self._schedule(flow)

    def _sync(self, flow: FluidFlow, now: float) -> None:
        """Integrate the byte counter up to ``now`` at the current rate."""
        if flow.rate > 0 and now > flow.last_update:
            flow.serviced = min(
                float(flow.submitted),
                flow.serviced + (now - flow.last_update) * flow.rate,
            )
        flow.last_update = now

    def _schedule(self, flow: FluidFlow) -> None:
        """(Re)schedule the head chunk's service under the current rate.

        Only the *service* event is a cancellable :class:`Deadline`: a
        rate epoch reschedules it for the remaining bytes (work is
        conserved by :meth:`_sync`).  Propagation events are scheduled separately at
        service completion and never cancelled by epochs — a chunk on the
        wire is not affected by a rate change behind it (re-paying the
        propagation delay per epoch would starve deliveries whenever flow
        arrivals outpace the path latency).

        Rescheduling is *lazy*: the deadline moves only when the
        completion estimate moves earlier.  When the rate drops instead,
        the deadline fires early, :meth:`_service_done` syncs the partial
        progress and reschedules the remainder.  Without this, every
        arrival epoch invalidates one event per concurrently active flow
        and the heap fills with stale pops — O(arrivals x active) events
        under overlap.
        """
        head = flow.head_target()
        service = flow.service
        if head is None or flow.rate <= 0:
            service.cancel()  # nothing to service
            return
        target, _size = head
        remaining = max(0.0, target - flow.serviced)
        now = self.sim.now
        when = now + remaining / flow.rate
        if service.armed and when >= service.when:
            return  # fires no later than needed: keep it
        service.arm(when - now)

    def _service_done(self, flow: FluidFlow) -> None:
        """Head chunk fully serviced: put it in propagation, line up next."""
        head = flow.head_target()
        if head is None:
            return
        self._sync(flow, self.sim.now)
        target, size = head
        if target - flow.serviced > 0.5:
            # The rate dropped after this event was scheduled (lazy
            # rescheduling): only partial progress — line up the rest.
            self._schedule(flow)
            return
        flow.pop_target()
        flow.serviced = max(flow.serviced, float(target))
        flow.last_update = self.sim.now
        self.sim.schedule_call(flow.route.latency, self._deliver, flow, size)
        if flow.head_target() is not None:
            self._schedule(flow)
        elif flow.active:
            flow.active = False
            flow.route.active.remove(flow)
            self._request_solve(flow.route)

    def _deliver(self, flow: FluidFlow, size: int) -> None:
        """One chunk arrived after propagation: commit its bytes.

        A demotion between service and delivery cancels the chunk — its
        bytes never advanced ``snd_nxt``, so the packet path resends them.
        """
        if flow.demoted:
            return
        conn, peer = flow.conn, flow.peer
        if peer.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            # The receiver went away (abort/RST) under the flow; back to
            # packets, where the resent bytes will elicit the peer's RST.
            self.demote(conn, "peer_closed")
            return
        flow.pending -= size

        # Sender books: in fluid mode snd_una tracks snd_nxt exactly.
        conn.snd_nxt += size
        conn.snd_una += size
        conn.delivered += size
        conn.delivered_time = self.sim.now
        conn.send_buffer.on_ack(size)  # admits blocked writers (-> pump)

        # Receiver books: exactly what the reassembled segments would do.
        peer.rcv_nxt += size
        recv_buffer = peer.recv_buffer
        if recv_buffer.read_only:
            recv_buffer = peer._own_recv_buffer()
        overfull = recv_buffer.available + size > recv_buffer.capacity
        recv_buffer.deliver(size)
        if peer.on_data_available is not None:
            peer.on_data_available(peer, size)

        self.fluid_bytes_delivered += size
        self.fluid_chunks_delivered += 1

        if overfull:
            # Receiver-limited is app interaction the packet path should
            # arbitrate (zero-window probes, window updates): demote.
            self.demote(conn, "receiver_limited")

    def rx_read_cap(self, conn, cap: int, region_capacity: int) -> int:
        """Largest read ServiceLib takes from ``conn`` (``cap`` is its
        chunk size).  A promoted connection's buffer fills in large
        rate-integrated chunks, so one read drains what is there, up to
        half the huge-page region so a blocked allocation still fits."""
        if getattr(conn, "_fluid", None).__class__ is not FluidFlow:
            return cap  # packet fidelity (or a stack with no fluid path)
        return max(cap, min(conn.recv_buffer.available, region_capacity // 2))

    # -- fluid connection establishment ----------------------------------------
    def try_fluid_connect(self, stack: "TcpStack", conn: "TcpConnection") -> bool:
        """Analytic handshake: skip the SYN exchange on eligible paths.

        Called by ``TcpStack.connect`` after the connection is registered
        but before ``open_active``.  Returns False (caller sends a real
        SYN) unless both directions have loss-free routes, the peer stack
        is known with an admitting listener, and no fault window is open.
        The client establishes after one round trip, the server after the
        one-way latency — the same times the packet handshake would give
        on a clean path, minus its per-segment events.
        """
        if self.in_fault_window or not self._path_open(stack):
            return False
        route = self.route_for(conn.local.ip, conn.remote.ip)
        back = self.route_for(conn.remote.ip, conn.local.ip)
        if route is None or back is None:
            return False
        peer_stack = self._stacks.get(conn.remote.ip)
        if peer_stack is None or not self._path_open(peer_stack):
            return False
        listener = peer_stack._listeners.get(conn.remote.port)
        if listener is None or not listener.can_admit():
            return False
        conn.state = TcpState.SYN_SENT
        conn.snd_nxt = conn.iss + 1
        self.fluid_connects += 1
        self.sim.schedule_call(
            route.latency, self._fluid_accept, conn, peer_stack, listener, back
        )
        return True

    def _fluid_accept(self, conn, peer_stack, listener, back) -> None:
        """Server side of the analytic handshake (at +one-way latency)."""
        if conn.state is not TcpState.SYN_SENT:
            return  # client gave up while the "SYN" was in flight
        if not listener.can_admit():
            conn._send_syn()  # fall back to the packet handshake
            return
        sconn = peer_stack.accept_child(listener, conn.local)
        sconn.state = TcpState.SYN_RCVD
        sconn.irs = conn.iss
        sconn.rcv_nxt = conn.iss + 1
        sconn.snd_wnd = conn.recv_buffer.window(0)
        sconn.snd_nxt = sconn.iss + 1
        sconn.snd_una = sconn.iss + 1
        sconn._become_established()
        self.sim.schedule_call(back.latency, self._fluid_established, conn, sconn)

    def _fluid_established(self, conn, sconn) -> None:
        """Client side completes (at +RTT), mirroring the SYN/ACK arrival."""
        if conn.state is not TcpState.SYN_SENT:
            return
        conn.irs = sconn.iss
        conn.rcv_nxt = sconn.iss + 1
        conn.snd_wnd = sconn.recv_buffer.window(0)
        conn.snd_una = conn.iss + 1
        conn._become_established()

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "promotions": self.promotions,
            "demotions": self.demotions,
            "demotion_reasons": dict(self.demotion_reasons),
            "fluid_connects": self.fluid_connects,
            "fluid_bytes_delivered": self.fluid_bytes_delivered,
            "fluid_chunks_delivered": self.fluid_chunks_delivered,
            "rate_epochs": self.rate_epochs,
            "routes": len(self.routes),
        }

    def __repr__(self) -> str:
        return (
            f"<FidelityController routes={len(self.routes)} "
            f"promotions={self.promotions} demotions={self.demotions}>"
        )
