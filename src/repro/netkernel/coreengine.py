"""NetKernel CoreEngine: the per-host daemon on the hypervisor (§3).

CoreEngine owns the connection mapping table and shuttles nqes between VM
queues and NSM queues, translating ``<VM ID, fd>`` to ``<NSM ID, cID>`` on
the way (Figure 3).  Each nqe copy costs ~12 ns (§4.2) on the hypervisor
core.  CoreEngine also:

* answers ``socket()`` directly — it assigns the fd immediately and
  *independently* asks the NSM for a backend socket (§3.2);
* turns NSM accept events into new guest fds plus mapping entries;
* sets up queues, huge pages, GuestLib and ServiceLib when a VM boots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from ..api.errors import ConnectionReset
from ..host.cpu import Core
from ..obs import runtime as obs_runtime
from ..sim import NANOS, Event, Simulator
from .conntable import ConnectionTable
from .guestlib import GuestLib
from .hugepages import HugePageRegion
from .nqe import NQE_COPY_NS, Nqe, NqeOp, NqeStatus
from .nsm import NSM
from .queues import NotifyMode, NqeRing, PriorityNqeRing, RingPump, soft_interrupt
from .servicelib import ServiceLib

__all__ = ["CoreEngineConfig", "CoreEngine", "VmAttachment"]

#: Capacity of every nqe ring CoreEngine sets up.
RING_CAPACITY = 4096
#: CPU seconds CoreEngine spends switching one nqe (§4.2's 12 ns copy).
NQE_COPY_S = NQE_COPY_NS * NANOS
#: Suspicion grace: exceeding the heartbeat miss budget only *suspects*
#: the NSM; death needs continued silence past ``budget * (1 + grace)``.
#: A slow-but-alive NSM (NSM_SLOWDOWN) whose heartbeats arrive late keeps
#: resetting the silence clock and survives; a crashed one stays silent
#: and is declared dead one grace window later.  0.0 would be a
#: hair-trigger watchdog.
HEARTBEAT_GRACE = 1.0
#: Quota refill period of the tenant scheduler.  5 µs keeps per-cycle
#: bursts small relative to ring capacity while staying coarse enough to
#: amortize scheduling.
TENANT_CYCLE_S = 5e-6


@dataclass
class CoreEngineConfig:
    """CoreEngine policy knobs; every one has a caller that turns it.

    The defaults are the prototype: polling, FIFO rings, no timeouts, no
    watchdog, no quotas.  Each knob that is off is bit-identical to its
    absence.
    """

    #: Polling or batched soft interrupts (§4.1, §5): the notification
    #: ablation (``repro ablation notify``).
    notify_mode: NotifyMode = NotifyMode.POLLING
    #: Priority rings, connection events before data events (§3.2): the
    #: priority ablation (``repro ablation priority``).
    priority_queues: bool = False
    #: Single-threaded GuestLib receive processing (copies inline in the
    #: poll loop, as the prototype does) — the HoL-prone configuration of
    #: the priority ablation.
    inline_rx_copy: bool = False
    #: Fault tolerance: GuestLib op timeout in simulated seconds, set by
    #: ``repro chaos`` and the ledger's ``chaos_failover``.  ``None`` keeps
    #: the machinery entirely off — no timers, bit-identical.  Retries and
    #: backoff are :data:`repro.netkernel.guestlib.OP_RETRIES` and
    #: ``OP_BACKOFF``.
    op_timeout: Optional[float] = None
    #: NSM liveness (chaos, ledger): CoreEngine pushes a HEARTBEAT nqe
    #: every interval and suspects the NSM after ``heartbeat_miss`` silent
    #: intervals (dead one :data:`HEARTBEAT_GRACE` window later).  ``None``
    #: disables the watchdog (heartbeats charge NSM CPU, so enabling them
    #: perturbs simulated results).
    heartbeat_interval: Optional[float] = None
    heartbeat_miss: int = 3
    #: Per-tenant isolation (``repro stackswap``): when set, VM job rings
    #: are drained by one round-robin scheduler instead of a free-running
    #: mover per ring, and each tenant moves at most ``tenant_quota_nqes``
    #: nqes per :data:`TENANT_CYCLE_S` cycle.  A tenant whose forward
    #: blocks on a full destination ring is parked and drained
    #: asynchronously, so its backpressure never stalls the scheduler's
    #: round — a flooding tenant is rate-capped *and* cannot wedge
    #: co-tenants behind its full NSM ring.  ``None`` keeps the per-ring
    #: movers.
    tenant_quota_nqes: Optional[int] = None

    @property
    def fault_tolerant(self) -> bool:
        return self.op_timeout is not None


@dataclass
class VmAttachment:
    """Everything CoreEngine wires up for one tenant VM.

    ``nsm``/``nsm_queues`` are re-pointed by failover: the job mover reads
    them per nqe, so ops issued after a failover flow to the standby NSM.
    """

    vm_id: int
    nsm: NSM
    guestlib: GuestLib
    region: HugePageRegion
    job_queue: NqeRing
    completion_queue: NqeRing
    receive_queue: NqeRing
    nsm_queues: "_NsmQueues" = None
    #: The job ring's consumer when it is event-driven (None under
    #: interrupt modes / the tenant quota scheduler).  Live migration
    #: freezes a tenant by pausing it: ops queue in the guest-visible
    #: ring — bounded freeze, nothing lost.
    job_pump: Optional[RingPump] = None


@dataclass
class _NsmQueues:
    job: NqeRing
    completion: NqeRing
    receive: NqeRing
    servicelib: ServiceLib


class _TenantEntry:
    """One tenant's job ring under the quota scheduler."""

    __slots__ = ("vm_id", "ring", "switch", "stalled")

    def __init__(self, vm_id: int, ring: NqeRing, switch) -> None:
        self.vm_id = vm_id
        self.ring = ring
        self.switch = switch
        #: True while an async drainer is finishing a blocked forward;
        #: the scheduler skips stalled tenants rather than waiting.
        self.stalled = False


class CoreEngine:
    """The hypervisor daemon connecting GuestLibs and ServiceLibs."""

    def __init__(
        self,
        sim: Simulator,
        core: Core,
        config: Optional[CoreEngineConfig] = None,
        name: str = "coreengine",
    ) -> None:
        self.sim = sim
        self.core = core
        self.config = config or CoreEngineConfig()
        self.name = name
        self.table = ConnectionTable()
        self._vms: Dict[int, VmAttachment] = {}
        self._nsms: Dict[int, _NsmQueues] = {}
        self._next_vm_id = 1
        #: Per-tenant egress caps (§5 QoS): vm_id -> bits/s.  Keyed by
        #: tenant and handed to every ServiceLib this engine creates, so a
        #: cap follows its tenant to a failover standby or a migration
        #: destination with no extra step.
        self.rate_caps: Dict[int, float] = {}
        self.nqes_copied = 0
        # --- fault tolerance ---------------------------------------------
        #: Called with the dead NSM when the watchdog fires; returns a
        #: standby NSM (or None).  Installed by Hypervisor.enable_failover.
        self.standby_provider = None
        #: Failover log: one dict per declared-dead NSM (see _on_nsm_dead).
        self.failovers: list = []
        self._nsm_objects: Dict[int, NSM] = {}
        self._failed_nsms: set = set()
        self._last_heartbeat: Dict[int, float] = {}
        #: Watchdog suspicion bookkeeping: nsm_id -> sim time the NSM
        #: first exceeded the miss budget (cleared when a late heartbeat
        #: lands), plus a per-NSM count of suspicion episodes for tests.
        self._suspected_since: Dict[int, float] = {}
        self.heartbeat_suspicions: Dict[int, int] = {}
        #: token -> fd of recently answered SOCKETs (fault tolerance only),
        #: so a GuestLib retry gets the same fd back instead of a second
        #: mapping and a second NSM backend.
        self._socket_fds: Optional[Dict[int, int]] = (
            {} if self.config.fault_tolerant else None
        )
        # --- live migration ----------------------------------------------
        #: The active migration coordinator (at most one per CoreEngine);
        #: receives drain-marker echoes from the switch bodies.
        self._migration = None
        #: Completed/aborted migration records (mirrors ``failovers``).
        self.migrations: list = []
        #: Stale-source fencing: the migration sources fenced (crashed)
        #: because their nqes arrived after their connections were
        #: re-pointed.
        self.fenced_sources: list = []
        self._fenced_nsm_ids: set = set()
        #: Optional repro.faults.invariants checker (None = zero-cost).
        self.invariant_checker = None
        # --- tenant isolation --------------------------------------------
        self._tenant_entries: list = []
        self._tenant_sched_started = False
        self._tenant_wake: Optional[Event] = None
        #: Per-vm_id count of nqes moved by the quota scheduler.
        self.tenant_nqes_moved: Dict[int, int] = {}
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        if self.config.notify_mode is NotifyMode.POLLING:
            core.busy_poll = True

    # ------------------------------------------------------------------ setup --
    def _ring(self, name: str) -> NqeRing:
        cls = PriorityNqeRing if self.config.priority_queues else NqeRing
        return cls(self.sim, RING_CAPACITY, name=name)

    def attach_nsm(self, nsm: NSM) -> _NsmQueues:
        """Create the NSM-side queues and its ServiceLib (idempotent)."""
        queues = self._nsms.get(nsm.nsm_id)
        if queues is not None:
            return queues
        job = self._ring(f"{nsm.name}.job")
        completion = self._ring(f"{nsm.name}.cq")
        receive = self._ring(f"{nsm.name}.rq")
        servicelib = ServiceLib(
            self.sim,
            nsm,
            job_queue=job,
            completion_queue=completion,
            receive_queue=receive,
            allocate_cid=lambda: self.table.allocate_cid(nsm.nsm_id),
            rate_caps=self.rate_caps,
            notify_mode=self.config.notify_mode,
            dedup=self.config.fault_tolerant,
        )
        servicelib.invariants = self.invariant_checker
        queues = _NsmQueues(job, completion, receive, servicelib)
        self._nsms[nsm.nsm_id] = queues
        self._nsm_objects[nsm.nsm_id] = nsm
        if self.config.heartbeat_interval is not None:
            self._last_heartbeat[nsm.nsm_id] = self.sim.now
            self.sim.process(
                self._heartbeat_loop(nsm, queues),
                name=f"{self.name}.hb.{nsm.name}",
            )

        self._start_mover(
            completion, "cq", partial(self._switch_completion_nqe, nsm),
            f"{self.name}.cq.{nsm.name}",
        )
        self._start_mover(
            receive, "rq", partial(self._switch_receive_nqe, nsm),
            f"{self.name}.rq.{nsm.name}",
        )
        return queues

    def attach_vm(self, vm_core: Core, nsm: NSM) -> VmAttachment:
        """Boot-time plumbing for one VM served by ``nsm`` (§3.1)."""
        if not nsm.can_accept_tenant():
            raise RuntimeError(f"{nsm.name} is at tenant capacity")
        self.attach_nsm(nsm)
        vm_id = self._next_vm_id
        self._next_vm_id += 1

        region = HugePageRegion(
            self.sim, nsm.host.memcpy, name=f"vm{vm_id}.hp"
        )
        job = self._ring(f"vm{vm_id}.job")
        completion = self._ring(f"vm{vm_id}.cq")
        receive = self._ring(f"vm{vm_id}.rq")
        guestlib = GuestLib(
            self.sim,
            vm_id,
            nsm_ip=nsm.ip,
            core=vm_core,
            job_queue=job,
            completion_queue=completion,
            receive_queue=receive,
            region=region,
            notify_mode=self.config.notify_mode,
            inline_rx_copy=self.config.inline_rx_copy,
            op_timeout=self.config.op_timeout,
        )
        attachment = VmAttachment(
            vm_id=vm_id,
            nsm=nsm,
            guestlib=guestlib,
            region=region,
            job_queue=job,
            completion_queue=completion,
            receive_queue=receive,
            nsm_queues=self._nsms[nsm.nsm_id],
        )
        self._vms[vm_id] = attachment
        nsm.tenant_vm_ids.append(vm_id)

        switch_job = partial(self._switch_job_nqe, attachment)
        if self.config.tenant_quota_nqes is not None:
            self._register_tenant_ring(vm_id, job, switch_job)
        else:
            attachment.job_pump = self._start_mover(
                job, "job", switch_job, f"{self.name}.job.vm{vm_id}"
            )
        return attachment

    # ------------------------------------------------------------ mover loops --
    def _forward_slow(self, ring: NqeRing, nqe: Nqe):
        """Backpressure path: block the mover until ``ring`` accepts."""
        yield ring.push(nqe)

    def _begin_switch(self, nqe: Nqe, op: str, cpu_ns: float):
        """Open the per-nqe switch span (pop -> forwarded push accepted).

        Only wired in when tracing is on, with the preformatted
        ``coreengine.switch.<direction>`` op name — one f-string per nqe
        in the drain path is measurable.
        """
        span = None
        if nqe.span is not None:
            span = nqe.span.child(op, "coreengine")
            if span is not None:
                span.cpu(cpu_ns)
        return self.sim.now, span

    def _end_switch(self, token) -> None:
        started, span = token
        tracer = self.tracer
        tracer.count("coreengine.nqes_switched")
        tracer.histogram("coreengine.switch_ns").record((self.sim.now - started) * 1e9)
        if span is not None:
            span.end()

    # -- per-nqe switch bodies (the ring consumers' ``handle`` hooks) -------
    #
    # Each body is a *plain function* returning ``None`` on the fast path
    # (destination rings had space; nqes were handed over with ``offer``,
    # no event round-trip) or a generator the consumer waits on when a
    # destination ring is full and it has to block for backpressure.
    # Delivery order is identical either way: a full ring queues offered
    # nqes behind its backpressure list in FIFO order.  Bound with
    # ``functools.partial`` (no closure frame per hop); ``_token`` unused.
    def _switch_job_nqe(self, attachment: VmAttachment, nqe: Nqe, _token=None):
        # Read the NSM binding per nqe (not captured at attach time): a
        # failover re-points ``attachment.nsm``/``nsm_queues`` and every
        # subsequent op must flow to the standby.
        nsm = attachment.nsm
        nsm_queues = attachment.nsm_queues
        vm_id = attachment.vm_id
        if nqe.op is NqeOp.SOCKET:
            answered = self._socket_fds
            fd = None if answered is None else answered.get(nqe.token)
            if fd is not None:
                # A retry of a SOCKET already switched: the same answer
                # again; its mapping and backend exist.
                response = nqe.completion(NqeStatus.OK, result=fd)
                response.fd = fd
                ring = attachment.completion_queue
                if ring.is_full:
                    return self._forward_slow(ring, response)
                ring.offer(response)
                return None
            # Assign the fd immediately (§3.2) ...
            fd = self.table.allocate_fd(vm_id)
            if answered is not None:
                answered[nqe.token] = fd
                if len(answered) > 4096:  # bounded like ServiceLib's dedup
                    del answered[next(iter(answered))]
            response = nqe.completion(NqeStatus.OK, result=fd)
            response.fd = fd
            # ... and independently request a backend socket.
            cid = self.table.allocate_cid(nsm.nsm_id)
            self.table.insert(
                vm_id, fd, nsm.nsm_id, cid, family=nsm.spec.stack_family
            )
            backend = Nqe(
                op=NqeOp.SOCKET,
                vm_id=vm_id,
                fd=fd,
                nsm_id=nsm.nsm_id,
                cid=cid,
                args=attachment.region,
                span=nqe.span,
            )
            cq = attachment.completion_queue
            jq = nsm_queues.job
            if cq.is_full or jq.is_full:
                return self._socket_switch_slow(cq, response, jq, backend)
            cq.offer(response)
            jq.offer(backend)
            return None
        mapping = self.table.to_nsm(vm_id, nqe.fd)
        if mapping is None:
            # Unknown or evicted fd — after a failover this is an op raced
            # against the reset; surface a typed error, never a hang.
            chunk = nqe.data_desc
            if chunk is not None and not chunk.freed:
                chunk.free()
            ring = attachment.completion_queue
            nqe = nqe.completion(
                NqeStatus.ERROR,
                result=ConnectionReset(f"no mapping for fd {nqe.fd}"),
            )
        else:
            nqe.nsm_id, nqe.cid = mapping
            ring = nsm_queues.job
        if ring.is_full:
            return self._forward_slow(ring, nqe)
        ring.offer(nqe)
        return None

    def _socket_switch_slow(self, cq: NqeRing, response: Nqe, jq: NqeRing, backend: Nqe):
        """SOCKET switch under backpressure: wait on each full ring in turn."""
        yield cq.push(response)
        yield jq.push(backend)

    def _switch_completion_nqe(self, nsm: NSM, nqe: Nqe, _token=None):
        if nqe.args is NqeOp.HEARTBEAT:
            # Liveness answer from ServiceLib; consumed here, never
            # forwarded (heartbeats carry no VM mapping).
            self._last_heartbeat[nsm.nsm_id] = self.sim.now
            return None
        if nqe.args is NqeOp.DRAIN_MARKER:
            # Migration drain marker echoed back through the job pipeline;
            # consumed here, handed to the coordinator.
            migration = self._migration
            if migration is not None:
                migration.on_drain_marker("job", nqe.result)
            return None
        vm_key = self.table.to_vm(nsm.nsm_id, nqe.cid)
        if vm_key is None:
            # A migrated connection's *old* key: the source NSM finished
            # an op it accepted before the freeze (connect established,
            # send buffered).  Forward it to the guest — GuestLib's
            # by-token completion pop makes delivery exactly-once even if
            # a retry also completed on the destination.
            vm_key = self.table.alias_to_vm(nsm.nsm_id, nqe.cid)
            if vm_key is None:
                if nqe.data_desc is not None:  # teardown race: free pages
                    nqe.data_desc.free()
                return None
            if self._traced:
                self.tracer.count("coreengine.migration.late_completions")
        vm_id, fd = vm_key
        attachment = self._vms.get(vm_id)
        if attachment is None:
            if nqe.data_desc is not None:  # VM went away mid-flight
                nqe.data_desc.free()
            return None
        nqe.vm_id, nqe.fd = vm_id, fd
        if nqe.args is NqeOp.CLOSE:
            self.table.remove_by_vm(vm_id, fd)
        ring = attachment.completion_queue
        if ring.is_full:
            return self._forward_slow(ring, nqe)
        ring.offer(nqe)
        return None

    def _switch_receive_nqe(self, nsm: NSM, nqe: Nqe, _token=None):
        if nqe.op is NqeOp.DRAIN_MARKER:
            # Migration drain marker flushed through the receive pipeline.
            migration = self._migration
            if migration is not None:
                migration.on_drain_marker("receive", nqe.args)
            return None
        vm_key = self.table.to_vm(nsm.nsm_id, nqe.cid)
        if vm_key is None:
            if self.table.alias_to_vm(nsm.nsm_id, nqe.cid) is not None:
                # Receive-path traffic under a *retired* <NSM, cID>: the
                # source was drained before the re-point, so this is a
                # stale source still claiming the cID space (split brain).
                # Drop the nqe and fence the zombie for good.
                self._fence_stale_source(nsm, nqe)
                return None
            if nqe.data_desc is not None:
                nqe.data_desc.free()
            return None
        vm_id, fd = vm_key
        attachment = self._vms.get(vm_id)
        if attachment is None:
            # Teardown race: the mapping outlived the VM.  The huge-page
            # descriptor must still be released or the region leaks one
            # chunk per in-flight DATA nqe.
            if nqe.data_desc is not None:
                nqe.data_desc.free()
            return None
        nqe.vm_id, nqe.fd = vm_id, fd
        if nqe.op is NqeOp.ACCEPT_EVENT:
            # Generate a guest fd for the new flow (§3.2).
            child_cid = nqe.result
            if self.table.to_vm(nsm.nsm_id, child_cid) is not None:
                return None  # duplicated nqe (ring corruption): drop
            child_fd = self.table.allocate_fd(vm_id)
            self.table.insert(
                vm_id, child_fd, nsm.nsm_id, child_cid, family=nsm.spec.stack_family
            )
            nqe.result = child_fd
        inv = self.invariant_checker
        if inv is not None and nqe.flow_uid is not None:
            chunk = nqe.data_desc
            inv.on_data_forwarded(
                nqe.flow_uid, nqe.rx_seq, chunk.size if chunk is not None else 0
            )
        ring = attachment.receive_queue
        if ring.is_full:
            return self._forward_slow(ring, nqe)
        ring.offer(nqe)
        return None

    def _start_mover(self, ring: NqeRing, direction: str, switch_nqe, name: str):
        """Attach the switch datapath for one ring: a :class:`RingPump`
        whose ``handle`` is the per-nqe switch body.

        Every nqe counts in ``nqes_copied`` when it is popped and (when
        traced) carries a span from pop to forwarded push.  Returns the
        consumer only when it is event-driven — the form live migration
        can pause (see ``VmAttachment.job_pump``).
        """
        if self._traced:
            switch_op = "coreengine.switch." + direction

            def begin(nqe):
                self.nqes_copied += 1
                return self._begin_switch(nqe, switch_op, NQE_COPY_NS)

            end = self._end_switch
        else:

            def begin(nqe):
                self.nqes_copied += 1

            end = None
        pump = RingPump(
            ring, self.core, NQE_COPY_S, switch_nqe, begin, end,
            wake=soft_interrupt(self.config.notify_mode), name=name,
        )
        return pump if pump.event_driven else None

    # ------------------------------------------------------ tenant isolation --
    def _register_tenant_ring(self, vm_id: int, ring: NqeRing, switch_nqe) -> None:
        """Put one VM's job ring under the shared quota scheduler."""
        self._tenant_entries.append(_TenantEntry(vm_id, ring, switch_nqe))
        self.tenant_nqes_moved[vm_id] = 0
        # Wake an idle scheduler so a tenant attached mid-run is served.
        wake = self._tenant_wake
        if wake is not None and not wake.triggered:
            wake.succeed()
        if not self._tenant_sched_started:
            self._tenant_sched_started = True
            self.sim.process(
                self._tenant_scheduler(), name=f"{self.name}.tenantsched"
            )

    def _tenant_scheduler(self):
        """Round-robin over VM job rings with per-cycle quotas.

        Each cycle every unstalled tenant may move at most
        ``tenant_quota_nqes`` nqes; each move charges the usual
        per-nqe copy cost on the CoreEngine core.  When a forward blocks
        (destination ring full), the tenant is parked — its remaining
        burst finishes in an async drainer and the scheduler moves on
        immediately, so one tenant's backpressure cannot hold the round
        hostage.  Idle cycles block on the rings' doorbells instead of
        spinning.
        """
        quota = self.config.tenant_quota_nqes
        execute = self.core.execute
        while True:
            moved = 0
            for entry in list(self._tenant_entries):
                if entry.stalled:
                    continue
                batch = entry.ring.pop_batch(quota)
                for i, nqe in enumerate(batch):
                    self.nqes_copied += 1
                    self.tenant_nqes_moved[entry.vm_id] += 1
                    moved += 1
                    yield execute(NQE_COPY_S)
                    blocked = entry.switch(nqe)
                    if blocked is not None:
                        entry.stalled = True
                        self.sim.process(
                            self._drain_stalled(entry, blocked, batch[i + 1:]),
                            name=f"{self.name}.tenantstall.vm{entry.vm_id}",
                        )
                        break
            if moved:
                yield self.sim.timeout(TENANT_CYCLE_S)
                continue
            waiters = [
                entry.ring.wait_nonempty()
                for entry in self._tenant_entries
                if not entry.stalled
            ]
            if not waiters:
                # Everyone is parked behind backpressure; poll for unpark.
                yield self.sim.timeout(TENANT_CYCLE_S)
                continue
            self._tenant_wake = Event(self.sim)
            waiters.append(self._tenant_wake)
            yield self.sim.any_of(waiters)
            self._tenant_wake = None

    def _drain_stalled(self, entry: _TenantEntry, blocked, rest):
        """Finish a parked tenant's blocked forward plus its popped burst.

        The burst was already popped from the ring, so it must be
        forwarded here (in order) rather than dropped; each nqe still
        charges the copy cost and counts against the tenant's totals.
        The tenant stays stalled — invisible to the scheduler — until the
        whole burst has landed.
        """
        yield from blocked
        for nqe in rest:
            self.nqes_copied += 1
            self.tenant_nqes_moved[entry.vm_id] += 1
            yield self.core.execute(NQE_COPY_S)
            again = entry.switch(nqe)
            if again is not None:
                yield from again
        entry.stalled = False

    # --------------------------------------------------- heartbeats / failover --
    def _heartbeat_loop(self, nsm: NSM, queues: _NsmQueues):
        """Probe one NSM's liveness; declare it dead after missed answers.

        The HEARTBEAT nqe takes the normal job-ring path and is answered
        by ServiceLib on the NSM core — so a crashed or wedged NSM misses
        beats.  A merely *slow* NSM (degraded core, deep job backlog)
        answers late: exceeding the miss budget only moves it to
        SUSPECTED, and any heartbeat landing afterwards clears the
        suspicion, because a late answer still resets the silence clock.
        Death requires continued silence past ``budget * (1 + grace)`` —
        late heartbeats and true silence are no longer the same signal,
        so a slowdown fault cannot trigger a needless failover.
        """
        interval = self.config.heartbeat_interval
        budget = interval * self.config.heartbeat_miss
        deadline = budget * (1.0 + HEARTBEAT_GRACE)
        nsm_id = nsm.nsm_id
        while True:
            yield self.sim.timeout(interval)
            if nsm_id in self._failed_nsms or nsm_id not in self._nsms:
                return
            queues.job.offer(Nqe(op=NqeOp.HEARTBEAT, nsm_id=nsm_id))
            silence = self.sim.now - self._last_heartbeat[nsm_id]
            if silence <= budget:
                if nsm_id in self._suspected_since:
                    # A late heartbeat arrived: slow, not dead.
                    del self._suspected_since[nsm_id]
                    if self._traced:
                        self.tracer.count("coreengine.suspicions_cleared")
                continue
            if nsm_id not in self._suspected_since:
                self._suspected_since[nsm_id] = self.sim.now
                counts = self.heartbeat_suspicions
                counts[nsm_id] = counts.get(nsm_id, 0) + 1
                if self._traced:
                    self.tracer.count("coreengine.nsm_suspected")
            if silence > deadline:
                self._suspected_since.pop(nsm_id, None)
                self._on_nsm_dead(nsm)
                return

    def _stop_nsm(self, nsm: NSM) -> None:
        """Stop an NSM for good: crash it and its ServiceLib, and drain its
        three rings (freeing huge-page chunks so blocked senders unblock)."""
        nsm.crash()
        queues = self._nsms.get(nsm.nsm_id)
        if queues is not None:
            queues.servicelib.crash()
            queues.job.drain()
            queues.completion.drain()
            queues.receive.drain()

    def _on_nsm_dead(self, nsm: NSM) -> None:
        """Dead-NSM recovery: reset its connections, adopt a standby.

        Graceful degradation, in order: (1) the dead side stops for good
        and its rings are drained (freeing huge-page chunks so blocked
        senders unblock); (2) every ``<VM fd> <-> <NSM cID>`` mapping it
        served is evicted and the guest told via a RESET nqe (in-flight
        ops fail ECONNRESET, not hang); (3) if a standby provider is
        installed, the standby takes over the dead NSM's IP and tenants,
        so *new* connections succeed transparently.
        """
        nsm_id = nsm.nsm_id
        if nsm_id in self._failed_nsms:
            return
        self._failed_nsms.add(nsm_id)
        detected = self.sim.now
        tracer = self.tracer
        if self._traced:
            tracer.count("coreengine.nsm_failures")
        # Fence the declared-dead NSM wholesale (idempotent).  A genuinely
        # crashed NSM is already silent, but a *false positive* — alive,
        # merely late past the heartbeat budget — still has a running TCP
        # stack with pending timers; once the standby takes over its IP
        # and its NIC is detached, those timers must not keep talking on
        # the network.  Declared dead means dead.
        self._stop_nsm(nsm)
        # Reset every connection the dead NSM served.
        evicted = self.table.evict_nsm(nsm_id)
        for (vm_id, fd), _nsm_key in evicted:
            attachment = self._vms.get(vm_id)
            if attachment is None:
                continue
            attachment.receive_queue.offer(
                Nqe(op=NqeOp.RESET, vm_id=vm_id, fd=fd)
            )
        # Adopt a standby, if the control plane provides one.
        standby = None
        provider = self.standby_provider
        if provider is not None:
            standby = provider(nsm)
        if standby is not None:
            self.attach_nsm(standby)
            standby.take_over_ip(nsm)
            for vm_id in list(nsm.tenant_vm_ids):
                self.rehome_tenant(vm_id, nsm, standby)
        record = {
            "detected_at": detected,
            "completed_at": self.sim.now,
            "nsm": nsm.name,
            "standby": standby.name if standby is not None else None,
            "connections_reset": len(evicted),
        }
        self.failovers.append(record)
        if self._traced:
            tracer.count("coreengine.failovers")
            tracer.count("coreengine.connections_reset", len(evicted))
            tracer.record_span(
                "coreengine.failover",
                "coreengine",
                start=detected,
                finish=self.sim.now,
            )

    def rehome_tenant(self, vm_id: int, src: NSM, dst: NSM) -> None:
        """Point tenant ``vm_id`` at ``dst`` instead of ``src``: its
        attachment, ring set and guest IP, and both NSMs' tenant lists
        (failover, migration and its rollback)."""
        src.tenant_vm_ids.remove(vm_id)
        attachment = self._vms.get(vm_id)
        if attachment is None:
            return
        attachment.nsm = dst
        attachment.nsm_queues = self._nsms[dst.nsm_id]
        attachment.guestlib.ip = dst.ip
        dst.tenant_vm_ids.append(vm_id)

    # ------------------------------------------------------------- migration --
    def set_migration(self, coordinator) -> None:
        """Install/clear the active migration coordinator (one at a time)."""
        if coordinator is not None and self._migration is not None:
            raise RuntimeError(
                f"{self.name} already has a migration in flight"
            )
        self._migration = coordinator

    def _fence_stale_source(self, nsm: NSM, nqe: Nqe) -> None:
        """A presumed-dead migration source spoke: drop and fence it.

        The stale nqe's payload is released (those bytes were already —
        or will be — delivered by the destination's copy of the flow) and
        on the first offense the zombie NSM is crashed outright so both
        its stack and its ServiceLib stop claiming the retired cID space.
        """
        chunk = nqe.data_desc
        if chunk is not None and not chunk.freed:
            chunk.free()
        if self._traced:
            self.tracer.count("coreengine.migration.fenced_nqes")
        nsm_id = nsm.nsm_id
        if nsm_id in self._fenced_nsm_ids:
            return
        self._fenced_nsm_ids.add(nsm_id)
        self._failed_nsms.add(nsm_id)  # the watchdog must not re-fail it
        self._stop_nsm(nsm)
        record = {"at": self.sim.now, "nsm": nsm.name, "op": nqe.op.value}
        self.fenced_sources.append(record)
        if self._traced:
            self.tracer.count("coreengine.migration.fenced_sources")
        migration = self._migration
        if migration is not None:
            migration.on_source_fenced(record)

    # -------------------------------------------------------------- inspection --
    def attachment_of(self, vm_id: int) -> VmAttachment:
        return self._vms[vm_id]

    def nsm_queues(self, nsm_id: int) -> _NsmQueues:
        return self._nsms[nsm_id]
