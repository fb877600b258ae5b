"""Live NSM migration: zero-loss tenant-stack handoff (§5 "stack update").

The paper's serverless pitch — the network stack as a provider-managed
service — only holds if the provider can *move* a running stack: off a
host being drained, onto a patched NSM image, away from a noisy
neighbour.  This module implements that handoff as an explicit state
machine driven by :class:`MigrationCoordinator`:

    PREPARE -> FREEZE -> TRANSFER -> REPOINT -> RESUME -> COMMIT
        \\         \\         \\           \\         |
         `---------`---------`-----------`---------`--> ROLLBACK -> ROLLED_BACK

* **PREPARE** validates scope.  TCP connections are wire-identified by
  the NSM's IP, so TCP migrates whole-NSM (or sole-tenant) with IP
  takeover onto an idle same-host destination; QUIC routes by
  connection ID and additionally supports per-tenant migration to a
  destination with a different address (the peer re-binds its path on
  the first packet from the new source, RFC 9000 §9 style).
* **FREEZE** pauses every affected VM's job-ring pump (guest ops queue
  in the guest-visible ring — bounded delay, nothing lost) and stalls
  new receive reads on both ServiceLibs.  In-flight huge-page copy
  chains still deliver: their bytes were already consumed from the
  stack's receive buffer, so dropping them would lose data.
* **TRANSFER** proves the frozen source pipeline empty with
  sequence-numbered :data:`~repro.netkernel.nqe.NqeOp.DRAIN_MARKER`
  nqes pushed through both the job path (echoed as a completion — the
  FIFO ServiceLib proves every earlier op executed) and the receive
  path, repeated in settle rounds until a marker round ends with all
  three NSM rings quiet.  It then serializes per-connection stack
  state (sequence space, congestion state, buffers; QUIC streams,
  connection IDs, 0-RTT tickets) into snapshots.
* **REPOINT** happens in one simulated instant: backends re-key onto
  the destination ServiceLib under fresh cIDs, live connection objects
  re-home onto the destination stack, the conntable re-points each
  mapping and remembers the old ``<NSM ID, cID>`` as an *alias* (late
  source completions forward exactly-once via GuestLib's by-token pop;
  receive-path traffic under an alias identifies a stale source), and
  for whole-NSM moves the destination takes over the source's IP.
* **RESUME** restarts the pumps and thaws receive service; **COMMIT**
  records the migration.  Aliases are kept so a *split-brain* source —
  one that resumes after being presumed dead and emits under the
  retired cID space — is fenced (crashed and drained) on first offense
  by :meth:`CoreEngine._fence_stale_source`.
* **ROLLBACK** (reachable from every pre-COMMIT phase) reverses the
  re-point under the original cIDs, returns the IP, and thaws — the
  source resumes bit-identically, because nothing was resumed on the
  destination before the COMMIT decision point.

Faults (:mod:`repro.faults`) inject ``MIGRATION_ABORT``,
``DEST_CRASH_MID_TRANSFER`` and ``SPLIT_BRAIN`` at phase boundaries;
the coordinator re-checks abort requests and destination health at
every boundary and converges to a clean COMMIT or a clean ROLLBACK.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import Dict, List, Optional

from ..obs import runtime as obs_runtime
from ..sim import Event, Simulator
from .nqe import Nqe, NqeOp
from .nsm import NSM

__all__ = ["MigrationPhase", "MigrationError", "MigrationCoordinator"]

_migration_ids = count(1)

#: Control-plane dwell at each phase boundary: the window in which
#: injected faults (and operator aborts) are honoured.
PHASE_PAUSE = 1e-6
#: Wait between re-checks while in-flight nqes settle.
SETTLE_STEP = 5e-6
#: How long one drain round waits for its marker to come back.
ROUND_TIMEOUT = 500e-6
#: Marker rounds before the drain gives up and the migration rolls back.
MAX_DRAIN_ROUNDS = 64


class MigrationPhase(enum.Enum):
    PREPARE = "prepare"
    FREEZE = "freeze"
    TRANSFER = "transfer"
    REPOINT = "repoint"
    RESUME = "resume"
    COMMIT = "commit"
    ROLLBACK = "rollback"
    ROLLED_BACK = "rolled-back"


class MigrationError(Exception):
    """A migration cannot proceed; the coordinator rolls back cleanly."""


def _move_backend(backend, frm: NSM, to: NSM, cid: int, moved_conns: set) -> None:
    """Hand one backend, with its connection and listener, from ``frm``'s
    stack and ServiceLib to ``to``'s under ``cid``.  A connection several
    backends share moves once (``moved_conns`` holds their ids)."""
    conn = backend.conn
    if conn is not None:
        underlying = getattr(conn, "conn", None) or conn
        if id(underlying) not in moved_conns:
            moved_conns.add(id(underlying))
            frm.stack.release_connection(underlying)
            to.stack.adopt_connection(underlying)
    if backend.listener is not None:
        frm.stack.release_listener(backend.listener)
        to.stack.adopt_listener(backend.listener)
    to.servicelib.adopt_backend(backend, cid)


class MigrationCoordinator:
    """Drives one live migration of a stack from ``src`` to ``dst``.

    ``tenant=None`` migrates the whole NSM; a vm_id migrates one
    tenant's connections (QUIC only — see module docstring).  Exactly
    one coordinator may be active per CoreEngine; the chaos harness
    injects faults through :meth:`request_abort`, ``dst.crash()`` and
    :meth:`split_brain`.
    """

    def __init__(
        self,
        coreengine,
        src: NSM,
        dst: NSM,
        tenant: Optional[int] = None,
    ) -> None:
        self.ce = coreengine
        self.sim: Simulator = coreengine.sim
        self.src = src
        self.dst = dst
        self.tenant = tenant

        self.migration_id = next(_migration_ids)
        self.phase = MigrationPhase.PREPARE
        self.phase_log: List[tuple] = []
        #: Fires with the final record when the migration finishes
        #: (committed or rolled back).
        self.done = Event(self.sim)
        self.record: Dict = {
            "migration_id": self.migration_id,
            "src": src.name,
            "dst": dst.name,
            "tenant": tenant,
            "committed": False,
            "rolled_back": False,
            "reason": None,
        }

        self.frozen_at: Optional[float] = None
        self.resumed_at: Optional[float] = None
        self.bytes_transferred = 0
        self.drain_rounds = 0
        self.snapshots: List[Dict] = []
        self.fenced_source_records: List[Dict] = []
        self.late_aborts: List[str] = []
        self.zombie_nqes = 0

        self._vm_ids: List[int] = []
        self._whole = tenant is None
        self._moves: List[Dict] = []
        self._frozen = False
        self._repointed = False
        self._resumed = False
        self._finished = False
        self._abort_reason: Optional[str] = None
        self._split_brain = False
        self._marker_seq = count(1)
        self._marker_waits: Dict[int, Dict] = {}
        self.duplicate_markers = 0
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled

    # ----------------------------------------------------------- control plane --
    def start(self) -> "MigrationCoordinator":
        """Install with CoreEngine (raises if one is in flight) and run."""
        self.ce.set_migration(self)
        self.record["started_at"] = self.sim.now
        self.sim.process(
            self._run(), name=f"migration{self.migration_id}.{self.src.name}"
        )
        return self

    def request_abort(self, reason: str = "abort requested") -> None:
        """Ask the coordinator to roll back at the next phase boundary.

        An abort arriving after RESUME has restarted traffic is too late
        — the migration commits and the request is recorded.
        """
        if self._finished or self._resumed:
            self.late_aborts.append(reason)
            return
        if self._abort_reason is None:
            self._abort_reason = reason

    def split_brain(self) -> None:
        """Fault: the source resumes after being presumed dead.

        After the re-point the retired source starts emitting nqes under
        its old cID space — both NSMs then claim the same connections
        until CoreEngine fences the zombie.  Requested before REPOINT it
        arms and triggers once the migration commits; a rolled-back
        migration never splits (the source is the legitimate owner).
        """
        self._split_brain = True
        if self._repointed and self._finished and self.record["committed"]:
            self._start_zombie()

    def on_drain_marker(self, path: str, payload) -> None:
        """CoreEngine intercepted one of our markers (``path`` job|receive)."""
        if not isinstance(payload, tuple) or len(payload) != 2:
            return
        migration_id, seq = payload
        if migration_id != self.migration_id:
            return
        wait = self._marker_waits.get(seq)
        if wait is None:
            # Duplicated marker (ring corruption replays, retried rounds):
            # the sequence number already completed — dedup, don't retrigger.
            self.duplicate_markers += 1
            if self._traced:
                self.tracer.count("migration.duplicate_markers")
            return
        wait["paths"].add(path)
        if {"job", "receive"} <= wait["paths"]:
            del self._marker_waits[seq]
            if not wait["event"].triggered:
                wait["event"].succeed()

    def on_source_fenced(self, record: Dict) -> None:
        """CoreEngine fenced a stale source claiming our retired cIDs."""
        self.fenced_source_records.append(record)

    # -------------------------------------------------------------- state machine --
    def _enter(self, phase: MigrationPhase) -> None:
        self.phase = phase
        self.phase_log.append((phase.value, self.sim.now))
        if self._traced:
            self.tracer.count(f"migration.phase.{phase.value}")

    def _pause(self):
        yield self.sim.timeout(PHASE_PAUSE)

    def _check_boundary(self) -> None:
        if self.dst.failed:
            raise MigrationError(f"destination {self.dst.name} failed")
        if self._abort_reason is not None:
            raise MigrationError(self._abort_reason)

    def _run(self):
        started = self.sim.now
        try:
            self._enter(MigrationPhase.PREPARE)
            self._prepare()
            yield from self._pause()
            self._check_boundary()

            self._enter(MigrationPhase.FREEZE)
            self._freeze()
            yield from self._pause()
            self._check_boundary()

            self._enter(MigrationPhase.TRANSFER)
            yield from self._transfer()
            self._check_boundary()

            self._enter(MigrationPhase.REPOINT)
            self._repoint()
            yield from self._pause()
            self._check_boundary()

            self._enter(MigrationPhase.RESUME)
            yield from self._pause()
            # Last exit: nothing has resumed yet, rollback is still clean.
            self._check_boundary()
            self._resume()
            yield from self._pause()

            self._enter(MigrationPhase.COMMIT)
            self._commit(started)
        except MigrationError as exc:
            self._rollback(str(exc), started)
        self.ce.set_migration(None)
        if not self.done.triggered:
            self.done.succeed(self.record)

    # ------------------------------------------------------------------ phases --
    def _prepare(self) -> None:
        src, dst, ce = self.src, self.dst, self.ce
        if src is dst:
            raise MigrationError("source and destination are the same NSM")
        if src.failed:
            raise MigrationError(f"source {src.name} has failed")
        if dst.failed:
            raise MigrationError(f"destination {dst.name} has failed")
        if src.nsm_id not in ce._nsms:
            raise MigrationError(f"{src.name} is not attached to {ce.name}")
        ce.attach_nsm(dst)  # idempotent; standbys may not be attached yet
        if src.spec.stack_family != dst.spec.stack_family:
            raise MigrationError(
                f"family mismatch: {src.spec.stack_family} -> "
                f"{dst.spec.stack_family}"
            )
        if self.tenant is None:
            self._vm_ids = list(src.tenant_vm_ids)
            self._whole = True
        else:
            if self.tenant not in src.tenant_vm_ids:
                raise MigrationError(
                    f"vm{self.tenant} is not served by {src.name}"
                )
            self._vm_ids = [self.tenant]
            # A sole tenant owns the whole NSM: migrate with IP takeover.
            self._whole = src.tenant_vm_ids == [self.tenant]
        if not self._vm_ids:
            raise MigrationError(f"{src.name} serves no tenants")
        if not self._whole and not getattr(src.stack, "wants_tenant", False):
            raise MigrationError(
                "TCP connections are wire-identified by the NSM's IP: "
                "migrate the whole NSM (or its sole tenant) so the "
                "destination can take over the address"
            )
        if self._whole:
            if dst.host is not src.host:
                raise MigrationError(
                    "IP takeover needs a same-host destination"
                )
            if dst.tenant_vm_ids or ce.table.connections_of_nsm(dst.nsm_id):
                raise MigrationError(
                    f"destination {dst.name} must be idle for IP takeover"
                )
        capacity = dst.spec.max_tenants - len(dst.tenant_vm_ids)
        if len(self._vm_ids) > capacity:
            raise MigrationError(
                f"{dst.name} lacks tenant capacity for {len(self._vm_ids)} VMs"
            )
        # The freeze pauses *every* tenant on the source NSM (a shared
        # ServiceLib has one receive path), so all of them need the
        # polling per-ring pump form CoreEngine can pause.
        for vm_id in src.tenant_vm_ids:
            attachment = ce._vms.get(vm_id)
            if attachment is None or attachment.nsm is not src:
                raise MigrationError(f"vm{vm_id} is not attached to {src.name}")
            if attachment.job_pump is None:
                raise MigrationError(
                    "live migration needs polling per-ring job movers "
                    "(tenant quota scheduling and interrupt modes cannot "
                    "pause one tenant's ring)"
                )

    def _freeze(self) -> None:
        self.frozen_at = self.sim.now
        self._frozen = True
        for vm_id in self.src.tenant_vm_ids:
            self.ce._vms[vm_id].job_pump.stopped = True
        # Both ServiceLibs stall new receive reads: the source so its
        # per-connection state quiesces for snapshotting, the destination
        # so adopted backends stay silent until RESUME — a rollback then
        # never has destination bytes in flight.
        self.src.servicelib.freeze()
        self.dst.servicelib.freeze()

    def _transfer(self):
        queues = self.ce._nsms[self.src.nsm_id]
        while True:
            self.drain_rounds += 1
            if self.drain_rounds > MAX_DRAIN_ROUNDS:
                raise MigrationError(
                    f"source pipeline did not drain in "
                    f"{MAX_DRAIN_ROUNDS} marker rounds"
                )
            yield self.sim.timeout(SETTLE_STEP)
            self._check_boundary()
            seq = next(self._marker_seq)
            arrived = Event(self.sim)
            self._marker_waits[seq] = {"paths": set(), "event": arrived}
            payload = (self.migration_id, seq)
            queues.job.offer(
                Nqe(op=NqeOp.DRAIN_MARKER, nsm_id=self.src.nsm_id, args=payload)
            )
            queues.receive.offer(
                Nqe(op=NqeOp.DRAIN_MARKER, nsm_id=self.src.nsm_id, args=payload)
            )
            yield self.sim.any_of([arrived, self.sim.timeout(ROUND_TIMEOUT)])
            if not arrived.triggered:
                continue  # pipeline still busy; next round
            if self._pipeline_quiet(queues):
                break
        self._snapshot_connections()

    def _pipeline_quiet(self, queues) -> bool:
        """True when all three source rings hold only liveness traffic.

        Checked in the same simulated instant as the REPOINT decision:
        heartbeats (and marker echoes) keep flowing during the freeze
        and are consumed by CoreEngine, so they do not gate the move.
        Demux/ACK work still queued on the source cores does NOT gate
        it either — under a hot inbound flow the cores never go idle.
        Such stragglers resolve on the old stack after the re-point and
        their output drops at the drained VF; the peer retransmits to
        the address's new owner, exactly as for packets that were on
        the wire when the switch table was re-keyed.
        """
        ignored = (NqeOp.HEARTBEAT, NqeOp.DRAIN_MARKER)
        for ring in (queues.job, queues.completion, queues.receive):
            for nqe in ring._snapshot():
                if nqe.op in ignored:
                    continue
                if nqe.op is NqeOp.COMPLETION and nqe.args in ignored:
                    continue
                return False
        return True

    def _snapshot_connections(self) -> None:
        """Serialize per-connection stack state (the TRANSFER payload).

        The simulation moves the live objects at REPOINT; these
        snapshots are the analog of the state that would cross the wire
        — they size ``bytes_transferred``, record the pre-migration cID
        for rollback, and document exactly which state migrates.
        """
        table = self.ce.table
        servicelib = self.src.servicelib
        total = 0
        snapshots = []
        for vm_id in self._vm_ids:
            for vm_key in table.connections_of_vm(vm_id):
                nsm_key = table.to_nsm(*vm_key)
                if nsm_key is None or nsm_key[0] != self.src.nsm_id:
                    continue
                backend = servicelib.backend_of(nsm_key[1])
                snap = self._serialize_backend(vm_key, nsm_key[1], backend)
                total += snap["state_bytes"]
                snapshots.append(snap)
        self.snapshots = snapshots
        self.bytes_transferred = total
        if self._traced:
            self.tracer.count("migration.bytes_transferred", total)

    def _serialize_backend(self, vm_key, cid: int, backend) -> Dict:
        snap: Dict = {
            "vm_id": vm_key[0],
            "fd": vm_key[1],
            "src_cid": cid,
            "state_bytes": 256,  # fixed header: cID, fd, options, ports
        }
        if backend is None:
            return snap
        snap["flow_uid"] = backend.uid
        snap["rx_seq"] = backend.rx_seq
        conn = backend.conn
        if backend.listener is not None:
            snap["kind"] = "listener"
            snap["port"] = backend.listener.port
        if conn is None:
            return snap
        underlying = getattr(conn, "conn", None)  # QUIC stream -> connection
        if underlying is not None:
            streams = getattr(underlying, "streams", {})
            snap.update(
                kind="quic",
                scid=getattr(underlying, "scid", None),
                dcid=getattr(underlying, "dcid", None),
                tenant=getattr(underlying, "tenant", None),
                streams=len(streams),
                bytes_in_flight=getattr(underlying, "bytes_in_flight", 0),
            )
            snap["state_bytes"] += 128 * max(1, len(streams))
            snap["state_bytes"] += snap["bytes_in_flight"]
            return snap
        state = getattr(conn, "state", None)
        cc = getattr(conn, "cc", None)
        snap.update(
            kind="tcp",
            state=getattr(state, "value", None),
            snd_una=getattr(conn, "snd_una", 0),
            snd_nxt=getattr(conn, "snd_nxt", 0),
            cc=getattr(cc, "name", None),
            cwnd=cc.window() if cc is not None else 0,
            bytes_in_flight=getattr(conn, "bytes_in_flight", 0),
        )
        send_buffer = getattr(conn, "send_buffer", None)
        if send_buffer is not None:
            # Unacked send-buffer bytes: written but not yet cumulatively
            # acked — the retransmission queue the destination must hold.
            written = getattr(send_buffer, "written", 0)
            unacked = max(0, written - snap["snd_una"])
            snap["rtx_queue_bytes"] = unacked
            snap["state_bytes"] += unacked
        snap["state_bytes"] += snap["bytes_in_flight"]
        return snap

    def _repoint(self) -> None:
        """Atomically re-home every connection of the group (one instant).

        No simulated time passes inside this method — as far as any
        other process can observe, the whole (tenant, family) group
        moves at once.
        """
        ce, src, dst = self.ce, self.src, self.dst
        if self._whole:
            dst.take_over_ip(src)
            # The retired VF is unprogrammed from the embedded switch:
            # any straggler TX (an RST for a packet that was already in
            # flight toward the old port) drops in hardware.
            src.nic.draining = True
        move_tickets = getattr(src.stack, "move_tickets", None)
        if move_tickets is not None:
            move_tickets(dst.stack, None if self._whole else self.tenant)
        moved_conns: set = set()
        moves: List[Dict] = []
        for snap in self.snapshots:
            vm_id, fd, old_cid = snap["vm_id"], snap["fd"], snap["src_cid"]
            backend = src.servicelib.remove_backend(old_cid)
            new_cid = ce.table.allocate_cid(dst.nsm_id)
            ce.table.repoint(vm_id, fd, dst.nsm_id, new_cid)
            if backend is not None:
                _move_backend(backend, src, dst, new_cid, moved_conns)
            moves.append(
                {"vm_id": vm_id, "fd": fd, "old_cid": old_cid,
                 "new_cid": new_cid, "backend": backend}
            )
        for vm_id in self._vm_ids:
            ce.rehome_tenant(vm_id, src, dst)
        self._moves = moves
        self._repointed = True

    def _unrepoint(self) -> None:
        """Reverse :meth:`_repoint` under the original cIDs (rollback).

        Safe because RESUME never ran: the destination was frozen the
        whole time, so it produced no bytes and armed no reads — the
        source resumes exactly the state it froze with.
        """
        ce, src, dst = self.ce, self.src, self.dst
        if self._whole:
            src.take_over_ip(dst)
            src.nic.draining = False
            dst.nic.draining = True
        move_tickets = getattr(dst.stack, "move_tickets", None)
        if move_tickets is not None:
            move_tickets(src.stack, None if self._whole else self.tenant)
        moved_conns: set = set()
        for move in reversed(self._moves):
            vm_id, fd = move["vm_id"], move["fd"]
            old_cid, new_cid = move["old_cid"], move["new_cid"]
            backend = dst.servicelib.remove_backend(new_cid)
            ce.table.repoint(vm_id, fd, src.nsm_id, old_cid)
            # The forward re-point aliased (src, old_cid); restoring the
            # live mapping under that same key would otherwise look like
            # two NSMs claiming one cID.  The destination-side alias
            # stays: it never emitted, but late errors forward safely.
            ce.table.drop_alias(src.nsm_id, old_cid)
            if backend is not None:
                _move_backend(backend, dst, src, old_cid, moved_conns)
        for vm_id in self._vm_ids:
            ce.rehome_tenant(vm_id, dst, src)
        self._moves = []
        self._repointed = False

    def _resume(self) -> None:
        self.resumed_at = self.sim.now
        self._resumed = True
        for vm_id in list(self.src.tenant_vm_ids) + self._vm_ids:
            attachment = self.ce._vms.get(vm_id)
            if attachment is None or attachment.job_pump is None:
                continue
            pump = attachment.job_pump
            pump.stopped = False
            pump.notify()
        self.dst.servicelib.thaw()
        self.src.servicelib.thaw()
        self._frozen = False

    def _commit(self, started: float) -> None:
        self._finish(started, committed=True, reason=None)
        if self._traced:
            self.tracer.count("migration.commits")
        if self._split_brain:
            self._start_zombie()

    def _rollback(self, reason: str, started: float) -> None:
        self._enter(MigrationPhase.ROLLBACK)
        if self._repointed:
            self._unrepoint()
        if self._frozen:
            self.resumed_at = self.sim.now
            for vm_id in self.src.tenant_vm_ids:
                attachment = self.ce._vms.get(vm_id)
                if attachment is None or attachment.job_pump is None:
                    continue
                pump = attachment.job_pump
                pump.stopped = False
                pump.notify()
            self.src.servicelib.thaw()
            self.dst.servicelib.thaw()
            self._frozen = False
        self._enter(MigrationPhase.ROLLED_BACK)
        self._finish(started, committed=False, reason=reason)
        if self._traced:
            self.tracer.count("migration.rollbacks")

    def _finish(self, started: float, committed: bool, reason) -> None:
        self._finished = True
        freeze = None
        if self.frozen_at is not None and self.resumed_at is not None:
            freeze = self.resumed_at - self.frozen_at
        self.record.update(
            committed=committed,
            rolled_back=not committed,
            reason=reason,
            finished_at=self.sim.now,
            frozen_at=self.frozen_at,
            resumed_at=self.resumed_at,
            freeze_seconds=freeze,
            connections_moved=len(self.snapshots) if committed else 0,
            bytes_transferred=self.bytes_transferred,
            drain_rounds=self.drain_rounds,
            phases=list(self.phase_log),
            snapshots=list(self.snapshots),
            # Live list, not a copy: a split-brain source is fenced *after*
            # COMMIT, and the record must show it.
            fenced_sources=self.fenced_source_records,
            late_aborts=list(self.late_aborts),
        )
        self.ce.migrations.append(self.record)
        if self._traced:
            if freeze is not None:
                self.tracer.histogram("migration.freeze_ns").record(freeze * 1e9)
            self.tracer.record_span(
                "migration", "coreengine", start=started, finish=self.sim.now
            )

    # ------------------------------------------------------------- split brain --
    def _start_zombie(self) -> None:
        self.sim.process(
            self._zombie_loop(),
            name=f"migration{self.migration_id}.zombie.{self.src.name}",
        )

    def _zombie_loop(self):
        """The presumed-dead source emits under its retired cID space.

        Fabricates receive-path DATA nqes with the pre-migration cIDs
        (payload-free: the 'bytes' are fiction — ``flow_uid`` stays
        unset so the invariant checker attributes nothing to real
        flows).  CoreEngine's alias check identifies them as stale and
        fences the source; the loop stops once fenced.
        """
        ce, src = self.ce, self.src
        queues = ce._nsms.get(src.nsm_id)
        if queues is None or not self._moves and not self.snapshots:
            return
        cids = [snap["src_cid"] for snap in self.snapshots] or [0]
        while src.nsm_id not in ce._fenced_nsm_ids:
            for cid in cids[:2]:
                queues.receive.offer(
                    Nqe(op=NqeOp.DATA, nsm_id=src.nsm_id, cid=cid)
                )
                self.zombie_nqes += 1
            yield self.sim.timeout(SETTLE_STEP)
        # CoreEngine clears its coordinator handle at COMMIT, so the
        # fence notification cannot reach us by callback — adopt the
        # CE-side records for our source instead.
        for fence in ce.fenced_sources:
            if fence.get("nsm") == src.name and fence not in self.fenced_source_records:
                self.fenced_source_records.append(fence)
