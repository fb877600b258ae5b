"""ServiceLib: the NSM-side half of NetKernel (§3.2, §4.1).

ServiceLib consumes the NSM job queue, executes each operation against the
NSM's network stack through its socket backend, and pushes results into
the NSM completion queue.  When the stack delivers data or accepts a new
connection, ServiceLib's callbacks (``nk_new_data_callback`` /
``nk_new_accept_callback`` in the prototype) copy data into the tenant's
huge pages and push DATA / ACCEPT_EVENT nqes into the NSM receive queue.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Dict, Optional

from ..api.errors import SocketError
from .. import cc as cc_base  # the family-neutral registry shim
from ..net import Endpoint
from ..obs import runtime as obs_runtime
from ..sim import NANOS, Simulator
from ..tcp import Listener, TcpConnection
from .hugepages import HugePageRegion
from .nqe import Nqe, NqeOp, NqeStatus
from .nsm import NSM
from .qos import TokenBucket
from .queues import NotifyMode, NqeRing, RingPump, soft_interrupt

__all__ = ["ServiceLib", "SERVICELIB_OP_NS"]

#: CPU cost of ServiceLib handling one nqe (dequeue, dispatch, backend call).
SERVICELIB_OP_NS = 300.0


#: Stable flow identities for the invariant checker: a backend keeps its
#: ``uid`` across a migration even though its cID changes.
_backend_uids = count(1)


class _Backend:
    """ServiceLib's per-cID socket state.

    ``owner`` is the ServiceLib currently serving this backend.  Armed
    receive callbacks capture the ServiceLib they were armed on; when a
    live migration moves the backend, those stale closures delegate to
    ``owner`` so in-flight data lands on the destination NSM instead of
    being emitted under the source's retired <NSM ID, cID>.
    """

    __slots__ = (
        "cid", "region", "cc_name", "bound_port", "conn", "listener",
        "owner", "uid", "rx_seq", "rx_stalled",
    )

    def __init__(
        self, cid: int, region: HugePageRegion, owner: "ServiceLib" = None
    ) -> None:
        self.cid = cid
        self.region = region
        self.cc_name: Optional[str] = None
        self.bound_port: Optional[int] = None
        self.conn: Optional[TcpConnection] = None
        self.listener: Optional[Listener] = None
        self.owner = owner
        self.uid = next(_backend_uids)
        #: Monotonic per-flow DATA sequence (stamped on every DATA nqe;
        #: the invariant checker asserts no-dup/no-reorder from it).
        self.rx_seq = 0
        #: A readiness callback fired while the owner was frozen; the
        #: thaw re-arms exactly these (the rest are still armed).
        self.rx_stalled = False


def _end_span(span) -> None:
    if span is not None:
        span.end()


class ServiceLib:
    """The per-NSM service library driving the NSM's network stack."""

    def __init__(
        self,
        sim: Simulator,
        nsm: NSM,
        job_queue: NqeRing,
        completion_queue: NqeRing,
        receive_queue: NqeRing,
        allocate_cid: Callable[[], int],
        rate_caps: Dict[int, float],
        notify_mode: NotifyMode = NotifyMode.POLLING,
        dedup: bool = False,
    ) -> None:
        self.sim = sim
        self.nsm = nsm
        self.job_queue = job_queue
        self.completion_queue = completion_queue
        self.receive_queue = receive_queue
        self.allocate_cid = allocate_cid
        self.workers = nsm.spec.servicelib_workers
        self.core = nsm.cores[0]
        #: What every job consumer charges per op.
        self.op_cost = SERVICELIB_OP_NS * nsm.form.cpu_multiplier * NANOS
        self.rx_chunk = nsm.spec.rx_chunk_bytes
        self._backends: Dict[int, _Backend] = {}
        self.ops_handled = 0
        #: The simulator's fidelity controller, or None: it may size a
        #: connection's reads (FidelityController.rx_read_cap).
        self._fidelity = sim.fidelity
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        # --- fault tolerance ---------------------------------------------
        #: Crashed ServiceLibs stop consuming and producing; recovery is
        #: CoreEngine's heartbeat watchdog + failover.
        self.crashed = False
        #: Migration freeze: new receive reads stall (quiescing the
        #: per-connection state for snapshotting) while in-flight copy
        #: chains still deliver — dropping them would lose bytes the
        #: stack already consumed from its receive buffer.
        self.frozen = False
        #: Optional repro.faults.invariants checker observing this NSM's
        #: DATA emissions (None = zero-cost).
        self.invariants = None
        self._base_op_cost = self.op_cost
        #: The job ring's consumer; None under multi-queue, which runs its
        #: own classifier and shard loops.
        self._pump: Optional[RingPump] = None
        #: Retry dedup (on when GuestLib op timeouts are armed): bounded
        #: memory of recently executed tokens; a retried nqe whose original
        #: already executed is dropped instead of re-run.
        self._dedup = dedup
        self._seen_tokens: set = set()
        self._seen_order: deque = deque()
        # --- per-tenant egress caps (§5 QoS) -------------------------------
        #: vm_id -> bits/s, owned by CoreEngine and shared by every
        #: ServiceLib it creates, so a cap follows its tenant to whichever
        #: NSM serves it; the token buckets themselves are per NSM.
        self.rate_caps = rate_caps
        self._buckets: Dict[int, TokenBucket] = {}
        nsm.servicelib = self
        wake = soft_interrupt(notify_mode, nsm.form.cpu_multiplier)
        if self.workers == 1:
            if notify_mode is NotifyMode.POLLING:
                self.core.busy_poll = True
            self._pump = RingPump(
                job_queue, self.core, self.op_cost, self._dispatch,
                self._begin_op if self._traced else None,
                _end_span if self._traced else None,
                wake=wake, name=f"{nsm.name}.servicelib",
            )
        else:
            # Multi-queue mode (§5 future work): ops are sharded by cID so
            # each connection is always served by the same worker (RSS-style),
            # preserving per-connection op order while parallelizing across
            # cores.
            from ..sim import Store

            self._shards = [Store(sim) for _ in range(self.workers)]
            sim.process(self._classifier_loop(wake), name=f"{nsm.name}.sl-classify")
            for index in range(self.workers):
                worker_core = nsm.cores[index % len(nsm.cores)]
                if notify_mode is NotifyMode.POLLING:
                    worker_core.busy_poll = True
                sim.process(
                    self._shard_loop(index, worker_core),
                    name=f"{nsm.name}.servicelib[{index}]",
                )

    # ------------------------------------------------------------ job loop --
    def _classifier_loop(self, wake):
        """Move nqes from the shared ring into per-worker shards by cID,
        paying the soft-interrupt ``wake`` once per doorbell on the
        classifier's core."""
        while True:
            yield self.job_queue.wait_nonempty()
            if self.crashed:
                return
            if wake is not None:
                delay, cost = wake
                yield self.sim.timeout(delay)
                yield self.core.execute(cost)
            for nqe in self.job_queue.pop_batch():
                shard = (nqe.cid or 0) % self.workers
                self._shards[shard].try_put(nqe)

    def _shard_loop(self, index, core):
        """One worker: the same begin / charge / dispatch / end steps the
        ring pump runs, over this worker's shard."""
        store = self._shards[index]
        traced = self._traced
        while True:
            nqe = yield store.get()
            if self.crashed:
                return
            span = self._begin_op(nqe) if traced else None
            yield core.execute(self.op_cost)
            self._dispatch(nqe, span)
            _end_span(span)

    def _begin_op(self, nqe: Nqe):
        """Open the per-op span (covers the NSM-core charge + dispatch);
        wired in only when tracing is on."""
        self.tracer.count("servicelib.ops")
        if nqe.span is None:
            return None
        span = nqe.span.child(f"servicelib.{nqe.op.value}", "servicelib")
        if span is not None:
            span.cpu(self.op_cost / NANOS)
        return span

    #: op -> unbound handler; bound per call (avoids rebuilding the table —
    #: and seven bound methods — on every dispatched nqe).
    _OP_HANDLERS = {}  # populated after the class body

    # ------------------------------------------------------- fault tolerance --
    def crash(self) -> None:
        """Kill this ServiceLib: stop consuming jobs, stop delivering data.

        Idempotent.  In-flight copy chains may still fire once; their
        results are dropped by the ``crashed`` guards.  Everything else —
        surfacing errors to guests, replacing the NSM — happens upstream in
        CoreEngine, keyed off missed heartbeats.
        """
        if self.crashed:
            return
        self.crashed = True
        if self._pump is not None:
            self._pump.stop()
        if self._traced:
            self.tracer.count("servicelib.crashes")

    def set_degraded(self, factor: float) -> None:
        """Slow-down fault: scale the per-op cost by ``factor`` (1.0 heals)."""
        if factor <= 0:
            raise ValueError("degradation factor must be > 0")
        self.op_cost = self._base_op_cost * factor
        if self._pump is not None:
            self._pump.cost = self.op_cost

    def _dispatch(self, nqe: Nqe, span=None) -> None:
        """Execute one job nqe (the job consumers' ``handle`` hook)."""
        self.ops_handled += 1
        if self.crashed:
            chunk = nqe.data_desc
            if chunk is not None and not chunk.freed:
                chunk.free()
            return
        if self._dedup:
            token = nqe.token
            seen = self._seen_tokens
            if token in seen:
                # Retry whose original already executed (or a corrupted
                # ring's duplicate): drop it.  The shared huge-page chunk,
                # if any, is owned by the original's completion path.
                if self._traced:
                    self.tracer.count("servicelib.dup_ops")
                return
            seen.add(token)
            order = self._seen_order
            order.append(token)
            if len(order) > 4096:
                seen.discard(order.popleft())
        op = nqe.op
        if op is NqeOp.SEND:
            try:
                self._op_send(nqe, span)
            except SocketError as exc:
                self._complete_error(nqe, exc)
            return
        handler = self._OP_HANDLERS.get(op)
        if handler is None:
            self._complete_error(nqe, SocketError(f"bad op {nqe.op}"))
            return
        try:
            handler(self, nqe)
        except SocketError as exc:
            self._complete_error(nqe, exc)

    def _complete_ok(self, nqe: Nqe, result=None) -> None:
        self.completion_queue.offer(nqe.completion(NqeStatus.OK, result))

    def _complete_error(self, nqe: Nqe, exc: Exception) -> None:
        self.completion_queue.offer(nqe.completion(NqeStatus.ERROR, exc))

    def _backend(self, nqe: Nqe) -> _Backend:
        backend = self._backends.get(nqe.cid)
        if backend is None:
            raise SocketError(f"no backend socket for cid {nqe.cid}")
        return backend

    # ------------------------------------------------------------- operations --
    def _op_socket(self, nqe: Nqe) -> None:
        # args carries the tenant's huge-page region (mapped at VM boot).
        region: HugePageRegion = nqe.args
        self._backends[nqe.cid] = _Backend(nqe.cid, region, owner=self)
        # No completion: CoreEngine already answered the guest with an fd.

    def _op_bind(self, nqe: Nqe) -> None:
        backend = self._backend(nqe)
        backend.bound_port = int(nqe.args)
        self._complete_ok(nqe)

    def _op_listen(self, nqe: Nqe) -> None:
        backend = self._backend(nqe)
        if backend.bound_port is None:
            raise SocketError(f"cid {nqe.cid}: listen() before bind()")
        try:
            backend.listener = self.nsm.stack.listen(
                backend.bound_port,
                backlog=int(nqe.args or 128),
                congestion_control=backend.cc_name,
            )
        except RuntimeError as exc:
            raise SocketError(str(exc)) from None
        backend.listener.on_new_connection = (
            lambda conn, b=backend: self._on_accept(b, conn)
        )
        self._complete_ok(nqe)

    def _op_connect(self, nqe: Nqe) -> None:
        backend = self._backend(nqe)
        remote: Endpoint = nqe.args
        kwargs = {}
        if getattr(self.nsm.stack, "wants_tenant", False):
            # Tenant-defined stacks (repro.quic) key per-tenant state —
            # 0-RTT resumption tickets, connection reuse — off the VM id.
            kwargs["tenant"] = nqe.vm_id
        conn = self.nsm.stack.connect(
            remote,
            congestion_control=backend.cc_name,
            local_port=backend.bound_port,
            **kwargs,
        )
        backend.conn = conn

        def finish(ev):
            if ev.ok:
                self._start_rx(backend)
                self._complete_ok(nqe)
            else:
                self._complete_error(nqe, ev.value)

        conn.established.add_callback(finish)

    def _op_send(self, nqe: Nqe, span=None) -> None:
        backend = self._backend(nqe)
        if backend.conn is None:
            raise SocketError(f"cid {nqe.cid} not connected")
        chunk = nqe.data_desc
        nbytes = chunk.size
        if self._traced:
            self.tracer.count("servicelib.tx_bytes", nbytes)
            # Let the TCP layer parent its segment spans under this send op
            # (falling back to the op's root if sampling dropped the child).
            self.tracer.bind_flow(
                id(backend.conn), span if span is not None else nqe.span
            )

        bucket = self._rate_bucket(nqe.vm_id) if self.rate_caps else None
        if bucket is None:
            backend.conn.send_call(nbytes, self._send_accepted, nqe, chunk, nbytes)
        else:
            # Egress QoS: wait for rate tokens before entering the stack;
            # the delayed completion backpressures GuestLib naturally.
            bucket.take(nbytes).add_callback(
                lambda _ev: backend.conn.send_call(
                    nbytes, self._send_accepted, nqe, chunk, nbytes
                )
            )

    def _send_accepted(self, nqe: Nqe, chunk, nbytes: int) -> None:
        # The stack has buffered the data; huge-page chunk is reusable.
        # (Guarded: a guest-side op timeout or ring-corruption cleanup
        # may already have released it.)
        if not chunk.freed:
            chunk.free()
        self._complete_ok(nqe, nbytes)

    def _rate_bucket(self, vm_id: Optional[int]) -> Optional[TokenBucket]:
        """The tenant's token bucket on this NSM (None when uncapped)."""
        rate = self.rate_caps.get(vm_id)
        if rate is None:
            return None
        bucket = self._buckets.get(vm_id)
        if bucket is None:
            bucket = self._buckets[vm_id] = TokenBucket(self.sim, rate)
        return bucket

    def _op_close(self, nqe: Nqe) -> None:
        """close(2) semantics: acknowledge as soon as teardown is initiated.

        The connection drains its send buffer, exchanges FINs and serves
        TIME_WAIT in the background; the tenant's fd is gone immediately.
        """
        backend = self._backends.pop(nqe.cid, None)
        if backend is None:
            self._complete_ok(nqe)
            return
        if backend.listener is not None:
            backend.listener.close()
        elif backend.conn is not None:
            backend.conn.start_close()
        self._complete_ok(nqe)

    def _op_heartbeat(self, nqe: Nqe) -> None:
        """Liveness probe from CoreEngine: answer immediately.

        The completion carries ``args=HEARTBEAT`` and is intercepted by
        CoreEngine's completion mover; a crashed ServiceLib never gets
        here, which is exactly the point.
        """
        self._complete_ok(nqe)

    def _op_drain_marker(self, nqe: Nqe) -> None:
        """Migration drain marker: echo ``(migration_id, seq)`` back.

        Because the job ring and this ServiceLib are FIFO, the marker's
        completion proves every job nqe enqueued ahead of it has been
        fully executed — the coordinator counts marker completions to
        know the frozen pipeline is empty.  Intercepted by CoreEngine's
        completion mover (``args=DRAIN_MARKER``), never forwarded to VMs.
        """
        self._complete_ok(nqe, nqe.args)

    def _op_setsockopt(self, nqe: Nqe) -> None:
        backend = self._backend(nqe)
        option, value = nqe.args
        if option != "congestion_control":
            raise SocketError(f"unknown option {option!r}")
        if value not in cc_base.available():
            raise SocketError(f"provider does not offer CC {value!r}")
        backend.cc_name = value
        self._complete_ok(nqe)

    # ------------------------------------------------------------- migration --
    def freeze(self) -> None:
        """Stop starting new receive reads (migration FREEZE phase)."""
        self.frozen = True

    def thaw(self) -> None:
        """Resume receive service for every backend this NSM now owns.

        Safe on a never-frozen destination: only backends whose readiness
        callback fired into a frozen source (``rx_stalled``) are re-armed;
        the rest still hold their original armed callback, which
        delegates to the new owner when it fires.
        """
        self.frozen = False
        for backend in self._backends.values():
            if backend.rx_stalled:
                backend.rx_stalled = False
                if backend.conn is not None:
                    self._start_rx(backend)

    def remove_backend(self, cid: int) -> Optional[_Backend]:
        """Detach a backend without closing its connection (migration)."""
        return self._backends.pop(cid, None)

    def adopt_backend(self, backend: _Backend, cid: int) -> None:
        """Take ownership of a migrated backend under a new cID.

        Re-keys the backend, re-homes stale armed callbacks via ``owner``,
        and re-binds listener accept callbacks so connections accepted
        after the move are allocated cIDs from *this* NSM's space.
        """
        backend.cid = cid
        backend.owner = self
        self._backends[cid] = backend
        if backend.listener is not None:
            backend.listener.on_new_connection = (
                lambda conn, b=backend: self._on_accept(b, conn)
            )

    def backend_of(self, cid: int) -> Optional[_Backend]:
        return self._backends.get(cid)

    # ------------------------------------------------- stack-driven callbacks --
    def _on_accept(self, listen_backend: _Backend, conn: TcpConnection) -> None:
        """nk_new_accept_callback: a child connection finished its handshake."""
        cid = self.allocate_cid()
        child = _Backend(cid, listen_backend.region, owner=self)
        child.conn = conn
        self._backends[cid] = child
        self._start_rx(child)
        span = None
        if self._traced:
            span = self.tracer.span("servicelib.accept_event", "servicelib")
            self.tracer.count("servicelib.accepts")
        self.receive_queue.offer(
            Nqe(
                NqeOp.ACCEPT_EVENT,
                nsm_id=self.nsm.nsm_id,
                cid=listen_backend.cid,
                result=cid,  # the new connection's cID
                span=span,
            )
        )

    # nk_new_data_callback, as a chain of direct calls: readiness (a bare
    # queue entry where the readiness event would have fired) -> read +
    # huge-page stage (chained memcpy charge) -> DATA nqe -> re-arm.
    # Sequencing matches the old per-cID generator loop exactly — the next
    # read happens only after the previous chunk's copy has been charged
    # and its nqe delivered — without a process frame per chunk.  Only the
    # rare blocking cases (region exhausted, receive ring full) fall back
    # to a short-lived generator.
    def _start_rx(self, backend: _Backend) -> None:
        backend.conn.watch_readable((self._rx_ready, (backend,)))

    def _rx_ready(self, backend: _Backend) -> None:
        owner = backend.owner
        if owner is not None and owner is not self:
            # The backend migrated after this callback was armed: continue
            # on the NSM that owns it now (its queues, its <NSM ID, cID>).
            owner._rx_ready(backend)
            return
        if self.crashed:
            return  # dead NSMs deliver nothing (and stop re-arming)
        if self.frozen:
            backend.rx_stalled = True  # thaw() re-arms
            return
        conn = backend.conn
        cap = self.rx_chunk
        if self._fidelity is not None:
            cap = self._fidelity.rx_read_cap(conn, cap, backend.region.capacity)
        taken = conn.recv_buffer.try_read(cap)
        if taken is None:
            conn.watch_readable((self._rx_ready, (backend,)))
            return
        if taken == 0:  # EOF: stream fully delivered
            self.receive_queue.offer(
                Nqe(NqeOp.EOF, nsm_id=self.nsm.nsm_id, cid=backend.cid)
            )
            if self.invariants is not None:
                self.invariants.on_eof(backend.uid)
            return
        root = stage = None
        if self._traced:
            tracer = self.tracer
            tracer.count("servicelib.rx_bytes", taken)
            root = tracer.span("servicelib.rx_data", "servicelib")
            if root is not None:
                root.annotate(bytes=taken)
                stage = root.child("hugepage.stage", "hugepage")
        region = backend.region
        if taken <= region.free_bytes:
            chunk = region.try_alloc(taken)
            region.copy_call(
                self.core, taken, self._rx_staged, backend, chunk, root, stage
            )
        else:  # region exhausted: block until space frees
            self.sim.process(self._rx_alloc_slow(backend, taken, root, stage))

    def _rx_alloc_slow(self, backend: _Backend, taken: int, root, stage):
        chunk = yield backend.region.alloc(taken)
        yield backend.region.copy(self.core, taken)
        self._rx_staged(backend, chunk, root, stage)

    def _rx_staged(self, backend: _Backend, chunk, root, stage) -> None:
        owner = backend.owner
        if owner is not None and owner is not self:
            # Copy chain straddled a migration: deliver on the new owner.
            owner._rx_staged(backend, chunk, root, stage)
            return
        if self.crashed:  # copy chain outlived the crash: drop the data
            if not chunk.freed:
                chunk.free()
            return
        if stage is not None:
            stage.end()
        nqe = Nqe(
            NqeOp.DATA,
            nsm_id=self.nsm.nsm_id,
            cid=backend.cid,
            data_desc=chunk,
            span=root,
        )
        nqe.flow_uid = backend.uid
        nqe.rx_seq = backend.rx_seq
        backend.rx_seq += 1
        if self.invariants is not None:
            self.invariants.on_data_emitted(backend.uid, nqe.rx_seq, chunk.size)
        ring = self.receive_queue
        if ring.is_full:  # backpressure: block delivery, not the ring
            self.sim.process(self._rx_push_slow(backend, nqe))
            return
        ring.offer(nqe)
        backend.conn.watch_readable((self._rx_ready, (backend,)))

    def _rx_push_slow(self, backend: _Backend, nqe: Nqe):
        yield self.receive_queue.push(nqe)
        self._start_rx(backend)


ServiceLib._OP_HANDLERS = {
    NqeOp.SOCKET: ServiceLib._op_socket,
    NqeOp.BIND: ServiceLib._op_bind,
    NqeOp.LISTEN: ServiceLib._op_listen,
    NqeOp.CONNECT: ServiceLib._op_connect,
    NqeOp.CLOSE: ServiceLib._op_close,
    NqeOp.SETSOCKOPT: ServiceLib._op_setsockopt,
    NqeOp.HEARTBEAT: ServiceLib._op_heartbeat,
    NqeOp.DRAIN_MARKER: ServiceLib._op_drain_marker,
}
