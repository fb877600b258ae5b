"""GuestLib: the guest-side half of NetKernel (§3.2, §4.1).

GuestLib intercepts the socket API inside the tenant VM (the prototype
uses LD_PRELOAD over glibc) and turns every call into an nqe in the VM job
queue.  Results come back through the VM completion queue; received data
and accept events arrive through the VM receive queue.  Bulk data moves
through the per-(VM, NSM) huge pages with calibrated memcpy costs.

GuestLib implements :class:`~repro.api.socket_api.SocketApi`, so tenant
applications are byte-for-byte identical to the legacy in-kernel path —
the paper's central compatibility claim.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Optional, Tuple

from ..api.errors import (
    BadFileDescriptor,
    ConnectionReset,
    InvalidSocketState,
    OperationTimedOut,
    SocketError,
    wrap_transport_error,
)
from ..host.cpu import Core
from ..net import Endpoint
from ..obs import runtime as obs_runtime
from ..sim import Event, NANOS, Simulator
from .hugepages import HugeChunk, HugePageRegion
from .nqe import Nqe, NqeOp, NqeStatus
from .queues import NotifyMode, NqeRing, RingPump, soft_interrupt

__all__ = ["GuestLib", "GUESTLIB_OP_NS"]

#: CPU cost of GuestLib intercepting one call / handling one nqe.
GUESTLIB_OP_NS = 200.0
#: Fault tolerance: an op that times out is re-issued up to ``OP_RETRIES``
#: times, each deadline ``OP_BACKOFF`` times the previous one, then fails
#: with ETIMEDOUT.
OP_RETRIES = 2
OP_BACKOFF = 2.0


class _GuestSocket:
    """GuestLib's per-fd state."""

    __slots__ = (
        "fd",
        "connected",
        "listening",
        "eof",
        "rx_chunks",
        "rx_available",
        "readers",
        "watchers",
        "accept_ready",
        "acceptors",
        "closed",
        "reset",
    )

    def __init__(self, fd: int, connected: bool = False) -> None:
        self.fd = fd
        self.connected = connected
        self.listening = False
        self.eof = False
        self.rx_chunks: Deque[HugeChunk] = deque()
        self.rx_available = 0
        self.readers: Deque[Tuple[int, Event]] = deque()
        self.watchers: list = []  # epoll waiters (see Epoll)
        self.accept_ready: Deque[int] = deque()
        self.acceptors: Deque[Event] = deque()
        self.closed = False
        #: The backend connection died (NSM failover); ops raise ECONNRESET.
        self.reset = False

    @property
    def readable(self) -> bool:
        if self.reset:
            return True  # polling a reset socket yields the error promptly
        if self.listening:
            return bool(self.accept_ready)
        return self.rx_available > 0 or self.eof


class GuestLib:
    """The NetKernel socket API inside a tenant VM."""

    def __init__(
        self,
        sim: Simulator,
        vm_id: int,
        nsm_ip: str,
        core: Core,
        job_queue: NqeRing,
        completion_queue: NqeRing,
        receive_queue: NqeRing,
        region: HugePageRegion,
        notify_mode: NotifyMode = NotifyMode.POLLING,
        inline_rx_copy: bool = False,
        op_timeout: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.vm_id = vm_id
        #: The VM's network identity is its NSM's address (§2.2).
        self.ip = nsm_ip
        self.core = core
        self.job_queue = job_queue
        self.completion_queue = completion_queue
        self.receive_queue = receive_queue
        self.region = region
        #: When True, the receive consumer copies each DATA chunk out of
        #: the huge pages *inline* (single-threaded GuestLib, as in the
        #: prototype's polling design) — subsequent nqes wait behind the
        #: copy, which is the §3.2 head-of-line-blocking regime.
        self.inline_rx_copy = inline_rx_copy
        self._sockets: Dict[int, _GuestSocket] = {}
        self._pending: Dict[int, object] = {}  # token -> waiter (_settle)
        # --- fault tolerance: op timeouts with bounded retry + backoff ---
        #: ``None`` disables the machinery entirely (bit-identical default:
        #: no timers are armed, no bookkeeping beyond ``_pending``).
        self._op_timeout = op_timeout
        self._ft = op_timeout is not None
        self._pending_nqes: Dict[int, Nqe] = {}  # token -> request (ft only)
        self.op_timeouts = 0
        self.op_retries_sent = 0
        self.resets_seen = 0
        self.calls_issued = 0
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        # --- queue consumers ----------------------------------------------
        cost = GUESTLIB_OP_NS * NANOS
        wake = soft_interrupt(notify_mode)
        RingPump(
            completion_queue, core, cost, self._handle_completion,
            wake=wake, name=f"vm{vm_id}.guestlib.cq",
        )
        #: The receive consumer.  Event-driven, descriptor handling is
        #: synchronous and reader copies chain as direct calls; inline
        #: copies block it by design (§3.2 HoL), so it polls in a loop.
        self._rx = RingPump(
            receive_queue, core, cost, self._handle_receive,
            self._begin_deliver if self._traced else None,
            self._end_deliver if self._traced else None,
            wake=wake, blocking=inline_rx_copy, name=f"vm{vm_id}.guestlib.rq",
        )

    # ---------------------------------------------------------------- helpers --
    def _get(self, fd: int) -> _GuestSocket:
        try:
            return self._sockets[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd}") from None

    def _issue(self, nqe: Nqe, span=None, waiter=None):
        """Push a request nqe; returns the waiter (a fresh Event unless
        given) its completion settles (:meth:`_settle`)."""
        self.calls_issued += 1
        if self._traced:
            tracer = self.tracer
            # Root span for the whole call (issue -> completion); it rides
            # the nqe so every downstream layer hangs its child off it.
            if span is None:
                span = tracer.span(
                    f"guestlib.{nqe.op.value}", "guestlib", tenant=self.vm_id
                )
            if span is not None:
                span.cpu(GUESTLIB_OP_NS)
                nqe.span = span
            tracer.count("guestlib.ops")
        if waiter is None:
            waiter = Event(self.sim)
        self._pending[nqe.token] = waiter
        if self._ft:
            self._pending_nqes[nqe.token] = nqe
            self.sim.schedule_call(self._op_timeout, self._op_deadline, nqe, 0)
        self.core.execute_call(GUESTLIB_OP_NS * NANOS, self.job_queue.offer, nqe)
        return waiter

    def _settle(self, waiter, ok: bool, value) -> None:
        """Resolve a waiter with ``value`` (an exception unless ``ok``).

        An Event fires.  :meth:`send`'s hand-off ``(api_event, nbytes)``
        becomes the bare entry ``api_event.succeed(nbytes)`` (or ``.fail``)
        where an intermediate Event would have fired to make that call.
        """
        if waiter.__class__ is tuple:
            api_event, nbytes = waiter
            if ok:
                self.sim.wake((api_event.succeed, (nbytes,)))
            else:
                self.sim.wake((api_event.fail, (value,)))
        elif ok:
            waiter.succeed(value)
        else:
            waiter.fail(value)

    def _op_deadline(self, nqe: Nqe, attempt: int) -> None:
        """An armed op timer fired: retry with backoff, or fail ETIMEDOUT.

        Timers charge no simulated CPU; with no faults every op completes
        first and this is a no-op, so results stay bit-identical.  Retries
        reuse the token — the FIFO rings deliver the original first, and
        ServiceLib's token dedup drops the duplicate execution.
        """
        token = nqe.token
        waiter = self._pending.get(token)
        if waiter is None:
            return  # completed (or reset) in time
        if attempt >= OP_RETRIES:
            self._pending.pop(token, None)
            self._pending_nqes.pop(token, None)
            chunk = nqe.data_desc
            if chunk is not None and not chunk.freed:
                chunk.free()  # SEND payload nobody will deliver
            self.op_timeouts += 1
            if self._traced:
                self.tracer.count("guestlib.op_timeouts")
            self._settle(waiter, False, OperationTimedOut(
                f"{nqe.op.value} on fd {nqe.fd} timed out "
                f"after {attempt + 1} attempt(s)"
            ))
            return
        retry = replace(nqe)  # a copy: the original may still be in flight
        self.op_retries_sent += 1
        if self._traced:
            self.tracer.count("guestlib.op_retries")
        self.core.execute_call(GUESTLIB_OP_NS * NANOS, self.job_queue.offer, retry)
        self.sim.schedule_call(
            self._op_timeout * (OP_BACKOFF ** (attempt + 1)),
            self._op_deadline,
            nqe,
            attempt + 1,
        )

    # ---------------------------------------------------------------- SocketApi --
    def socket(self) -> Event:
        nqe = Nqe(op=NqeOp.SOCKET, vm_id=self.vm_id)
        result = self._issue(nqe)
        api_event = Event(self.sim)

        def finish(ev: Event) -> None:
            if not ev.ok:
                api_event.fail(ev.value)
                return
            fd = ev.value
            self._sockets[fd] = _GuestSocket(fd)
            api_event.succeed(fd)

        result.add_callback(finish)
        return api_event

    def bind(self, fd: int, port: int) -> Event:
        self._get(fd)
        return self._issue(Nqe(op=NqeOp.BIND, vm_id=self.vm_id, fd=fd, args=port))

    def listen(self, fd: int, backlog: int = 128) -> Event:
        sock = self._get(fd)
        result = self._issue(
            Nqe(op=NqeOp.LISTEN, vm_id=self.vm_id, fd=fd, args=backlog)
        )
        result.add_callback(
            lambda ev: setattr(sock, "listening", True) if ev.ok else None
        )
        return result

    def accept(self, fd: int) -> Event:
        sock = self._get(fd)
        event = Event(self.sim)
        if sock.reset:
            event.fail(ConnectionReset(f"fd {fd}: backend listener reset"))
            return event
        if sock.accept_ready:
            event.succeed(sock.accept_ready.popleft())
        else:
            sock.acceptors.append(event)
        return event

    def connect(self, fd: int, remote: Endpoint) -> Event:
        sock = self._get(fd)
        if sock.reset:
            raise ConnectionReset(f"fd {fd}: backend connection reset")
        if sock.connected:
            raise InvalidSocketState(f"fd {fd} already connected")
        result = self._issue(
            Nqe(op=NqeOp.CONNECT, vm_id=self.vm_id, fd=fd, args=remote)
        )
        result.add_callback(
            lambda ev: setattr(sock, "connected", True) if ev.ok else None
        )
        return result

    def send(self, fd: int, nbytes: int) -> Event:
        # Stage data into the shared huge pages (copy cost on the VM core),
        # then describe it with a SEND nqe.  The common (space available)
        # path is a single chained direct call — no process frame; only an
        # exhausted region falls back to a blocking generator.
        sock = self._get(fd)
        if sock.closed:
            raise InvalidSocketState(f"fd {fd} is closed")
        if sock.reset:
            raise ConnectionReset(f"fd {fd}: backend connection reset")
        api_event = Event(self.sim)
        root = stage = None
        if self._traced:
            tracer = self.tracer
            root = tracer.span("guestlib.send", "guestlib", tenant=self.vm_id)
            tracer.count("guestlib.tx_bytes", nbytes)
            if root is not None:
                root.annotate(bytes=nbytes)
                stage = root.child("hugepage.stage", "hugepage")
        region = self.region
        if nbytes <= region.free_bytes:
            chunk = region.try_alloc(nbytes)
            region.copy_call(
                self.core, nbytes, self._send_staged,
                sock, nbytes, chunk, api_event, root, stage,
            )
        else:  # region exhausted: block until space frees
            self.sim.process(self._send_proc(sock, nbytes, api_event, root, stage))
        return api_event

    def _send_proc(self, sock: _GuestSocket, nbytes: int, api_event: Event, root, stage):
        chunk = yield self.region.alloc(nbytes)
        yield self.region.copy(self.core, nbytes)
        self._send_staged(sock, nbytes, chunk, api_event, root, stage)

    def _send_staged(
        self, sock: _GuestSocket, nbytes: int, chunk, api_event: Event, root, stage
    ) -> None:
        if stage is not None:
            stage.end()
        self._issue(
            Nqe(op=NqeOp.SEND, vm_id=self.vm_id, fd=sock.fd, data_desc=chunk),
            span=root,
            waiter=(api_event, nbytes),
        )

    def recv(self, fd: int, max_bytes: int) -> Event:
        sock = self._get(fd)
        if max_bytes <= 0:
            raise ValueError("recv size must be positive")
        event = Event(self.sim)
        if sock.reset and sock.rx_available == 0:
            # Buffered data (if any) is still delivered; past it, the dead
            # backend surfaces as ECONNRESET rather than a silent hang.
            event.fail(ConnectionReset(f"fd {fd}: backend connection reset"))
            return event
        sock.readers.append((max_bytes, event))
        self._drain_readers(sock)
        return event

    def close(self, fd: int) -> Event:
        sock = self._get(fd)
        sock.closed = True
        if sock.reset:
            # The backend mapping died with the old NSM; nothing to tell
            # the provider — release the local fd immediately.
            self._sockets.pop(fd, None)
            event = Event(self.sim)
            event.succeed()
            return event
        result = self._issue(Nqe(op=NqeOp.CLOSE, vm_id=self.vm_id, fd=fd))
        result.add_callback(lambda _ev: self._sockets.pop(fd, None))
        return result

    def set_congestion_control(self, fd: int, name: str) -> None:
        """Fire-and-forget setsockopt; errors surface on connect/listen.

        A synchronous variant is available as :meth:`setsockopt_event` for
        callers that want to observe the provider's answer.
        """
        self.setsockopt_event(fd, name)

    def setsockopt_event(self, fd: int, name: str) -> Event:
        self._get(fd)
        return self._issue(
            Nqe(
                op=NqeOp.SETSOCKOPT,
                vm_id=self.vm_id,
                fd=fd,
                args=("congestion_control", name),
            )
        )

    # ------------------------------------------------------------- readiness --
    def watch_readable(self, fd: int, waiter) -> None:
        sock = self._get(fd)
        if sock.readable:
            waiter.succeed()
        else:
            sock.watchers.append(waiter)

    def readable_now(self, fd: int) -> bool:
        return self._get(fd).readable

    # --------------------------------------------------------- queue consumers --
    def _handle_completion(self, nqe: Nqe, _token) -> None:
        if nqe.span is not None:
            nqe.span.cpu(GUESTLIB_OP_NS).end()
        waiter = self._pending.pop(nqe.token, None)
        if waiter is None:
            return  # completion for a forgotten (timed-out/duplicated) call
        if self._ft:
            self._pending_nqes.pop(nqe.token, None)
        if nqe.status is NqeStatus.OK:
            self._settle(waiter, True, nqe.result if nqe.result is not None else nqe.fd)
        else:
            error = nqe.result
            if not isinstance(error, BaseException):
                error = SocketError(str(error))
            self._settle(waiter, False, wrap_transport_error(error))

    def _begin_deliver(self, nqe: Nqe):
        """Open the per-nqe delivery span (traced runs only)."""
        span = nqe.span
        if span is None:
            return None
        deliver = span.child("guestlib.deliver", "guestlib")
        if deliver is not None:
            deliver.cpu(GUESTLIB_OP_NS)
        return deliver, span

    def _end_deliver(self, token) -> None:
        if token is None:
            return
        deliver, span = token
        if deliver is not None:
            deliver.end()
        span.end()

    def _handle_receive(self, nqe: Nqe, _token):
        """Handle one receive-ring nqe; the descriptor handling itself
        (charged by the consumer) never blocks.

        Returns ``None``, or a generator where bulk data is copied while
        the consumer waits: the inline copy out of the huge pages, and —
        under the poll-loop drive — the waiting readers' copies.  Those
        are real per-byte work, charged where the data moves.
        """
        sock = self._sockets.get(nqe.fd)
        op = nqe.op
        chunk = nqe.data_desc
        if sock is None:
            if chunk is not None:
                chunk.free()
            return None
        if op is NqeOp.DATA:
            if self._traced:
                self.tracer.count("guestlib.rx_bytes", chunk.size)
            if self.inline_rx_copy:
                return self._receive_inline(sock, chunk)
            sock.rx_chunks.append([chunk, chunk.size])
            sock.rx_available += chunk.size
        elif op is NqeOp.EOF:
            sock.eof = True
        elif op is NqeOp.RESET:
            self._reset_socket(sock)
        elif op is NqeOp.ACCEPT_EVENT:
            child_fd = nqe.result
            self._sockets[child_fd] = _GuestSocket(child_fd, connected=True)
            if sock.acceptors:
                sock.acceptors.popleft().succeed(child_fd)
            else:
                sock.accept_ready.append(child_fd)
        if sock.readers:  # data or EOF for a socket someone is reading
            if not self._rx.event_driven:
                return self._deliver_blocking(sock)
            self._drain_readers_fast(sock)
        self._wake_watchers(sock)
        return None

    def _receive_inline(self, sock: _GuestSocket, chunk: HugeChunk):
        yield self.region.copy(self.core, chunk.size)
        chunk.eof = True  # marker: already copied out
        sock.rx_chunks.append([chunk, chunk.size])
        sock.rx_available += chunk.size
        yield from self._deliver_blocking(sock)

    def _deliver_blocking(self, sock: _GuestSocket):
        yield from self._drain_readers_gen(sock)
        self._wake_watchers(sock)

    def _reset_socket(self, sock: _GuestSocket) -> None:
        """The backend connection died with its NSM (failover).

        Waiting readers/acceptors and in-flight ops on the fd fail with
        ECONNRESET; buffered rx data stays readable; watchers wake (the
        socket is "readable": polling it yields the error).
        """
        if sock.reset:
            return
        sock.reset = True
        sock.eof = True
        sock.connected = False
        self.resets_seen += 1
        if self._traced:
            self.tracer.count("guestlib.resets")
        while sock.readers:
            _max_bytes, event = sock.readers.popleft()
            event.fail(
                ConnectionReset(f"fd {sock.fd}: backend connection reset")
            )
        while sock.acceptors:
            sock.acceptors.popleft().fail(
                ConnectionReset(f"fd {sock.fd}: backend listener reset")
            )
        if self._ft:
            for token, nqe in list(self._pending_nqes.items()):
                if nqe.fd != sock.fd:
                    continue
                waiter = self._pending.pop(token, None)
                self._pending_nqes.pop(token, None)
                chunk = nqe.data_desc
                if chunk is not None and not chunk.freed:
                    chunk.free()
                if waiter is not None:
                    self._settle(waiter, False, ConnectionReset(
                        f"{nqe.op.value} on fd {sock.fd}: "
                        "backend connection reset"
                    ))
        self._wake_watchers(sock)

    def _wake_watchers(self, sock: _GuestSocket) -> None:
        if sock.watchers and sock.readable:
            watchers, sock.watchers = sock.watchers, []
            for watcher in watchers:
                watcher.succeed()

    # -- reader satisfaction (copies data out of huge pages) -----------------
    def _drain_readers(self, sock: _GuestSocket) -> None:
        if sock.readers and (sock.rx_available > 0 or sock.eof):
            if self._rx.event_driven:
                self._drain_readers_fast(sock)
            else:
                self.sim.process(self._drain_readers_gen(sock))

    def _take(self, sock: _GuestSocket, max_bytes: int) -> int:
        """Consume up to ``max_bytes`` of buffered rx data.

        Chunks may be consumed partially; a chunk's huge-page bytes are
        released once its last byte has been read out.
        """
        taken = 0
        rx_chunks = sock.rx_chunks
        while rx_chunks and taken < max_bytes:
            entry = rx_chunks[0]  # [chunk, bytes remaining]
            take = min(entry[1], max_bytes - taken)
            entry[1] -= take
            taken += take
            if entry[1] == 0:
                rx_chunks.popleft()
                entry[0].free()
        sock.rx_available -= taken
        return taken

    def _copy_span(self):
        if self._traced:
            return self.tracer.span("guestlib.recv_copy", "guestlib", tenant=self.vm_id)
        return None

    def _drain_readers_fast(self, sock: _GuestSocket) -> None:
        """:meth:`_drain_readers_gen` without the process frame.

        Byte accounting happens up front; each reader's copy is charged
        as a chained direct call on the VM core, whose FIFO ``busy_until``
        serialization gives the same completion times as the generator's
        one-copy-per-resume sequence.
        """
        while sock.readers and (sock.rx_available > 0 or sock.eof):
            max_bytes, event = sock.readers.popleft()
            taken = self._take(sock, max_bytes)
            if taken > 0:
                self.region.copy_call(
                    self.core, taken, self._finish_read, event, taken, self._copy_span()
                )
            else:
                event.succeed(taken)

    def _finish_read(self, event: Event, taken: int, copy_span) -> None:
        if copy_span is not None:
            copy_span.annotate(bytes=taken).end()
        event.succeed(taken)

    def _drain_readers_gen(self, sock: _GuestSocket):
        while sock.readers and (sock.rx_available > 0 or sock.eof):
            max_bytes, event = sock.readers.popleft()
            taken = self._take(sock, max_bytes)
            if taken > 0 and not self.inline_rx_copy:
                copy_span = self._copy_span()
                yield self.region.copy(self.core, taken)
                self._finish_read(event, taken, copy_span)
            else:
                event.succeed(taken)
