"""The QUIC stack family: protocol behaviour and NSM integration.

Protocol tests drive two bare :class:`QuicStack` endpoints over a duplex
link (mirroring the TCP rig in ``conftest``): 1-RTT handshake,
tenant-keyed 0-RTT resumption, stream multiplexing over one connection,
loss recovery, and connection-id routing surviving an IP change.  The
ACK bookkeeping is checked against the full-scan reference it replaced.

Integration tests check the stack-family registry — the NSM boots
whichever family its spec names behind the *same* GuestLib surface —
and that shared-NSM placement never mixes families.
"""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import DuplexLink, Endpoint, IIDLoss, OffloadConfig, VirtualNIC
from repro.netkernel import NsmSpec
from repro.netkernel.nsm import STACK_FAMILIES, register_stack_family
from repro.quic import QuicStack
from repro.quic.connection import ACK_RANGE_LIMIT, _newly_acked, _SentPacket
from repro.quic.packet import QuicPacketType
from repro.sim import Simulator
from repro.tcp import TcpStack
from repro.tcp.intervals import IntervalSet


@dataclass
class QuicRig:
    sim: Simulator
    stack_a: QuicStack
    stack_b: QuicStack
    link: DuplexLink

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def make_quic_rig(
    rate_bps: float = 1e9,
    delay: float = 1e-3,
    loss=None,
) -> QuicRig:
    sim = Simulator()
    offload = OffloadConfig()
    nic_a = VirtualNIC(sim, "10.0.0.1", offload)
    nic_b = VirtualNIC(sim, "10.0.0.2", offload)
    link = DuplexLink(
        sim,
        rate_bps=rate_bps,
        propagation_delay=delay,
        queue_bytes=256 * 1024,
        loss=loss,
        name="quic-wire",
    )
    nic_a.downstream = lambda pkt, nic: link.a_to_b.send(pkt)
    nic_b.downstream = lambda pkt, nic: link.b_to_a.send(pkt)
    link.attach(nic_a.receive, nic_b.receive)
    return QuicRig(
        sim=sim,
        stack_a=QuicStack(sim, nic_a),
        stack_b=QuicStack(sim, nic_b),
        link=link,
    )


def serve_and_count(rig: QuicRig, port: int = 5000) -> dict:
    """Listen on stack_b; drain every accepted stream into ``result``."""
    result = {"received": 0, "streams": 0}
    listener = rig.stack_b.listen(port)

    def on_stream(stream):
        result["streams"] += 1
        rig.sim.process(drain(stream), name=f"drain:{stream.stream_id}")

    def drain(stream):
        while True:
            n = yield stream.recv_buffer.read(1 << 20)
            if n == 0:
                break
            result["received"] += n

    listener.on_new_connection = on_stream
    return result


# ------------------------------------------------------------------ handshake --
def test_first_connect_needs_a_full_handshake():
    rig = make_quic_rig()
    serve_and_count(rig)
    stream = rig.stack_a.connect(Endpoint("10.0.0.2", 5000), tenant=1)
    assert not stream.established.triggered  # no ticket yet: 1-RTT
    rig.run(until=0.1)
    assert stream.established.triggered
    assert rig.stack_b.stats.handshakes == 1
    assert rig.stack_b.stats.resumptions_0rtt == 0


def test_resumption_is_0rtt_and_tenant_keyed():
    rig = make_quic_rig()
    serve_and_count(rig)
    remote = Endpoint("10.0.0.2", 5000)

    first = rig.stack_a.connect(remote, tenant=1)
    rig.run(until=0.1)
    assert first.established.triggered
    first.start_close()
    rig.run(until=0.2)
    rig.stack_a.close_idle_connections()
    rig.run(until=0.3)

    # Same tenant: the cached ticket makes the new connection usable
    # immediately — zero round trips before the app can send, and the
    # first data rides a ZERO_RTT packet the server resumes from.
    second = rig.stack_a.connect(remote, tenant=1)
    assert second.established.triggered
    second.send(1000)
    rig.run(until=0.4)
    assert rig.stack_b.stats.resumptions_0rtt == 1

    # A different tenant holds no ticket for this peer: full handshake,
    # and the server never honours tenant 1's resumption state for it.
    third = rig.stack_a.connect(remote, tenant=2)
    assert not third.established.triggered
    rig.run(until=0.5)
    assert third.established.triggered
    assert rig.stack_b.stats.resumptions_0rtt == 1  # unchanged


def test_foreign_ticket_is_rejected_not_honoured():
    rig = make_quic_rig()
    serve_and_count(rig)
    remote = Endpoint("10.0.0.2", 5000)
    first = rig.stack_a.connect(remote, tenant=1)
    rig.run(until=0.1)
    first.start_close()
    rig.run(until=0.2)
    rig.stack_a.close_idle_connections()
    rig.run(until=0.3)

    # Tenant 2 presents tenant 1's ticket (a hostile client): the server
    # counts the rejection and falls back to a full handshake.
    ticket = rig.stack_a._tickets[(1, remote.ip, remote.port)]
    rig.stack_a.store_ticket(2, remote, ticket)
    rig.stack_a.connect(remote, tenant=2).send(1000)
    rig.run(until=0.4)
    assert rig.stack_b.stats.zero_rtt_rejected == 1
    assert rig.stack_b.stats.resumptions_0rtt == 0


# ------------------------------------------------------------ multiplexing --
def test_streams_multiplex_over_one_connection():
    rig = make_quic_rig()
    result = serve_and_count(rig)
    remote = Endpoint("10.0.0.2", 5000)
    streams = [rig.stack_a.connect(remote, tenant=1) for _ in range(3)]
    assert rig.stack_a.stats.connections_opened == 1
    assert rig.stack_a.stats.streams_opened == 3
    assert len(rig.stack_a._by_cid) == 1
    assert {s.conn for s in streams} == {streams[0].conn}

    def client(sim):
        yield streams[0].established
        for stream in streams:
            yield stream.send(10_000)
            stream.start_close()

    rig.sim.process(client(rig.sim))
    rig.run(until=1.0)
    assert result["streams"] == 3
    assert result["received"] == 30_000
    assert rig.stack_b.stats.handshakes == 1  # one handshake for all three


# ------------------------------------------------------------ loss recovery --
#: (loss, seed, streams, bytes per stream) -> (received, events processed,
#: sender packets_out, retransmits, ptos, loss_events, receiver packets_out).
#: The first point's one retransmit is a PTO; the other two run packet-
#: threshold loss detection over a flight with holes.
LOSS_POINTS = [
    ((0.03, 7, 1, 300_000), (300_000, 70, 9, 1, 1, 0, 8)),
    ((0.05, 2, 1, 3_000_000), (3_000_000, 349, 53, 4, 1, 2, 49)),
    ((0.20, 11, 3, 3_000_000), (9_000_000, 1088, 182, 41, 13, 18, 141)),
]


def test_transfer_under_loss_is_reliable():
    for (loss, seed, n_streams, size), expected in LOSS_POINTS:
        rig = make_quic_rig(loss=IIDLoss(loss, seed=seed))
        result = serve_and_count(rig)
        stream = rig.stack_a.connect(Endpoint("10.0.0.2", 5000), tenant=1)
        streams = [stream] + [
            stream.conn.open_stream() for _ in range(n_streams - 1)
        ]

        def client(sim, streams=streams, size=size):
            yield streams[0].established
            for s in streams:
                yield s.send(size)
                s.start_close()

        rig.sim.process(client(rig.sim))
        rig.run(until=30.0)
        a, b = rig.stack_a.stats, rig.stack_b.stats
        assert result["received"] == n_streams * size
        assert a.retransmits > 0
        assert (
            result["received"],
            rig.sim.events_processed,
            a.packets_out,
            a.retransmits,
            a.ptos,
            a.loss_events,
            b.packets_out,
        ) == expected, (loss, seed)


# ---------------------------------------------------------- ACK bookkeeping --
def _reference_acked(sent, ranges):
    """The scan the ACK path made before the merge walk: every outstanding
    packet against every range."""
    return sorted(
        num for num in sent if any(lo <= num <= hi for lo, hi in ranges)
    )


def _idle_connection():
    """A real client connection: its first packet queued, the sim never run."""
    rig = make_quic_rig()
    return rig.stack_a.connect(Endpoint("10.0.0.2", 5000), tenant=1).conn


@settings(max_examples=200, deadline=None)
@given(
    received=st.sets(st.integers(0, 400), min_size=1, max_size=250),
    flight=st.sets(st.integers(0, 500), max_size=64),
)
@example(received={5, 6, 7}, flight=set())  # empty flight
@example(received={5, 6, 7, 9}, flight={10, 11, 12})  # all above the newest ack
@example(received={1, 2, 4, 6, 8, 9}, flight={8, 9, 10, 11})  # older ranges below
@example(received={3, 4, 5, 6}, flight={1, 4, 6, 7})  # a single range
def test_newly_acked_matches_the_full_scan(received, flight):
    conn = _idle_connection()
    conn._rcvd = IntervalSet()
    for num in received:
        conn._rcvd.add(num, num + 1)
    ranges = conn._ack_ranges()

    # The contract the walk relies on.
    assert 1 <= len(ranges) <= ACK_RANGE_LIMIT
    assert len(conn._rcvd) <= 64
    assert ranges[0][1] == max(received)
    assert all(lo <= hi for lo, hi in ranges)
    for (lo, _hi), (_older_lo, older_hi) in zip(ranges, ranges[1:]):
        assert older_hi + 1 < lo  # strictly descending, disjoint, non-adjacent
    covered = {num for lo, hi in ranges for num in range(lo, hi + 1)}
    assert covered == {num for num in received if num >= ranges[-1][0]}

    sent = {num: None for num in sorted(flight)}  # ascending, as sent
    assert _newly_acked(sent, ranges) == _reference_acked(sent, ranges)


class _CountingFlight(dict):
    """A flight (``conn.sent``) that counts the entries its iterators yield."""

    def __init__(self, entries) -> None:
        super().__init__(entries)
        self.yielded = 0

    def _counted(self, entries):
        for entry in entries:
            self.yielded += 1
            yield entry

    def __iter__(self):
        return self._counted(super().__iter__())

    def keys(self):
        return self._counted(super().keys())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


def test_ack_cost_does_not_grow_with_the_flight():
    """An ACK walks the flight from its oldest packet, never all of it.

    The ``lan_bulk_quic`` shape: 8 ranges, the newest acking the flight's
    4 oldest packets, seven older ones below the flight (every retransmit
    leaves a permanent gap in the receiver's history).  Checking every
    packet against every range made an ACK cost flight x ranges.  Walked,
    the ACK and the loss check after it visit the same entries of a
    64-packet flight as of a 16x larger one.
    """
    base = 1000
    ranges = ((base, base + 3),) + tuple(
        (base - 10 * k, base - 10 * k + 7) for k in range(1, 8)
    )

    def walked(n):
        conn = _idle_connection()
        conn.sent = _CountingFlight(
            (num, _SentPacket((), -1e-3, 1200, QuicPacketType.ONE_RTT, 0))
            for num in range(base, base + n)
        )
        conn.bytes_in_flight = 1200 * n
        conn._on_ack(ranges)
        yielded = conn.sent.yielded
        assert list(conn.sent) == list(range(base + 4, base + n))  # none lost
        return yielded

    small, large = walked(64), walked(1024)
    assert small == large, f"an ACK visited {small} then {large} entries for 16x the flight"


# ---------------------------------------------------------------- migration --
def test_connection_survives_client_ip_change():
    """Routing is by connection id: a 4-tuple change is not a new flow."""
    rig = make_quic_rig()
    result = serve_and_count(rig)
    stream = rig.stack_a.connect(Endpoint("10.0.0.2", 5000), tenant=1)

    def client(sim):
        yield stream.established
        yield stream.send(20_000)
        yield sim.timeout(0.5)
        # The client's address changes mid-connection (NAT rebind /
        # WiFi-to-LTE in real QUIC). Same cids, new source IP.
        rig.stack_a.ip = "10.0.0.99"
        yield stream.send(20_000)
        stream.start_close()

    rig.sim.process(client(rig.sim))
    rig.run(until=2.0)
    assert result["received"] == 40_000
    assert rig.stack_b.stats.migrations >= 1


# --------------------------------------------------------- family registry --
def test_nsm_boots_the_family_its_spec_names():
    from repro.experiments.common import make_lan_testbed

    testbed = make_lan_testbed()
    tcp_nsm = testbed.hypervisor_a.boot_nsm(NsmSpec())
    quic_nsm = testbed.hypervisor_b.boot_nsm(NsmSpec(stack_family="quic"))
    assert isinstance(tcp_nsm.stack, TcpStack)
    assert isinstance(quic_nsm.stack, QuicStack)


def test_unknown_family_fails_with_the_available_list():
    from repro.experiments.common import make_lan_testbed

    testbed = make_lan_testbed()
    with pytest.raises(KeyError, match="tcp"):
        testbed.hypervisor_a.boot_nsm(NsmSpec(stack_family="sctp-ng"))


def test_register_second_family_and_boot_it():
    from repro.experiments.common import make_lan_testbed

    built = {}

    def builder(sim, nsm, spec):
        stack = STACK_FAMILIES["tcp"](sim, nsm, spec)
        built["spec"] = spec
        return stack

    register_stack_family("toytcp", builder)
    try:
        testbed = make_lan_testbed()
        nsm = testbed.hypervisor_a.boot_nsm(NsmSpec(stack_family="toytcp"))
        assert built["spec"] is nsm.spec
        assert isinstance(nsm.stack, TcpStack)
        with pytest.raises(ValueError):
            register_stack_family("toytcp", builder)  # no double registration
        with pytest.raises(ValueError):
            register_stack_family("", builder)
    finally:
        STACK_FAMILIES.pop("toytcp", None)


def test_shared_nsm_placement_never_mixes_families():
    from repro.experiments.common import make_lan_testbed

    testbed = make_lan_testbed()
    hyp = testbed.hypervisor_a
    tcp_nsm = hyp.boot_nsm(NsmSpec(congestion_control="cubic", max_tenants=4))
    quic_nsm = hyp.boot_nsm(
        NsmSpec(congestion_control="cubic", max_tenants=4, stack_family="quic")
    )
    assert hyp.find_shared_nsm("cubic") is tcp_nsm
    assert hyp.find_shared_nsm("cubic", stack_family="quic") is quic_nsm
    assert hyp.find_shared_nsm("bbr", stack_family="quic") is None


# ------------------------------------------------- NSM datapath end to end --
def test_quic_nsm_carries_bulk_flow_through_unchanged_guestlib():
    """The same GuestLib app hits line rate on a QUIC-family NSM."""
    from repro.apps import BulkReceiver, BulkSender
    from repro.experiments.common import make_lan_testbed

    testbed = make_lan_testbed()
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec(stack_family="quic"))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(stack_family="quic"))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=2)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=2)
    rx = BulkReceiver(testbed.sim, vm_b.api, 5000, warmup=0.01)
    BulkSender(testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, 5000))
    testbed.run(until=0.05)
    gbps = rx.meter.bps(until=0.05) / 1e9
    assert gbps > 30.0  # 40G NICs; TCP hits ~37 on this shape
    # Full precision: the loss-recovery bookkeeping must not move a bit.
    assert repr(gbps) == "37.810382971368604"
    assert testbed.sim.events_processed == 108446
    assert nsm_a.stack.stats.retransmits == 61
    assert nsm_a.stack.stats.loss_events == 8


def test_quic_nsm_guestlib_close_tears_down_the_mapping():
    """ServiceLib teardown: CLOSE drops the (tenant, family) conn entry."""
    from repro.experiments.common import make_lan_testbed

    testbed = make_lan_testbed()
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec(stack_family="quic"))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(stack_family="quic"))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=2)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=2)
    table = testbed.hypervisor_a.coreengine.table
    seen = {}

    def server(sim):
        fd = yield vm_b.api.socket()
        yield vm_b.api.bind(fd, 5000)
        yield vm_b.api.listen(fd)
        conn_fd = yield vm_b.api.accept(fd)
        while (yield vm_b.api.recv(conn_fd, 1 << 20)) != 0:
            pass
        yield vm_b.api.close(conn_fd)

    def client(sim):
        fd = yield vm_a.api.socket()
        yield vm_a.api.connect(fd, Endpoint(vm_b.api.ip, 5000))
        seen["fd"] = fd
        seen["family"] = table._family.get((vm_a.vm_id, fd))
        yield vm_a.api.send(fd, 4096)
        yield vm_a.api.close(fd)

    testbed.sim.process(server(testbed.sim), name="srv")
    testbed.sim.process(client(testbed.sim), name="cli")
    testbed.run(until=0.1)
    assert seen["family"] == "quic"
    assert table.to_nsm(vm_a.vm_id, seen["fd"]) is None
    assert (vm_a.vm_id, seen["fd"]) not in table._family
