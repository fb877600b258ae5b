"""TcpStack miscellany: demux, ports, stats, RSS core assignment."""

import pytest

from repro.host.cpu import Core
from repro.net import Endpoint
from repro.tcp import StackConfig, TcpSegment, TcpStack

from conftest import make_linked_stacks


def test_ephemeral_ports_unique_and_wrap():
    rig = make_linked_stacks()
    stack = rig.stack_a
    stack._next_ephemeral = 65534
    ports = [stack.allocate_port() for _ in range(4)]
    assert ports == [65534, 65535, stack.config.ephemeral_base,
                     stack.config.ephemeral_base + 1]


def test_stack_stats_count_connections():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    for _ in range(3):
        rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=1.0)
    assert rig.stack_a.stats.connections_opened == 3
    assert rig.stack_b.stats.connections_accepted == 3


def test_stack_counts_bytes():
    from conftest import transfer

    rig = make_linked_stacks()
    transfer(rig, total_bytes=25_000)
    assert rig.stack_a.stats.bytes_out >= 25_000
    assert rig.stack_b.stats.bytes_in >= 25_000


def test_stack_sums_recovery_counters_past_connection_teardown():
    from conftest import transfer
    from repro.net import IIDLoss

    rig = make_linked_stacks(loss=IIDLoss(0.03, seed=5))
    conns = [
        transfer(rig, 300_000, port=port, time_limit=limit)["client_conn"]
        for port, limit in ((5000, 300.0), (5001, 600.0))
    ]
    assert not rig.stack_a._connections  # both closed and forgotten
    stats = rig.stack_a.stats
    for name in ("retransmits", "fast_retransmits", "timeouts", "dup_acks"):
        assert getattr(stats, name) == sum(getattr(c.stats, name) for c in conns)
    assert stats.retransmits > 0 and stats.dup_acks > 0


def test_rst_counted_for_closed_port():
    rig = make_linked_stacks()
    rig.stack_a.connect(Endpoint("10.0.0.2", 4242))
    rig.run(until=1.0)
    assert rig.stack_b.stats.rst_sent >= 1


def test_rss_spreads_connections_across_cores():
    rig = make_linked_stacks()
    cores = [Core(rig.sim, f"c{i}") for i in range(2)]
    rig.stack_a.cores = cores
    rig.stack_b.listen(5000)
    conns = [rig.stack_a.connect(Endpoint("10.0.0.2", 5000)) for _ in range(4)]
    assigned = {rig.stack_a._core_of[id(conn)] for conn in conns}
    assert assigned == set(cores)


def test_stack_ignores_non_tcp_payload():
    rig = make_linked_stacks()
    from repro.net import Packet

    rig.stack_b.on_packet(Packet(src="10.0.0.1", dst="10.0.0.2",
                                 payload_bytes=10, payload="not a segment"))
    assert rig.stack_b.stats.segments_in == 0


def test_syn_to_full_backlog_dropped_not_rst():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000, backlog=1)
    # Fill the accept queue first (nobody calls accept()), then a late SYN
    # must be silently dropped — not RST — so the client retries.
    rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=0.5)
    assert listener.queue_length == 1
    rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=1.0)
    assert rig.stack_b.stats.no_socket_drops >= 1
    assert rig.stack_b.stats.rst_sent == 0


def test_connect_local_port_pinning():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=12345)
    assert conn.local.port == 12345
    rig.run(until=1.0)
    assert conn.state.value == "established"


def test_connection_collision_rejected():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=12345)
    with pytest.raises(RuntimeError, match="collision"):
        rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=12345)


def test_stack_repr_is_informative():
    rig = make_linked_stacks()
    assert "10.0.0.1" in repr(rig.stack_a)


def test_effective_mss_reflects_offload():
    rig = make_linked_stacks(tso=True)
    assert rig.stack_a.effective_mss() == 65536
    rig2 = make_linked_stacks(tso=False)
    assert rig2.stack_a.effective_mss() == 1448


def test_per_connection_tcp_overrides():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(
        Endpoint("10.0.0.2", 5000), sndbuf=123_456, ecn=True
    )
    assert conn.config.sndbuf == 123_456
    assert conn.config.ecn is True
    # The stack-wide template is untouched.
    assert rig.stack_a.config.tcp.sndbuf != 123_456
