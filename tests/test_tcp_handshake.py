"""The handshake event's life, and the rare paths that read it.

A connection succeeds its ``established`` event when the handshake
completes and lets go of it once the event's waiters have run (its queue
entry holds it until then), so a quiet connection keeps no fired event.
A reader before that pop gets the same, not yet processed, event and
waits its turn; a later reader gets a stand-in that is likewise fired.
The paths below fail the event or test whether it fired: a reset before
and after the handshake, SYN retries running out, and pingmesh's probe,
which holds the event itself across its ``AnyOf``.
"""

from conftest import make_linked_stacks, step
from repro.api import ConnectionReset, KernelSocketApi, SocketError
from repro.experiments.common import make_cluster_testbed
from repro.mgmt import PingmeshMesh
from repro.net import Endpoint
from repro.sim import Event
from repro.tcp import TcpState
from repro.tcp.segment import TcpSegment

PORT = 5000


def test_the_handshake_event_is_let_go_of_once_its_waiters_ran():
    rig = make_linked_stacks()
    rig.stack_b.listen(PORT)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
    event = conn.established
    while conn.state is not TcpState.ESTABLISHED:
        step(rig.sim)
    # Fired, not yet popped: a reader still gets it and waits its turn.
    assert conn.established is event
    assert event.triggered and not event.processed
    ran = []
    event.add_callback(lambda ev: ran.append(ev))
    assert ran == []
    while not event.processed:
        step(rig.sim)
    assert ran == [event] and conn._established is None
    late = conn.established
    assert late is not event
    assert late.triggered and late.processed and late.ok and late.value is None
    late.add_callback(ran.append)  # runs at once, as on the processed event
    assert ran == [event, late]


def connect_via_api(rig, until):
    """Connect A to B's ``PORT`` through the kernel socket API; returns
    the socket errors the connect raised by ``until``."""
    api = KernelSocketApi(rig.sim, rig.stack_a)
    caught = []

    def client(sim):
        fd = yield api.socket()
        try:
            yield api.connect(fd, Endpoint("10.0.0.2", PORT))
        except SocketError as exc:
            caught.append(exc)

    rig.sim.process(client(rig.sim))
    rig.run(until=until)
    return caught


def test_an_rst_in_syn_sent_fails_connect_with_the_typed_socket_error():
    rig = make_linked_stacks()  # nothing listens: B answers the SYN with an RST
    (error,) = connect_via_api(rig, until=1.0)
    assert isinstance(error, ConnectionReset)
    assert "10.0.0.1:32768 reset by peer" in str(error)
    assert rig.stack_b.stats.rst_sent == 1 and not rig.stack_a._connections


def test_an_rst_after_established_leaves_nothing_to_fail():
    rig = make_linked_stacks()
    rig.stack_b.listen(PORT)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
    rig.run(until=0.01)
    assert conn.state is TcpState.ESTABLISHED and conn._established is None
    local_port, _remote_ip, remote_port = conn.key
    rst = TcpSegment(
        src_port=remote_port, dst_port=local_port, seq=conn.rcv_nxt, rst=True
    )
    conn.on_segment(rst)
    assert conn.state is TcpState.CLOSED and not rig.stack_a._connections
    # No handshake event was failed: nothing failed is queued.
    queued = [entry[2] for entry in rig.sim._queue]
    failed = [e for e in queued if isinstance(e, Event) and e.ok is False]
    assert failed == [] and conn.closed.ok is True
    assert conn.established.ok is True


def test_running_out_of_syn_retries_fails_connect():
    rig = make_linked_stacks()
    rig.stack_b.listen(PORT)
    rig.stack_a.nic.transmit = lambda packet: None  # every SYN is lost
    (error,) = connect_via_api(rig, until=200.0)
    assert isinstance(error, ConnectionReset)
    assert "connect 10.0.0.2:5000: SYN retries exhausted" in str(error)
    assert rig.stack_a.stats.segments_out == 6 and not rig.stack_a._connections


def test_a_pingmesh_probe_connects_and_a_dead_peer_times_out():
    testbed = make_cluster_testbed(2)
    mesh = PingmeshMesh(testbed.sim, probe_interval=0.05)
    for index, hypervisor in enumerate(testbed.hypervisors):
        mesh.add_agent(f"host{index}", hypervisor)
    testbed.sim.run(until=0.5)
    assert set(mesh.latency) == {("host0", "host1"), ("host1", "host0")}
    assert mesh.failures == []
    testbed.hypervisors[1].nsms[0].nic.fail()
    testbed.sim.run(until=3.0)
    assert ("host0", "host1", "connect timeout") in {
        (f.src, f.dst, f.reason) for f in mesh.failures
    }
