"""RDMA substrate: RC transport, Verbs API, RDMA-as-a-service NSM."""

import pytest

from repro.experiments.common import make_lan_testbed
from repro.host.vm import GuestOS
from repro.netkernel import NsmSpec
from repro.rdma import (
    RDMA_MTU_PAYLOAD,
    CompletionQueue,
    RdmaDevice,
    RdmaFabric,
    WcOpcode,
)
from repro.sim import Simulator


def make_rdma_pair(window=64):
    testbed = make_lan_testbed()
    fabric = RdmaFabric(testbed.sim)
    dev_a = RdmaDevice(testbed.sim, fabric, testbed.host_a.create_vf("ra"))
    dev_b = RdmaDevice(testbed.sim, fabric, testbed.host_b.create_vf("rb"))
    qp_a = dev_a.create_qp(window_segments=window)
    qp_b = dev_b.create_qp(window_segments=window)
    qp_a.connect(dev_b.ip, qp_b.qp_num)
    qp_b.connect(dev_a.ip, qp_a.qp_num)
    return testbed, qp_a, qp_b


# ----------------------------------------------------------------- transport --
def test_single_message_delivery():
    testbed, qp_a, qp_b = make_rdma_pair()
    qp_b.post_recv()
    qp_a.post_send(1000)
    testbed.sim.run(until=0.1)
    completions = qp_b.recv_cq.poll()
    assert len(completions) == 1
    assert completions[0].byte_len == 1000
    assert completions[0].opcode is WcOpcode.RECV


def test_send_completion_after_ack():
    testbed, qp_a, qp_b = make_rdma_pair()
    qp_b.post_recv()
    qp_a.post_send(100)
    testbed.sim.run(until=0.1)
    send_completions = qp_a.send_cq.poll()
    assert len(send_completions) == 1
    assert send_completions[0].opcode is WcOpcode.SEND


def test_large_message_is_segmented_and_reassembled():
    testbed, qp_a, qp_b = make_rdma_pair(window=512)
    qp_b.post_recv()
    nbytes = 10 * RDMA_MTU_PAYLOAD + 17
    qp_a.post_send(nbytes)
    testbed.sim.run(until=0.1)
    completions = qp_b.recv_cq.poll()
    assert completions[0].byte_len == nbytes


def test_message_order_preserved():
    testbed, qp_a, qp_b = make_rdma_pair()
    sizes = [100, 5000, 1, 9000, 64]
    for _ in sizes:
        qp_b.post_recv()
    for nbytes in sizes:
        qp_a.post_send(nbytes)
    testbed.sim.run(until=0.2)
    completions = qp_b.recv_cq.poll(16)
    assert [wc.byte_len for wc in completions] == sizes


def test_rnr_without_posted_receive():
    testbed, qp_a, qp_b = make_rdma_pair()
    qp_a.post_send(100)  # nothing posted at receiver
    testbed.sim.run(until=0.1)
    assert qp_b.rnr_drops == 1
    assert qp_b.recv_cq.poll() == []


def test_go_back_n_recovers_from_segment_loss():
    testbed, qp_a, qp_b = make_rdma_pair(window=32)
    # Drop the 3rd data segment once (tap the host's uplink).
    original = testbed.host_a.pnic.wire
    state = {"count": 0, "dropped": False}

    def flaky(packet):
        if packet.protocol == "rdma" and packet.payload_bytes > 0:
            state["count"] += 1
            if state["count"] == 3 and not state["dropped"]:
                state["dropped"] = True
                return
        original(packet)

    testbed.host_a.pnic.wire = flaky
    qp_b.post_recv()
    qp_a.post_send(8 * RDMA_MTU_PAYLOAD)
    testbed.sim.run(until=1.0)
    completions = qp_b.recv_cq.poll()
    assert completions and completions[0].byte_len == 8 * RDMA_MTU_PAYLOAD
    assert qp_a.endpoint.retransmit_events >= 1


def test_window_limits_inflight_segments():
    testbed, qp_a, qp_b = make_rdma_pair(window=4)
    qp_b.post_recv()
    qp_a.post_send(100 * RDMA_MTU_PAYLOAD)
    # Before any acks return, at most `window` segments may be outstanding.
    assert qp_a.endpoint._snd_nxt - qp_a.endpoint._snd_una <= 4
    testbed.sim.run(until=1.0)
    assert qp_b.recv_cq.poll()[0].byte_len == 100 * RDMA_MTU_PAYLOAD


def test_unconnected_qp_rejects_send():
    testbed = make_lan_testbed()
    fabric = RdmaFabric(testbed.sim)
    dev = RdmaDevice(testbed.sim, fabric, testbed.host_a.create_vf("r"))
    qp = dev.create_qp()
    with pytest.raises(RuntimeError):
        qp.post_send(10)
    with pytest.raises(ValueError):
        qp.endpoint.post_send(0)


# --------------------------------------------------------------------- verbs --
def test_cq_poll_limits_and_wait(sim):
    cq = CompletionQueue(sim, depth=8)
    from repro.rdma import WorkCompletion

    for i in range(5):
        cq.push(WorkCompletion(i, WcOpcode.SEND, 10, 1))
    assert len(cq.poll(3)) == 3
    assert len(cq.poll(16)) == 2
    waiter = cq.wait_nonempty()
    assert not waiter.triggered
    cq.push(WorkCompletion(9, WcOpcode.SEND, 10, 1))
    assert waiter.triggered


def test_cq_overflow_counted(sim):
    cq = CompletionQueue(sim, depth=1)
    from repro.rdma import WorkCompletion

    cq.push(WorkCompletion(1, WcOpcode.SEND, 1, 1))
    cq.push(WorkCompletion(2, WcOpcode.SEND, 1, 1))
    assert cq.overflows == 1


def test_cq_depth_validation(sim):
    with pytest.raises(ValueError):
        CompletionQueue(sim, depth=0)


def test_recv_larger_than_buffer_flagged():
    testbed, qp_a, qp_b = make_rdma_pair()
    qp_b.post_recv(max_len=50)
    qp_a.post_send(100)
    testbed.sim.run(until=0.1)
    completion = qp_b.recv_cq.poll()[0]
    assert not completion.success
    assert completion.byte_len == 50


# ----------------------------------------------------------- RDMA as an NSM --
def make_tenant_rdma(guest_os=GuestOS.WINDOWS):
    testbed = make_lan_testbed()
    fabric = RdmaFabric(testbed.sim)
    rnsm_a = testbed.hypervisor_a.boot_rdma_nsm(fabric)
    rnsm_b = testbed.hypervisor_b.boot_rdma_nsm(fabric)
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("a", nsm_a, guest_os=guest_os)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("b", nsm_b)
    rdma_a = testbed.hypervisor_a.attach_rdma(vm_a, rnsm_a)
    rdma_b = testbed.hypervisor_b.attach_rdma(vm_b, rnsm_b)
    return testbed, rdma_a, rdma_b


def test_windows_vm_gets_rdma_service():
    """§2.1: tenants 'may also request a customized stack (say RDMA)' —
    even from a guest OS with no RDMA drivers."""
    testbed, rdma_a, rdma_b = make_tenant_rdma(GuestOS.WINDOWS)
    qa = rdma_a.create_qp()
    qb = rdma_b.create_qp()
    rdma_a.connect_qp(qa, rdma_b.ip, qb.qp_num)
    rdma_b.connect_qp(qb, rdma_a.ip, qa.qp_num)
    rdma_b.post_recv(qb)
    rdma_a.post_send(qa, 4096)
    testbed.sim.run(until=0.1)
    assert rdma_b.poll_cq(qb.recv_cq)[0].byte_len == 4096


def test_rdma_doorbells_charge_guest_core():
    testbed, rdma_a, rdma_b = make_tenant_rdma()
    core = rdma_a.core
    before = core.busy_seconds
    qa = rdma_a.create_qp()
    qb = rdma_b.create_qp()
    rdma_a.connect_qp(qa, rdma_b.ip, qb.qp_num)
    rdma_b.post_recv(qb)
    rdma_a.post_send(qa, 64)
    assert core.busy_seconds > before


def test_rdma_rpc_latency_beats_tcp():
    """The reason tenants want the RDMA NSM: small-message round trips
    several times faster than TCP RPC on the same fabric."""
    # --- RDMA ping-pong ---
    testbed, rdma_a, rdma_b = make_tenant_rdma()
    sim = testbed.sim
    qa = rdma_a.create_qp()
    qb = rdma_b.create_qp()
    rdma_a.connect_qp(qa, rdma_b.ip, qb.qp_num)
    rdma_b.connect_qp(qb, rdma_a.ip, qa.qp_num)
    rtts = []

    def client(sim):
        for _ in range(50):
            rdma_b.post_recv(qb)
            rdma_a.post_recv(qa)
            start = sim.now
            rdma_a.post_send(qa, 64)
            while True:
                yield qa.recv_cq.wait_nonempty()
                if rdma_a.poll_cq(qa.recv_cq):
                    break
            rtts.append(sim.now - start)

    def server(sim):
        for _ in range(50):
            while True:
                yield qb.recv_cq.wait_nonempty()
                if rdma_b.poll_cq(qb.recv_cq):
                    break
            rdma_b.post_send(qb, 64)

    sim.process(client(sim))
    sim.process(server(sim))
    sim.run(until=5.0)
    rdma_rtt = sorted(rtts)[len(rtts) // 2]

    # --- TCP RPC on an identical testbed ---
    from repro.apps.rpc import RpcClient, RpcServer
    from repro.net import Endpoint

    testbed2 = make_lan_testbed()
    vm_a = testbed2.hypervisor_a.boot_legacy_vm("a")
    vm_b = testbed2.hypervisor_b.boot_legacy_vm("b")
    RpcServer(testbed2.sim, vm_b.api, 7000, request_bytes=64, response_bytes=64)
    client2 = RpcClient(
        testbed2.sim, vm_a.api, Endpoint(vm_b.api.ip, 7000),
        request_bytes=64, response_bytes=64, max_requests=50, start_delay=0.01,
    )
    testbed2.sim.run(until=5.0)
    tcp_rtt = client2.latency.p(50)

    assert rdma_rtt < 0.75 * tcp_rtt, (rdma_rtt, tcp_rtt)
