"""RDMA-as-a-service microbenchmark: Verbs ping-pong vs kernel TCP RPC.

Not a paper figure — the paper names Verbs as the second interface and
RDMA as a requestable stack (§1, §2.1); this bench records the latency
advantage tenants buy with the RDMA NSM.
"""

import statistics

from repro.apps.rpc import RpcClient, RpcServer
from repro.experiments.common import make_lan_testbed
from repro.host.vm import GuestOS
from repro.net import Endpoint
from repro.netkernel import NsmSpec
from repro.rdma import RdmaFabric

from conftest import emit


def rdma_median_rtt(rounds=300):
    testbed = make_lan_testbed()
    sim = testbed.sim
    fabric = RdmaFabric(sim)
    rnsm_a = testbed.hypervisor_a.boot_rdma_nsm(fabric)
    rnsm_b = testbed.hypervisor_b.boot_rdma_nsm(fabric)
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm(
        "win", nsm_a, guest_os=GuestOS.WINDOWS
    )
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("peer", nsm_b)
    rdma_a = testbed.hypervisor_a.attach_rdma(vm_a, rnsm_a)
    rdma_b = testbed.hypervisor_b.attach_rdma(vm_b, rnsm_b)
    qa, qb = rdma_a.create_qp(), rdma_b.create_qp()
    rdma_a.connect_qp(qa, rdma_b.ip, qb.qp_num)
    rdma_b.connect_qp(qb, rdma_a.ip, qa.qp_num)
    rtts = []

    def client(sim):
        for _ in range(rounds):
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
        for _ in range(rounds):
            while True:
                yield qb.recv_cq.wait_nonempty()
                if rdma_b.poll_cq(qb.recv_cq):
                    break
            rdma_b.post_send(qb, 64)

    sim.process(client(sim))
    sim.process(server(sim))
    sim.run(until=5.0)
    return statistics.median(rtts)


def tcp_median_rtt(rounds=300):
    testbed = make_lan_testbed()
    vm_a = testbed.hypervisor_a.boot_legacy_vm("a")
    vm_b = testbed.hypervisor_b.boot_legacy_vm("b")
    RpcServer(testbed.sim, vm_b.api, 7000, request_bytes=64, response_bytes=64)
    client = RpcClient(
        testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, 7000),
        request_bytes=64, response_bytes=64, max_requests=rounds,
        start_delay=0.01,
    )
    testbed.sim.run(until=5.0)
    return client.latency.p(50)


def test_bench_rdma_latency():
    rdma, tcp = rdma_median_rtt(), tcp_median_rtt()
    emit(
        "RDMA NSM — 64 B ping-pong vs kernel TCP RPC",
        f"RDMA NSM (Windows guest): {rdma * 1e6:6.1f} us median\n"
        f"kernel TCP (Linux guest): {tcp * 1e6:6.1f} us median\n"
        f"advantage: {tcp / rdma:.1f}x",
    )
    assert rdma < 0.75 * tcp
