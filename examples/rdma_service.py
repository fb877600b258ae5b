#!/usr/bin/env python3
"""RDMA as a service: Verbs for a guest with no RDMA drivers (§1, §2.1).

NetKernel keeps "Verbs for RDMA" as the second guest-facing interface, and
§2.1 says tenants "may also request a customized stack (say RDMA)".  Here a
Windows VM — no RDMA drivers, no special NIC in the guest — gets a
provider-run RDMA NSM and runs a Verbs ping-pong plus a bandwidth test,
compared against TCP RPC on the identical fabric.

Run:  python examples/rdma_service.py
"""

import statistics

from repro.apps.rpc import RpcClient, RpcServer
from repro.experiments.common import make_lan_testbed
from repro.host.vm import GuestOS
from repro.net import Endpoint
from repro.netkernel import NsmSpec
from repro.rdma import RdmaFabric


def rdma_ping_pong():
    testbed = make_lan_testbed()
    sim = testbed.sim
    fabric = RdmaFabric(sim)
    rnsm_a = testbed.hypervisor_a.boot_rdma_nsm(fabric)
    rnsm_b = testbed.hypervisor_b.boot_rdma_nsm(fabric)
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    win_vm = testbed.hypervisor_a.boot_netkernel_vm(
        "windows", nsm_a, guest_os=GuestOS.WINDOWS
    )
    peer_vm = testbed.hypervisor_b.boot_netkernel_vm("peer", nsm_b)
    rdma_a = testbed.hypervisor_a.attach_rdma(win_vm, rnsm_a)
    rdma_b = testbed.hypervisor_b.attach_rdma(peer_vm, rnsm_b)

    qa, qb = rdma_a.create_qp(), rdma_b.create_qp()
    rdma_a.connect_qp(qa, rdma_b.ip, qb.qp_num)
    rdma_b.connect_qp(qb, rdma_a.ip, qa.qp_num)

    rtts = []

    def client(sim):
        for _ in range(1000):
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
        for _ in range(1000):
            while True:
                yield qb.recv_cq.wait_nonempty()
                if rdma_b.poll_cq(qb.recv_cq):
                    break
            rdma_b.post_send(qb, 64)

    sim.process(client(sim))
    sim.process(server(sim))
    sim.run(until=5.0)
    return statistics.median(rtts)


def tcp_ping_pong():
    testbed = make_lan_testbed()
    vm_a = testbed.hypervisor_a.boot_legacy_vm("a")
    vm_b = testbed.hypervisor_b.boot_legacy_vm("b")
    RpcServer(testbed.sim, vm_b.api, 7000, request_bytes=64, response_bytes=64)
    client = RpcClient(
        testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, 7000),
        request_bytes=64, response_bytes=64, max_requests=1000, start_delay=0.01,
    )
    testbed.sim.run(until=5.0)
    return client.latency.p(50)


def main() -> None:
    rdma = rdma_ping_pong()
    tcp = tcp_ping_pong()
    print("64 B ping-pong on the same 40 GbE fabric:")
    print(f"  Windows VM via RDMA NSM : {rdma * 1e6:6.1f} us median RTT")
    print(f"  Linux VM via kernel TCP : {tcp * 1e6:6.1f} us median RTT")
    print(f"  -> {tcp / rdma:.1f}x lower latency, from a guest that cannot "
          f"run RDMA natively.")


if __name__ == "__main__":
    main()
