"""Workload applications over the kernel API."""

import pytest

from repro.api import KernelSocketApi
from repro.apps import BulkReceiver, BulkSender, WebClient, WebServer
from repro.apps.rpc import RpcClient, RpcServer
from repro.net import Endpoint

from conftest import make_linked_stacks


def make_apis():
    rig = make_linked_stacks(rate_bps=1e9, delay=1e-4)
    return (
        rig,
        KernelSocketApi(rig.sim, rig.stack_a),
        KernelSocketApi(rig.sim, rig.stack_b),
    )


def test_bulk_fixed_total_completes():
    rig, api_a, api_b = make_apis()
    receiver = BulkReceiver(rig.sim, api_b, port=5000)
    sender = BulkSender(
        rig.sim, api_a, Endpoint("10.0.0.2", 5000), total_bytes=1_000_000
    )
    rig.run(until=30.0)
    assert sender.bytes_sent == 1_000_000
    assert receiver.meter.bytes == 1_000_000


def test_bulk_warmup_excludes_early_bytes():
    rig, api_a, api_b = make_apis()
    receiver = BulkReceiver(rig.sim, api_b, port=5000, warmup=5.0)
    BulkSender(rig.sim, api_a, Endpoint("10.0.0.2", 5000), total_bytes=100_000)
    rig.run(until=3.0)
    assert receiver.meter.bytes == 0  # everything arrived before warmup


def test_bulk_sender_cc_choice():
    rig, api_a, api_b = make_apis()
    BulkReceiver(rig.sim, api_b, port=5000)
    BulkSender(
        rig.sim,
        api_a,
        Endpoint("10.0.0.2", 5000),
        total_bytes=10_000,
        congestion_control="bbr",
    )
    rig.run(until=5.0)
    # Find the client-side connection and confirm its algorithm.
    conns = [c for c in rig.stack_a._connections.values()]
    if conns:  # may already be closed
        assert conns[0].cc.name == "bbr"


def test_rpc_closed_loop_latency():
    rig, api_a, api_b = make_apis()
    RpcServer(rig.sim, api_b, port=7000)
    client = RpcClient(
        rig.sim, api_a, Endpoint("10.0.0.2", 7000), max_requests=50,
        start_delay=0.01,
    )
    rig.run(until=30.0)
    assert client.completed == 50
    assert len(client.latency) == 50
    assert client.latency.p(50) > 2e-4  # at least one RTT


def test_rpc_server_counts_requests():
    rig, api_a, api_b = make_apis()
    server = RpcServer(rig.sim, api_b, port=7000)
    RpcClient(
        rig.sim, api_a, Endpoint("10.0.0.2", 7000), max_requests=20,
        start_delay=0.01,
    )
    rig.run(until=30.0)
    assert server.requests_served == 20


def test_rpc_multiple_clients_one_server():
    rig, api_a, api_b = make_apis()
    server = RpcServer(rig.sim, api_b, port=7000)
    clients = [
        RpcClient(
            rig.sim, api_a, Endpoint("10.0.0.2", 7000), max_requests=10,
            start_delay=0.01 * (i + 1),
        )
        for i in range(3)
    ]
    rig.run(until=60.0)
    assert all(c.completed == 10 for c in clients)
    assert server.requests_served == 30


def test_web_short_connections():
    rig, api_a, api_b = make_apis()
    server = WebServer(rig.sim, api_b, port=80, response_bytes=4096)
    client = WebClient(
        rig.sim, api_a, Endpoint("10.0.0.2", 80), response_bytes=4096,
        max_requests=25, start_delay=0.01,
    )
    rig.run(until=60.0)
    assert client.completed == 25
    assert server.requests_served == 25
    assert len(client.latency) == 25


def test_web_connections_do_not_leak():
    rig, api_a, api_b = make_apis()
    WebServer(rig.sim, api_b, port=80, response_bytes=1024)
    WebClient(
        rig.sim, api_a, Endpoint("10.0.0.2", 80), response_bytes=1024,
        max_requests=10, start_delay=0.01,
    )
    rig.run(until=60.0)
    rig.run(until=rig.sim.now + 5.0)
    assert rig.stack_a.connection_count == 0
    assert rig.stack_b.connection_count == 0
