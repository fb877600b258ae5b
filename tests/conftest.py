"""Shared test fixtures and mini-rigs.

``linked_stacks`` builds the smallest possible end-to-end TCP rig: two
stacks joined by a duplex link, no hosts or hypervisors.  The heavier
NetKernel rigs live in the tests that need them.  ``step`` and ``peek``
drive a simulator one queue entry at a time.  ``recovery_tally`` counts
loss recovery per connection, which the program counts only per stack.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import heappop
from typing import Optional

import pytest

from repro.net import DuplexLink, LossModel, OffloadConfig, VirtualNIC
from repro.sim import Simulator
from repro.tcp import StackConfig, TcpConnection, TcpStack, TcpState


@dataclass
class LinkedStacks:
    sim: Simulator
    stack_a: TcpStack
    stack_b: TcpStack
    link: DuplexLink

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def make_linked_stacks(
    rate_bps: float = 1e9,
    delay: float = 1e-3,
    queue_bytes: int = 256 * 1024,
    loss: Optional[LossModel] = None,
    loss_reverse: Optional[LossModel] = None,
    tso: bool = False,
    cc_a: str = "cubic",
    cc_b: str = "cubic",
    ecn_threshold_bytes: Optional[int] = None,
    stack_config_a: Optional[StackConfig] = None,
    stack_config_b: Optional[StackConfig] = None,
) -> LinkedStacks:
    sim = Simulator()
    offload = OffloadConfig(tso=tso)
    nic_a = VirtualNIC(sim, "10.0.0.1", offload)
    nic_b = VirtualNIC(sim, "10.0.0.2", offload)
    link = DuplexLink(
        sim,
        rate_bps=rate_bps,
        propagation_delay=delay,
        queue_bytes=queue_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
        loss=loss,
        loss_reverse=loss_reverse,
        name="test-wire",
    )
    nic_a.downstream = lambda pkt, nic: link.a_to_b.send(pkt)
    nic_b.downstream = lambda pkt, nic: link.b_to_a.send(pkt)
    link.attach(nic_a.receive, nic_b.receive)
    stack_a = TcpStack(
        sim, nic_a, config=stack_config_a or StackConfig(congestion_control=cc_a)
    )
    stack_b = TcpStack(
        sim, nic_b, config=stack_config_b or StackConfig(congestion_control=cc_b)
    )
    return LinkedStacks(sim=sim, stack_a=stack_a, stack_b=stack_b, link=link)


def transfer(
    rig: LinkedStacks,
    total_bytes: int,
    port: int = 5000,
    time_limit: float = 300.0,
    write_size: int = 65536,
):
    """Run a complete A->B transfer; returns (received, finish_time, conn)."""
    result = {}

    def server(sim):
        listener = rig.stack_b.listen(port)
        conn = yield listener.accept()
        got = 0
        while True:
            n = yield conn.recv(1 << 20)
            if n == 0:
                break
            got += n
        result["received"] = got
        result["finished_at"] = sim.now
        yield conn.close()

    def client(sim):
        from repro.net import Endpoint

        conn = rig.stack_a.connect(Endpoint("10.0.0.2", port))
        result["client_conn"] = conn
        yield conn.established
        sent = 0
        while sent < total_bytes:
            n = min(write_size, total_bytes - sent)
            yield conn.send(n)
            sent += n
        yield conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.sim.run(until=time_limit)
    return result


def peek(sim: Simulator) -> float:
    """When the next queue entry fires (``inf`` on an empty queue)."""
    return sim._queue[0][0] if sim._queue else float("inf")


def step(sim: Simulator) -> None:
    """Run exactly the next queue entry: one turn of the loop in
    ``Simulator._run_through``, so ``events_processed`` seen inside a
    callback is the index of the entry that ran it."""
    when, _seq, target, args = heappop(sim._queue)
    sim.now = when
    sim.events_processed += 1
    if args is not None:
        target(*args)
    else:
        callbacks, target.callbacks = target.callbacks, None
        if callbacks:
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(target)
            else:
                callbacks(target)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


#: The ``StackStats`` counters a connection bumps for loss recovery.
RECOVERY_COUNTERS = ("retransmits", "fast_retransmits", "timeouts", "dup_acks")


def _timed_out(conn) -> bool:
    """Whether ``_rto_fire`` is about to count a timeout (not a SYN retry,
    not a stale fire with nothing outstanding)."""
    return (
        conn.state not in (TcpState.SYN_SENT, TcpState.SYN_RCVD)
        and conn.snd_una < conn.snd_nxt
    )


@pytest.fixture
def recovery_tally(monkeypatch):
    """Per-connection loss-recovery counts kept by the test: connection ->
    Counter over ``RECOVERY_COUNTERS``, one tick where the connection
    bumps its stack's counter.  Connections built before the fixture
    keep the unwrapped RTO (their deadline holds the function)."""
    tally = defaultdict(Counter)

    def count(name, counter, when=None):
        method = getattr(TcpConnection, name)

        def counted(conn, *args):
            if when is None or when(conn):
                tally[conn][counter] += 1
            return method(conn, *args)

        monkeypatch.setattr(TcpConnection, name, counted)

    count("_count_retransmit", "retransmits")
    count("_enter_fast_recovery", "fast_retransmits")
    count("_rto_fire", "timeouts", _timed_out)
    count("_on_dupack", "dup_acks")
    return tally
