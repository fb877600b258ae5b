"""Fire order and pending-queue population of the one ``heapq`` scheduler.

* engine-level FIFO at equal timestamps (order under every entry kind
  and drive is the hypothesis property in ``tests/test_sim_calls.py``);
* figure4/figure5 golden pins — the paper figures, byte-for-byte
  (regenerate with the calls below if a deliberate model change moves
  them; the diff is the review artifact);
* how many entries the queue holds on the three workload shapes the
  ledger measures (bulk, fan-in, connection churn): a lingering timer per
  segment, per nqe or per closed connection shows up here long before it
  shows up as wall-clock.
"""

import os

from conftest import peek, step


def test_engine_fires_equal_timestamps_fifo():
    """Callbacks scheduled for the same instant run in schedule order."""
    from repro.sim import Simulator

    sim = Simulator()
    fired = []
    # interleave two instants, scheduled out of order
    for i in range(64):
        sim.schedule_call(0.002, fired.append, (2, i))
    for i in range(64):
        sim.schedule_call(0.001, fired.append, (1, i))
    sim.run(until=0.01)
    assert fired == [(1, i) for i in range(64)] + [(2, i) for i in range(64)]


# -- figure goldens ---------------------------------------------------------

FIG4_KWARGS = dict(flow_counts=(1, 2), duration=0.06, warmup=0.02)

#: flows -> (repr(native_gbps), repr(nsm_gbps))
FIG4_GOLDEN = {
    1: ("22.37691832065372", "26.875379803169846"),
    2: ("37.648449484292264", "37.63969544216942"),
}

FIG5_KWARGS = dict(duration=3.0, warmup=1.0, seeds=(1,))

#: label -> repr(mbps)
FIG5_GOLDEN = {
    "BBR NSM": "4.239659238967965",
    "Linux BBR": "4.239657454702333",
    "Windows CTCP": "1.6560674798839108",
    "Linux Cubic": "1.9898992643664382",
}


def test_figure4_full_repr_golden():
    from repro.experiments.figure4 import run_figure4

    result = run_figure4(**FIG4_KWARGS)
    observed = {
        row.flows: (repr(row.native_gbps), repr(row.nsm_gbps))
        for row in result.rows
    }
    assert observed == FIG4_GOLDEN


def test_figure5_full_repr_golden():
    from repro.experiments.figure5 import run_figure5

    result = run_figure5(**FIG5_KWARGS)
    observed = {row.label: repr(row.mbps) for row in result.rows}
    assert observed == FIG5_GOLDEN


# -- what the queue holds ---------------------------------------------------
def _pending_at_samples(testbed, end, samples=20):
    pending = []
    for i in range(1, samples + 1):
        testbed.run(until=end * i / samples)
        pending.append(len(testbed.sim._queue))
    return pending


def test_lan_bulk_keeps_a_handful_of_entries_pending():
    """Fig. 4, 2 NetKernel flows: 9-12 pending, on the ledger's
    ``lan_bulk`` and here (``_rto_fire`` per endpoint plus the wire and
    copy hops in flight).  Nothing in the datapath scales with bytes."""
    from repro.experiments.figure4 import _build_lan_world

    testbed, _receivers = _build_lan_world("netkernel", 2)
    pending = _pending_at_samples(testbed, 0.02)
    assert 0 < max(pending) <= 64, pending


def test_one_send_on_the_figure4_world_costs_27_events_5_of_them_zero_delay():
    """The census behind DESIGN.md's "What a ``send()`` costs": per send,
    22 timed entries (ring pumps, core and copy charges, TCP and wire
    hops) and 5 zero-delay ones — 2 benchmark-app resumes (Events) and 3
    library continuations (bare calls).  A change that adds, fuses or
    re-wraps a hop moves these counts."""
    from repro.experiments.figure4 import _build_lan_world
    from repro.runstate import reset_run_ids
    from repro.sim import Event

    reset_run_ids()
    testbed, _receivers = _build_lan_world("netkernel", 2)
    sim = testbed.sim
    testbed.run(until=0.005)
    (client,) = testbed.hypervisor_a.coreengine._vms.values()
    calls, events = client.guestlib.calls_issued, sim.events_processed
    seen = max(entry[1] for entry in sim._queue)
    zero_delay = zero_delay_events = 0
    end = sim.now + 0.002
    while peek(sim) <= end:
        step(sim)
        for when, seq, target, _args in sim._queue:
            if seq > seen and when == sim.now:
                zero_delay += 1
                zero_delay_events += isinstance(target, Event)
        seen = max(entry[1] for entry in sim._queue)
    sends = client.guestlib.calls_issued - calls
    events = sim.events_processed - events
    assert (sends, events, zero_delay) == (144, 3875, 717)
    assert round(events / sends) == 27 and round(zero_delay / sends) == 5
    assert round(zero_delay_events / sends) == 2


def test_fanin_pending_entries_are_a_few_per_connection(monkeypatch):
    """One data ``_rto_fire`` per client, one sender sleep and one
    ``_send_ack`` per connection at most, plus the dead entries of
    released handshake RTO timers that no purge has dropped yet: peak
    2.87 x connections here, 3.5 x while each endpoint kept its
    handshake's timer armed."""
    from repro.runstate import reset_run_ids

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "ledger")
    )
    from workloads import _fanin

    n_conns = 200
    reset_run_ids()
    world = _fanin(1, None, n_conns, messages_per_conn=2,
                   message_bytes=512, send_spacing=2e-6)
    pending = _pending_at_samples(world.testbed, world.run_until[-1])
    result = world.results()
    assert result["failed"] == 0 and result["attempted"] == 2 * n_conns
    assert n_conns <= max(pending) <= 3 * n_conns, pending


def test_a_fanin_purges_its_released_handshake_timers_in_the_connect_phase(monkeypatch):
    """Each endpoint releases its handshake RTO timer at establishment,
    an entry due a second later that can only pop as a no-op.  Dead
    entries are purged once they reach the floor and a quarter of the
    queue, so by the end of the connect phase nearly all are gone and the
    send wave reuses their memory: 9 of 200 are left here, 160 when the
    purge waited for the dead to outnumber the live entries.  The floor
    is scaled down with the world (200 connections, not 10 000)."""
    from repro.runstate import reset_run_ids
    from repro.sim import engine
    from repro.sim.engine import Deadline

    monkeypatch.setattr(engine, "_PURGE_FLOOR", 16)
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "ledger")
    )
    from workloads import CONNECT_SPACING, _fanin

    n_conns = 200
    reset_run_ids()
    world = _fanin(1, None, n_conns, messages_per_conn=2,
                   message_bytes=512, send_spacing=2e-6)
    testbed = world.testbed
    testbed.run(until=n_conns * CONNECT_SPACING + 0.005)  # the connect phase
    released = [
        entry for entry in testbed.sim._queue
        if type(entry[2]) is Deadline and entry[2].owner is None
    ]
    assert all(entry[2].func.__name__ == "_rto_fire" for entry in released)
    assert len(released) < n_conns // 10, len(released)
    testbed.run(until=world.run_until[-1])
    assert world.results()["failed"] == 0


def test_churn_pending_entries_stay_within_twice_the_live_ones():
    """Connect/request/close churn through one NSM pair: a closed
    connection's deadline entries are dead (released, or retired when a
    deadline moved earlier) but stay queued until their 0.2-1 s timeouts
    pop.  The simulator purges them once they reach the floor and a
    quarter of the queue, so at every sample the queue holds at most
    twice its live entries plus the floor.  Without the purge the
    last samples hold 3.5 dead entries per live one."""
    from repro.apps import WebClient, WebServer
    from repro.experiments.common import make_lan_testbed
    from repro.net import Endpoint
    from repro.netkernel import NsmSpec
    from repro.sim.engine import _PURGE_FLOOR, Deadline

    def dead(entry):
        deadline = entry[2]
        if type(deadline) is not Deadline:
            return False
        return entry[0] is not deadline._at or deadline.owner is None

    clients = 8
    testbed = make_lan_testbed()
    hv_a, hv_b = testbed.hypervisor_a, testbed.hypervisor_b
    client_vm = hv_a.boot_netkernel_vm("clients", hv_a.boot_nsm(NsmSpec()), vcpus=4)
    server_vm = hv_b.boot_netkernel_vm("server", hv_b.boot_nsm(NsmSpec()), vcpus=4)
    WebServer(testbed.sim, server_vm.api, port=80)
    workers = [
        WebClient(testbed.sim, client_vm.api, Endpoint(server_vm.api.ip, 80),
                  start_delay=0.001 + 0.0005 * i)
        for i in range(clients)
    ]
    queue = testbed.sim._queue
    over = []
    for i in range(1, 21):
        testbed.run(until=0.03 * i / 20)
        n_dead = sum(map(dead, queue))
        live = len(queue) - n_dead
        if len(queue) > 2 * live + _PURGE_FLOOR:
            over.append((i, len(queue), n_dead))
    # One connection per request: connect, send, receive, close.
    assert sum(w.completed for w in workers) >= 1000
    assert over == []
