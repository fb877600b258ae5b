"""Loss recovery pinned end to end, for every congestion control.

The SACK scoreboard, the sender's hole finder and the receiver's
reassembly queue sit under every CC, so a change to them must leave each
of these runs bit-identical: full-precision goodput, the stack-wide
recovery counters and the event count.  Values were recorded at the
commit before the scoreboard was indexed (PR 11, eb06b20), whose
``IntervalSet`` scanned from the head and whose BBR filter rescanned
every sample.  The event counts alone were re-pinned when the
delayed-ACK timer became a ``sim.Deadline`` (one queue entry per
unacknowledged run instead of one per segment), and again when the
handshake's RTO timer started stopping once nothing is outstanding (RFC
6298 5.2): one more no-op pop each, of the released timer's entry.
"""

import pytest

from repro.apps import BulkReceiver, BulkSender
from repro.experiments.common import make_wan_testbed
from repro.host.vm import GuestOS
from repro.net import Endpoint, IIDLoss
from repro.netkernel import NsmSpec

from conftest import RECOVERY_COUNTERS

DURATION, WARMUP = 12.0, 3.0

#: cc -> (repr(mbps), retransmits, fast_retransmits, timeouts, dup_acks,
#:        segments_out, segments_in, events)
FIG5_POINT = {
    "cubic": ("3.0297444638535094", 2, 2, 0, 216, 2691, 1428, 28576),
    "bbr": ("4.475506867275851", 1679, 3, 1, 2348, 5736, 2986, 50802),
    "ctcp": ("3.1466748959137356", 2, 2, 0, 236, 2724, 1460, 29044),
    "reno": ("1.780983489993637", 2, 2, 0, 144, 1655, 905, 18056),
}

#: Same path under 2 % i.i.d. loss: every CC spends the run in recovery.
IID_2PCT = {
    "cubic": ("1.1258481549983086", 24, 8, 0, 650, 990, 809, 11924),
    "bbr": ("0.7096880526033318", 839, 3, 1, 2463, 3480, 2548, 36369),
    "ctcp": ("0.28190474247956177", 15, 9, 0, 251, 549, 405, 6764),
    "reno": ("0.28834092381471155", 14, 8, 0, 242, 541, 391, 6626),
}


def run_wan_point(cc, loss):
    """Figure 5's "BBR NSM" configuration with the NSM's CC swapped."""
    testbed = make_wan_testbed(seed=1, loss=loss)
    client_vm = testbed.client_hypervisor.boot_legacy_vm("client", vcpus=2)
    nsm = testbed.server_hypervisor.boot_nsm(NsmSpec(congestion_control=cc))
    server_vm = testbed.server_hypervisor.boot_netkernel_vm(
        "server", nsm, guest_os=GuestOS.WINDOWS
    )
    receiver = BulkReceiver(
        testbed.client_sim, client_vm.api, port=5000, warmup=WARMUP
    )
    BulkSender(testbed.server_sim, server_vm.api, Endpoint(client_vm.api.ip, 5000))
    testbed.run(until=DURATION)
    stats = nsm.stack.stats
    observed = (
        repr(receiver.meter.bps(until=DURATION) / 1e6),
        stats.retransmits,
        stats.fast_retransmits,
        stats.timeouts,
        stats.dup_acks,
        stats.segments_out,
        stats.segments_in,
        testbed.events_processed,
    )
    return observed, nsm.stack


@pytest.mark.parametrize("cc", sorted(FIG5_POINT))
def test_figure5_point_bit_identical(cc):
    observed, _stack = run_wan_point(cc, loss=None)
    assert observed == FIG5_POINT[cc]


@pytest.mark.parametrize("cc", sorted(IID_2PCT))
def test_wan_under_iid_loss_bit_identical(cc, recovery_tally):
    observed, stack = run_wan_point(cc, loss=IIDLoss(0.02, seed=7))
    assert observed == IID_2PCT[cc]
    # The stack-wide aggregate is the sum of what its connections counted
    # (the bulk flow is still open, so none has been forgotten).
    conns = list(stack._connections.values())
    for name in RECOVERY_COUNTERS:
        assert getattr(stack.stats, name) == sum(
            recovery_tally[conn][name] for conn in conns
        )
