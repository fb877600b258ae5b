"""A run imports only what it runs.

Package ``__init__``s re-export only the modules every run needs; the
experiment harnesses, RDMA, Fastpass, migration, the fluid engine, QUIC,
the management plane and the parallel runner are imported from their own
modules by the runs that use them (as are the RPC apps, the periodic
sampler and the cluster core switch).  Every import a run needs happens
while the world is built, before ``testbed.run``, so no import lands in
a timed window.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

#: Module-name prefixes a plain NetKernel bulk run must not load.
UNUSED = (
    "repro.experiments.",
    "repro.apps.rpc",
    "repro.stats.series",
    "repro.net.fabric",
    "repro.mgmt",
    "repro.rdma",
    "repro.netkernel.rdma_nsm",
    "repro.netkernel.arbiter",
    "repro.netkernel.migration",
    "repro.sim.fluid",
    "repro.quic",
    "repro.parallel",
)

PROBE = textwrap.dedent(
    """
    import json
    import sys

    from repro.apps import BulkReceiver, BulkSender
    from repro.experiments.common import make_lan_testbed
    from repro.net import Endpoint
    from repro.netkernel import NsmSpec

    def loaded():
        return {name for name in sys.modules if name.split(".")[0] == "repro"}

    testbed = make_lan_testbed()
    vms = []
    for name, hypervisor in (("client", testbed.hypervisor_a), ("server", testbed.hypervisor_b)):
        nsm = hypervisor.boot_nsm(NsmSpec())
        vms.append(hypervisor.boot_netkernel_vm(name, nsm, vcpus=2))
    client, server = vms
    receiver = BulkReceiver(testbed.sim, server.api, 5000)
    BulkSender(testbed.sim, client.api, Endpoint(server.api.ip, 5000))
    built = loaded()
    testbed.run(until=0.004)
    ran = loaded()

    from repro.runstate import reset_run_ids

    reset_run_ids()
    print(json.dumps({
        "built": sorted(built),
        "in_run": sorted(ran - built),
        "in_reset": sorted(loaded() - ran - {"repro.runstate"}),
        "delivered": receiver.meter.bytes,
    }))
    """
)


def _probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        check=True,
        env=env,
        timeout=120,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_a_netkernel_bulk_run_imports_only_what_it_runs():
    result = _probe()
    assert result["delivered"] > 0, "the probe run moved no data"
    unused = [
        name
        for name in result["built"]
        if name.startswith(UNUSED) and name != "repro.experiments.common"
    ]
    assert not unused, f"loaded but not run: {unused}"
    assert result["in_run"] == [], f"first imported inside testbed.run: {result['in_run']}"
    assert result["in_reset"] == [], f"imported by reset_run_ids: {result['in_reset']}"
