"""Experiment harnesses regenerating every table and figure in the paper.

* :mod:`.figure4` — Figure 4: native Cubic vs Cubic NSM throughput.
* :mod:`.table1` — Table 1: memory copy latency.
* :mod:`.microbench` — §4.2: nqe copy cost and channel throughput.
* :mod:`.figure5` — Figure 5: Windows VM with BBR NSM on the WAN path.
* :mod:`.ablation_nsm_form` — §5: NSM form factor tradeoffs.
* :mod:`.ablation_priority` — §3.2: priority queues vs HoL blocking.
* :mod:`.ablation_notify` — §5: polling vs batched interrupts.
* :mod:`.ablation_multiplexing` — §2.1: shared-NSM multiplexing gains.
* :mod:`.ablation_containers` — §5: per-container network stacks.
* :mod:`.ablation_qos` — §5: per-tenant QoS (rate caps) on shared NSMs.
* :mod:`.ablation_fastpass` — §5: Fastpass-style arbitration as an NSM service.
* :mod:`.ablation_connscale` — §5: short-connection scalability (+ the
  multi-queue ServiceLib fix).
"""

from .chaos import (
    ChaosResult,
    default_random_plan,
    render_fuzz_sweep,
    run_chaos,
    run_chaos_fuzz,
    run_chaos_smoke,
)
from .common import (
    ClusterTestbed,
    LanTestbed,
    WanTestbed,
    default_wan_loss,
    make_cluster_testbed,
    make_lan_testbed,
    make_wan_testbed,
)
from .figure4 import Figure4Result, run_figure4
from .figure5 import Figure5Result, run_figure5
from .microbench import MicrobenchResult, run_microbench
from .stackswap import StackSwapResult, run_stackswap
from .table1 import Table1Result, run_table1
from .ablation_connscale import ConnScaleResult, run_connscale_ablation
from .ablation_containers import ContainerResult, run_container_ablation
from .ablation_multiplexing import MultiplexResult, run_multiplexing_ablation
from .ablation_notify import NotifyResult, run_notify_ablation
from .ablation_nsm_form import NsmFormResult, run_nsm_form_ablation
from .ablation_priority import PriorityResult, run_priority_ablation
from .ablation_fastpass import FastpassResult, run_fastpass_ablation
from .ablation_qos import QosResult, run_qos_ablation

__all__ = [
    "LanTestbed",
    "WanTestbed",
    "ClusterTestbed",
    "make_cluster_testbed",
    "make_lan_testbed",
    "make_wan_testbed",
    "default_wan_loss",
    "ChaosResult",
    "default_random_plan",
    "run_chaos",
    "run_chaos_fuzz",
    "run_chaos_smoke",
    "render_fuzz_sweep",
    "Figure4Result",
    "run_figure4",
    "Figure5Result",
    "run_figure5",
    "Table1Result",
    "run_table1",
    "MicrobenchResult",
    "run_microbench",
    "StackSwapResult",
    "run_stackswap",
    "NsmFormResult",
    "run_nsm_form_ablation",
    "PriorityResult",
    "run_priority_ablation",
    "NotifyResult",
    "run_notify_ablation",
    "MultiplexResult",
    "run_multiplexing_ablation",
    "ContainerResult",
    "run_container_ablation",
    "QosResult",
    "run_qos_ablation",
    "FastpassResult",
    "run_fastpass_ablation",
    "ConnScaleResult",
    "run_connscale_ablation",
]
