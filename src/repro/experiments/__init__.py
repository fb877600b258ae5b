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
* :mod:`.chaos` — figure workloads under seeded fault plans.
* :mod:`.stackswap` — the same guest app on a TCP, then a QUIC NSM.
* :mod:`.common` — the LAN, WAN and cluster testbeds they all build on.

The package re-exports nothing: import a harness from its module
(``from repro.experiments.figure4 import run_figure4``), so a run loads
only the harness it runs.
"""
