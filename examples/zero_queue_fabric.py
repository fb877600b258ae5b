#!/usr/bin/env python3
"""Fastpass in the cloud: centralized arbitration as an NSM service (§5).

"Some new protocols such as Fastpass and pHost require coordination among
end-hosts and are deemed infeasible for public clouds.  They can now be
implemented as NSMs and deployed easily for all tenants."

Three bulk tenants hammer a 40 GbE fabric hop while an innocent RPC pair
shares the wire.  First plain TCP (the bulk flows keep the 2 MB switch
queue full), then the same tenants behind a provider-run Fastpass-style
arbiter granting wire timeslots.

Run:  python examples/zero_queue_fabric.py
"""

from repro.experiments.ablation_fastpass import run_fastpass_ablation


def main() -> None:
    result = run_fastpass_ablation(duration=0.4, warmup=0.1)
    print(result.text())
    tcp_only, fastpass = result.rows
    print(
        f"\nArbitration emptied the fabric queue "
        f"({tcp_only['queue_max_kb']:.0f} KB -> {fastpass['queue_max_kb']:.0f} KB) and cut "
        f"the neighbour's p99 from {tcp_only['rpc_p99_us']:.0f}us to "
        f"{fastpass['rpc_p99_us']:.0f}us,\nfor "
        f"{(1 - fastpass['aggregate_gbps'] / tcp_only['aggregate_gbps']) * 100:.0f}% of "
        f"bulk throughput.  Feasible only because the provider owns every stack."
    )


if __name__ == "__main__":
    main()
