#!/usr/bin/env python3
"""Per-container network stacks (§5 "Container").

"A container running a Spark task may use DCTCP for its traffic, while a
web server container may need BBR or CUBIC."  Today both are stuck with
the host's one stack; with NSaaS each container picks its own.

This example runs a Spark-like bulk container next to a latency-sensitive
RPC container on one host, across an ECN-capable 10 GbE fabric hop:

* shared host stack (everyone on Cubic): the bulk flow fills the fabric
  queue and the RPC container's tail latency balloons;
* NSaaS (the Spark container on a DCTCP NSM): same bulk throughput, and
  the fabric queue stays at the ECN marking threshold, collapsing the
  neighbour's tail latency.

Run:  python examples/container_stacks.py
"""

from repro.experiments.ablation_containers import run_container_ablation


def main() -> None:
    result = run_container_ablation(duration=0.4)
    print(result.text())
    shared, nsaas = result.rows
    improvement = shared["rpc_p99_us"] / nsaas["rpc_p99_us"]
    print(
        f"\nSame host, same workloads: letting the Spark container pick "
        f"DCTCP cut the\nRPC container's p99 latency {improvement:.1f}x "
        f"while keeping {nsaas['spark_gbps']:.1f} Gbps of bulk throughput."
    )


if __name__ == "__main__":
    main()
