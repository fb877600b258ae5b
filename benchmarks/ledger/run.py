"""The perf ledger: one command, seven workloads, host and sim metrics.

    python3 benchmarks/ledger/run.py                 # whole ledger
    python3 benchmarks/ledger/run.py --aa            # same code twice, must agree
    python3 benchmarks/ledger/run.py --workload lan_bulk --seed 3 --seconds 9 --trace 0

Every repeat of every workload runs in a fresh subprocess (``worker.py``).
End-to-end metrics come from untraced repeats only; ``--trace 1`` adds one
``cProfile`` pass and one ``repro.obs`` pass per workload and reports the
per-layer block beside them.  Every run checks its outputs.  With exactly
one ``--workload`` the last line printed is the result object of
``BENCHMARK.json``'s contract.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import compare
import spec

HERE = os.path.dirname(os.path.abspath(__file__))

#: Hash randomisation is pinned in every worker so dict/set iteration
#: order can never be a source of run-to-run difference.
PYTHONHASHSEED = "0"
#: No single pass may take longer than this (the slowest, a profile pass,
#: takes about 13 s on the recorded host).
PASS_TIMEOUT_S = 150


def run_pass(workload: str, seed: int, pass_: str) -> Dict:
    """One worker process; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--pass", pass_]
    if pass_ == "profile":
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        cmd += ["--pstats", os.path.join(HERE, "out", f"{workload}.pstats")]
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} {pass_} pass exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(seed: int, plain: List[Dict],
              traced: Optional[Dict[str, Dict]]) -> Dict:
    """Fold one workload's passes into its ledger record, checking outputs."""
    runs = plain + list((traced or {}).values())
    failures = [f"{run['pass']}: {c['name']}: {c['detail']}"
                for run in runs for c in run["checks"] if not c["ok"]]
    first = plain[0]
    # A deterministic simulator: any drift between repeats, or between a
    # traced pass and the untraced ones, is a bug in the program.
    for run in runs[1:]:
        for block in ("sim", "exact"):
            if run[block] != first[block]:
                differing = sorted(k for k in first[block]
                                   if run[block].get(k) != first[block][k])
                failures.append(f"{run['pass']} pass: {block} metrics differ "
                                f"from the first repeat: {differing}")

    end_to_end = {}
    for metric, unit, base, _better, _bound in spec.END_TO_END:
        values = [run[base][metric] for run in plain]
        q1, median, q3 = quartiles(values)
        end_to_end[metric] = {"unit": unit, "time_base": base, "median": median,
                              "q1": q1, "q3": q3, "mean": statistics.mean(values),
                              "n": len(values), "values": values}

    record = {
        "seed": seed,
        "end_to_end": end_to_end,
        "attempted": first["attempted"],
        "failed": first["failed"] if not failures else first["attempted"],
        "correct": not failures,
        "failures": failures,
        "exact": first["exact"],
    }
    if traced is not None:
        layer = dict(first["exact"])
        # Host timings of the untraced repeats that belong to one layer.
        for metric in first["host"].keys() - end_to_end.keys():
            layer[metric] = statistics.median(run["host"][metric] for run in plain)
        layer.update(traced["profile"]["profile"])
        layer.update(traced["obs"]["obs"])
        wall = end_to_end["wall_s"]["median"]
        layer["trace.profile_overhead"] = traced["profile"]["host"]["wall_s"] / wall
        layer["trace.obs_overhead"] = traced["obs"]["host"]["wall_s"] / wall
        # Indexed, not defaulted: a counter the worker stopped emitting must
        # not read as the 0 a packet workload is expected to show.
        record["per_layer"] = {n: layer[n] for n, _u, _b in spec.PER_LAYER}
    return record


def run_suite(names: List[str], seed: int, repeats: int, trace: bool,
              sides: int = 1) -> List[Dict[str, Dict]]:
    """Measure ``names``; ``sides=2`` measures everything twice, A/A.

    Repeats go round-robin over workloads (and sides, alternating which
    goes first), so slow drift of the host lands on all of them alike.
    """
    plain = {(side, name): [] for side in range(sides) for name in names}
    for repeat in range(repeats):
        for name in names:
            order = range(sides) if repeat % 2 == 0 else reversed(range(sides))
            for side in order:
                run = run_pass(name, seed, "plain")
                plain[side, name].append(run)
                print(f"  {name} repeat {repeat + 1}/{repeats}"
                      f"{' side ' + 'AB'[side] if sides > 1 else ''}: "
                      f"wall_s {run['host']['wall_s']:.3f}", flush=True)
    ledgers = []
    for side in range(sides):
        ledger = {}
        for name in names:
            traced = None
            if trace:
                traced = {p: run_pass(name, seed, p) for p in ("profile", "obs")}
            ledger[name] = summarise(seed, plain[side, name], traced)
        ledgers.append(ledger)
    return ledgers


def host_block() -> Dict:
    """The machine the numbers belong to."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": list(os.getloadavg()),
        "pythonhashseed": PYTHONHASHSEED,
    }


def print_record(name: str, record: Dict) -> None:
    print(f"== {name} (seed {record['seed']}) ==")
    for metric, row in record["end_to_end"].items():
        print(f"  {metric:<18} {row['time_base']:<4} {row['median']:>14.6g} "
              f"{row['unit']:<7} q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
              f"mean {row['mean']:.6g}  n={row['n']}")
    exact = record["exact"]
    if exact["sim_op_samples"]:
        print(f"  sim_op_p50_us      sim  {exact['sim_op_p50_us']:>14.6g} us      "
              f"sim_op_p99_us {exact['sim_op_p99_us']:.6g} us  "
              f"from {exact['sim_op_samples']} operations")
    else:
        print("  sim_op_p50_us      sim             n/a          "
              "(no application operation; bulk transfer)")
    print(f"  open-loop generator lateness "
          f"{exact['apps.open_loop_lateness_us']:g} us")
    print(f"  operations attempted {record['attempted']}, failed "
          f"{record['failed']} (fail_share "
          f"{record['failed'] / record['attempted']:g})")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")
    if not record["failures"]:
        print("  output checks: all passed")
    units = {n: unit for n, unit, _b in spec.PER_LAYER}
    for metric, value in record.get("per_layer", {}).items():
        if value:
            print(f"    {metric:<34} {value:>16.6g} {units[metric]}")


def result_object(record: Dict, trace: bool) -> Dict:
    """The contract's last line for one workload.

    It carries the *mean* of the run's three repeats, not their median.
    Host speed here has modes (about 0.75x, 1x and 1.4x of the usual,
    each lasting from a second to minutes), and the median of three
    samples from such a clock is one mode or another: between runs of
    the same code it jumps by the whole gap.  The mean moves by the share
    of slow repeats only (measured: README, "Host noise").  Sim metrics
    repeat exactly, so for them the two are one number.
    """
    if trace:
        units = {n: unit for n, unit, _b in spec.PER_LAYER}
        metrics = {n: {"value": v, "unit": units[n]}
                   for n, v in record["per_layer"].items()}
    else:
        metrics = {n: {"value": row["mean"], "unit": row["unit"]}
                   for n, row in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    names = [n for n, _why in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all seven")
    parser.add_argument("--repeats", type=int,
                        help="untraced repeats per workload (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="measuring budget per workload: one repeat per "
                             f"{spec.NOMINAL_WINDOW_S:g} s (sets --repeats)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run the profile and obs passes")
    parser.add_argument("--aa", action="store_true",
                        help="measure twice, interleaved; fail if they disagree")
    parser.add_argument("--out", default=os.path.join(HERE, "out", "ledger.json"))
    args = parser.parse_args(argv)

    selected = args.workload or names
    repeats = args.repeats
    if repeats is None:
        repeats = 5 if args.seconds is None else max(
            1, round(args.seconds / spec.NOMINAL_WINDOW_S))
    host = host_block()
    ledgers = run_suite(selected, args.seed, repeats, bool(args.trace),
                        sides=2 if args.aa else 1)
    documents = [{"host": host, "seed": args.seed, "repeats": repeats,
                  "workloads": ledger} for ledger in ledgers]
    for name, record in documents[0]["workloads"].items():
        print_record(name, record)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(documents[0], fh, indent=1)
    ok = all(r["correct"] for d in documents for r in d["workloads"].values())
    if args.aa:
        rows = compare.compare(documents[0], documents[1])
        compare.print_rows(rows)
        disagree = [r for r in rows if not compare.agrees(r)]
        print(f"A/A: {len(disagree)} of {len(rows)} rows disagree")
        ok = ok and not disagree
    if len(selected) == 1:
        print(json.dumps(result_object(documents[0]["workloads"][selected[0]],
                                       bool(args.trace))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
