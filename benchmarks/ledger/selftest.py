"""Self-test of the ledger's own bookkeeping; run by hand.

    python3 benchmarks/ledger/selftest.py [LEDGER.json]

Checks that ``BENCHMARK.json`` is ``spec.contract()`` written out and
within the contract's limits, then that a ledger document (default: the
committed ``baseline.json``) reports every end-to-end metric for every
workload and that the packages' self-time shares sum to one.
"""

from __future__ import annotations

import json
import os
import re
import sys

import layers
import spec

HERE = os.path.dirname(os.path.abspath(__file__))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_contract(errors) -> None:
    with open(os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    contract = spec.contract()
    if committed != contract:
        errors.append("BENCHMARK.json differs from spec.contract(); regenerate it")
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    names = []
    for key, (low, high) in limits.items():
        if not low <= len(contract[key]) <= high:
            errors.append(f"{len(contract[key])} {key}, allowed {low}..{high}")
        names += [row["name"] for row in contract[key]]
    for name in names:
        if not NAME.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for row in contract["workloads"]:
        if len(row["why"]) > 200 or "\n" in row["why"]:
            errors.append(f"why of {row['name']} is not one line of <= 200 chars")
    for row in contract["end_to_end"] + contract["per_layer"]:
        if not UNIT.match(row["unit"]):
            errors.append(f"bad unit {row['unit']!r} on {row['name']}")
        if row["better"] not in ("higher", "lower"):
            errors.append(f"bad direction on {row['name']}")
    for row in contract["end_to_end"]:
        if not 0 < row["bound"] <= 0.25:
            errors.append(f"bound of {row['name']} outside (0, 0.25]")
    setup = [r for r in contract["end_to_end"] if r["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) missing from end_to_end")
    if not 1 <= contract["run_seconds"] <= 60:
        errors.append("run_seconds outside 1..60")


def check_ledger(path, errors) -> None:
    with open(path) as fh:
        document = json.load(fh)
    for name, _why in spec.WORKLOADS:
        record = document["workloads"].get(name)
        if record is None:
            errors.append(f"{path}: workload {name} missing")
            continue
        for metric, *_rest in spec.END_TO_END:
            row = record["end_to_end"].get(metric)
            if row is None or not row["median"] > 0:
                errors.append(f"{path}: {name} has no positive {metric}")
        if not record["correct"]:
            errors.append(f"{path}: {name} failed its output checks")
        if "per_layer" in record:
            total = sum(record["per_layer"][f"{p}.self_share"]
                        for p in layers.PACKAGES)
            if abs(total - 1.0) > 1e-6:
                errors.append(f"{path}: {name} self shares sum to {total}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    errors = []
    check_contract(errors)
    check_ledger(argv[0] if argv else os.path.join(HERE, "baseline.json"), errors)
    for error in errors:
        print(f"FAIL: {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
