"""Compare two ledgers: ``python3 benchmarks/ledger/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians and quartiles,
the ratio B/A (A is the base) and a verdict:

* **sim** metrics and exact counters repeat exactly for a fixed seed, so
  two ledgers of the same seed compare by equality: any difference is
  ``better`` or ``worse`` (``differs`` for a counter), never noise.
  Ledgers of different seeds are refused: their sim metrics and counters
  differ by the seed alone;
* **host** metrics are ``worse`` when B's median is worse than A's by more
  than the metric's bound and ``better`` when it is better by more than
  A's own spread (the distance between A's quartiles);
* ``unresolved`` when A's spread is itself wider than the bound - the
  measurement cannot tell - unless every run of B reads better than every
  run of A.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

import spec


def _verdict(a: Dict, b: Dict, base: str, better: str, bound: float):
    """(signed share by which B is worse than A, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if base == "sim":
        if b["median"] == a["median"]:
            return 0.0, "same"
        return worse_by, "worse" if worse_by > 0 else "better"
    spread = (a["q3"] - a["q1"]) / a["median"]
    if spread > bound:
        a_vals = [sign * v for v in a["values"]]
        b_vals = [sign * v for v in b["values"]]
        if max(b_vals) < min(a_vals):
            return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if -worse_by > spread:
        return worse_by, "better"
    return worse_by, "same"


def compare(a: Dict, b: Dict) -> List[Dict]:
    """Rows for every workload the two ledger documents share."""
    if a["seed"] != b["seed"]:
        raise ValueError(f"ledgers of different seeds ({a['seed']} and "
                         f"{b['seed']}) differ by the seed alone; measure "
                         "both with one --seed")
    rows = []
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            continue
        for metric, unit, base, better, bound in spec.END_TO_END:
            ma, mb = rec_a["end_to_end"][metric], rec_b["end_to_end"][metric]
            worse_by, verdict = _verdict(ma, mb, base, better, bound)
            rows.append({"workload": name, "metric": metric, "unit": unit,
                         "time_base": base, "bound": bound, "a": ma, "b": mb,
                         "worse_by": worse_by, "verdict": verdict})
        for counter, va in rec_a["exact"].items():
            vb = rec_b["exact"].get(counter)
            if va != vb:
                rows.append({"workload": name, "metric": counter, "unit": "",
                             "time_base": "sim", "bound": 0.0,
                             "a": {"median": va}, "b": {"median": vb},
                             "worse_by": None, "verdict": "differs"})
    return rows


def agrees(row: Dict) -> bool:
    """Whether two measurements of the *same* code may produce this row."""
    if row["time_base"] == "sim":
        return row["verdict"] == "same"
    return abs(row["worse_by"]) <= row["bound"]


def print_rows(rows: List[Dict]) -> None:
    print(f"{'workload':<17}{'metric':<28}{'A median [q1, q3]':<38}"
          f"{'B median [q1, q3]':<38}{'B/A (base A)':<30}verdict")
    for row in rows:
        a, b = row["a"], row["b"]

        def cell(m):
            if "q1" not in m:
                return f"{m['median']}"
            return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"

        ratio = ""
        if row["worse_by"] is not None:
            ratio = (f"{b['median'] / a['median']:.4f} of "
                     f"{a['median']:.6g} {row['unit']}")
        print(f"{row['workload']:<17}{row['metric']:<28}{cell(a):<38}"
              f"{cell(b):<38}{ratio:<30}{row['verdict']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        try:
            rows = compare(json.load(fa), json.load(fb))
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    print_rows(rows)
    return 1 if any(r["verdict"] in ("worse", "differs") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
