"""Compare two sets of benchmark runs, or summarise one set.

    python3 bench/compare.py BASE_DIR [CHANGE_DIR]

A set is a directory of untraced run records written by ``run.py --out DIR``
(``*-trace0.json``).  For every workload and end-to-end metric in
``BENCHMARK.json`` the tool prints each side's run count, median, first and
third quartile, and spread (quartile distance over median).  Given two sets
it adds a verdict under the metric's bound:

* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``unresolved``: otherwise, if either side's spread exceeds the bound, unless
  every change run beats every base run, which reads ``better``;
* ``better``: the change beats the base in at least nine tenths of the run
  pairs (runs paired in seed order, ties counting for neither) and the
  medians differ by more than the base's quartile distance;
* ``unchanged``: anything else.

It also prints each side's share of failed operations and flags runs whose
outputs failed a check.  Exit status: 1 if any verdict is ``worse`` or the
failed shares differ, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, each list sorted by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base: list[float], change: list[float], bound: float, lower_better: bool) -> str:
    sign = 1.0 if lower_better else -1.0  # positive deltas are worse
    b_med, b_q1, b_q3, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    if max(b_spread, c_spread) > bound:
        all_better = all(sign * (c - b) < 0 for c in change for b in base)
        return "better" if all_better else "unresolved"
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1:
        return "better"
    return "unchanged"


def failed_share(records: list[dict]) -> Fraction:
    attempted = sum(r["result"]["attempted"] for r in records)
    return Fraction(sum(r["result"]["failed"] for r in records), attempted)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load_set(Path(a)) for a in argv]
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [s.get(workload, []) for s in sets]
        if not all(sides):
            print(f"{workload}: no runs in " + ", ".join(a for a, s in zip(argv, sides) if not s))
            continue
        shares = [failed_share(s) for s in sides]
        bad = [r["seed"] for s in sides for r in s if not r["result"]["correct"]]
        print(f"{workload}: runs {' vs '.join(str(len(s)) for s in sides)}, "
              f"failed share {' vs '.join(str(x) for x in shares)}"
              + (f", CHECKS FAILED at seeds {bad}" if bad else ""))
        if len(set(shares)) > 1:
            print("  failed shares differ")
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cols = []
            values = [[r["result"]["metrics"][name]["value"] for r in s] for s in sides]
            for v in values:
                med, q1, q3, spread = summary(v)
                cols.append(f"{med:10.4f} [{q1:.4f}, {q3:.4f}] spread {spread:.3f}")
            line = f"  {name:14s} {metric['unit']:5s} " + " | ".join(cols)
            if len(values) == 2:
                v = verdict(values[0], values[1], metric["bound"], metric["better"] == "lower")
                status = 1 if v == "worse" else status
                line += f"  -> {v} (bound {metric['bound']})"
            elif summary(values[0])[3] > metric["bound"]:
                line += f"  spread above bound {metric['bound']}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
