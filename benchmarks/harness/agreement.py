"""Compare two sets of benchmark runs of the same code.

    python -m benchmarks.harness.agreement SET_A SET_B

Each set is an ``--out`` directory of ``python -m benchmarks.harness``
with its ``summary.json``. For every workload and end-to-end metric the
table gives both medians over the seeds, both quartile spreads (quartile
distance as a share of the median), and the change of the second median
against the first. A row agrees when both spreads are within the
metric's bound (``setup_s`` is exempt from the spread rule) and the
second median is no worse than the first by more than the bound.
"""

from __future__ import annotations

import json
import os
import sys

from benchmarks.harness.run import ROOT


def load(directory):
    with open(os.path.join(directory, "summary.json"), encoding="utf-8") as handle:
        return json.load(handle)


def agreement_table(first, second, benchmark):
    lines = [
        "| workload | metric | unit | first median | first spread "
        "| second median | second spread | change | bound | agrees |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    all_agree = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = first["workloads"][workload]["end_to_end"][name]
            b = second["workloads"][workload]["end_to_end"][name]
            change = b["median"] / a["median"] - 1.0
            worse = change if metric["better"] == "lower" else -change
            spreads_ok = name == "setup_s" or (
                a["spread"] <= a["bound"] and b["spread"] <= a["bound"]
            )
            agrees = spreads_ok and worse <= a["bound"]
            all_agree = all_agree and agrees
            lines.append(
                f"| {workload} | {name} | {a['unit']} | {a['median']:.4g} "
                f"| {a['spread']:.1%} | {b['median']:.4g} | {b['spread']:.1%} "
                f"| {change:+.1%} | {a['bound']:.0%} | {'yes' if agrees else 'NO'} |"
            )
    return "\n".join(lines), all_agree


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    table, all_agree = agreement_table(load(argv[0]), load(argv[1]), benchmark)
    print(table)
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
