#!/usr/bin/env python3
"""Compare two BENCH_<rev>.json files metric by metric.

    python3 tools/bench_diff.py BENCH_<parent>.json BENCH_<change>.json

For each workload and each gated end-to-end metric of ``BENCHMARK.json``
it prints the two p50s over the recorded seeds, their ratio (change over
parent), which direction ``BENCHMARK.json`` calls better, which side is
better by that direction, and whether the two p25-p75 ranges overlap. A
metric missing from either file prints ``-``. Nothing here is a gate: the
exit code is 0 whenever both files could be read. Standard library only.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("workload", "metric", "better", "parent_p50", "change_p50", "ratio", "winner", "iqr_overlap")


def _side(p50_parent: float, p50_change: float, better: str) -> str:
    if p50_change == p50_parent:
        return "tie"
    return "change" if (p50_change < p50_parent) == (better == "lower") else "parent"


def rows(parent: dict, change: dict, benchmark: dict) -> list[tuple[str, ...]]:
    """One row of strings per workload and gated metric, in HEADER's order."""
    out = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, better = metric["name"], metric["better"]
            a = parent.get("gated", {}).get(workload, {}).get("metrics", {}).get(name)
            b = change.get("gated", {}).get(workload, {}).get("metrics", {}).get(name)
            if a is None or b is None:
                out.append((workload, name, better, "-", "-", "-", "-", "-"))
                continue
            ratio = f"{b['p50'] / a['p50']:.3f}" if a["p50"] else "-"
            overlap = a["p25"] <= b["p75"] and b["p25"] <= a["p75"]
            out.append((
                workload, name, better, f"{a['p50']:.5g}", f"{b['p50']:.5g}", ratio,
                _side(a["p50"], b["p50"], better), "yes" if overlap else "no",
            ))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in args)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = [HEADER, *rows(parent, change, benchmark)]
    widths = [max(len(r[i]) for r in table) for i in range(len(HEADER))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
