#!/usr/bin/env python3
"""Run alternating parent/change pairs of one perfbench workload and judge each metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload isd --pairs 10 \\
        --seconds 30 --seed-base 11 [--out PAIRS.json]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair i runs
``perfbench/run.py --seed <seed-base + i>`` once in each, the parent first
when i is even and the change first when i is odd, so that a drift of the
host's speed does not favour one side. For each end-to-end metric of
``BENCHMARK.json`` it prints both sides' median and quartiles over the pairs,
how many pairs the change won (by the direction the file calls better), and
whether a claimed gain would hold: the change wins at least 9 pairs in 10,
and the medians lie further apart than the parent's p25-p75 spread.

Its ``regression`` column judges the other direction, with the metric's
``bound`` from ``BENCHMARK.json`` as a fraction of the parent's median:
``worse`` when the change's median is worse than the parent's by more than
the bound; else ``unresolved`` when the parent's p25-p75 spread is wider
than the bound, so that the pairs cannot tell a regression from noise,
unless every change run beats every parent run; else ``ok``. It also prints
each side's failed operations, and ``--out`` writes the table's verdicts
and every run's values as JSON. Nothing here is a gate: the exit code is 1
only when a run fails an output check or cannot run. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_record import last_json, quartiles

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("metric", "better", "parent_p50", "parent_iqr", "change_p50", "change_iqr", "wins", "holds",
          "regression")
MIN_WIN_FRACTION = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric: pair i is (parent[i], change[i]).
    Ties count for neither side."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    apart = abs(cq["p50"] - pq["p50"]) > pq["p75"] - pq["p25"]
    holds = wins >= MIN_WIN_FRACTION * len(parent) and apart
    allowed = bound * abs(pq["p50"])
    dominates = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if sign * (cq["p50"] - pq["p50"]) > allowed:
        regression = "worse"
    elif pq["p75"] - pq["p25"] > allowed and not dominates:
        regression = "unresolved"
    else:
        regression = "ok"
    return {"parent": pq, "change": cq, "wins": wins, "holds": holds, "regression": regression}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one untraced perfbench run in ``checkout``; its
    metric values go to stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    print(f"bench_pairs: {checkout}: " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = last_json(proc, f"bench_pairs: {checkout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"bench_pairs: {checkout} seed {seed}: failed {result['failed']} " + json.dumps(values),
          file=sys.stderr, flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent revision")
    ap.add_argument("change", type=Path, help="checkout of the changed revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", type=Path, help="also write the verdicts and every run's values here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, args.seed_base + i, args.seconds))

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    table, judged = [HEADER], {}
    for metric in benchmark["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {s: [r["metrics"].get(name, {}).get("value") for r in results[s]] for s in sides}
        if any(v is None for vs in values.values() for v in vs):
            table.append((name, better, *["-"] * 7))
            continue
        v = judged[name] = verdict(values["parent"], values["change"], better, metric["bound"])
        p, c = v["parent"], v["change"]
        table.append((
            name, better, f"{p['p50']:.5g}", f"{p['p25']:.5g}-{p['p75']:.5g}",
            f"{c['p50']:.5g}", f"{c['p25']:.5g}-{c['p75']:.5g}",
            f"{v['wins']}/{args.pairs}", "yes" if v["holds"] else "no", v["regression"],
        ))
    widths = [max(len(r[i]) for r in table) for i in range(len(HEADER))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    for side in sides:
        failed = [r["failed"] for r in results[side]]
        attempted = [r["attempted"] for r in results[side]]
        print(f"{side}: failed {sum(failed)} of {sum(attempted)} operations")
    if args.out:
        seeds = [args.seed_base + i for i in range(args.pairs)]
        runs = {s: [{"seed": seed, "failed": r["failed"], "attempted": r["attempted"],
                     "metrics": {k: m["value"] for k, m in r["metrics"].items()}}
                    for seed, r in zip(seeds, results[s])] for s in sides}
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "seeds": seeds,
            "metrics": judged, "runs": runs,
        }, indent=1) + "\n")
    return 0 if all(r["correct"] for s in sides for r in results[s]) else 1


if __name__ == "__main__":
    sys.exit(main())
