#!/usr/bin/env python3
"""Record one BENCH_<rev>.json: perfbench over a fixed seed list, plus the Tier-1 wall time.

    python3 tools/bench_record.py --out BENCH_<rev>.json

For every workload and every seed in SEEDS it runs ``perfbench/run.py`` for
SECONDS untraced, and once per seed with ``--trace 1`` (one traced run covers
all three workloads). It parses each run's ``record`` line, its ``trace``
line and its last-line JSON, and writes:

- ``gated``: per workload, the 25th, 50th and 75th percentile over the seeds
  of each gated metric, with the per-seed values and the failed-operation
  counts;
- ``per_layer``: the same for every per-layer metric of the traced runs,
  with each workload's exact counts and whether its traced passes were
  identical;
- ``records``: every run record (host, Python, numpy, git revision, seed);
- ``tier1``: the wall time and summary line of one run of the Tier-1 suite.

The file compares two revisions only when both were recorded on one machine.
Nothing is gated on a timing: the exit code is 1 only when a bench run fails
an output check or cannot run. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("keys", "isd", "reductions")
SEEDS = (1, 2, 3)
SECONDS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "p50": q[1], "p75": q[2], "values": values}


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    """The JSON object on the last stdout line of one perfbench run.

    When the run could not start (exit 2), printed nothing, or died before
    that line, so that another line is last, this exits with ``what`` and the
    run's stderr, which says why."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 2 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict):
            return result
    raise SystemExit(f"{what}: perfbench (exit {proc.returncode}) printed no result:\n{proc.stderr}")


def perfbench(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict | None]:
    """One run: its record, its last-line result and its trace report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("bench_record: " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = last_json(proc, "bench_record")
    record = trace_report = None
    for line in proc.stdout.splitlines():
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
        elif line.startswith("trace "):
            trace_report = json.loads(line[len("trace "):])
    return record, result, trace_report


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    print("bench_record: Tier-1 suite", file=sys.stderr, flush=True)
    t = perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - t
    tail = proc.stdout.strip().splitlines()
    return {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "wall_s": wall,
        "summary": tail[-1] if tail else "",
        "returncode": proc.returncode,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_<rev>.json to write")
    args = ap.parse_args(argv)

    records, correct = [], True
    gated: dict = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units, failed, attempted = {}, [], []
        for seed in SEEDS:
            record, result, _ = perfbench(workload, seed, 0)
            records.append(record)
            correct &= result["correct"]
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        gated[workload] = {
            "metrics": {name: {"unit": units[name], **quartiles(v)} for name, v in values.items()},
            "failed": failed,
            "attempted": attempted,
        }

    layer_values: dict[str, list[float]] = {}
    layer_units, determinism = {}, {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        record, result, report = perfbench(WORKLOADS[0], seed, 1)
        records.append(record)
        correct &= result["correct"]
        for name, m in result["metrics"].items():
            layer_values.setdefault(name, []).append(m["value"])
            layer_units[name] = m["unit"]
        for workload, rep in report.items():
            determinism[workload].append({"seed": seed, **rep["determinism"]})
    per_layer = {
        "metrics": {n: {"unit": layer_units[n], **quartiles(v)} for n, v in layer_values.items()},
        "determinism": determinism,
    }

    out = {
        "revision": records[0]["git_revision"],
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "correct": correct,
        "gated": gated,
        "per_layer": per_layer,
        "tier1": tier1(),
        "records": records,
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"bench_record: wrote {args.out}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
