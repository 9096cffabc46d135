"""tools/bench_pairs.py on two fake checkouts whose perfbench prints synthetic runs."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# A stand-in for perfbench/run.py: prints the metrics values.json holds for
# its --seed, and logs which checkout ran which seed.
FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
values = json.loads((here / "values.json").read_text())[seed]
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {seed}\\n")
metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
print(json.dumps({"correct": True, "attempted": 10, "failed": int(here.name == "change"),
                  "metrics": metrics}))
"""


def _checkout(root: Path, name: str, per_seed: list[dict]) -> Path:
    d = root / name
    (d / "perfbench").mkdir(parents=True)
    (d / "perfbench" / "run.py").write_text(FAKE_RUN)
    (d / "values.json").write_text(json.dumps({str(5 + i): m for i, m in enumerate(per_seed)}))
    return d


def test_bench_pairs_alternates_and_judges_each_metric(tmp_path):
    pairs = 10
    parent, change = [], []
    for i in range(pairs):
        parent.append({"secondary_ref_ms_p50": 1.0 + i / 100, "primary_ref_ms_p50": 0.5,
                       "primary_ref_ms_p75": 0.6, "throughput_per_ref_s": 100.0 + 10 * i,
                       "setup_s": 0.2})
        change.append({"secondary_ref_ms_p50": 0.8 + i / 100,
                       # wins 8 of 10 pairs: not enough to claim
                       "primary_ref_ms_p50": 0.4 if i < 8 else 0.6,
                       # higher in every pair, but by less than the parent's spread
                       "throughput_per_ref_s": 101.0 + 10 * i,
                       # wins 9 of 10 pairs by far more than the spread: enough
                       "setup_s": 0.1 if i else 0.2})
    a, b = _checkout(tmp_path, "parent", parent), _checkout(tmp_path, "change", change)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--workload", "isd", "--pairs", str(pairs),
         "--seconds", "1", "--seed-base", "5"],
        capture_output=True, text=True, check=True,
    )
    order = (tmp_path / "order.log").read_text().split("\n")[:4]
    assert order == ["parent 5", "change 5", "change 6", "parent 6"]
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["metric", "better", "parent_p50", "parent_iqr", "change_p50",
                        "change_iqr", "wins", "holds", "regression"]
    by_metric = {r[0]: r[1:] for r in lines[1:6]}
    assert by_metric["secondary_ref_ms_p50"] == [
        "lower", "1.045", "1.0225-1.0675", "0.845", "0.8225-0.8675", "10/10", "yes", "ok"]
    assert by_metric["primary_ref_ms_p50"][-3:] == ["8/10", "no", "ok"]
    # the parent's spread, 122.5-167.5 around 145, is wider than the 0.25
    # bound, and the change's runs do not all beat the parent's
    assert by_metric["throughput_per_ref_s"][-3:] == ["10/10", "no", "unresolved"]
    assert by_metric["setup_s"][-3:] == ["9/10", "yes", "ok"]
    # a metric one side does not report prints dashes
    assert by_metric["primary_ref_ms_p75"] == ["lower"] + ["-"] * 7
    assert lines[6:] == [["parent:", "failed", "0", "of", "100", "operations"],
                         ["change:", "failed", "10", "of", "100", "operations"]]


def test_bench_pairs_regression_verdicts_and_json(tmp_path):
    # every bound in BENCHMARK.json is 0.25 of the parent's median
    wide = [1.0, 2.0, 3.0, 4.0]  # quartiles 1.75, 2.5, 3.25: a spread of 0.6 medians
    parent = [{"primary_ref_ms_p50": 1.0, "primary_ref_ms_p75": w, "secondary_ref_ms_p50": w,
               "throughput_per_ref_s": 100.0, "setup_s": 0.2} for w in wide]
    change = [{
        "primary_ref_ms_p50": 1.3,  # 30% slower: worse
        "primary_ref_ms_p75": 0.5 + i / 10,  # wide parent, but every change run wins: ok
        "secondary_ref_ms_p50": w + (0.1 if i < 2 else -0.1),  # wide parent, mixed: unresolved
        "throughput_per_ref_s": 70.0,  # 30% lower where higher is better: worse
        "setup_s": 0.24,  # 20% slower, within the bound: ok
    } for i, w in enumerate(wide)]
    a, b = _checkout(tmp_path, "parent", parent), _checkout(tmp_path, "change", change)
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--workload", "isd", "--pairs", "4",
         "--seconds", "1", "--seed-base", "5", "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    expected = {"primary_ref_ms_p50": "worse", "primary_ref_ms_p75": "ok",
                "secondary_ref_ms_p50": "unresolved", "throughput_per_ref_s": "worse",
                "setup_s": "ok"}
    table = {r.split()[0]: r.split()[-1] for r in proc.stdout.splitlines()[1:6]}
    assert table == expected
    saved = json.loads(out.read_text())
    assert (saved["workload"], saved["seeds"]) == ("isd", [5, 6, 7, 8])
    assert {k: m["regression"] for k, m in saved["metrics"].items()} == expected
    assert saved["metrics"]["secondary_ref_ms_p50"]["parent"]["values"] == wide
    assert [r["metrics"]["primary_ref_ms_p50"] for r in saved["runs"]["change"]] == [1.3] * 4
    assert [(r["seed"], r["failed"]) for r in saved["runs"]["change"]] == [(s, 1) for s in range(5, 9)]


# A perfbench run that dies after its record line: the last line is not the
# result, and the cause is on its stderr.
DYING_RUN = """\
import json
print("record " + json.dumps({"git_revision": "x"}), flush=True)
raise RuntimeError("the workload broke")
"""


def test_bench_pairs_reports_a_run_that_dies_after_its_record(tmp_path):
    checkouts = []
    for name in ("parent", "change"):
        d = tmp_path / name
        (d / "perfbench").mkdir(parents=True)
        (d / "perfbench" / "run.py").write_text(DYING_RUN)
        checkouts.append(str(d))
    proc = subprocess.run(
        [sys.executable, str(TOOL), *checkouts, "--workload", "isd", "--pairs", "2", "--seconds", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "printed no result" in proc.stderr
    assert "RuntimeError: the workload broke" in proc.stderr
    assert "JSONDecodeError" not in proc.stderr
