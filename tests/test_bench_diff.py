"""tools/bench_diff.py on two small synthetic BENCH files."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"


def _bench(metrics: dict) -> dict:
    """A BENCH dict holding only the reductions workload's gated quartiles."""
    return {
        "gated": {
            "reductions": {
                "metrics": {
                    name: {"p25": lo, "p50": mid, "p75": hi, "unit": "x", "values": [lo, mid, hi]}
                    for name, (lo, mid, hi) in metrics.items()
                }
            }
        }
    }


def _run(tmp_path, parent: dict, change: dict) -> list[list[str]]:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b)], capture_output=True, text=True, check=True
    )
    return [line.split() for line in proc.stdout.splitlines()]


def test_bench_diff_reports_ratio_winner_and_overlap(tmp_path):
    parent = _bench({
        "primary_ref_ms_p50": (0.62, 0.64, 0.65),
        "throughput_per_ref_s": (3000, 3100, 3200),
        "setup_s": (0.18, 0.20, 0.22),
    })
    change = _bench({
        "primary_ref_ms_p50": (0.54, 0.56, 0.57),
        "throughput_per_ref_s": (2900, 3000, 3050),
        "setup_s": (0.18, 0.20, 0.21),
    })
    lines = _run(tmp_path, parent, change)
    assert lines[0] == ["workload", "metric", "better", "parent_p50", "change_p50", "ratio",
                        "winner", "iqr_overlap"]
    by_metric = {(r[0], r[1]): r[2:] for r in lines[1:]}
    assert by_metric["reductions", "primary_ref_ms_p50"] == [
        "lower", "0.64", "0.56", "0.875", "change", "no"]
    assert by_metric["reductions", "throughput_per_ref_s"] == [
        "higher", "3100", "3000", "0.968", "parent", "yes"]
    assert by_metric["reductions", "setup_s"] == ["lower", "0.2", "0.2", "1.000", "tie", "yes"]
    # a metric or workload that one file lacks prints dashes
    assert by_metric["reductions", "primary_ref_ms_p75"] == ["lower", "-", "-", "-", "-", "-"]
    assert by_metric["keys", "primary_ref_ms_p50"][1:] == ["-"] * 5
