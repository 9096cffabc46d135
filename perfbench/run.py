"""Benchmark for slpn: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload keys --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload for ``--seconds`` and prints the end-to-end
metrics: the gated timings at a reference speed (see ``workloads``), the
named ones in wall time. ``--trace 1`` runs a fixed slice of every workload
over and over, alternating untraced and traced passes, and prints per-layer
self times and counts, the tracing overhead and an exact-count determinism
check. The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the benchmark could
not run (no ``src/slpn`` beside this directory, or ``SLPN_THREADS`` other
than 1).

The benchmark imports slpn from the ``src`` directory next to its own and
needs nothing beyond the standard library and slpn's own dependencies.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

from spans import Summary, Tracer
from workloads import DIAGNOSTICS, WORKLOADS, Run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("gf2", "sampling", "pke", "supke", "attacks", "reductions", "harness", "diagnostics")
SETUPS = 9

RNG_OTHER = (
    "sampling.rng_bit",
    "sampling.rng_bitmat",
    "sampling.rng_integer",
    "sampling.rng_random",
    "sampling.rng_binomial",
    "sampling.rng_permutation",
    "sampling.rng_numpy",
)

# Per-layer metrics of the traced run, each under the workload that
# exercises the layer. Counts and self times are per workload unit over the
# workload's fixed slice: per cycle (keys), per attack (isd), per trial
# (reductions).
LAYERS = {
    "keys": [
        "gf2.transpose.self_ms",
        "gf2.rref.self_ms",
        "gf2.is_isotropic.self_ms",
        "gf2.symp_vec_mat.self_ms",
        "sampling.rng_bits.calls",
        "sampling.rng_bits.self_ms",
        "sampling.rng_other.calls",
        "sampling.sample_isotropic.self_ms",
        "sampling.isotropic_accept_ratio",
        "sampling.sample_depolarizing.self_ms",
        "pke.gen.self_ms",
        "pke.enc.self_ms",
        "pke.dec.self_ms",
        "supke.expand.calls",
        "supke.expand.self_ms",
        "supke.invert.self_ms",
        "supke.invert_retry",
        "supke.expand_zero_pad",
        "trace.overhead_frac",
    ],
    "isd": [
        "gf2.matvec.self_ms",
        "attacks.iterations",
        "attacks.success_ratio",
        "attacks.ms_per_iter.n64",
        "attacks.ms_per_iter.n128",
        "attacks.prange.self_ms",
        "attacks.pair_aware.self_ms",
        "trace.overhead_frac",
    ],
    "reductions": [
        "gf2.bitvec_init.calls",
        "gf2.bitmat_init.calls",
        "gf2.transpose.self_ms",
        "gf2.matmul.self_ms",
        "gf2.rref.self_ms",
        "sampling.rng_bits.calls",
        "sampling.rng_bits.self_ms",
        "sampling.rng_other.calls",
        "sampling.sample_isotropic.self_ms",
        "sampling.sample_lsn_matrices.self_ms",
        "sampling.gen_symplpn.self_ms",
        "sampling.hyperplane_rotation.self_ms",
        "attacks.brute_force_decide.calls",
        "attacks.brute_force_decide.self_ms",
        "reductions.drop_bit_transform.self_ms",
        "reductions.symmetrize_noise.self_ms",
        "reductions.lsn_to_symplpn.self_ms",
        "reductions.symmetrize_resample",
        "reductions.rotation_identity_resample",
        "reductions.hyperplane_resample",
        "reductions.instance_accept_ratio",
        "trace.overhead_frac",
    ],
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".ms_per_iter." in name:
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


PER_LAYER = [(f"{w}.{name}", layer_unit(name)) for w, names in LAYERS.items() for name in names]

# ROADMAP item 1 reference rows: (row, old single-run figure, unit, workload).
REFERENCE = [
    ("pke.gen n=512", 170.0, "ms", "keys"),
    ("sample_isotropic n=512", 222.0, "ms", "keys"),
    ("rank n=512", 67.0, "ms", "keys"),
    ("is_isotropic n=512", 35.0, "ms", "keys"),
    ("pke.enc n=128", 0.03, "ms", "keys"),
    ("su_enc n=128", 15.0, "ms", "keys"),
    ("invert n=128", 35.0, "ms", "keys"),
    ("prange k=64, 128 rows", 0.6, "ms/iteration", "isd"),
    ("Rng.bits", 21.0, "us/call", "reductions"),
]


class Unusable(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def require_src() -> None:
    if not (SRC / "slpn" / "__init__.py").is_file():
        raise Unusable(f"no slpn package under {SRC}")


def load_slpn():
    require_src()
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"slpn.{name}") for name in MODULES}
    origin = Path(mods["gf2"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise Unusable(f"slpn was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setups(args) -> list[float]:
    """Set-up time in fresh interpreters: import slpn and build the inputs."""
    out = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    for _ in range(SETUPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise Unusable("set-up failed:\n" + proc.stderr)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def diag_snapshot(m) -> dict:
    return {name: m.diagnostics.value(name) for name in DIAGNOSTICS}


def run_slice(wl, quiet=contextlib.nullcontext) -> tuple[Run, float, dict]:
    wl.m.diagnostics.reset()
    run = Run(quiet)
    t = perf_counter()
    for i in range(wl.slice_cycles):
        wl.cycle(i, run)
    return run, perf_counter() - t, diag_snapshot(wl.m)


def timed(wl, seconds: float) -> Run:
    wl.m.diagnostics.reset()
    run = Run(reference=True)
    deadline = perf_counter() + seconds
    i = 0
    while True:
        wl.cycle(i, run, deadline)
        i += 1
        if perf_counter() >= deadline:
            return run


def layer_values(wl, s: Summary, run: Run, diag: dict) -> dict:
    """Per-layer metrics of one traced pass, per workload unit."""
    units = wl.units(run)

    def per(x):
        return x / units

    def ratio(a, b):
        return a / b if b else 0.0

    drop_trials = 2 * len(run.times["drop"])
    attacks = len(run.times["attack"])
    su_enc = s.count("supke.su_enc_traced")
    bits_in_iso = s.count_under("sampling.rng_bits", "sampling.sample_isotropic")
    return {
        "gf2.bitvec_init.calls": per(s.count("gf2.bitvec_init")),
        "gf2.bitmat_init.calls": per(s.count("gf2.bitmat_init")),
        "gf2.transpose.self_ms": per(s.self_ms("gf2.transpose", "gf2.from_cols", "gf2.cols")),
        "gf2.matmul.self_ms": per(s.self_ms("gf2.matmul")),
        "gf2.matvec.self_ms": per(s.self_ms("gf2.matvec")),
        "gf2.rref.self_ms": per(
            s.self_ms("gf2.rank", "gf2.solve", "gf2.kernel_basis", "gf2.kernel_basis_info")
        ),
        "gf2.is_isotropic.self_ms": per(s.self_ms("gf2.is_isotropic")),
        "gf2.symp_vec_mat.self_ms": per(s.self_ms("gf2.symp_vec_mat")),
        "sampling.rng_bits.calls": per(s.count("sampling.rng_bits")),
        "sampling.rng_bits.self_ms": per(s.self_ms("sampling.rng_bits")),
        "sampling.rng_other.calls": per(s.count(*RNG_OTHER)),
        "sampling.sample_isotropic.self_ms": per(s.self_ms("sampling.sample_isotropic")),
        "sampling.isotropic_accept_ratio": ratio(s.columns, bits_in_iso),
        "sampling.sample_depolarizing.self_ms": per(s.self_ms("sampling.sample_depolarizing")),
        "sampling.sample_lsn_matrices.self_ms": per(s.self_ms("sampling.sample_lsn_matrices")),
        "sampling.gen_symplpn.self_ms": per(s.self_ms("sampling.gen_symplpn")),
        "sampling.hyperplane_rotation.self_ms": per(
            s.self_ms("sampling.hyperplane_rotation", "sampling.hyperplane_from_vector")
        ),
        "pke.gen.self_ms": per(s.self_ms("pke.gen", "pke.gen_traced")),
        "pke.enc.self_ms": per(s.self_ms("pke.enc", "pke.enc_traced")),
        "pke.dec.self_ms": per(s.self_ms("pke.dec")),
        "supke.expand.calls": ratio(s.count_under("supke.expand", "supke.su_enc_traced"), su_enc),
        "supke.expand.self_ms": per(s.self_ms("supke.expand")),
        "supke.invert.self_ms": per(s.self_ms("supke.invert")),
        "supke.invert_retry": ratio(diag["supke.invert_retry"], s.count("supke.invert")),
        "supke.expand_zero_pad": float(diag["supke.expand_zero_pad"]),
        "attacks.iterations": per(run.agg["iterations"]),
        "attacks.success_ratio": ratio(run.agg["successes"], attacks),
        "attacks.prange.self_ms": per(s.self_ms("attacks.prange")),
        "attacks.pair_aware.self_ms": per(s.self_ms("attacks.pair_aware")),
        "attacks.brute_force_decide.calls": per(s.count("attacks.brute_force_decide")),
        "attacks.brute_force_decide.self_ms": per(
            s.self_ms("attacks.brute_force_decide", "attacks.brute_force_search")
        ),
        "reductions.drop_bit_transform.self_ms": per(s.self_ms("reductions.drop_bit_transform")),
        "reductions.symmetrize_noise.self_ms": per(s.self_ms("reductions.symmetrize_noise")),
        "reductions.lsn_to_symplpn.self_ms": per(s.self_ms("reductions.lsn_to_symplpn")),
        "reductions.symmetrize_resample": ratio(diag["reductions.symmetrize_resample"], drop_trials),
        "reductions.rotation_identity_resample": ratio(
            diag["reductions.rotation_identity_resample"], drop_trials
        ),
        "reductions.hyperplane_resample": ratio(diag["reductions.hyperplane_resample"], drop_trials),
        "reductions.instance_accept_ratio": ratio(
            drop_trials, s.count_under("sampling.gen_symplpn", "reductions.measure_drop_bit")
        ),
    }


def traced(wls: list, seconds: float) -> tuple[dict, dict, list[Run]]:
    """Alternate untraced and traced passes over each workload's fixed slice.

    Each traced pass is reduced to its span counts and per-layer values at
    once, so memory does not grow with the number of passes.
    """
    tracer = Tracer()
    plain = {wl.name: [] for wl in wls}
    passes = {wl.name: [] for wl in wls}
    deadline = perf_counter() + seconds
    while len(passes[wls[0].name]) < 2 or perf_counter() < deadline:
        for wl in wls:
            plain[wl.name].append(run_slice(wl))
            tracer.install()
            try:
                run, elapsed, diag = run_slice(wl, tracer.paused)
            finally:
                tracer.uninstall()
            s = Summary(*tracer.take())
            iso = s.count("sampling.sample_isotropic")
            iso_ms = s.total_ms("sampling.sample_isotropic") / iso if iso else 0.0
            passes[wl.name].append(
                (run, elapsed, diag, s.counts(), layer_values(wl, s, run, diag), iso_ms)
            )
    layers, report, runs = {}, {}, []
    for wl in wls:
        lay, report[wl.name], run = summarize(wl, plain[wl.name], passes[wl.name])
        layers.update({f"{wl.name}.{k}": v for k, v in lay.items()})
        runs.append(run)
    return layers, report, runs


def summarize(wl, plain: list, passes: list) -> tuple[dict, dict, Run]:
    """Per-layer values, determinism checks and the reference rows of one workload."""
    first_run, _, first_diag, first_counts, _, _ = passes[0]
    outputs = (first_run.fingerprint(), first_diag, first_run.agg["iterations"])
    same_plain = all((r.fingerprint(), d, r.agg["iterations"]) == outputs for r, _, d in plain)
    same_traced = all(
        (r.fingerprint(), d, r.agg["iterations"]) == outputs and c == first_counts
        for r, _, d, c, _, _ in passes
    )
    first_run.check(same_plain, "an untraced pass differs from a traced one in outputs or counts")
    first_run.check(same_traced, "two traced passes with the same seed differ in outputs or counts")

    med = statistics.median
    layers = {name: med(p[4][name] for p in passes) for name in passes[0][4]}
    for n in (64, 128):
        layers[f"attacks.ms_per_iter.n{n}"] = med(
            r.agg[f"time_ns/n{n}"] / 1e6 / r.agg[f"iters/n{n}"] if r.agg[f"iters/n{n}"] else 0.0
            for r, _, _ in plain
        )
    t_plain = med(e for _, e, _ in plain)
    t_traced = med(p[1] for p in passes)
    layers["trace.overhead_frac"] = t_traced / t_plain - 1.0

    report = {
        "slice": {"cycles": wl.slice_cycles, "units": wl.units(first_run), "unit": wl.unit},
        "passes": {"untraced": len(plain), "traced": len(passes)},
        "slice_ms": {"untraced_p50": t_plain * 1e3, "traced_p50": t_traced * 1e3},
        "determinism": {
            "exact_counts": {
                "attacks.iterations": first_run.agg["iterations"],
                **{
                    f"{name}.calls": first_counts.get(name, 0)
                    for name in ("sampling.rng_bits", "gf2.bitvec_init", "gf2.bitmat_init")
                },
                **{f"diagnostics.{k}": v for k, v in first_diag.items()},
            },
            "identical_across_passes": same_plain and same_traced,
        },
        "span_counts": first_counts,
        "reference": reference_rows(wl, [r for r, _, _ in plain], med(p[5] for p in passes)),
    }
    return {k: layers[k] for k in LAYERS[wl.name]}, report, first_run


def reference_rows(wl, plain: list[Run], iso_ms: float) -> list[dict]:
    """ROADMAP item 1 rows re-measured on this workload, beside the old figure."""
    med = statistics.median

    def untraced(op):
        return med(med(r.times[op]) for r in plain) * 1e3

    now = {}
    if wl.name == "keys":
        probe = wl.probe()
        direct = "direct call on a 1024x512 isotropic matrix, median of 3"
        now = {
            "pke.gen n=512": (untraced("keygen"), "untraced keygen, median"),
            "sample_isotropic n=512": (iso_ms, "traced sampling.sample_isotropic, inclusive per call"),
            "rank n=512": (probe["rank"], direct),
            "is_isotropic n=512": (probe["is_isotropic"], direct),
            "pke.enc n=128": (probe["enc128"], "direct pke.enc calls, median of 200"),
            "su_enc n=128": (untraced("su_enc"), "untraced su_enc, median"),
            "invert n=128": (untraced("invert"), "untraced invert, median"),
        }
    elif wl.name == "isd":
        now = {
            "prange k=64, 128 rows": (
                med(wl.cell_ms_per_iter(r)["lpn64/prange"] for r in plain),
                "untraced prange on the lpn64 cell",
            )
        }
    elif wl.name == "reductions":
        now = {"Rng.bits": (wl.probe()["rng_bits_us"], "direct Rng.bits(8) calls, mean of 5000")}
    return [
        {"row": row, "old": old, "now": now[row][0], "unit": unit, "source": now[row][1]}
        for row, old, unit, owner in REFERENCE
        if owner == wl.name
    ]


def print_named(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        v = f"{m['value']:.6g}"
        if m.get("beyond", 10) < 10:
            v = "n/a (fewer than 10 samples beyond)"
        extra = f", {m['beyond']} beyond" if "beyond" in m else ""
        print(f"  {name:<26} {v} {m['unit']}  (samples {m['samples']}{extra})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: import slpn, build the inputs, print the elapsed time")
    args = ap.parse_args(argv)
    try:
        threads = os.environ.get("SLPN_THREADS")
        if threads is not None and threads != "1":
            raise Unusable("SLPN_THREADS must be unset or 1: the workloads run on one thread")
        if args.setup_only:
            t = perf_counter()
            WORKLOADS[args.workload](load_slpn(), args.seed)
            print(json.dumps({"setup_s": perf_counter() - t}))
            return 0
        require_src()
        setups = [] if args.trace else measure_setups(args)
        m = load_slpn()
    except Unusable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_revision": git_revision(),
        "SLPN_THREADS": os.environ.get("SLPN_THREADS"),
    }
    print("record " + json.dumps(record))

    if args.trace:
        # every workload's slice is traced, so each per-layer metric is
        # measured on the workload that exercises its layer
        wls = [cls(m, args.seed) for cls in WORKLOADS.values()]
        layers, report, runs = traced(wls, args.seconds)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        for name, rep in report.items():
            for row in rep.pop("reference"):
                print(f"reference  {row['row']:<24} old {row['old']:<8g} now {row['now']:.4g} "
                      f"{row['unit']}  ({row['source']})")
        print("trace " + json.dumps(report))
    else:
        wls = [WORKLOADS[args.workload](m, args.seed)]
        run = timed(wls[0], args.seconds)
        runs = [run]
        named = wls[0].named(run)
        named["setup_s"] = {"value": statistics.median(setups), "unit": "s", "samples": len(setups)}
        print_named(f"{args.workload}: {run.attempted} operations attempted, {run.failed} failed", named)
        gated = wls[0].gated(run)
        print_named("gated", gated)
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in gated.items()}
        metrics["setup_s"] = {"value": named["setup_s"]["value"], "unit": "s"}

    problems = []
    for wl, run in zip(wls, runs):
        print(f"checks {wl.name} " + json.dumps(wl.finish(run)))
        problems += run.problems
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
