"""Statistics helpers and experiment drivers.

Experiments run their grid points one after another on one thread, each with
its own child random stream (``Rng.split``), and append each point's rows to
the CSV as the point finishes. A manifest (inputs, seed, and a content hash)
is written next to the output after the last row, so long runs are auditable
and reproducible, and a run that stops early leaves its finished rows and no
manifest.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .sampling import Instance, Rng

__all__ = [
    "StatSummary",
    "ExperimentSpec",
    "wilson_interval",
    "empirical_tv",
    "chi_square_stat",
    "advantage_interval",
    "advantage",
    "run_decryption_curve",
    "run_matched_isd_benchmark",
    "run_experiment",
]

MAX_OUTCOME_SPACE = 1 << 16


@dataclass(frozen=True)
class StatSummary:
    estimate: float
    ci_lo: float
    ci_hi: float
    samples: int
    chi_square: Optional[float] = None

    def __post_init__(self):
        if not self.ci_lo <= self.estimate <= self.ci_hi:
            raise ValueError("interval must contain the estimate")

    def to_json(self) -> dict:
        obj = {
            "estimate": self.estimate,
            "ci": [self.ci_lo, self.ci_hi],
            "samples": self.samples,
        }
        if self.chi_square is not None:
            obj["chi_square"] = self.chi_square
        return obj


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def advantage_interval(
    say_s: int, trials_s: int, say_u: int, trials_u: int
) -> tuple[float, float, float]:
    """|p_s - p_u| with the estimate minus and plus the mean width of the two
    arms' Wilson intervals, clamped to [0, 1]."""
    lo_s, hi_s = wilson_interval(say_s, trials_s)
    lo_u, hi_u = wilson_interval(say_u, trials_u)
    est = abs(say_s / trials_s - say_u / trials_u)
    slack = (hi_s - lo_s + hi_u - lo_u) / 2.0
    return est, max(0.0, est - slack), min(1.0, est + slack)


def _normalize(dist) -> dict:
    if isinstance(dist, Mapping):
        items = dict(dist)
    else:
        items = Counter(dist)
    total = float(sum(items.values()))
    if total <= 0:
        raise ValueError("empty distribution")
    return {k: v / total for k, v in items.items()}


def empirical_tv(samples_a, samples_b) -> float:
    """Half L1 distance between two distributions.

    Each argument is a mapping (counts or probabilities) or an iterable of
    hashable outcomes; both are normalized first.
    """
    a = _normalize(samples_a)
    b = _normalize(samples_b)
    keys = set(a) | set(b)
    if len(keys) > MAX_OUTCOME_SPACE:
        raise ValueError("outcome space too large to enumerate")
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def chi_square_stat(counts: Sequence[float], expected: Optional[Sequence[float]] = None) -> float:
    """Plain chi-square statistic against expected counts (uniform by default)."""
    n = sum(counts)
    if expected is None:
        expected = [n / len(counts)] * len(counts)
    if any(e <= 0 for e in expected):
        raise ValueError("expected counts must be positive")
    return sum((o - e) ** 2 / e for o, e in zip(counts, expected))


def advantage(
    rng: Rng,
    oracle: Callable[[Instance], object],
    gen_structured: Callable[[Rng], Instance],
    gen_unstructured: Callable[[Rng], Instance],
    trials: int,
) -> StatSummary:
    """|Pr[structured verdict | structured] - Pr[structured verdict | unstructured]|
    over ``trials`` fresh samples per arm, with a Wilson-style interval."""
    if trials < 100:
        raise ValueError("too few trials for a meaningful interval")
    from .reductions import Decision

    say_s = sum(
        oracle(gen_structured(rng)) is Decision.STRUCTURED for _ in range(trials)
    )
    say_u = sum(
        oracle(gen_unstructured(rng)) is Decision.STRUCTURED for _ in range(trials)
    )
    est, lo, hi = advantage_interval(say_s, trials, say_u, trials)
    return StatSummary(est, lo, hi, 2 * trials)


# -- experiment drivers ------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    grid: tuple[dict, ...]
    trials: int
    seed: int
    out: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.grid:
            raise ValueError("grid must be nonempty")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        """Parse a spec; anything malformed raises ValueError naming the field."""
        if not isinstance(obj, dict):
            raise ValueError("spec must be a JSON object")
        missing = [key for key in ("name", "grid", "trials", "seed", "out") if key not in obj]
        if missing:
            raise ValueError(f"spec is missing {', '.join(missing)}")
        for key in ("name", "out"):
            if not isinstance(obj[key], str):
                raise ValueError(f"{key} must be a string, got {obj[key]!r}")
        grid = obj["grid"]
        if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
            raise ValueError(f"grid must be a list of objects, got {grid!r}")
        options = obj.get("options", {})
        if not isinstance(options, dict):
            raise ValueError(f"options must be an object, got {options!r}")
        return cls(
            name=obj["name"],
            grid=tuple(dict(g) for g in grid),
            trials=_int_field(obj, "trials"),
            seed=_int_field(obj, "seed"),
            out=obj["out"],
            options=dict(options),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "grid": list(self.grid),
            "trials": self.trials,
            "seed": self.seed,
            "out": self.out,
            "options": self.options,
        }


def _int_field(obj: dict, key: str) -> int:
    try:
        return int(obj[key])
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be an integer, got {obj[key]!r}") from None


def _run_grid(spec: ExperimentSpec, fieldnames: Sequence[str], point_fn) -> list[dict]:
    """Run each grid point on child stream ``i`` of the spec's seed, writing and
    flushing its rows as it finishes; the manifest follows the last row."""
    rng = Rng(spec.seed)
    out = Path(spec.out)
    manifest = Path(str(out) + ".manifest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)
    rows: list[dict] = []
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for i, point in enumerate(spec.grid):
            point_rows = point_fn(point, rng.split(i))
            writer.writerows(point_rows)
            fh.flush()
            rows.extend(point_rows)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    manifest.write_text(
        json.dumps({"spec": spec.to_json(), "seed": spec.seed, "sha256": digest}, indent=2)
    )
    return rows


def _resolve_p(point: dict, n: int) -> float:
    from .pke import pick_p_for_success

    p = point["p"]
    if isinstance(p, str) and p.startswith("auto:"):
        return pick_p_for_success(n, float(p.split(":", 1)[1]))
    return float(p)


def run_decryption_curve(spec: ExperimentSpec) -> list[dict]:
    """Measured vs predicted decryption success on an (n, p) grid; emits CSV.

    options.encs_per_key controls how many encryptions reuse one keypair
    (default 1: a fresh keypair per trial).
    """
    from .pke import dec, enc, gen, predict_success

    encs_per_key = int(spec.options.get("encs_per_key", 1))

    def point_fn(point: dict, rng: Rng) -> list[dict]:
        n = int(point["n"])
        p = _resolve_p(point, n)
        hits = 0
        done = 0
        while done < spec.trials:
            pk, sk = gen(rng, n, p)
            for _ in range(min(encs_per_key, spec.trials - done)):
                mu = rng.bit()
                hits += dec(sk, enc(rng, pk, mu)) == mu
                done += 1
        measured = hits / done
        return [
            {
                "n": n,
                "p": p,
                "predicted": predict_success(n, p),
                "measured": measured,
                "trials": done,
            }
        ]

    return _run_grid(spec, ["n", "p", "predicted", "measured", "trials"], point_fn)


def run_matched_isd_benchmark(spec: ExperimentSpec) -> list[dict]:
    """Decoding effort on plain-parity vs symplectic instances at matched noise.

    For each grid point {n, q}: Bernoulli instances at rate q with 2n samples
    against pair-noise instances at the success-matched rate, attacked by the
    plain and the pair-aware information-set decoders. Emits one CSV row per
    (problem, algorithm) with the median iteration count over spec.trials
    planted instances.
    """
    from .attacks import pair_aware_isd, prange_isd
    from .pke import matched_noise
    from .sampling import gen_lpn, gen_symplpn

    def point_fn(point: dict, rng: Rng) -> list[dict]:
        n = int(point["n"])
        q = float(point["q"])
        p = matched_noise(q)
        max_iters = int(point.get("max_iters", spec.options.get("max_iters", 100_000)))
        table: dict[tuple[str, str], list[int]] = {}
        success: dict[tuple[str, str], int] = {}
        for i in range(spec.trials):
            lpn_inst = gen_lpn(rng, n, 2 * n, q, structured=True)
            symp_inst = gen_symplpn(rng, n, n, p, structured=True)
            for problem, inst in (("lpn", lpn_inst), ("symplpn", symp_inst)):
                for algo, attack in (("prange", prange_isd), ("pair", pair_aware_isd)):
                    res = attack(rng, inst, max_iters)
                    key = (problem, algo)
                    table.setdefault(key, []).append(res.iterations)
                    success[key] = success.get(key, 0) + res.success
        rows = []
        for (problem, algo), iters in sorted(table.items()):
            iters.sort()
            rows.append(
                {
                    "n": n,
                    "q": q,
                    "p": p,
                    "problem": problem,
                    "algorithm": algo,
                    "median_iterations": iters[len(iters) // 2],
                    "success_rate": success[(problem, algo)] / spec.trials,
                }
            )
        return rows

    return _run_grid(
        spec,
        ["n", "q", "p", "problem", "algorithm", "median_iterations", "success_rate"],
        point_fn,
    )


def _maybe_render_svg(spec: ExperimentSpec, rows: list[dict]) -> None:
    opt = spec.options.get("svg")
    if not opt:
        return
    from .plot import render_line_chart

    out = opt if isinstance(opt, str) else spec.out + ".svg"
    if spec.name == "decryption_curve":
        render_line_chart(rows, "p", ["predicted", "measured"], out)
    else:
        tagged = [dict(r, case=f"{r['problem']}/{r['algorithm']}") for r in rows]
        render_line_chart(tagged, "q", ["median_iterations"], out, series="case")


def run_experiment(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    """Dispatch an experiment by name; returns (rows, all assertions passed)."""
    if spec.name == "decryption_curve":
        rows = run_decryption_curve(spec)
        ok = True
        tol = spec.options.get("max_abs_error")
        if tol is not None:
            ok = all(abs(r["measured"] - r["predicted"]) <= float(tol) for r in rows)
    elif spec.name == "matched_isd":
        rows = run_matched_isd_benchmark(spec)
        ok = True
        if spec.options.get("pair_at_most_plain"):
            by_key = {(r["problem"], r["algorithm"]): r["median_iterations"] for r in rows}
            ok = all(
                by_key[("symplpn", "pair")] <= by_key[("symplpn", "prange")]
                for r in rows
                if r["problem"] == "symplpn"
            )
    else:
        raise ValueError(f"unknown experiment {spec.name!r}")
    _maybe_render_svg(spec, rows)
    return rows, ok
