"""Statistics helpers and experiment drivers.

Each experiment is one entry of ``_EXPERIMENTS``: its CSV columns, the keys a
grid point and the options take, its point parser and runner, its assertion
over each point's rows and its plot axes. ``ExperimentSpec.from_json`` checks
a spec against that entry with the parse the run uses, so a bad spec fails
before any row. Grid points run one after another on one thread, each with
its own child random stream (``Rng.split``), and their rows are appended to
the CSV as each finishes. A manifest (inputs, seed, and a content hash)
follows the last row, so a run that stops early leaves no manifest.
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

from .attacks import pair_aware_isd, prange_isd
from .gf2 import read_fields
from .pke import dec, enc, gen, matched_noise, parse_p, predict_success
from .plot import render_line_chart
from .sampling import Decision, Instance, Oracle, Rng, gen_lpn, gen_symplpn

__all__ = [
    "StatSummary",
    "ExperimentSpec",
    "wilson_interval",
    "empirical_tv",
    "chi_square_stat",
    "advantage_interval",
    "advantage",
    "run_experiment",
]

MAX_OUTCOME_SPACE = 1 << 16


@dataclass(frozen=True)
class StatSummary:
    estimate: float
    ci_lo: float
    ci_hi: float
    samples: int

    def __post_init__(self):
        if not self.ci_lo <= self.estimate <= self.ci_hi:
            raise ValueError("interval must contain the estimate")

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci": [self.ci_lo, self.ci_hi],
            "samples": self.samples,
        }


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes = {successes} is outside 0..{trials}")
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
    if len(counts) == 0:
        raise ValueError("counts are empty")
    n = sum(counts)
    if expected is None:
        expected = [n / len(counts)] * len(counts)
    if len(expected) != len(counts):
        raise ValueError(f"{len(counts)} counts against {len(expected)} expected counts")
    if any(e <= 0 for e in expected):
        raise ValueError("expected counts must be positive")
    return sum((o - e) ** 2 / e for o, e in zip(counts, expected))


def advantage(
    rng: Rng,
    oracle: Oracle,
    gen_structured: Callable[[Rng], Instance],
    gen_unstructured: Callable[[Rng], Instance],
    trials: int,
) -> StatSummary:
    """|Pr[structured verdict | structured] - Pr[structured verdict | unstructured]|
    over ``trials`` fresh samples per arm, with a Wilson-style interval."""
    if trials < 100:
        raise ValueError("too few trials for a meaningful interval")
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
        """Parse a spec and check it against its experiment's entry, so that
        anything malformed raises ValueError naming the field before any run."""
        name, grid, trials, seed, out = read_fields(
            obj, "spec", allowed=["options"], name=str, grid=list, trials=int, seed=int, out=str
        )
        experiment = _experiment(name)
        options = obj.get("options", {})
        read_fields(options, "options", allowed=experiment.options)
        kinds = {key: experiment.options[key] for key in options}
        for key, value in zip(kinds, read_fields(options, "options", **kinds)):
            if kinds[key] is int:
                _positive(value, key)
        for i, point in enumerate(grid):
            experiment.parse(point, i)
        return cls(name, tuple(dict(g) for g in grid), trials, seed, out, dict(options))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "grid": list(self.grid),
            "trials": self.trials,
            "seed": self.seed,
            "out": self.out,
            "options": self.options,
        }


class _Experiment:
    """One experiment, defined once for every step that reads a spec.

    ``columns`` is the CSV header, in the order ``run_point`` fills each row;
    ``point_keys`` and ``options`` give the kind of each key a grid point and
    the options take (integer options are counts, at least 1); ``plot`` is the
    SVG's x, its ys and the columns naming a series. ``parse_point`` turns a
    point's values into what ``run_point`` takes; ``check`` judges one point's
    rows."""

    columns: tuple[str, ...]
    point_keys: dict[str, type]
    options: dict[str, type]
    plot: tuple[str, tuple[str, ...], tuple[str, ...]]

    def parse(self, point: dict, i: int) -> tuple:
        """Grid point ``i`` parsed as the run parses it; ValueError naming it."""
        where = f"grid[{i}]"
        values = read_fields(point, where, allowed=(), **self.point_keys)
        try:
            return self.parse_point(*values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def _experiment(name: str) -> _Experiment:
    if name not in _EXPERIMENTS:
        raise ValueError(f"name {name!r} is not one of {', '.join(_EXPERIMENTS)}")
    return _EXPERIMENTS[name]


def _positive(value: int, key: str) -> int:
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


def _run_grid(spec: ExperimentSpec, experiment: _Experiment) -> tuple[list[dict], bool]:
    """Run each grid point on child stream ``i`` of the spec's seed, writing and
    flushing its rows as it finishes; the manifest follows the last row.
    Returns the rows and whether every point's rows passed the check."""
    rng = Rng(spec.seed)
    out = Path(spec.out)
    manifest = Path(str(out) + ".manifest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)
    rows: list[dict] = []
    ok = True
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(experiment.columns))
        writer.writeheader()
        for i, point in enumerate(spec.grid):
            point_rows = experiment.run_point(spec, experiment.parse(point, i), rng.split(i))
            writer.writerows(point_rows)
            fh.flush()
            rows.extend(point_rows)
            ok = experiment.check(spec.options, point_rows) and ok
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    manifest.write_text(
        json.dumps({"spec": spec.to_json(), "seed": spec.seed, "sha256": digest}, indent=2)
    )
    return rows, ok


class _DecryptionCurve(_Experiment):
    """Measured vs predicted decryption success on an (n, p) grid, with
    ``encs_per_key`` encryptions per keypair (default 1)."""

    columns = ("n", "p", "predicted", "measured", "trials")
    point_keys = {"n": int, "p": object}
    options = {"encs_per_key": int, "max_abs_error": float, "svg": object}
    plot = ("p", ("predicted", "measured"), ())

    def parse_point(self, n: int, p) -> tuple[int, float]:
        return _positive(n, "n"), parse_p(p, n)

    def run_point(self, spec: ExperimentSpec, point: tuple[int, float], rng: Rng) -> list[dict]:
        n, p = point
        encs_per_key = int(spec.options.get("encs_per_key", 1))
        hits = 0
        done = 0
        while done < spec.trials:
            pk, sk = gen(rng, n, p)
            for _ in range(min(encs_per_key, spec.trials - done)):
                mu = rng.bit()
                hits += dec(sk, enc(rng, pk, mu)) == mu
                done += 1
        return [dict(zip(self.columns, (n, p, predict_success(n, p), hits / done, done)))]

    def check(self, options: dict, rows: list[dict]) -> bool:
        tol = options.get("max_abs_error")
        return tol is None or all(abs(r["measured"] - r["predicted"]) <= float(tol) for r in rows)


class _MatchedIsd(_Experiment):
    """Median prange and pair-aware iterations on Bernoulli instances at rate
    q (2n samples) against pair-noise instances at the matched rate."""

    columns = ("n", "q", "p", "problem", "algorithm", "median_iterations", "success_rate")
    point_keys = {"n": int, "q": float}
    options = {"max_iters": int, "pair_at_most_plain": bool, "svg": object}
    plot = ("q", ("median_iterations",), ("problem", "algorithm"))

    def parse_point(self, n: int, q: float) -> tuple[int, float, float]:
        q = float(q)
        return _positive(n, "n"), q, matched_noise(q)

    def run_point(self, spec: ExperimentSpec, point: tuple, rng: Rng) -> list[dict]:
        n, q, p = point
        max_iters = int(spec.options.get("max_iters", 100_000))
        results: dict[tuple[str, str], list] = {}
        for _ in range(spec.trials):
            lpn_inst = gen_lpn(rng, n, 2 * n, q, structured=True)
            symp_inst = gen_symplpn(rng, n, n, p, structured=True)
            for problem, inst in (("lpn", lpn_inst), ("symplpn", symp_inst)):
                for algo, attack in (("prange", prange_isd), ("pair", pair_aware_isd)):
                    results.setdefault((problem, algo), []).append(attack(rng, inst, max_iters))
        rows = []
        for (problem, algo), runs in sorted(results.items()):
            iters = sorted(res.iterations for res in runs)
            median, rate = iters[len(iters) // 2], sum(res.success for res in runs) / spec.trials
            rows.append(dict(zip(self.columns, (n, q, p, problem, algo, median, rate))))
        return rows

    def check(self, options: dict, rows: list[dict]) -> bool:
        """pair_at_most_plain: pair-aware's median is at most prange's on symplpn."""
        if not options.get("pair_at_most_plain"):
            return True
        symplpn = [r for r in rows if r["problem"] == "symplpn"]
        median = {r["algorithm"]: r["median_iterations"] for r in symplpn}
        return median["pair"] <= median["prange"]


_EXPERIMENTS = {"decryption_curve": _DecryptionCurve(), "matched_isd": _MatchedIsd()}


def run_experiment(spec: ExperimentSpec) -> tuple[list[dict], bool]:
    """Run the experiment the spec names; returns (rows, all assertions passed).
    Option ``svg`` also draws the rows, to that path or to ``out`` + ".svg"."""
    experiment = _experiment(spec.name)
    rows, ok = _run_grid(spec, experiment)
    svg = spec.options.get("svg")
    if svg:
        x, ys, series = experiment.plot
        tagged = [dict(r, series="/".join(str(r[c]) for c in series)) for r in rows]
        out = svg if isinstance(svg, str) else spec.out + ".svg"
        render_line_chart(tagged, x, ys, out, series="series")
    return rows, ok
