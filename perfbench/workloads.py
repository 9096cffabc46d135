"""The three benchmark workloads: keys, isd and reductions.

Each workload is a sequence of cycles. Cycle ``i`` draws all of its
randomness from ``Rng(seed).split(i)`` (ISD attacks from one split child
each), so a cycle does the same work whether it runs in a timed loop, in the
fixed slice of the traced run, or after tracing was switched off. Only the
calls into slpn sit between the timer reads; output checks run outside them,
with the tracer paused.

Timed runs also report each operation's time at a reference speed. The
host's speed switches between states about 1.4 times apart for seconds to
minutes at a time, and every operation slows or speeds with it. So a timed
run times a fixed pure-Python reference loop after every operation, and
scales the operation's wall time by ``REF_LOOP_MS`` over the mean of the
loop's times just before and just after it. The result, in ``ref_ms``, is
the wall time the operation would take on a host where the loop takes
``REF_LOOP_MS``.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import random
from collections import Counter, defaultdict
from time import perf_counter

DIAGNOSTICS = (
    "supke.expand_zero_pad",
    "supke.invert_retry",
    "reductions.symmetrize_resample",
    "reductions.rotation_identity_resample",
    "reductions.hyperplane_resample",
)

# Decryption-rate check: the measured rate must lie inside the Wilson interval
# at this z around the exact prediction. z = 5 leaves room for the spread
# between keys (64 encryptions share one key-noise vector).
RATE_Z = 5.0

REF_LOOP_MS = 0.25


class _Row:
    """One step of the reference loop: a big-int row and a small tag."""

    __slots__ = ("bits", "tag")

    def __init__(self, bits: int, tag: int):
        self.bits = bits
        self.tag = tag

    def step(self, i: int) -> "_Row":
        return _Row(self.bits ^ (self.bits >> ((i & 63) + 1)), (self.tag + i) & 0xFFFF)


def _ref_loop() -> int:
    """Fixed pure-Python work of the kinds slpn does: method calls, object
    construction, big-int shifts and xors, list and dict updates."""
    row = _Row(0x9E3779B97F4A7C15 << 200, 1)
    rows = []
    by_tag = {}
    for i in range(300):
        row = row.step(i)
        rows.append(row)
        by_tag[row.tag & 127] = row
    return len(rows) + len(by_tag)


def ref_loop_time() -> float:
    """Wall seconds of one pass of the reference loop."""
    t = perf_counter()
    _ref_loop()
    return perf_counter() - t


class Run:
    """Timings, counters and checks of one pass over some cycles."""

    def __init__(self, quiet=contextlib.nullcontext, reference=False):
        self.quiet = quiet
        self.times: dict[str, list[float]] = defaultdict(list)  # wall seconds
        # seconds at the reference speed; filled only when ``reference``
        self.ref: dict[str, list[float]] = defaultdict(list)
        self._loop = ref_loop_time() if reference else None
        self.agg: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = hashlib.sha256()

    def note(self, *values: int) -> None:
        """Fold integer outputs into the run's fingerprint."""
        for v in values:
            v = int(v)
            self._digest.update(v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True))

    def tick(self, op: str, start: float) -> float:
        """Record the wall time since ``start`` under ``op``; return now."""
        now = perf_counter()
        self.times[op].append(now - start)
        return now

    def lap(self, op: str, start: float) -> float:
        """Record the time since ``start`` under ``op``; return the time to go on from.

        With ``reference``, the reference loop runs after the operation, and
        the returned time lies after it, so the next operation timed from
        there does not include it.
        """
        now = self.tick(op, start)
        if self._loop is not None:
            dt = self.times[op][-1]
            loop = ref_loop_time()
            self.ref[op].append(dt * REF_LOOP_MS * 2e-3 / (self._loop + loop))
            self._loop = loop
            now = perf_counter()
        return now

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def fingerprint(self) -> str:
        return self._digest.hexdigest()


def quantile(values, q: float) -> float:
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timing(values, q: float, scale: float, unit: str) -> dict:
    """A percentile with its sample count and, for a tail, the samples beyond it."""
    v = quantile(values, q) * scale
    out = {"value": v, "unit": unit, "samples": len(values)}
    if q > 0.5:
        out["beyond"] = sum(1 for x in values if x * scale > v)
    return out


def rate(count: int, seconds: float, unit: str = "1/s") -> dict:
    return {"value": count / seconds, "unit": unit, "samples": count}


class Keys:
    """pke at n=512 and the seed-keyed scheme at n=128.

    Chosen because at n=512 the work is big-int rows, the dual-basis updates
    in sample_isotropic and the numpy transpose, while su_enc re-expands the
    seed on every call, so supke.expand dominates the seed-keyed half.
    """

    name = "keys"
    unit = "cycle (two pke keys, one supke key)"
    slice_cycles = 1
    PKE_N, SU_N, TARGET = 512, 128, 0.75
    ENCS, SU_ENCS = 64, 16
    # two plain keys per seed-keyed key, so that a 30 s run holds enough
    # keygens (about 60) for a p75 with ten samples beyond it
    PKE_KEYS = 2

    def __init__(self, m, seed: int):
        self.m = m
        self.seed = seed
        self.p = m.pke.pick_p_for_success(self.PKE_N, self.TARGET)
        self.su_p = m.pke.pick_p_for_success(self.SU_N, self.TARGET)
        self.predicted = m.pke.predict_success(self.PKE_N, self.p)
        self.base = m.sampling.Rng(seed)

    def units(self, run: Run) -> int:
        return len(run.times["su_gen"])

    def cycle(self, i: int, run: Run, deadline=None) -> None:
        pke, supke, gf2 = self.m.pke, self.m.supke, self.m.gf2
        rng = self.base.split(i)
        msgs = random.Random(f"keys/{self.seed}/{i}")

        for _ in range(self.PKE_KEYS):
            t = perf_counter()
            pk, sk = pke.gen(rng, self.PKE_N, self.p)
            run.lap("keygen", t)
            bits = msgs.getrandbits(self.ENCS)
            # one round trip takes about as long as the reference loop, so
            # the block of round trips is what gets a reference time
            outs = []
            start = t = perf_counter()
            for j in range(self.ENCS):
                ct = pke.enc(rng, pk, (bits >> j) & 1)
                t = run.tick("enc", t)
                outs.append((ct, pke.dec(sk, ct)))
                t = run.tick("dec", t)
            run.lap("round_trips", start)
            for j, (ct, got) in enumerate(outs):
                run.agg["dec_ok"] += got == (bits >> j) & 1
                run.note(ct.u.value, ct.c, got)
            run.attempted += 1 + self.ENCS

        t = perf_counter()
        spk, ssk, e = supke.su_gen_traced(rng, self.SU_N, self.su_p)
        run.lap("su_gen", t)
        bits = msgs.getrandbits(self.SU_ENCS)
        for j in range(self.SU_ENCS):
            mu = (bits >> j) & 1
            t = perf_counter()
            ct, f = supke.su_enc_traced(rng, spk, mu)
            t = run.lap("su_enc", t)
            got = supke.su_dec(ssk, ct)
            run.lap("su_dec", t)
            with run.quiet():
                run.check(got == mu ^ gf2.symp_inner(f, e), "su_dec != mu + f*e")
            run.note(ct.u.value, ct.c, got)
        t = perf_counter()
        a = supke.expand(spk.seed)
        t = run.lap("expand", t)
        seed2 = supke.invert(rng, a)
        run.lap("invert", t)
        with run.quiet():
            run.check(supke.expand(seed2) == a, "expand(invert(a)) != a")
        run.note(seed2.bits.value)
        run.attempted += 1 + self.SU_ENCS + 1

    def finish(self, run: Run) -> dict:
        n = len(run.times["enc"])
        ok = run.agg["dec_ok"]
        lo, hi = self.m.harness.wilson_interval(ok, n, z=RATE_Z)
        run.check(lo <= self.predicted <= hi, "decryption rate outside its Wilson margin")
        return {
            "decryption_rate": ok / n,
            "predicted": self.predicted,
            "wilson_z": RATE_Z,
            "interval": [lo, hi],
            "su_dec_identity_checked": len(run.times["su_enc"]),
            "invert_round_trips_checked": len(run.times["invert"]),
        }

    def gated(self, run: Run) -> dict:
        t = run.ref
        return {
            "primary_ref_ms_p50": timing(t["keygen"], 0.5, 1e3, "ref_ms"),
            "primary_ref_ms_p75": timing(t["keygen"], 0.75, 1e3, "ref_ms"),
            "secondary_ref_ms_p50": timing(t["su_enc"], 0.5, 1e3, "ref_ms"),
            "throughput_per_ref_s": rate(
                self.ENCS * len(t["round_trips"]), sum(t["round_trips"]), "1/ref_s"
            ),
        }

    def named(self, run: Run) -> dict:
        t = run.times
        return {
            "keygen_ms_p50": timing(t["keygen"], 0.5, 1e3, "ms"),
            "keygen_ms_p75": timing(t["keygen"], 0.75, 1e3, "ms"),
            "enc_us_p50": timing(t["enc"], 0.5, 1e6, "us"),
            "enc_us_p90": timing(t["enc"], 0.9, 1e6, "us"),
            "su_enc_ms_p50": timing(t["su_enc"], 0.5, 1e3, "ms"),
            "su_enc_ms_p90": timing(t["su_enc"], 0.9, 1e3, "ms"),
            "invert_ms_p50": timing(t["invert"], 0.5, 1e3, "ms"),
        }

    def probe(self) -> dict:
        """Direct timings for reference rows the workload does not isolate."""
        m = self.m
        rng = self.base.split(1 << 40)
        a = m.sampling.sample_isotropic(rng, self.PKE_N, self.PKE_N)
        out = {}
        for name, fn in (("rank", m.gf2.rank), ("is_isotropic", m.gf2.is_isotropic)):
            ts = []
            for _ in range(3):
                t = perf_counter()
                fn(a)
                ts.append(perf_counter() - t)
            out[name] = quantile(ts, 0.5) * 1e3
        pk, _ = m.pke.gen(rng, self.SU_N, self.su_p)
        ts = []
        for _ in range(200):
            t = perf_counter()
            m.pke.enc(rng, pk, 1)
            ts.append(perf_counter() - t)
        out["enc128"] = quantile(ts, 0.5) * 1e3
        return out


class Isd:
    """Prange and pair-aware ISD on a fixed grid of planted instances.

    Chosen because per-iteration elimination, permutation draws and matvec
    dominate, and the two sizes show how the kernel scales. Keygen and supke
    do no work here.
    """

    name = "isd"
    unit = "attack"
    slice_cycles = 1
    SIZES = ((64, 0.03), (128, 0.02))
    KINDS = ("lpn", "symplpn")
    ALGOS = (("prange", "prange_isd"), ("pair", "pair_aware_isd"))
    PER_CELL = 8
    SMALL_PER_CYCLE = 4  # n=64 instances attacked per cycle; n=128: one
    # Instances are kept only when their planted error has at most
    # WEIGHT_FACTOR times its expected number of nonzero bits: an attack needs
    # an information set that misses every nonzero row, so its time grows
    # about 2^weight, and the few heavier draws would run into the cap. The
    # cap lies far above the mean iteration count of the heaviest kept
    # instance.
    WEIGHT_FACTOR = 1.5
    CAP = 10000

    def __init__(self, m, seed: int):
        self.m = m
        sampling, gf2, pke = m.sampling, m.gf2, m.pke
        base = sampling.Rng(seed)
        grid_rng = base.split(0)
        self.attack_base = base.split(1)
        self.cells = []  # (label, n, threshold, attack weight fn, [instances])
        self.rejected = 0
        for n, q in self.SIZES:
            for kind in self.KINDS:
                if kind == "lpn":
                    expected = expected_bits = 2 * n * q

                    def gen(r, n=n, q=q):
                        return sampling.gen_lpn(r, n, 2 * n, q, structured=True, keep_witness=True)

                    def weight(v):
                        return v.weight()
                else:
                    p = pke.matched_noise(q)
                    expected = n * p
                    expected_bits = 4.0 / 3.0 * n * p  # a Y pattern sets both bits

                    def gen(r, n=n, p=p):
                        return sampling.gen_symplpn(r, n, n, p, structured=True, keep_witness=True)

                    def weight(v, n=n):
                        return gf2.pair_weight_int(v.value, n)
                bound = math.floor(self.WEIGHT_FACTOR * expected_bits)
                insts = []
                while len(insts) < self.PER_CELL:
                    inst = gen(grid_rng)
                    if inst.witness.error.weight() <= bound:
                        insts.append(inst)
                    else:
                        self.rejected += 1
                threshold = math.ceil(2.5 * expected)
                self.cells.append((f"{kind}{n}", n, threshold, weight, insts))

    def units(self, run: Run) -> int:
        return len(run.times["attack"])

    def cycle(self, i: int, run: Run, deadline=None) -> None:
        """Attack SMALL_PER_CYCLE n=64 instances and one n=128 instance per cell.

        An n=128 attack takes several times the time of an n=64 one, so this
        order gives both sizes enough attacks in one run.
        """
        attacks = self.m.attacks
        for c, (label, n, threshold, weight, insts) in enumerate(self.cells):
            k = self.SMALL_PER_CYCLE if n == self.SIZES[0][0] else 1
            for j in range(i * k % self.PER_CELL, i * k % self.PER_CELL + k):
                inst = insts[j]
                public = inst.without_witness()
                for a, (algo, fname) in enumerate(self.ALGOS):
                    if deadline is not None and run.times["attack"] and perf_counter() >= deadline:
                        return
                    index = ((i * len(self.cells) + c) * self.PER_CELL + j) * len(self.ALGOS) + a
                    rng = self.attack_base.split(index)
                    attack = getattr(attacks, fname)
                    t = perf_counter()
                    res = attack(rng, public, self.CAP, threshold)
                    run.lap("attack", t)
                    run.attempted += 1
                    for times, clock in ((run.times, "time_ns"), (run.ref, "ref_ns")):
                        if times["attack"]:
                            dt = times["attack"][-1]
                            times[f"iter/{algo}{n}"].append(dt / res.iterations)
                            run.agg[f"{clock}/{label}/{algo}"] += round(dt * 1e9)
                    run.agg[f"time_ns/n{n}"] += round(run.times["attack"][-1] * 1e9)
                    for key in (f"{label}/{algo}", f"n{n}"):
                        run.agg[f"iters/{key}"] += res.iterations
                    run.agg["iterations"] += res.iterations
                    run.note(res.success, res.iterations, res.secret.value if res.success else -1)
                    if not res.success:
                        run.failed += 1
                        continue
                    run.agg["successes"] += 1
                    with run.quiet():
                        e = inst.word ^ inst.matrix.matvec(res.secret)
                        run.check(
                            e == res.error and weight(e) <= threshold,
                            f"{algo} on {label}: word != M x + e within the threshold",
                        )
                        run.agg["planted"] += res.secret == inst.witness.secret

    def cell_ms_per_iter(self, run: Run, clock: str = "time_ns") -> dict:
        """Milliseconds per iteration of each (kind, size, algorithm) cell.

        ``clock`` is ``time_ns`` for wall time or ``ref_ns`` for time at the
        reference speed.
        """
        out = {}
        for label, *_ in self.cells:
            for algo, _ in self.ALGOS:
                iters = run.agg[f"iters/{label}/{algo}"]
                if iters:
                    out[f"{label}/{algo}"] = run.agg[f"{clock}/{label}/{algo}"] / 1e6 / iters
        return out

    def finish(self, run: Run) -> dict:
        return {
            "attacks": len(run.times["attack"]),
            "successes": run.agg["successes"],
            "failed_attacks": len(run.times["attack"]) - run.agg["successes"],
            "planted_witness_found": run.agg["planted"],
            "grid_draws_rejected": self.rejected,
            "ms_per_iter_by_cell": self.cell_ms_per_iter(run),
        }

    def gated(self, run: Run) -> dict:
        t = run.ref
        cells = self.cell_ms_per_iter(run, "ref_ns")
        # every (kind, size, algorithm) cell weighs the same, so the figure
        # does not move when a seed's grid needs more iterations in one cell
        mixed = len(cells) / sum(cells.values()) * 1e3
        return {
            "primary_ref_ms_p50": timing(t["iter/prange64"], 0.5, 1e3, "ref_ms"),
            "primary_ref_ms_p75": timing(t["iter/prange64"], 0.75, 1e3, "ref_ms"),
            "secondary_ref_ms_p50": timing(t["iter/pair128"], 0.5, 1e3, "ref_ms"),
            "throughput_per_ref_s": {
                "value": mixed, "unit": "1/ref_s", "samples": run.agg["iterations"]
            },
        }

    def named(self, run: Run) -> dict:
        t = run.times
        return {
            "isd_solve_ms_p50": timing(t["attack"], 0.5, 1e3, "ms"),
            "isd_solve_ms_p90": timing(t["attack"], 0.9, 1e3, "ms"),
            "isd_iters_per_s": rate(run.agg["iterations"], sum(t["attack"])),
        }


class Reductions:
    """The drop-bit pipeline at n=4 (both branches) and the LSN guesser.

    Chosen because it uses the same gf2 and sampling layers as keys at the
    opposite size: Python call overhead, Rng draw calls, BitVec/BitMat
    construction and the bit-walk transpose dominate.
    """

    name = "reductions"
    unit = "trial"
    slice_cycles = 50
    DROP_N, DROP_P, DROP_M = 4, 0.05, 1
    LSN_K, LSN_N, LSN_P = 1, 4, 0.1
    VALIDATE_EVERY = 10

    def __init__(self, m, seed: int):
        self.m = m
        self.base = m.sampling.Rng(seed)
        self.check_base = m.sampling.Rng(seed).split(1 << 40)
        self.oracle = m.attacks.make_brute_oracle()
        self.branches = (m.reductions.Branch.PLAIN, m.reductions.Branch.FLOODED)

    def units(self, run: Run) -> int:
        return 2 * len(run.times["drop"]) + len(run.times["lsn"])

    def cycle(self, i: int, run: Run, deadline=None) -> None:
        red = self.m.reductions
        rng = self.base.split(i)
        for branch in self.branches:
            t = perf_counter()
            rep = red.measure_drop_bit(
                rng, self.oracle, self.DROP_N, self.DROP_P, branch, 2, m=self.DROP_M
            )
            run.lap("drop", t)
            ps, pu = rep.details["p_structured"], rep.details["p_unstructured"]
            run.agg[f"{branch.value}/said_s"] += round(ps)
            run.agg[f"{branch.value}/said_u"] += round(pu)
            run.check(
                0.0 <= rep.ci_lo <= rep.advantage <= rep.ci_hi <= 1.0,
                "drop-bit report interval does not hold its advantage",
            )
            run.note(rep.successes, round(ps), round(pu))
        for _ in range(2):
            t = perf_counter()
            rep = red.measure_lsn_reduction(rng, self.oracle, self.LSN_K, self.LSN_N, self.LSN_P, 1)
            run.lap("lsn", t)
            run.agg["lsn_ok"] += rep.successes
            run.note(rep.successes)
        run.attempted += 6
        if i % self.VALIDATE_EVERY == 0:
            with run.quiet():
                self._validate(i, run)

    def _validate(self, i: int, run: Run) -> None:
        """Transformed instances must be isotropic with rank n - 1."""
        m, n = self.m, self.DROP_N
        rng = self.check_base.split(i)
        for branch in self.branches:
            while True:
                inst = m.sampling.gen_symplpn(rng, n, n, self.DROP_P, structured=True)
                try:
                    out = m.reductions.drop_bit_transform(rng, inst, branch, self.DROP_M)
                    break
                except m.reductions.HyperplaneDimensionError:
                    continue
            run.check(
                out.k == n - 1
                and out.matrix.ncols == n - 1
                and m.gf2.is_isotropic(out.matrix)
                and m.gf2.rank(out.matrix) == n - 1,
                "drop_bit_transform output is not isotropic of rank n-1",
            )
            run.agg["validated"] += 1

    def finish(self, run: Run) -> dict:
        wilson = self.m.harness.wilson_interval
        calls = len(run.times["drop"]) // 2
        out = {"validated_transforms": run.agg["validated"]}
        for branch in self.branches:
            ss, su = run.agg[f"{branch.value}/said_s"], run.agg[f"{branch.value}/said_u"]
            lo_s, hi_s = wilson(ss, calls)
            lo_u, hi_u = wilson(su, calls)
            adv = abs(ss - su) / calls
            slack = (hi_s - lo_s + hi_u - lo_u) / 2.0
            out[f"dropbit_{branch.value}_advantage"] = {
                "value": adv,
                "ci": [max(0.0, adv - slack), min(1.0, adv + slack)],
                "trials": 2 * calls,
            }
        n = len(run.times["lsn"])
        ok = run.agg["lsn_ok"]
        lo, hi = wilson(ok, n)
        base = 1.0 / (1 << self.LSN_K)
        out["lsn_advantage"] = {"value": ok / n - base, "ci": [lo - base, hi - base], "trials": n}
        return out

    def gated(self, run: Run) -> dict:
        t = run.ref
        return {
            "primary_ref_ms_p50": timing(t["drop"], 0.5, 1e3, "ref_ms"),
            "primary_ref_ms_p75": timing(t["drop"], 0.75, 1e3, "ref_ms"),
            "secondary_ref_ms_p50": timing(t["lsn"], 0.5, 1e3, "ref_ms"),
            "throughput_per_ref_s": rate(2 * len(t["drop"]), sum(t["drop"]), "1/ref_s"),
        }

    def named(self, run: Run) -> dict:
        t = run.times
        return {
            "dropbit_trials_per_s": rate(2 * len(t["drop"]), sum(t["drop"])),
            "lsn_trials_per_s": rate(len(t["lsn"]), sum(t["lsn"])),
        }

    def probe(self) -> dict:
        rng = self.base.split(1 << 40)
        bits = rng.bits
        t = perf_counter()
        for _ in range(5000):
            bits(2 * self.DROP_N)
        return {"rng_bits_us": (perf_counter() - t) / 5000 * 1e6}


WORKLOADS = {w.name: w for w in (Keys, Isd, Reductions)}
