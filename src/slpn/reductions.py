"""Executable reductions between the noisy-codeword decision problems.

Each reduction transforms instances so that structured inputs map to the
structured distribution of the target problem and unstructured inputs stay
uniform, then forwards a decision oracle's answer. Oracles are plain
callables so the same code runs against brute-force deciders, planted-answer
oracles, and random coins.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import diagnostics
from .gf2 import (
    BitMat,
    BitVec,
    EchelonSet,
    incremental_dual,
    permute_pairs,
    permute_rows_pairs,
    rank,
    symp_vec_mat,
)
from .harness import advantage_interval, wilson_interval
from .sampling import (
    Decision,
    HyperplaneRotation,
    Instance,
    InstanceKind,
    Oracle,
    Rng,
    draw_dual_outside,
    gen_lsn,
    gen_symplpn,
)

__all__ = [
    "Decision",
    "Branch",
    "Oracle",
    "ReductionReport",
    "HyperplaneDimensionError",
    "lsn_to_symplpn",
    "convolve_param",
    "symmetrize_noise",
    "default_flood_count",
    "drop_bit_transform",
    "drop_logical_bit",
    "interpolation_select",
    "dual_mode_transform",
    "lpn_drop_bits",
    "measure_lsn_reduction",
    "measure_drop_bit",
]


class Branch(enum.Enum):
    PLAIN = "plain"
    FLOODED = "flooded"


class HyperplaneDimensionError(RuntimeError):
    """The code has no vector with first coordinate 1, so the restriction
    to the hyperplane does not lose a dimension; callers resample."""


@dataclass(frozen=True)
class ReductionReport:
    trials: int
    successes: int
    advantage: float
    ci_lo: float
    ci_hi: float
    branch: Optional[Branch] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes exceed trials")

    def to_json(self) -> dict:
        obj = {
            "trials": self.trials,
            "successes": self.successes,
            "advantage": self.advantage,
            "ci": [self.ci_lo, self.ci_hi],
            "details": self.details,
        }
        if self.branch is not None:
            obj["branch"] = self.branch.value
        return obj


def lsn_to_symplpn(rng: Rng, instance: Instance, oracle: Oracle) -> BitVec:
    """Guess the logical part of a stabilizer-style sample with one oracle call.

    Strips the b columns, asks the decision oracle about (a, word): a
    structured verdict means the logical part was zero, anything else gets a
    uniform nonzero guess.
    """
    if instance.kind is not InstanceKind.LSN:
        raise ValueError("expected an LSN instance")
    k, n = instance.k, instance.n
    sub = Instance(
        InstanceKind.SYMPLPN,
        instance.lsn_a_part(),
        instance.word,
        k=n,
        n=n,
        p=instance.p,
    )
    if oracle(sub) is Decision.STRUCTURED:
        return BitVec.zeros(k)
    return BitVec(k, rng.integer((1 << k) - 1) + 1)


def convolve_param(p: float, q: float) -> float:
    """The rate u with pair-noise(p) + pair-noise(u) distributed as pair-noise(q)."""
    if not 0.0 <= p <= 0.75:
        raise ValueError("p out of range")
    if not p <= q <= 0.75:
        raise ValueError("q out of range")
    return (q - p) / (1.0 - (4.0 / 3.0) * p) if q > p else 0.0


def symmetrize_noise(
    rng: Rng, vec: BitVec, noisy_pairs: Iterable[int], n: int
) -> tuple[BitVec, tuple[int, ...]]:
    """Scramble 2n-bit noise that is confined to a known pair set into symmetric
    pair noise.

    Draws T ~ Binomial(n, 4m/3n) (resampling while T < m, counted under
    ``reductions.symmetrize_resample``), overlays uniform pair noise on the
    noisy set plus the lowest T - m other indices, and applies a uniform
    pair permutation. Returns (vector, permutation). The binomial parameter
    is clamped to 1 when m > 3n/4.
    """
    pairs = sorted(set(int(j) for j in noisy_pairs))
    m = len(pairs)
    if pairs and not 0 <= pairs[0] <= pairs[-1] < n:
        raise ValueError("pair index out of range")
    p_t = min(1.0, (4.0 * m) / (3.0 * n))
    while True:
        t = rng.binomial(n, p_t)
        if t >= m:
            break
        diagnostics.bump("reductions.symmetrize_resample")
    chosen = set(pairs)
    for j in range(n):
        if len(chosen) == t:
            break
        if j not in chosen:
            chosen.add(j)
    noised = _overlay_pairs(rng, vec, sorted(chosen), n)
    perm = rng.permutation(n)
    return permute_pairs(noised, perm), perm


def _overlay_pairs(rng: Rng, vec: BitVec, pairs: list[int], n: int) -> BitVec:
    """vec with uniform pair noise on each listed pair: one draw of
    2 * len(pairs) bits, whose bits 2i and 2i + 1 flip j and n + j for the
    i-th pair j."""
    overlay = rng.bits(2 * len(pairs)).value
    flips = []
    for i, j in enumerate(pairs):
        if (overlay >> 2 * i) & 1:
            flips.append(j)
        if (overlay >> 2 * i + 1) & 1:
            flips.append(n + j)
    return vec.flip_bits(flips)


def default_flood_count(n: int, p: float) -> int:
    """Number of pairs to flood before symmetrizing: log2(n)^2 / (1 - 4p/3),
    clamped so the symmetrization binomial stays valid."""
    raw = (math.log2(n) ** 2) / (1.0 - (4.0 / 3.0) * p)
    return max(1, min((3 * n) // 4, math.ceil(raw)))


def _check_drop_bit(n: int, p: float, m: Optional[int]) -> None:
    """ValueError unless p < 3/4, where 1 - 4p/3 > 0, and m is None, for the
    default count, or lies in 1..floor(3n/4): the range ``default_flood_count``
    clamps to, which keeps the transformed rate at or below 3/4."""
    if not p < 0.75:
        raise ValueError(f"the drop-bit reduction needs p < 3/4, got p = {p}")
    if m is not None and not 1 <= m <= (3 * n) // 4:
        raise ValueError(f"flood count m = {m} is outside 1..{(3 * n) // 4} at n = {n}")


def drop_bit_transform(
    rng: Rng, instance: Instance, branch: Branch, m: Optional[int] = None
) -> Instance:
    """Map an n-logical-bit sample to an (n-1)-logical-bit sample.

    Pipeline: (flooded branch only: overlay a uniform pair on pair 1) ->
    restrict the code to the hyperplane of first-coordinate-zero vectors,
    fixing the word up by a code vector when its first bit is 1 -> apply a
    random symplectic hyperplane rotation -> declare the rotation's pivot
    pair and m - 1 others noisy -> symmetrize. The symmetrization overlays
    fresh uniform noise on every noisy pair, which makes them uniform
    whatever they held, so they need no flood of their own; m sets the
    symmetrization's binomial and the output rate.

    Raises HyperplaneDimensionError when the hyperplane does not drop a
    dimension (no code vector has first coordinate 1).
    """
    if instance.kind is not InstanceKind.SYMPLPN or instance.k != instance.n:
        raise ValueError("expected a square symplectic instance (k == n)")
    n, p = instance.n, instance.p
    if n < 2:
        raise ValueError("need n >= 2")
    _check_drop_bit(n, p, m)
    count = default_flood_count(n, p) if m is None else int(m)
    u = instance.word
    if branch is Branch.FLOODED:
        u = _overlay_pairs(rng, u, [0], n)

    cols = instance.matrix.transpose().rows
    at = next((i for i, c in enumerate(cols) if c & 1), None)
    if at is None:
        raise HyperplaneDimensionError("code lies inside the hyperplane")
    pivot = cols[at]
    hyper_cols = [c ^ pivot if c & 1 else c for i, c in enumerate(cols) if i != at]
    basis = BitMat._trusted_cols(2 * n, hyper_cols)
    a0 = basis.matmul(_random_invertible(rng, n - 1))

    if u.value & 1:
        u = u ^ BitVec._trusted(2 * n, pivot)

    rot = HyperplaneRotation.sample(rng, n)
    while rot.k_pair is None:
        diagnostics.bump("reductions.rotation_identity_resample")
        rot = HyperplaneRotation.sample(rng, n)
    b = rot.c.matmul(a0)
    w = rot.c.matvec(u)

    kk = rot.k_pair - 1
    noisy = [kk] + [j for j in range(n) if j != kk][: count - 1]
    w, perm = symmetrize_noise(rng, w, noisy, n)
    b = permute_rows_pairs(b, perm)
    # the symmetrized flood convolves with the carried noise: rate
    # p + (count/n)(1 - 4p/3), which is p + log2(n)^2/n at the default count
    p_prime = p + (count / n) * (1.0 - (4.0 / 3.0) * p)
    return Instance(InstanceKind.SYMPLPN, b, w, k=n - 1, n=n, p=p_prime)


def _random_invertible(rng: Rng, n: int) -> BitMat:
    if n == 0:
        return BitMat(0, 0, [])
    while True:
        m = rng.bitmat(n, n)
        if rank(m) == n:
            return m


def drop_logical_bit(
    rng: Rng,
    instance: Instance,
    oracle: Oracle,
    branch: Branch,
    m: Optional[int] = None,
) -> Decision:
    """Decide an n-logical-bit instance with one call to an (n-1)-bit oracle."""
    return oracle(drop_bit_transform(rng, instance, branch, m))


def interpolation_select(
    report_plain: ReductionReport, report_flooded: ReductionReport
) -> Branch:
    """Pick the branch with the larger measured advantage; ties go to PLAIN."""
    if abs(report_flooded.advantage) > abs(report_plain.advantage):
        return Branch.FLOODED
    return Branch.PLAIN


def dual_mode_transform(rng: Rng, instance: Instance) -> tuple[BitMat, BitVec]:
    """Syndrome-style repackaging of an (n-1)-logical-bit sample.

    Extends the code to a maximal isotropic im(b) by a dual vector outside the
    code, appends a dual vector outside im(b), and pairs the word against all
    n + 1 columns. Structured words produce exactly (h, f * h); uniform words
    produce a uniform target because h has full column rank.
    """
    if instance.kind is not InstanceKind.SYMPLPN or instance.k != instance.n - 1:
        raise ValueError("expected an (n-1)-column symplectic instance")
    n = instance.n
    a_cols = instance.matrix.transpose().rows
    dual = incremental_dual(n)
    span = EchelonSet()
    for c in a_cols:
        dual.restrict(c)  # to dimension n + 1
        span.add(c)
    u = draw_dual_outside(rng, dual, span)
    b = BitMat._trusted_cols(2 * n, [*a_cols, u]).matmul(_random_invertible(rng, n))
    # im(b) = span(a, u), which span already holds
    v = draw_dual_outside(rng, dual, span)
    h = BitMat._trusted_cols(2 * n, [*b.transpose().rows, v])
    w = symp_vec_mat(instance.word, h)
    return h, w


def lpn_drop_bits(instance: Instance, k_prime: int, oracle: Oracle) -> Decision:
    """Decide a k-secret-bit parity instance via an oracle for k - k' bits,
    by discarding the last k' matrix columns."""
    if instance.kind is not InstanceKind.LPN:
        raise ValueError("expected an LPN instance")
    if not 0 < k_prime < instance.k:
        raise ValueError("k_prime out of range")
    trunc = instance.matrix.take_cols(0, instance.k - k_prime)
    sub = Instance(
        InstanceKind.LPN,
        trunc,
        instance.word,
        k=instance.k - k_prime,
        n=instance.n,
        p=instance.p,
    )
    return oracle(sub)


def measure_lsn_reduction(
    rng: Rng, oracle: Oracle, k: int, n: int, p: float, trials: int
) -> ReductionReport:
    """Success rate of the logical-part guesser over fresh samples.

    ``advantage`` is the success rate minus the 1/2^k guessing baseline.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    successes = 0
    for _ in range(trials):
        inst = gen_lsn(rng, k, n, p, keep_witness=True)
        guess = lsn_to_symplpn(rng, inst.without_witness(), oracle)
        truth = inst.witness.secret.sub(n, n + k)
        successes += guess == truth
    lo, hi = wilson_interval(successes, trials)
    baseline = 1.0 / (1 << k)
    return ReductionReport(
        trials,
        successes,
        successes / trials - baseline,
        lo - baseline,
        hi - baseline,
        None,
        {"success_rate": successes / trials, "baseline": baseline},
    )


def measure_drop_bit(
    rng: Rng,
    oracle: Oracle,
    n: int,
    p: float,
    branch: Branch,
    trials: int,
    m: Optional[int] = None,
) -> ReductionReport:
    """Distinguishing advantage of the one-bit-drop pipeline with a given oracle.
    Trials alternate structured and unstructured inputs, so each arm needs one."""
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    _check_drop_bit(n, p, m)
    counts = {True: [0, 0], False: [0, 0]}  # structured? -> [trials, said-structured]
    for i in range(trials):
        structured = i % 2 == 0
        while True:
            inst = gen_symplpn(rng, n, n, p, structured=structured)
            try:
                verdict = drop_logical_bit(rng, inst, oracle, branch, m)
                break
            except HyperplaneDimensionError:
                diagnostics.bump("reductions.hyperplane_resample")
        counts[structured][0] += 1
        counts[structured][1] += verdict is Decision.STRUCTURED
    (ts, ss), (tu, su) = counts[True], counts[False]
    adv, lo, hi = advantage_interval(ss, ts, su, tu)
    correct = ss + (tu - su)
    return ReductionReport(
        trials,
        correct,
        adv,
        lo,
        hi,
        branch,
        {"p_structured": ss / ts, "p_unstructured": su / tu},
    )
