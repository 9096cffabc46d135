"""Decoding attacks and the oracle machinery built on them.

Exhaustive search is the ground truth at small sizes; the information-set
decoders are the generic benchmark at working sizes. Attacks only ever look
at (matrix, word); retained witnesses are for verification by tests.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

from .gf2 import (
    BitMat,
    BitVec,
    EchelonSet,
    pair_weight_int,
    xor_rows,
)
from .sampling import Decision, Instance, InstanceKind, Oracle, Rng

__all__ = [
    "AttackResult",
    "brute_force_search",
    "brute_force_decide",
    "make_brute_oracle",
    "make_coin_oracle",
    "witness_oracle",
    "prange_isd",
    "pair_aware_isd",
    "min_distance",
    "eta_weight",
]

BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class AttackResult:
    success: bool
    secret: Optional[BitVec]
    error: Optional[BitVec]
    iterations: int
    wall_time: float

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "secret": None if self.secret is None else self.secret.to_json(),
            "error": None if self.error is None else self.error.to_json(),
            "iterations": self.iterations,
            "wall_time": self.wall_time,
        }


def _error_weight(instance_kind: InstanceKind, value: int, nrows: int) -> int:
    if instance_kind is InstanceKind.LPN:
        return value.bit_count()
    return pair_weight_int(value, nrows // 2)


def _expected_error_weight(instance: Instance) -> float:
    if instance.kind is InstanceKind.LPN:
        return instance.matrix.nrows * instance.p
    return instance.n * instance.p


def _gray_walk(cols: list[int], start: int):
    """start ^ M @ x for every x of len(cols) bits, where M has columns
    ``cols``, in Gray-code order: the i-th value is for x = i ^ (i >> 1), so
    x = 0 comes first and each step adds one column."""
    yield start
    for i in range(1, 1 << len(cols)):
        start ^= cols[(i & -i).bit_length() - 1]
        yield start


def brute_force_search(instance: Instance) -> tuple[BitVec, BitVec]:
    """Minimum-weight consistent (secret, error), lowest secret on ties.

    Walks all secrets in Gray-code order while tracking word + matrix @ x
    incrementally; the metric is pair weight for symplectic kinds and
    Hamming weight for plain parity instances.
    """
    k = instance.matrix.ncols
    if k > BRUTE_FORCE_LIMIT:
        raise ValueError("secret space too large to enumerate")
    nrows = instance.matrix.nrows
    best_w, best_x, best_e = nrows + 1, 0, 0  # any error weighs at most nrows
    for i, e in enumerate(_gray_walk(instance.matrix.transpose().rows, instance.word.value)):
        w = _error_weight(instance.kind, e, nrows)
        if w < best_w or (w == best_w and i ^ (i >> 1) < best_x):
            best_w, best_x, best_e = w, i ^ (i >> 1), e
    return BitVec(k, best_x), BitVec(nrows, best_e)


def brute_force_decide(instance: Instance, weight_threshold: Optional[float] = None) -> Decision:
    """Structured iff the minimum consistent error weight is at most the
    threshold (default twice the expected error weight)."""
    if weight_threshold is None:
        weight_threshold = 2.0 * _expected_error_weight(instance)
    _, e = brute_force_search(instance)
    w = _error_weight(instance.kind, e.value, instance.matrix.nrows)
    return Decision.STRUCTURED if w <= weight_threshold else Decision.UNSTRUCTURED


def make_brute_oracle(weight_threshold: Optional[float] = None) -> Oracle:
    def oracle(instance: Instance) -> Decision:
        return brute_force_decide(instance, weight_threshold)

    return oracle


def make_coin_oracle(rng: Rng) -> Oracle:
    def oracle(instance: Instance) -> Decision:
        return Decision.STRUCTURED if rng.bit() else Decision.UNSTRUCTURED

    return oracle


def witness_oracle(instance: Instance) -> Decision:
    """Upper-anchor oracle that reads the generator's ground truth."""
    if instance.witness is None:
        raise ValueError("instance carries no witness")
    return Decision.STRUCTURED if instance.witness.structured else Decision.UNSTRUCTURED


def _default_isd_threshold(instance: Instance) -> int:
    return math.ceil(2.5 * _expected_error_weight(instance))


_Ints = tuple[int, ...]


@functools.lru_cache(maxsize=1)
def _code_form(m: BitMat) -> Optional[tuple[_Ints, _Ints, _Ints, _Ints]]:
    """The code in reduced column echelon form, S = M T with T invertible,
    or None when M has rank below k.

    Returns the columns of S and of T, the rows of S, and for each row the
    unit vector e_c when it is the lead row of column c (its highest bit, set
    in no other column; the row of S there is e_c), else 0. M x = word on a
    row set exactly when S y = word there for y = T^-1 x, and the lead rows
    form one information set.

    The form depends on M alone, so it is kept for the last code, keyed by
    the (immutable, hashable) ``BitMat``, and shared as tuples: a second
    attack on a code in a row, whatever its word, skips the elimination.
    The callers that attack a code twice run both decoders on one instance
    back to back (``matched_isd``), so one entry suffices."""
    k = m.ncols
    span = EchelonSet()
    for j, col in enumerate(m.transpose().rows):
        span.add(col << k | 1 << j)  # the tag tracks the column operations
    red = span.reduced()
    if red and not red[-1] >> k:
        return None  # a combination of columns vanished
    scols = tuple(v >> k for v in red)
    tcols = tuple(v & ((1 << k) - 1) for v in red)
    unit = [0] * m.nrows
    for c, s in enumerate(scols):
        unit[s.bit_length() - 1] = 1 << c
    return scols, tcols, BitMat(len(scols), m.nrows, scols).transpose().rows, tuple(unit)


def _base_form(instance: Instance) -> Optional[tuple[_Ints, _Ints, list[int], _Ints]]:
    """``_code_form`` of the instance's code with the rows of S replaced by
    the augmented rows s_i << 1 | word_i of [S | word]; None when M has rank
    below k."""
    form = _code_form(instance.matrix)
    if form is None:
        return None
    scols, tcols, rows, unit = form
    word = instance.word.value
    return scols, tcols, [r << 1 | (word >> i) & 1 for i, r in enumerate(rows)], unit


def _fix_leads(picks: list[int], aug: list[int], unit: _Ints, k: int):
    """Split picked rows of the base form: each lead row fixes its coordinate
    of y to its word bit, and the other rows come back as they are. Also
    returns the masks (keep, fixed) that substitute the fixed coordinates
    into such a row a: (a & keep) ^ parity(a & fixed)."""
    known = y = 0
    rest = []
    for i in picks:
        u = unit[i]
        if u:
            known |= u
            if aug[i] & 1:
                y |= u
        else:
            rest.append(aug[i])
    return y, rest, (((1 << k) - 1) ^ known) << 1 | 1, y << 1


def _success(instance, tcols, y, e, start, iters):
    """The result for the solution y of the base form: x = T y."""
    x = BitVec(instance.matrix.ncols, xor_rows(tcols, y))
    return AttackResult(True, x, BitVec(instance.matrix.nrows, e), iters, time.perf_counter() - start)


def prange_isd(
    rng: Rng,
    instance: Instance,
    max_iters: int,
    weight_threshold: Optional[int] = None,
) -> AttackResult:
    """Classic information-set decoding: guess an error-free row subset of
    size k, invert, accept when the residual weight is plausible.

    Singular information sets are discarded, not repaired. The code is
    brought to the base form of ``_code_form`` once. A picked lead row then
    fixes its coordinate of y outright, and only the other picked rows, with
    the fixed coordinates substituted, go through an augmented
    ``EchelonSet``; the set is singular at the first row it refuses. Each
    iteration draws one permutation, also when M is rank deficient and no
    set can win. The ``wall_time`` of a repeated attack on a cached code
    excludes the base form.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters = {max_iters} is negative")
    if weight_threshold is None:
        weight_threshold = _default_isd_threshold(instance)
    nrows = instance.matrix.nrows
    k = instance.matrix.ncols
    word = instance.word.value
    start = time.perf_counter()
    gen = rng.numpy()
    base = _base_form(instance)
    if base is None:
        for _ in range(max_iters):
            gen.permutation(nrows)
        return AttackResult(False, None, None, max_iters, time.perf_counter() - start)
    scols, tcols, aug, unit = base
    for it in range(1, max_iters + 1):
        y, rest, keep, fixed = _fix_leads(gen.permutation(nrows)[:k].tolist(), aug, unit, k)
        basis = EchelonSet(augmented=True)
        add = basis.add
        for a in rest:
            if not add((a & keep) ^ ((a & fixed).bit_count() & 1)):
                break
        else:
            y |= basis.solve()
            e = word ^ xor_rows(scols, y)
            if _error_weight(instance.kind, e, nrows) <= weight_threshold:
                return _success(instance, tcols, y, e, start, it)
    return AttackResult(False, None, None, max_iters, time.perf_counter() - start)


def pair_aware_isd(
    rng: Rng,
    instance: Instance,
    max_iters: int,
    weight_threshold: Optional[int] = None,
) -> AttackResult:
    """Information-set decoding that selects whole index pairs (j, n+j).

    Pair noise hits both rows of a pair together, so sampling the set in
    pairs buys a better clean-set probability per row; the extra rows of an
    odd cover double as free parity checks. Some codes leave every pure pair
    selection rank-deficient (e.g. codes supported in one half), so a
    deficient draw is topped up with individual rows that still extend the
    rank, all under the same zero-error hypothesis.

    It works on the base form of ``_code_form``, as ``prange_isd`` does:
    picked lead rows fix their coordinates of y, and the other picked rows
    and the top-up rows enter an augmented ``EchelonSet`` with those
    coordinates substituted. Every fixed unit vector already lies in the
    span, so a top-up row extends it exactly when its remaining part extends
    the set. At full rank the set yields the rest of y; the picked rows agree
    with the solution exactly when its error vanishes on them. (The top-up
    rows sit in the echelon set and always agree.) When M is rank deficient,
    each iteration still draws its pair and top-up permutations. The
    ``wall_time`` of a repeated attack on a cached code, such as one right
    after ``prange_isd`` on the same instance, excludes the base form.
    """
    if instance.matrix.nrows % 2:
        raise ValueError("pair-aware decoding needs 2n rows")
    if max_iters < 0:
        raise ValueError(f"max_iters = {max_iters} is negative")
    if weight_threshold is None:
        weight_threshold = _default_isd_threshold(instance)
    n = instance.matrix.nrows // 2
    k = instance.matrix.ncols
    npairs = (k + 1) // 2
    word = instance.word.value
    start = time.perf_counter()
    gen = rng.numpy()
    base = _base_form(instance)
    if base is None:
        for _ in range(max_iters):
            gen.permutation(n)
            gen.permutation(2 * n)
        return AttackResult(False, None, None, max_iters, time.perf_counter() - start)
    scols, tcols, aug, unit = base
    for it in range(1, max_iters + 1):
        pairs = gen.permutation(n)[:npairs].tolist()
        picked = 0
        for j in pairs:
            picked |= 1 << j
        picked |= picked << n  # both rows of every picked pair
        y, rest, keep, fixed = _fix_leads(pairs + [j + n for j in pairs], aug, unit, k)
        need = (keep >> 1).bit_count()  # the coordinates no lead row fixed
        basis = EchelonSet(augmented=True)
        add = basis.add
        for a in rest:
            add((a & keep) ^ ((a & fixed).bit_count() & 1))
        if len(basis) < need:
            for i in gen.permutation(2 * n).tolist():
                if picked >> i & 1:
                    continue
                a = aug[i]
                if add((a & keep) ^ ((a & fixed).bit_count() & 1)) and len(basis) == need:
                    break  # always reached: the rows of M span all k coordinates
        y |= basis.solve()
        e = word ^ xor_rows(scols, y)
        if e & picked:
            continue  # inconsistent: the zero-error hypothesis failed
        if _error_weight(instance.kind, e, 2 * n) <= weight_threshold:
            return _success(instance, tcols, y, e, start, it)
    return AttackResult(False, None, None, max_iters, time.perf_counter() - start)


def min_distance(code: BitMat, pair_metric: bool = False) -> int:
    """Minimum weight of a nonzero codeword of im(code), by enumeration."""
    k = code.ncols
    if k > BRUTE_FORCE_LIMIT:
        raise ValueError("code too large to enumerate")
    if k == 0:
        raise ValueError("empty code has no nonzero codeword")
    if pair_metric and code.nrows % 2:
        raise ValueError("pair metric needs 2n rows")
    n = code.nrows // 2
    best = code.nrows + 1
    for c in _gray_walk(code.transpose().rows, 0):
        w = pair_weight_int(c, n) if pair_metric else c.bit_count()
        if 0 < w < best:  # weight 0 is the zero codeword
            best = w
    return best


def eta_weight(w: int, p: float) -> float:
    """Lower bound on Pr[b . e = 1] for a weight-w vector b against pair noise:
    (1 - (1 - 4p/3)^(w/2)) / 2."""
    if w < 0:
        raise ValueError("negative weight")
    if not 0.0 <= p <= 0.75:
        raise ValueError("p out of range")
    return (1.0 - (1.0 - (4.0 / 3.0) * p) ** (w / 2.0)) / 2.0
