"""Exact-probability tooling for the seed expansion and its inverse at tiny n.

Replays the expansion path of a seed and multiplies the branch probabilities
the inverter would assign, giving invert's raw (pre-retry) emission
probability for that exact seed. Used to verify that, conditioned on
success, invert is uniform over expand-preimages.
"""
import functools
from fractions import Fraction

from slpn.gf2 import BitMat, swap_halves, xor_rows
from slpn.gf2 import _kernel_ints
from slpn.supke import Seed, expand


def ordered_dual_vectors(cols: list[int], n: int) -> tuple[list[int], tuple[int, ...]]:
    """Canonical basis of the symplectic dual of span(cols), ordered by the
    free columns of the reduced pairing system; identical for any column set
    with the same span.

    ``expand`` and ``invert`` grow this basis one column at a time through
    ``incremental_dual``; this recomputes it from scratch, as the reference
    the incremental basis is checked against. The result is memoized by the
    column tuple: the exhaustive check at n = 2 asks for the same 106 column
    lists at every step of every seed, and 256 entries hold them all."""
    vecs, free = _dual_from_scratch(tuple(cols), n)
    return list(vecs), free


@functools.lru_cache(maxsize=256)
def _dual_from_scratch(cols: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    vecs, free = _kernel_ints([swap_halves(c, n) for c in cols], 2 * n)
    return tuple(vecs), free


def invert_raw_probability(seed: Seed, target: BitMat) -> Fraction | None:
    """Probability that one (retry-free) pass of invert emits exactly ``seed``.

    Returns None when the seed is not an expand-preimage of ``target``.
    """
    n = seed.n
    bits = seed.bits.value
    pos = 0
    real: list[int] = []
    prob = Fraction(1)
    for _ in range(2 * n):
        dual, _ = ordered_dual_vectors(real, n)
        d = len(dual)
        coeffs = (bits >> pos) & ((1 << d) - 1)
        pos += d
        w = xor_rows(dual, coeffs)
        r = len(real)
        independent = _is_independent(real, w)
        if independent and r < n:
            # invert inserts the next target column here
            if w != target.col(r).value:
                return None
            prob *= 1 - Fraction(1, 4 ** (n - r))
            real.append(w)
        else:
            # invert picks this span vector with probability 4^(r-n) / 2^r
            prob *= Fraction(1, 4 ** (n - r)) * Fraction(1, 2**r)
    if len(real) < n:
        return None  # failed path: retried, never emitted
    prob *= Fraction(1, 2 ** (4 * n * n - pos))
    return prob


def _is_independent(rows: list[int], v: int) -> bool:
    for r in sorted(rows, reverse=True):
        if v ^ r < v:
            v ^= r
    return v != 0


def enumerate_expand(n: int):
    """expand over every seed; returns (matrix rows tuple -> list of seed ints,
    zero-pad seed count). Only feasible for n = 2 (2^16 seeds)."""
    preimages: dict[tuple, list[int]] = {}
    padded = 0
    total_bits = 4 * n * n
    from slpn import diagnostics

    for s in range(1 << total_bits):
        seed = Seed.__new__(Seed)
        object.__setattr__(seed, "bits", _bitvec(total_bits, s))
        before = diagnostics.value("supke.expand_zero_pad")
        mat = expand(seed)
        if diagnostics.value("supke.expand_zero_pad") > before:
            padded += 1
            continue
        preimages.setdefault(mat.rows, []).append(s)
    return preimages, padded


def _bitvec(nbits, value):
    from slpn.gf2 import BitVec

    return BitVec(nbits, value)
