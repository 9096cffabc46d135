"""One-way-function family over stabilizer-style matrix pairs.

The index is a pair of isotropic matrices with jointly full rank; evaluation
is the noisy-codeword map (r, y, e) -> a @ r + b @ y + e with the error
capped in pair weight. Inverting recovers both logical parts, which is what
ties the family's security to the underlying decoding problems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .gf2 import BitMat, BitVec, pair_weight_int, read_fields
from .sampling import Rng, check_lsn_pair, check_rate, sample_depolarizing, sample_lsn_matrices

__all__ = [
    "OwfIndex",
    "OwfInput",
    "owf_gen",
    "owf_sample",
    "owf_eval",
    "owf_verify_preimage",
    "weight_cap",
    "qgv_predicate",
]


@dataclass(frozen=True)
class OwfIndex:
    n: int
    k: int
    p: float
    a: BitMat
    b: BitMat

    def joint(self) -> BitMat:
        return self.a.hstack(self.b)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "p": self.p,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OwfIndex":
        n, k, p, a, b = read_fields(obj, "owf index", n=int, k=int, p=float, a=dict, b=dict)
        a, b = BitMat.from_json(a), BitMat.from_json(b)
        check_lsn_pair(a, b, n, k)
        return cls(n, k, check_rate(float(p)), a, b)


@dataclass(frozen=True)
class OwfInput:
    r: BitVec
    y: BitVec
    e: BitVec  # 2n bits, pair j at bits (j, n + j)

    def to_json(self) -> dict:
        return {"r": self.r.to_json(), "y": self.y.to_json(), "e": self.e.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "OwfInput":
        r, y, e = read_fields(obj, "owf input", r=dict, y=dict, e=dict)
        e = BitVec.from_json(e)
        if e.nbits % 2:
            raise ValueError("owf input error e has odd length")
        return cls(BitVec.from_json(r), BitVec.from_json(y), e)


def weight_cap(index: OwfIndex) -> int:
    """Domain cap floor(2.01 n p) on the error's pair weight."""
    return math.floor(2.01 * index.n * index.p)


def owf_gen(rng: Rng, k: int, n: int, p: float) -> OwfIndex:
    """Sample an index: the same matrix pair the instance generator uses."""
    check_rate(p)
    if k > n:
        raise ValueError("joint rank n + k cannot exceed 2n")
    a, b = sample_lsn_matrices(rng, k, n)
    return OwfIndex(n, k, p, a, b)


def owf_sample(rng: Rng, index: OwfIndex) -> OwfInput:
    """Uniform logical parts plus capped pair noise; over-cap draws fall back
    to the zero error so sampling never leaves the domain."""
    r = rng.bits(index.n)
    y = rng.bits(index.k)
    e = sample_depolarizing(rng, index.n, index.p)
    if pair_weight_int(e.value, index.n) > weight_cap(index):
        e = BitVec.zeros(2 * index.n)
    return OwfInput(r, y, e)


def owf_eval(index: OwfIndex, x: OwfInput) -> BitVec:
    """a @ r + b @ y + e; the public index itself is not re-emitted."""
    if x.r.nbits != index.n or x.y.nbits != index.k or x.e.nbits != 2 * index.n:
        raise ValueError("input dimensions do not match the index")
    return index.a.matvec(x.r) ^ index.b.matvec(x.y) ^ x.e


def owf_verify_preimage(index: OwfIndex, candidate: OwfInput, target: BitVec) -> bool:
    """True iff the candidate respects the weight cap and evaluates to target.
    A candidate whose dimensions do not match the index raises ValueError,
    whatever its weight."""
    image = owf_eval(index, candidate)
    if pair_weight_int(candidate.e.value, index.n) > weight_cap(index):
        return False
    return image == target


def qgv_predicate(delta: float, rate: float) -> bool:
    """Quantum Gilbert-Varshamov condition H2(delta) + delta log2(3) < 1 - rate."""
    if not 0.0 < delta < 1.0 or not 0.0 < rate < 1.0:
        raise ValueError("arguments must lie in (0, 1)")
    h2 = -delta * math.log2(delta) - (1.0 - delta) * math.log2(1.0 - delta)
    return h2 + delta * math.log2(3.0) < 1.0 - rate
