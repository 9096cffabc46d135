"""Strongly uniform keys: deterministic seed expansion and its randomized inverse.

``expand`` turns a uniform 4n^2-bit seed into a uniform full-rank isotropic
2n x n matrix by growing columns inside canonically ordered dual bases up to
the n-th; ``invert`` walks the same steps back to a marginally uniform seed,
with ``expand(invert(a)) == a`` except with negligible probability, and pads
the tail ``expand`` never reads with fresh bits. The public-key wrapper
stores the seed in place of the matrix, making the key a plain bitstring.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import diagnostics
from .gf2 import (
    BitMat,
    BitVec,
    incremental_dual,
    read_fields,
    xor_rows,
)
from .pke import Ciphertext, PublicKey, SecretKey, check_p
from .pke import dec as _pke_dec, enc_traced as _pke_enc_traced
from .sampling import Rng, sample_depolarizing

__all__ = [
    "Seed",
    "SuPublicKey",
    "expand",
    "invert",
    "su_gen",
    "su_gen_traced",
    "su_enc",
    "su_enc_traced",
    "su_dec",
]


@dataclass(frozen=True)
class Seed:
    """Exactly 4n^2 uniform bits; n is recovered from the length."""

    bits: BitVec

    def __post_init__(self):
        if 4 * self.n**2 != self.bits.nbits or self.n == 0:
            raise ValueError("seed length must be 4n^2")

    @property
    def n(self) -> int:
        return math.isqrt(self.bits.nbits // 4)

    def to_hex(self) -> str:
        return self.bits.to_hex()

    @classmethod
    def from_hex(cls, n: int, hexstr: str) -> "Seed":
        return cls(BitVec.from_hex(4 * n * n, hexstr))


def expand(seed: Seed) -> BitMat:
    """Deterministically expand a seed into a 2n x n isotropic matrix.

    For each of up to 2n steps, consume d_i seed bits (bit index ascending)
    as combination coefficients over the ordered dual basis of the span so
    far, and keep the first n independent columns, stopping at the n-th: a
    later step's column would be discarded. The zero-padding fallback
    (rank below n after all steps) bumps the ``supke.expand_zero_pad``
    counter; it occurs with probability at most 4^-(n+1).
    """
    n = seed.n
    bits = seed.bits.value
    pos = 0
    real: list[int] = []
    dual = incremental_dual(n)
    for _ in range(2 * n):
        d = dual.dim
        w = dual.extend((bits >> pos) & ((1 << d) - 1))
        pos += d
        # extend refuses the combination exactly when it lies in the span
        if w:
            real.append(w)
            if len(real) == n:
                break
    if pos > 4 * n * n:
        raise RuntimeError("dual dimensions exceeded the seed budget")
    if len(real) < n:
        diagnostics.bump("supke.expand_zero_pad")
        real.extend([0] * (n - len(real)))
    return BitMat._trusted_cols(2 * n, real)


def invert(rng: Rng, a: BitMat) -> Seed:
    """Sample a seed that expands back to ``a``, marginally uniform over seeds.

    Mirrors expansion step by step: with probability 1 - 2^(2n-d)/2^d insert
    the next column of a, otherwise a random vector already in the span of
    the inserted columns, and write its dual-basis coefficients into the
    seed. Like ``expand``, stop at the n-th column: the dual is then the span,
    whose uniform vectors have uniform coefficients, so fresh bits pad the rest.

    Raises ValueError unless a is full rank and isotropic. Column r is checked
    as it is inserted: it must lie in the dual of the columns before it, and
    outside their span. Every column is inserted before the seed is returned.
    """
    n = a.ncols
    if not n or 2 * n != a.nrows:
        raise ValueError("expected a 2n x n matrix with n >= 1")
    a_cols = a.transpose().rows
    while True:
        real: list[int] = []
        dual = incremental_dual(n)
        value = pos = 0
        for _ in range(2 * n):
            r = len(real)
            d = dual.dim
            if rng.random() >= 4.0 ** (r - n):
                w = a_cols[r]
                coeffs = dual.coefficients(w)
                # only a column of a needs the check: the span of real lies in
                # its own dual, because every column of real passed it
                got = dual.extend(coeffs)
                if not w or got != w:
                    # a nonzero got means w is off the dual; 0 left the dual as it was
                    if got or dual.combine(coeffs) != w:
                        raise ValueError("matrix is not isotropic")
                    raise ValueError("matrix is not full rank")
                real.append(w)
            else:
                coeffs = dual.coefficients(xor_rows(real, rng.bits(r).value) if r else 0)
            value |= coeffs << pos
            pos += d
            if len(real) == n:
                padding = rng.bits(4 * n * n - pos)
                return Seed(BitVec(4 * n * n, value | padding.value << pos))
        diagnostics.bump("supke.invert_retry")


@dataclass(frozen=True)
class SuPublicKey:
    """Public key whose matrix part is a seed: 4n^2 + 2n bits in total."""

    n: int
    p: float
    seed: Seed
    b: BitVec

    def bit_length(self) -> int:
        return self.seed.bits.nbits + self.b.nbits

    @functools.cached_property
    def _plain_key(self) -> PublicKey:
        """The expanded plain key, built on first use and kept on the instance.

        Not a field, so equality, hashing and ``to_json`` ignore it.
        """
        return PublicKey(self.n, self.p, expand(self.seed), self.b)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "seed_hex": self.seed.to_hex(),
            "b": self.b.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SuPublicKey":
        n, p, seed_hex, b = read_fields(obj, "public key", n=int, p=float, seed_hex=str, b=dict)
        seed = Seed.from_hex(n, seed_hex)
        b = BitVec.from_json(b)
        if b.nbits != 2 * n:
            raise ValueError("inconsistent public key")
        return cls(n, check_p(float(p)), seed, b)


def su_gen(rng: Rng, n: int, p: float) -> tuple[SuPublicKey, SecretKey]:
    pk, sk, _ = su_gen_traced(rng, n, p)
    return pk, sk


def su_gen_traced(rng: Rng, n: int, p: float) -> tuple[SuPublicKey, SecretKey, BitVec]:
    check_p(p)
    seed = Seed(rng.bits(4 * n * n))
    a = expand(seed)
    x = rng.bits(n)
    e = sample_depolarizing(rng, n, p)
    b = a.matvec(x) ^ e
    return SuPublicKey(n, p, seed, b), SecretKey(n, x), e


def su_enc(rng: Rng, pk: SuPublicKey, mu: int) -> Ciphertext:
    ct, _ = su_enc_traced(rng, pk, mu)
    return ct


def su_enc_traced(rng: Rng, pk: SuPublicKey, mu: int) -> tuple[Ciphertext, BitVec]:
    """Encrypt exactly as with the plain public key the seed expands to.

    The seed is expanded on a key's first encryption only.
    """
    return _pke_enc_traced(rng, pk._plain_key, mu)


def su_dec(sk: SecretKey, ct: Ciphertext) -> int:
    return _pke_dec(sk, ct)
