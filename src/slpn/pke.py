"""One-bit public-key encryption over random isotropic codes.

Keys are (a, b = a @ x + e) with a full-rank isotropic and e depolarizing;
a ciphertext is (f * a, f * b + mu) where * is the per-column symplectic
product. Decryption computes c + u . x, which algebraically equals
mu + (f * e), so correctness is governed by Pr[f * e = 0].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .gf2 import BitMat, BitVec, check_isotropic, read_fields, symp_inner, symp_vec_mat
from .sampling import Rng, check_rate, sample_depolarizing, sample_isotropic

__all__ = [
    "PublicKey",
    "SecretKey",
    "Ciphertext",
    "gen",
    "gen_traced",
    "enc",
    "enc_traced",
    "dec",
    "encrypt_bits",
    "decrypt_bits",
    "predict_success",
    "matched_noise",
    "pick_p_for_success",
    "parse_p",
]


@dataclass(frozen=True)
class PublicKey:
    n: int
    p: float
    a: BitMat
    b: BitVec

    def to_json(self) -> dict:
        return {"n": self.n, "p": self.p, "a": self.a.to_json(), "b": self.b.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "PublicKey":
        n, p, a, b = read_fields(obj, "public key", n=int, p=float, a=dict, b=dict)
        a = BitMat.from_json(a)
        b = BitVec.from_json(b)
        if (a.nrows, a.ncols, b.nbits) != (2 * n, n, 2 * n):
            raise ValueError("inconsistent public key")
        return cls(n, check_p(float(p)), check_isotropic(a), b)


@dataclass(frozen=True)
class SecretKey:
    n: int
    x: BitVec

    def to_json(self) -> dict:
        return {"n": self.n, "x": self.x.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "SecretKey":
        n, x = read_fields(obj, "secret key", n=int, x=dict)
        x = BitVec.from_json(x)
        if x.nbits != n:
            raise ValueError("inconsistent secret key")
        return cls(n, x)


@dataclass(frozen=True)
class Ciphertext:
    u: BitVec
    c: int

    def to_json(self) -> dict:
        return {"u": self.u.to_json(), "c": self.c}

    @classmethod
    def from_json(cls, obj: dict) -> "Ciphertext":
        u, c = read_fields(obj, "ciphertext", u=dict, c=int)
        if c not in (0, 1):
            raise ValueError("ciphertext bit out of range")
        return cls(BitVec.from_json(u), c)


def gen(rng: Rng, n: int, p: float) -> tuple[PublicKey, SecretKey]:
    pk, sk, _ = gen_traced(rng, n, p)
    return pk, sk


def gen_traced(rng: Rng, n: int, p: float) -> tuple[PublicKey, SecretKey, BitVec]:
    """Key generation that also returns the 2n-bit key noise e, for white-box checks."""
    check_p(p)
    a = sample_isotropic(rng, n, n)
    x = rng.bits(n)
    e = sample_depolarizing(rng, n, p)
    b = a.matvec(x) ^ e
    return PublicKey(n, p, a, b), SecretKey(n, x), e


def enc(rng: Rng, pk: PublicKey, mu: int) -> Ciphertext:
    ct, _ = enc_traced(rng, pk, mu)
    return ct


def enc_traced(rng: Rng, pk: PublicKey, mu: int) -> tuple[Ciphertext, BitVec]:
    """Encryption that also returns the 2n-bit encryption noise f, for white-box checks."""
    if mu not in (0, 1):
        raise ValueError("message must be a single bit")
    f = sample_depolarizing(rng, pk.n, pk.p)
    u = symp_vec_mat(f, pk.a)
    c = (symp_inner(f, pk.b) + mu) & 1
    return Ciphertext(u, c), f


def dec(sk: SecretKey, ct: Ciphertext) -> int:
    """c + u . x mod 2; equals mu + (f * e) for the noise used at key/enc time."""
    return (ct.c + ct.u.dot(sk.x)) & 1


def encrypt_bits(rng: Rng, pk: PublicKey, bits: BitVec) -> list[Ciphertext]:
    """Multi-bit messages go bit by bit, each with fresh encryption noise."""
    return [enc(rng, pk, bits.bit(i)) for i in range(bits.nbits)]


def decrypt_bits(sk: SecretKey, cts: list[Ciphertext]) -> BitVec:
    return BitVec.from_bits(dec(sk, ct) for ct in cts)


def predict_success(n: int, p: float) -> float:
    """Exact decryption-success probability 1/2 + 1/2 (1 - 4/3 p^2)^n."""
    check_rate(p)
    return 0.5 + 0.5 * (1.0 - (4.0 / 3.0) * p * p) ** n


def matched_noise(q: float) -> float:
    """Pair-noise rate giving the same decryption success as Bernoulli rate q
    on a length-2n code: solves 1 - 4p^2/3 = (1 - 2q^2)^2."""
    if not 0.0 <= q <= 1.0 / math.sqrt(2.0):
        raise ValueError("q out of range")
    return math.sqrt(3.0 * (q * q - q**4))


def pick_p_for_success(n: int, target: float) -> float:
    """Invert predict_success by bisection on [0, 3/4] to 1e-12."""
    if not 0.5 < target < 1.0:
        raise ValueError("target out of range")
    lo, hi = 0.0, 0.75
    if predict_success(n, hi) > target:
        return hi
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if predict_success(n, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def check_p(p: float) -> float:
    """p itself when key generation can use it, 0 < p < 1; ValueError otherwise."""
    if not 0.0 < p < 1.0:
        raise ValueError("p out of range")
    return p


def parse_p(raw, n: int) -> float:
    """A key-noise rate written as a number or as ``auto:<target>`` (the rate at
    which decryption at length n succeeds with probability target); ValueError
    naming p unless the rate passes ``check_p``."""
    try:
        if isinstance(raw, str) and raw.startswith("auto:"):
            return check_p(pick_p_for_success(n, float(raw[len("auto:") :])))
        return check_p(float(raw))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"p = {raw!r}: {exc}") from None
