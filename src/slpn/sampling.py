"""Seeded randomness and the distribution/instance samplers.

Everything here is reproducible: an ``Rng`` is a counter-based (Philox) stream
keyed by a 64-bit seed, and independent child streams are derived from
(parent seed, child index), so experiments can be parallelized without
coordination. Identical seed and call sequence gives an identical stream on
every platform.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gf2 import (
    BitMat,
    BitVec,
    EchelonSet,
    check_isotropic,
    incremental_dual,
    rank,
    read_fields,
    swap_halves,
)

__all__ = [
    "Rng",
    "InstanceKind",
    "Witness",
    "Instance",
    "Decision",
    "Oracle",
    "check_rate",
    "sample_depolarizing",
    "sample_bernoulli",
    "sample_isotropic",
    "draw_dual_outside",
    "sample_lsn_matrices",
    "check_lsn_pair",
    "gen_symplpn",
    "gen_lsn",
    "gen_lpn",
    "HyperplaneRotation",
]


class Rng:
    """Counter-based keyed generator with explicit stream splitting.

    Single-owner: do not share one instance across threads; derive children
    with :meth:`split` instead. Draws of up to 32 bits read the bit
    generator's ``next_uint32`` directly and so skip numpy's per-generator
    lock, which only guards against the sharing this contract rules out.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(i) for i in _spawn_key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def __getstate__(self) -> dict:
        # the ctypes binding holds a pointer into this generator's state, so
        # it is neither picklable nor valid for a copy; the copy binds anew
        state = self.__dict__.copy()
        state.pop("_next_word", None)
        state.pop("_word_state", None)
        return state

    def _bind_word(self) -> int:
        """Bind ``next_uint32`` on the first small draw and return its word.

        Binding is deferred to here because the first ``ctypes`` access is
        costly and most split children never make a small draw. The state
        pointer stays valid while ``self._gen`` lives, and setting the bit
        generator's state writes into the memory it points to.
        """
        iface = self._gen.bit_generator.ctypes
        self._next_word, self._word_state = iface.next_uint32, iface.state
        return self._next_word(self._word_state)

    def split(self, index: int) -> "Rng":
        """Independent child stream identified by (this seed, index)."""
        return Rng(self.seed, self.spawn_key + (int(index),))

    # -- primitives ----------------------------------------------------
    def bit(self) -> int:
        """The top bit of the next 32-bit word: the bit ``integers(0, 2)``
        returns, leaving the same state."""
        return self.bits(32).value >> 31

    def bits(self, count: int) -> BitVec:
        """``count`` uniform bits: the first ``count`` bits, little-endian, of
        ``Generator.bytes((count + 7) // 8)``.

        ``bytes`` draws ceil(length / 4) uint32 words from the bit generator
        and keeps the first ``length`` bytes of their little-endian encoding.
        Up to 32 bits that is one word, which the bit generator's own
        ``next_uint32`` returns from the same state, as does the scalar
        ``integers(0, 2**32, dtype=uint32)``, so masking it gives the same
        bits and leaves the stream where ``bytes`` would
        (``test_rng_mixed_draw_golden_stream`` pins it). Either way a draw
        takes whole words, so one ``bits(32 * W)`` draw cut into runs of
        ceil(ceil(d/8)/4) words gives what separate ``bits(d)`` draws give,
        and leaves the same state, which the packed dual's ``grow`` relies on.
        """
        if count <= 0:
            return BitVec(count)  # no bits, or ValueError for a negative count
        if count <= 32:
            try:
                word = self._next_word(self._word_state)
            except AttributeError:
                word = self._bind_word()
            return BitVec._trusted(count, word & ((1 << count) - 1))
        raw = self._gen.bytes((count + 7) // 8)
        return BitVec._trusted(count, int.from_bytes(raw, "little") & ((1 << count) - 1))

    def bitmat(self, nrows: int, ncols: int) -> BitMat:
        flat = self.bits(nrows * ncols).value
        mask = (1 << ncols) - 1
        return BitMat._trusted(
            nrows, ncols, tuple((flat >> (i * ncols)) & mask for i in range(nrows))
        )

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        return int(self._gen.integers(0, bound))

    def random(self) -> float:
        return float(self._gen.random())

    def binomial(self, n: int, p: float) -> int:
        return int(self._gen.binomial(n, p))

    def permutation(self, n: int) -> tuple[int, ...]:
        return tuple(self._gen.permutation(n).tolist())

    def numpy(self) -> np.random.Generator:
        """Escape hatch for vectorized draws; consumes this stream's state."""
        return self._gen


def check_rate(p: float) -> float:
    """p itself when the noise samplers can use it, 0 <= p <= 1; ValueError otherwise."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p out of range")
    return p


def _packed(bits: np.ndarray) -> int:
    """The int whose bit i is bits[i], for a bool array."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def sample_depolarizing(rng: Rng, n: int, p: float) -> BitVec:
    """Per-pair noise on a 2n-bit vector, pair j at bits (j, n + j): (0,0) w.p.
    1-p, each of the other three patterns w.p. p/3.

    A noisy pair j takes pattern 1, 2 or 3 as bits (j, n + j) = (1,0), (0,1)
    or (1,1). Up to 8 noisy pairs are set one at a time; beyond that,
    packing two bool arrays costs less than the loop.
    """
    check_rate(p)
    gen = rng.numpy()
    noisy = gen.random(n) < p
    patterns = gen.integers(1, 4, size=n)
    if np.count_nonzero(noisy) > 8:
        lo = _packed(noisy & (patterns != 2))
        hi = _packed(noisy & (patterns > 1))
        return BitVec._trusted(2 * n, lo | hi << n)
    value = 0
    for j in np.flatnonzero(noisy).tolist():
        pattern = int(patterns[j])
        value |= (pattern & 1) << j | (pattern >> 1) << (n + j)
    return BitVec._trusted(2 * n, value)


def sample_bernoulli(rng: Rng, n: int, p: float) -> BitVec:
    """Each bit independently 1 with probability p."""
    check_rate(p)
    return BitVec._trusted(n, _packed(rng.numpy().random(n) < p))


def sample_isotropic(rng: Rng, n: int, k: int) -> BitMat:
    """Uniform 2n x k full-column-rank matrix with symplectically orthogonal columns.

    Built column by column by the dual's ``grow``: uniform coefficients from
    ``rng.bits`` make each new column uniform in the symplectic dual of the
    previous ones, and vectors inside their span are rejected. The span is
    the dual of the dual, so a vector lies in it exactly when it pairs to 0
    with every dual vector, and ``extend`` then refuses it.
    """
    if n < 0 or k < 0:
        raise ValueError(f"{'n' if n < 0 else 'k'} is negative")
    if k > n:
        raise ValueError("an isotropic subspace of Z_2^{2n} has dimension at most n")
    return incremental_dual(n).grow(k, rng.bits)


def draw_dual_outside(rng: Rng, dual, span: EchelonSet) -> int:
    """A uniform vector of the dual outside the span, which takes it.

    Each draw is kept with probability at least 1/2, since no caller's dual
    lies inside its span. The dual-mode transform keeps a draw with
    probability 3/4, then 1/2. The LSN sampler draws from dual(b) outside
    span(a, b), with a Lagrangian (dual(a) = span(a)) and j < k <= n columns
    of b so far: were dual(b) inside span(a, b), span(a) & dual(b) =
    dual(span(a, b)) would lie inside span(b), but it has dimension at least
    n - j >= 1 and meets span(b) only in 0.
    """
    while True:
        v = dual.combine(rng.bits(dual.dim).value)
        if span.add(v):
            return v


def sample_lsn_matrices(rng: Rng, k: int, n: int) -> tuple[BitMat, BitMat]:
    """The stabilizer-style matrix pair: isotropic a (2n x n), isotropic b (2n x k),
    with [a | b] jointly full rank.

    b is grown column by column: each column is uniform among vectors
    symplectically orthogonal to the previous b columns and outside the span
    of everything sampled so far, so its first column is equally likely to be
    any vector outside im(a).
    """
    if n < 0 or k < 0:
        raise ValueError(f"{'n' if n < 0 else 'k'} is negative")
    if k > n:
        raise ValueError("joint rank n + k cannot exceed 2n")
    a = sample_isotropic(rng, n, n)
    joint = EchelonSet()
    for col in a.transpose().rows:
        joint.add(col)
    b_dual = incremental_dual(n)
    b_cols: list[int] = []
    for _ in range(k):
        b_cols.append(draw_dual_outside(rng, b_dual, joint))
        b_dual.restrict(b_cols[-1])
    return a, BitMat._trusted_cols(2 * n, b_cols)


def check_lsn_pair(a: BitMat, b: BitMat, n: int, k: int) -> None:
    """ValueError unless a is 2n x n, b is 2n x k, both pass ``check_isotropic``
    and [a | b] has rank n + k: the pair ``sample_lsn_matrices`` makes."""
    if (a.nrows, a.ncols, b.nrows, b.ncols) != (2 * n, n, 2 * n, k):
        raise ValueError(
            f"a is {a.nrows}x{a.ncols} and b is {b.nrows}x{b.ncols}, "
            f"expected {2 * n}x{n} and {2 * n}x{k} for k={k}, n={n}"
        )
    check_isotropic(a)
    check_isotropic(b)
    if rank(a.hstack(b)) != n + k:
        raise ValueError("[a | b] does not have rank n + k")


class InstanceKind(str, enum.Enum):
    LPN = "lpn"
    SYMPLPN = "symplpn"
    LSN = "lsn"


@dataclass(frozen=True)
class Witness:
    """Ground truth retained by a generator; never consulted by attacks."""

    structured: bool
    secret: Optional[BitVec] = None
    error: Optional[BitVec] = None


@dataclass(frozen=True)
class Instance:
    """A decision/search instance: (matrix, word) plus parameters.

    For LSN the matrix is [a | b] split at column n. Witness retention is
    opt-in at generation time.
    """

    kind: InstanceKind
    matrix: BitMat
    word: BitVec
    k: int
    n: int
    p: float
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.word.nbits != self.matrix.nrows:
            raise ValueError("word length does not match matrix rows")

    def lsn_a_part(self) -> BitMat:
        if self.kind is not InstanceKind.LSN:
            raise ValueError("not an LSN instance")
        return self.matrix.take_cols(0, self.n)

    def lsn_b_part(self) -> BitMat:
        if self.kind is not InstanceKind.LSN:
            raise ValueError("not an LSN instance")
        return self.matrix.take_cols(self.n, self.n + self.k)

    def without_witness(self) -> "Instance":
        return Instance(self.kind, self.matrix, self.word, self.k, self.n, self.p)

    def to_json(self) -> dict:
        obj = {
            "kind": self.kind.value,
            "k": self.k,
            "n": self.n,
            "p": self.p,
            "matrix": self.matrix.to_json(),
            "word": self.word.to_json(),
        }
        if self.witness is not None:
            w = {"structured": self.witness.structured}
            if self.witness.secret is not None:
                w["secret"] = self.witness.secret.to_json()
            if self.witness.error is not None:
                w["error"] = self.witness.error.to_json()
            obj["witness"] = w
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        kind, k, n, p, matrix, word = read_fields(
            obj, "instance", kind=str, k=int, n=int, p=float, matrix=dict, word=dict
        )
        kind = InstanceKind(kind)
        matrix = BitMat.from_json(matrix)
        word = BitVec.from_json(word)
        shape = {
            InstanceKind.LPN: (n, k),
            InstanceKind.SYMPLPN: (2 * n, k),
            InstanceKind.LSN: (2 * n, n + k),
        }[kind]
        if (matrix.nrows, matrix.ncols) != shape:
            raise ValueError(
                f"{kind.value} matrix is {matrix.nrows}x{matrix.ncols}, "
                f"expected {shape[0]}x{shape[1]} for k={k}, n={n}"
            )
        if kind is InstanceKind.SYMPLPN:
            check_isotropic(matrix)
        if kind is InstanceKind.LSN:
            check_lsn_pair(matrix.take_cols(0, n), matrix.take_cols(n, n + k), n, k)
        witness = None
        if "witness" in obj:
            w = obj["witness"]
            (structured,) = read_fields(w, "witness", structured=bool)
            parts = {}
            for key, width in (("secret", matrix.ncols), ("error", word.nbits)):
                if key in w:
                    parts[key] = BitVec.from_json(w[key])
                    if parts[key].nbits != width:
                        raise ValueError(
                            f"witness {key} has {parts[key].nbits} bits, expected {width}"
                        )
            witness = Witness(structured, **parts)
        return cls(kind, matrix, word, k, n, check_rate(float(p)), witness)


class Decision(enum.Enum):
    STRUCTURED = "structured"
    UNSTRUCTURED = "unstructured"


Oracle = Callable[[Instance], Decision]


def gen_symplpn(
    rng: Rng, k: int, n: int, p: float, structured: bool, keep_witness: bool = False
) -> Instance:
    """Structured: word = a @ x + e with x uniform and e depolarizing(p).
    Unstructured: word uniform."""
    check_rate(p)
    a = sample_isotropic(rng, n, k)
    if structured:
        x = rng.bits(k)
        e = sample_depolarizing(rng, n, p)
        word = a.matvec(x) ^ e
        witness = Witness(True, x, e) if keep_witness else None
    else:
        word = rng.bits(2 * n)
        witness = Witness(False) if keep_witness else None
    return Instance(InstanceKind.SYMPLPN, a, word, k, n, p, witness)


def gen_lsn(rng: Rng, k: int, n: int, p: float, keep_witness: bool = False) -> Instance:
    """word = a @ r + b @ y + e with r, y uniform and e depolarizing(p)."""
    check_rate(p)
    a, b = sample_lsn_matrices(rng, k, n)
    r = rng.bits(n)
    y = rng.bits(k)
    e = sample_depolarizing(rng, n, p)
    word = a.matvec(r) ^ b.matvec(y) ^ e
    witness = Witness(True, r.concat(y), e) if keep_witness else None
    return Instance(InstanceKind.LSN, a.hstack(b), word, k, n, p, witness)


def gen_lpn(
    rng: Rng, k: int, n: int, p: float, structured: bool, keep_witness: bool = False
) -> Instance:
    """Plain parity-with-noise sample: uniform n x k matrix, Bernoulli(p) errors."""
    check_rate(p)
    a = rng.bitmat(n, k)
    if structured:
        x = rng.bits(k)
        e = sample_bernoulli(rng, n, p)
        word = a.matvec(x) ^ e
        witness = Witness(True, x, e) if keep_witness else None
    else:
        word = rng.bits(n)
        witness = Witness(False) if keep_witness else None
    return Instance(InstanceKind.LPN, a, word, k, n, p, witness)


@dataclass(frozen=True)
class HyperplaneRotation:
    """A sparse symplectic map rotating the hyperplane normal f_1 to a random vector.

    ``k_pair`` is the 1-indexed pair whose second-half bit of r fired, or None
    for the identity fallback (no second-half bit set). When k_pair is set,
    c @ f_1 equals r exactly.
    """

    c: BitMat
    r: BitVec
    k_pair: Optional[int]

    @classmethod
    def from_vector(cls, r: BitVec) -> "HyperplaneRotation":
        if r.nbits % 2:
            raise ValueError("rotation lives on Z_2^{2n}")
        n = r.nbits // 2
        if n < 2:
            raise ValueError("need n >= 2")
        k = next((j for j in range(1, n + 1) if r.bit(n + j - 1)), None)
        if k is None:
            return cls(BitMat.identity(2 * n), r, None)
        kk = k - 1
        # r' is r with pair 1 and pair k exchanged; its (n+1)st bit is then 1
        rp = r.value
        if kk != 0:
            rp = _swap_bits(_swap_bits(rp, 0, kk), n, n + kk)
        # f_1 -> r' and every other basis vector x -> x + (r' . x) e_1: the
        # identity with column f_1 replaced by r', plus the pairings in row e_1
        rows = [1 << i | ((rp >> i) & 1) << n for i in range(2 * n)]
        rows[0] |= swap_halves(rp, n) & ~(1 | 1 << n)
        # compose with the pair swap (1 <-> k) acting on the output coordinates
        rows[0], rows[kk] = rows[kk], rows[0]
        rows[n], rows[n + kk] = rows[n + kk], rows[n]
        return cls(BitMat._trusted(2 * n, 2 * n, tuple(rows)), r, k)

    @classmethod
    def sample(cls, rng: Rng, n: int) -> "HyperplaneRotation":
        if n < 2:
            raise ValueError("need n >= 2")
        return cls.from_vector(rng.bits(2 * n))


def _swap_bits(v: int, i: int, j: int) -> int:
    bi = (v >> i) & 1
    bj = (v >> j) & 1
    if bi != bj:
        v ^= (1 << i) | (1 << j)
    return v
