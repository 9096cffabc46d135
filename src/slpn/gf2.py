"""Bit-packed linear algebra over GF(2), plus the symplectic pairing on Z_2^{2n}.

Vectors and matrix rows are stored as Python integers: bit i of a row lives at
word i // 64, position i mod 64 (LSB first), which is exactly the little-endian
bit order of ``int``. Row XOR is a single integer op and inner products are
popcounts, so all kernels here run on machine words.

A vector of Z_2^{2n} (a Pauli error, a code column) is a plain 2n-bit
``BitVec`` whose pair j sits at bits (j, n + j); ``symp_inner``,
``symp_vec_mat``, ``permute_pairs`` and ``pair_weight_int`` read it that way.
A code is a plain 2n x k ``BitMat``. Samplers build isotropic codes by
construction, and loaders pass what they read through ``check_isotropic``.

All values are immutable after construction and safe to share across threads.
The incremental kernels (``EchelonSet`` and the dual basis made by
``incremental_dual``) are mutable working state owned by one caller.

The public ``BitVec(...)`` and ``BitMat(...)`` mask every value to its width,
and assigning an attribute raises. ``BitVec._trusted`` and ``BitMat._trusted``
set the slots through their member descriptors and skip ``__init__``, the
mask and the checks, and ``BitMat._trusted_cols`` lays int columns out as
rows that way and transposes them. They are only for results whose bits fit
by construction: ``__xor__``, ``flip_bits``, ``matvec``, ``matmul``, the
transpose, ``take_cols``, ``from_cols``, ``row_vecs``, ``from_numpy`` after
its ``& 1``, ``from_json`` and ``from_hex`` after the trailing-bits check,
the ``Rng`` draws and the noise samplers, the kernel, column-space and
symplectic-dual bases, the three parts of the symplectic split, the columns
of a dual's ``grow``, of the LSN sampler, of the seed expansion, of the
drop-bit transform's hyperplane basis and of the dual-mode transform,
the rows of the hyperplane rotation, and the ciphertext and noise of
``pke.enc_traced``.
Callers that want the columns as ints read ``transpose().rows`` rather than
one BitVec per column from ``cols()``. At n=4 building these objects is much
of a call's cost, and skipping ``__init__`` cuts it.

The symplectic dual of a growing isotropic span is what ``sample_isotropic``
and the seed expansion spend nearly all their time on. The basis is kept in
systematic form: each vector is the unit vector at its own free position
plus bits at the t positions that are no longer free, the pivots, as in the
[I | R] form of a parity-check matrix. Both layouts have one fused step per
drawn column, ``extend``: combine the basis vectors that the coefficients
select and restrict the basis by the result, which is returned, or 0 when it
already lies in the span. Below 2n = 128 the basis is a list of 2n-bit ints
and each step is a Python loop over rows. From 2n = 128 on only R is kept,
as a (ceil(t/64), dim) uint64 array in the word-packed style of the M4RI
library, and a step is a fixed number of whole-array numpy operations: a
masked XOR-reduce over R and two scatters write the combination into a bit
buffer, gathers at the swapped-half positions read its pairings straight
from that buffer, and an AND, an XOR-reduce, a popcount, one masked rank-1
XOR and a short column move do the restriction. A step reads ceil(t/64)
words per basis vector, where a full 2n-bit row spans 2n/64.
Both layouts run the same algorithm on the same basis order, so they
consume randomness identically and return identical vectors. 2n = 128 is
the smallest size at which no caller is more than a few percent slower
packed. Below it numpy's fixed cost per call outweighs the saving, so the
int layout stays for the small sizes the reductions and the exact-law
checks run at.

Every int-row Gaussian elimination here is one ``EchelonSet``. It keeps its
rows in a list indexed by leading bit, so reducing a vector costs one list
index per step and reading the rows in lead order needs no sort. The
canonical forms (``solve``, the kernel bases, ``column_space_basis``) take
pivots at the lowest column index, so they run it on bit-reversed rows. The
reversal slows ``kernel_basis`` at small sizes, where no hot path calls it.
The radical of a span is the span of the vectors that the symplectic split
(``symplectic_subspace_basis``) leaves unpaired.

Information-set decoding solves the system [M | b] on many row subsets.
``attacks`` first brings M to reduced column echelon form with one
``EchelonSet`` pass over its columns, each tagged with its own unit vector so
that the tags record the column operations. This form depends on M alone, so
it is computed once per code and kept for the last code, keyed by the
``BitMat``; each attack only appends its word b. Each column of the result
then has a lead row that no other column has, and a picked lead row fixes one
unknown outright. Only the other picked rows go through an augmented
``EchelonSet``, which carries the right-hand side along, so an iteration
eliminates about half of its rows.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "BitVec",
    "BitMat",
    "rank",
    "solve",
    "kernel_basis",
    "kernel_basis_info",
    "column_space_basis",
    "xor_rows",
    "EchelonSet",
    "incremental_dual",
    "symp_inner",
    "symp_vec_mat",
    "symp_dual_basis",
    "radical_basis",
    "symplectic_subspace_basis",
    "is_isotropic",
    "check_isotropic",
    "swap_halves",
    "pair_weight_int",
    "permute_pairs",
    "permute_rows_pairs",
    "read_fields",
]


# The most rows a loaded matrix may declare. With a payload, the loading cost
# follows the payload; a matrix with no columns has none, so this bounds it. The
# toolkit writes at most 2n rows, and a vector is one row of any length.
_MAX_ROWS = 1 << 20


def _mask(nbits: int) -> int:
    return (1 << nbits) - 1


def swap_halves(value: int, n: int) -> int:
    """Exchange the two length-n halves of a 2n-bit value."""
    lo = value & _mask(n)
    return (value >> n) | (lo << n)


def pair_weight_int(value: int, n: int) -> int:
    """Number of pairs (j, n+j) of a 2n-bit value that differ from (0, 0)."""
    return ((value | (value >> n)) & _mask(n)).bit_count()


class BitVec:
    """Immutable bit vector over GF(2)."""

    __slots__ = ("nbits", "value")

    def __init__(self, nbits: int, value: int = 0):
        if nbits < 0:
            raise ValueError("negative length")
        _set_nbits(self, nbits)
        _set_value(self, value & _mask(nbits))

    def __setattr__(self, name, val):
        raise AttributeError("BitVec is immutable")

    @staticmethod
    def _trusted(nbits: int, value: int) -> "BitVec":
        """BitVec(nbits, value) for a value known to fit in nbits bits: no
        mask and no checks. Internal; see the module docstring for where."""
        v = _new(BitVec)
        _set_nbits(v, nbits)
        _set_value(v, value)
        return v

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, nbits: int) -> "BitVec":
        return cls(nbits, 0)

    @classmethod
    def unit(cls, nbits: int, index: int) -> "BitVec":
        if not 0 <= index < nbits:
            raise IndexError(index)
        return cls(nbits, 1 << index)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        value = 0
        n = 0
        for b in bits:
            value |= (int(b) & 1) << n
            n += 1
        return cls(n, value)

    @classmethod
    def from_hex(cls, nbits: int, hexstr: str) -> "BitVec":
        """The vector ``to_hex`` writes, decoded as a one-row matrix, so a
        payload of the wrong length or with a bit set past nbits raises ValueError."""
        (row,) = BitMat.from_json({"rows": 1, "cols": nbits, "hex": hexstr}).rows
        return cls._trusted(nbits, row)

    @classmethod
    def from_numpy(cls, bits: np.ndarray) -> "BitVec":
        packed = np.packbits(bits.astype(np.uint8), bitorder="little")
        return cls(len(bits), int.from_bytes(packed.tobytes(), "little"))

    # -- access -------------------------------------------------------
    def bit(self, index: int) -> int:
        if not 0 <= index < self.nbits:
            raise IndexError(index)
        return (self.value >> index) & 1

    def bits(self) -> list[int]:
        return [(self.value >> i) & 1 for i in range(self.nbits)]

    def to_numpy(self) -> np.ndarray:
        raw = np.frombuffer(self.to_bytes(), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.nbits].copy()

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec)
            and self.nbits == other.nbits
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.nbits, self.value))

    def __repr__(self) -> str:
        return f"BitVec({self.nbits}, 0b{self.value:0{max(self.nbits, 1)}b})"

    # -- arithmetic ---------------------------------------------------
    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.nbits != other.nbits:
            raise ValueError("length mismatch")
        return BitVec._trusted(self.nbits, self.value ^ other.value)

    def flip_bits(self, indices: Iterable[int]) -> "BitVec":
        v = self.value
        for i in indices:
            if not 0 <= i < self.nbits:
                raise IndexError(i)
            v ^= 1 << i
        return BitVec._trusted(self.nbits, v)

    def weight(self) -> int:
        return self.value.bit_count()

    def dot(self, other: "BitVec") -> int:
        if self.nbits != other.nbits:
            raise ValueError("length mismatch")
        return (self.value & other.value).bit_count() & 1

    def concat(self, other: "BitVec") -> "BitVec":
        return BitVec(self.nbits + other.nbits, self.value | (other.value << self.nbits))

    def sub(self, lo: int, hi: int) -> "BitVec":
        if not 0 <= lo <= hi <= self.nbits:
            raise IndexError((lo, hi))
        return BitVec(hi - lo, self.value >> lo)

    def is_zero(self) -> bool:
        return self.value == 0

    # -- serialization ------------------------------------------------
    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.nbits + 7) // 8, "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    def to_json(self) -> dict:
        return {"len": self.nbits, "hex": self.to_hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "BitVec":
        nbits, hexstr = read_fields(obj, "bit vector", len=int, hex=str)
        return cls.from_hex(nbits, hexstr)


class BitMat:
    """Immutable row-major bit matrix over GF(2)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        m = _mask(ncols)
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_rows(self, tuple(r & m for r in rows))

    def __setattr__(self, name, val):
        raise AttributeError("BitMat is immutable")

    @staticmethod
    def _trusted(nrows: int, ncols: int, rows: tuple[int, ...]) -> "BitMat":
        """BitMat(nrows, ncols, rows) for a tuple of nrows rows known to fit
        in ncols bits: no mask and no checks. Internal; see the module
        docstring for where."""
        m = _new(BitMat)
        _set_nrows(m, nrows)
        _set_ncols(m, ncols)
        _set_rows(m, rows)
        return m

    # -- constructors -------------------------------------------------
    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMat":
        return cls(nrows, ncols, [0] * nrows)

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence["BitVec"], ncols: Optional[int] = None) -> "BitMat":
        if rows:
            ncols = rows[0].nbits if ncols is None else ncols
            if any(r.nbits != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        return cls(len(rows), ncols, [r.value for r in rows])

    @classmethod
    def from_cols(cls, cols: Sequence["BitVec"], nrows: Optional[int] = None) -> "BitMat":
        if cols:
            nrows = cols[0].nbits if nrows is None else nrows
            if any(c.nbits != nrows for c in cols):
                raise ValueError("ragged columns")
        elif nrows is None:
            nrows = 0
        return cls._trusted_cols(nrows, [c.value for c in cols])

    @staticmethod
    def _trusted_cols(nrows: int, cols: Sequence[int]) -> "BitMat":
        """The matrix with these int columns, each known to fit in nrows bits:
        laid out as rows through ``_trusted``, then transposed."""
        return BitMat._trusted(len(cols), nrows, tuple(cols)).transpose()

    @staticmethod
    def _trusted_bits(bits: np.ndarray) -> "BitMat":
        """The matrix with the rows of a 2-d 0/1 array (contiguous: packbits
        runs slower on a transposed view)."""
        packed = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
        rows = tuple(int.from_bytes(r.tobytes(), "little") for r in packed)
        return BitMat._trusted(bits.shape[0], bits.shape[1], rows)

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "BitMat":
        arr = np.asarray(arr, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected 2-d array")
        return cls._trusted_bits(arr)

    # -- access -------------------------------------------------------
    def col(self, j: int) -> BitVec:
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        v = 0
        for i in range(self.nrows):
            v |= ((self.rows[i] >> j) & 1) << i
        return BitVec(self.nrows, v)

    def cols(self) -> list[BitVec]:
        return self.transpose().row_vecs()

    def row_vecs(self) -> list[BitVec]:
        nbits, vec = self.ncols, BitVec._trusted
        return [vec(nbits, r) for r in self.rows]

    def to_numpy(self) -> np.ndarray:
        if self.nrows == 0:
            return np.zeros((0, self.ncols), dtype=np.uint8)
        nbytes = (self.ncols + 7) // 8
        raw = np.frombuffer(
            b"".join(r.to_bytes(nbytes, "little") for r in self.rows), dtype=np.uint8
        ).reshape(self.nrows, nbytes)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, : self.ncols].copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"BitMat({self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    # -- arithmetic ---------------------------------------------------
    def matvec(self, x: BitVec) -> BitVec:
        """Return m @ x; x indexes columns."""
        if x.nbits != self.ncols:
            raise ValueError("dimension mismatch")
        xv = x.value
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & xv).bit_count() & 1) << i
        return BitVec._trusted(self.nrows, out)

    def matmul(self, other: "BitMat") -> "BitMat":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        # row i of product = XOR of other's rows selected by bits of row i
        out = tuple(xor_rows(other.rows, r) for r in self.rows)
        return BitMat._trusted(self.nrows, other.ncols, out)

    def transpose(self) -> "BitMat":
        return _transpose_bitmat(self)

    def hstack(self, other: "BitMat") -> "BitMat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        sh = self.ncols
        rows = [a | (b << sh) for a, b in zip(self.rows, other.rows)]
        return BitMat(self.nrows, self.ncols + other.ncols, rows)

    def take_cols(self, lo: int, hi: int) -> "BitMat":
        """Columns lo to hi - 1, in order."""
        if not 0 <= lo <= hi <= self.ncols:
            raise ValueError(f"column range {lo}:{hi} is outside 0:{self.ncols}")
        m = _mask(hi - lo)
        return BitMat._trusted(self.nrows, hi - lo, tuple((r >> lo) & m for r in self.rows))

    # -- serialization ------------------------------------------------
    def to_hex(self) -> str:
        nbytes = (self.ncols + 7) // 8
        return b"".join(r.to_bytes(nbytes, "little") for r in self.rows).hex()

    def to_json(self) -> dict:
        return {"rows": self.nrows, "cols": self.ncols, "hex": self.to_hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "BitMat":
        nrows, ncols, hexstr = read_fields(obj, "bit matrix", rows=int, cols=int, hex=str)
        if nrows < 0 or ncols < 0:
            raise ValueError("negative shape")
        if nrows > _MAX_ROWS:
            raise ValueError(f"{nrows} rows is more than the {_MAX_ROWS} a matrix may have")
        data = bytes.fromhex(hexstr)
        nbytes = (ncols + 7) // 8
        if len(data) != nrows * nbytes:
            raise ValueError("payload length mismatch")
        if not nbytes:  # no payload: the cost follows nrows alone
            return cls._trusted(nrows, ncols, (0,) * nrows)
        rows = [
            int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(nrows)
        ]
        if any(r >> ncols for r in rows):
            raise ValueError("trailing bits set")
        return cls._trusted(nrows, ncols, tuple(rows))


_new = object.__new__
_set_nbits, _set_value = BitVec.nbits.__set__, BitVec.value.__set__
_set_nrows, _set_ncols, _set_rows = BitMat.nrows.__set__, BitMat.ncols.__set__, BitMat.rows.__set__


def read_fields(obj, what: str, allowed: Optional[Iterable[str]] = None, **kinds: type) -> list:
    """The values at the keys of a loaded JSON object, each checked to be of its
    kind: ``int`` refuses bool, float and str, ``float`` takes any number but
    bool, and ``object`` takes anything. Raises ValueError naming ``what`` for
    a non-object, the missing keys, a value of the wrong kind, or, when
    ``allowed`` is given, a key that is neither required nor allowed."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in kinds if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(missing)}")
    unknown = set(obj) - set(kinds) - set(obj if allowed is None else allowed)
    if unknown:
        raise ValueError(f"{what} has unknown keys {', '.join(sorted(unknown))}")
    for key, kind in kinds.items():
        value = obj[key]
        number = (int, float) if kind is float else kind
        bad_bool = isinstance(value, bool) != (kind is bool)  # bool subclasses int
        if kind is not object and (bad_bool or not isinstance(value, number)):
            raise ValueError(f"{what} {key} must be {kind.__name__}, got {value!r}")
    return [obj[key] for key in kinds]


# The most entries a matrix may have for _transpose_bitmat to walk its set
# bits; larger ones go through numpy, whose fixed cost the walk only beats
# on small random matrices.
_WALK_MAX_ENTRIES = 200


def _transpose_bitmat(m: BitMat) -> BitMat:
    if m.nrows * m.ncols <= _WALK_MAX_ENTRIES:
        out = [0] * m.ncols
        for i, row in enumerate(m.rows):
            while row:
                j = (row & -row).bit_length() - 1
                out[j] |= 1 << i
                row &= row - 1
        return BitMat._trusted(m.ncols, m.nrows, tuple(out))
    return BitMat._trusted_bits(m.to_numpy().T)


def _as_symp_bits(x: BitVec) -> tuple[int, int]:
    """(value, n) of a 2n-bit vector."""
    if x.nbits % 2:
        raise ValueError("odd length has no symplectic splitting")
    return x.value, x.nbits // 2


def symp_inner(u: BitVec, w: BitVec) -> int:
    """Symplectic inner product a1.b2 + a2.b1 mod 2, halves split at index n."""
    uv, un = _as_symp_bits(u)
    wv, wn = _as_symp_bits(w)
    if un != wn:
        raise ValueError("dimension mismatch")
    # single pass: pair u against the half-swapped w
    return (uv & swap_halves(wv, wn)).bit_count() & 1


def symp_vec_mat(f: BitVec, m: BitMat) -> BitVec:
    """Row vector of per-column symplectic products (f against each column of m).

    Computed as one pass over the rows of m selected by the half-swapped f, so
    the cost is O(weight(f)) row XORs.
    """
    fv, fn = _as_symp_bits(f)
    if m.nrows != 2 * fn:
        raise ValueError("dimension mismatch")
    return BitVec(m.ncols, xor_rows(m.rows, swap_halves(fv, fn)))


# -- elimination core ----------------------------------------------------


def _reverse(v: int, nbits: int) -> int:
    """v with bit i moved to bit nbits - 1 - i."""
    return int(format(v, f"0{nbits}b")[::-1], 2)


def _rref(rows: Iterable[int], ncols: int) -> list[int]:
    """Reduced row echelon form with lowest-index pivots, in pivot order (a
    row's pivot is its lowest bit): ``EchelonSet.reduced`` of the reversed rows."""
    span = EchelonSet()
    for r in rows:
        span.add(_reverse(r, ncols))
    return [_reverse(r, ncols) for r in span.reduced()]


def rank(m: BitMat) -> int:
    """Rank over GF(2)."""
    span = EchelonSet()
    return sum(map(span.add, m.rows))


def solve(m: BitMat, b: BitVec) -> Optional[BitVec]:
    """Some x with m @ x = b, or None if inconsistent.

    Deterministic: lowest-index pivots, free variables set to zero; reversed,
    those are the leads and the zeroed columns of an augmented ``EchelonSet``.
    """
    if b.nbits != m.nrows:
        raise ValueError("dimension mismatch")
    span = EchelonSet(augmented=True)
    for i, row in enumerate(m.rows):
        span.add(_reverse(row, m.ncols) << 1 | (b.value >> i) & 1)
    x = BitVec(m.ncols, _reverse(span.solve(), m.ncols))
    # the set drops an equation that reduces to 0 = 1, so check them all
    return x if m.matvec(x) == b else None


def _kernel_ints(rows: Iterable[int], ncols: int) -> tuple[list[int], tuple[int, ...]]:
    """Kernel basis vectors (as ints) plus the free columns indexing them."""
    red = _rref(rows, ncols)
    pivots = [(r & -r).bit_length() - 1 for r in red]
    free_cols = tuple(sorted(set(range(ncols)).difference(pivots)))
    basis = []
    for f in free_cols:
        v = 1 << f
        for r, c in zip(red, pivots):
            if (r >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return basis, free_cols


def kernel_basis_info(m: BitMat) -> tuple[BitMat, tuple[int, ...]]:
    """Kernel basis plus the free-column indices it is indexed by.

    Basis vector for free column f has bit f set and all other free-column
    bits clear, so combination coefficients can be read back off a kernel
    element at the free columns. The basis is canonical for the row space.
    """
    basis, free_cols = _kernel_ints(m.rows, m.ncols)
    return BitMat._trusted_cols(m.ncols, basis), free_cols


def kernel_basis(m: BitMat) -> BitMat:
    """Columns form a basis of {x : m @ x = 0}; count is ncols - rank."""
    basis, _ = kernel_basis_info(m)
    return basis


def column_space_basis(m: BitMat) -> BitMat:
    """Canonical basis of the column space (RREF rows of the transpose)."""
    return BitMat._trusted_cols(m.nrows, _rref(m.transpose().rows, m.nrows))


def xor_rows(rows: Sequence[int], sel: int) -> int:
    """XOR of ``rows[j]`` over the set bits j of ``sel``."""
    acc = 0
    while sel:
        j = (sel & -sel).bit_length() - 1
        acc ^= rows[j]
        sel &= sel - 1
    return acc


class EchelonSet:
    """Growing span of int rows in echelon form: the list ``rows`` holds at
    index lead the one row whose ``bit_length()`` is lead, or None. ``add``
    reduces a vector only by the rows its leading bit hits, one list index a
    step, and ``reduced`` and ``solve`` walk the list in lead order with no
    sort. The list starts with ``_SLOTS`` entries and grows only when a lead
    falls past its end, which ``add`` learns from an ``IndexError`` rather
    than from a length check on every step.

    An ``augmented`` set holds equations m . x = b, each as (m << 1) | b.
    Membership and rank then look at m alone (a vector is reduced while it
    is above 1), b rides along, and ``solve`` reads off an x meeting them all.
    """

    __slots__ = ("rows", "_floor", "_len")

    # Leads 0..9 hold an augmented 8-bit system without growing, the widest
    # the n = 4 reductions build. README's "Speed of information-set
    # decoding" has the measurement.
    _SLOTS = 10

    def __init__(self, augmented: bool = False):
        self.rows: list[Optional[int]] = [None] * self._SLOTS
        self._floor = int(augmented)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def add(self, v: int) -> bool:
        """Insert v; False (and no change) when v is already in the span."""
        rows, floor = self.rows, self._floor
        while v > floor:
            lead = v.bit_length()
            try:
                r = rows[lead]
            except IndexError:
                rows += [None] * (lead + 1 - len(rows))
                r = None
            if r is None:
                rows[lead] = v
                self._len += 1
                return True
            v ^= r
        return False

    def reduced(self) -> list[int]:
        """The reduced echelon form of the span, highest lead first: each
        row's leading bit is clear in every other row. Canonical for the span."""
        out = list(self.rows)
        below = 0  # the leading bits of the rows reduced so far
        for lead, v in enumerate(out):
            if v is None:
                continue
            hits = v & below
            while hits:
                # out[h] has no other leading bit set, so hits stays exact
                h = hits.bit_length()
                v ^= out[h]
                hits ^= 1 << (h - 1)
            out[lead] = v
            below |= 1 << (lead - 1)
        return [v for v in reversed(out) if v is not None]

    def solve(self) -> int:
        """For an augmented set: the x meeting every equation added, with
        the columns that lead no row set to zero (unique at full rank)."""
        if not self._floor:
            raise ValueError("solve needs an augmented set")
        x = 0
        for lead, r in enumerate(self.rows):  # lowest leading column first
            if r is not None:
                x |= ((((r >> 1) & x).bit_count() ^ r) & 1) << (lead - 2)
        return x


# -- symplectic structure --------------------------------------------------


def _require_even_rows(m: BitMat) -> int:
    if m.nrows % 2:
        raise ValueError("odd row count has no symplectic splitting")
    return m.nrows // 2


def symp_dual_basis(s: BitMat) -> BitMat:
    """Basis of {v : v symplectically orthogonal to every column of s}.

    The dual of an empty matrix is all of Z_2^{2n}. Dimension is always
    2n - rank(s). The basis is the canonical one ``incremental_dual`` keeps.
    """
    dual = incremental_dual(_require_even_rows(s))
    for c in s.transpose().rows:
        dual.restrict(c)
    return BitMat._trusted_cols(s.nrows, dual.basis())


# -- incremental symplectic dual ---------------------------------------------

# 2n from which incremental_dual keeps the basis word-packed in numpy; the
# measurement behind it is in README's "Speed of the random isotropic code".
_PACKED_MIN_BITS = 128


class _IntDual:
    """Basis of the symplectic dual of a growing span in Z_2^{2n}, as ints.

    Starts from the unit vectors (the dual of the empty span). Invariant:
    basis vector i has bit ``free[i]`` set and no other bit listed in
    ``free``. The basis is then the canonical one, whatever columns spanned
    it, and a dual element's coefficients can be read off its free bits. The
    tests check it against a from-scratch recomputation of the basis.
    """

    __slots__ = ("n", "free", "rows")

    def __init__(self, n: int):
        self.n = n
        self.free = list(range(2 * n))
        self.rows = [1 << i for i in range(2 * n)]

    @property
    def dim(self) -> int:
        return len(self.free)

    def restrict(self, v: int) -> bool:
        """Shrink to the vectors symplectically orthogonal to v.

        The first basis vector pairing to 1 with v is dropped and added to
        every later one that does. Returns False, changing nothing, when v
        pairs to 0 with the whole basis, i.e. when v lies in the span.
        """
        sv = swap_halves(v, self.n)
        rows = self.rows
        for j, witness in enumerate(rows):
            if (witness & sv).bit_count() & 1:
                break
        else:
            return False
        rows[j:] = [r ^ witness if (r & sv).bit_count() & 1 else r for r in rows[j + 1 :]]
        del self.free[j]
        return True

    def combine(self, coeffs: int) -> int:
        """Sum of the basis vectors selected by the bits of coeffs."""
        return xor_rows(self.rows, coeffs)

    def extend(self, coeffs: int) -> int:
        """``combine(coeffs)`` added to the span by ``restrict``: the new span
        vector, or 0, changing nothing, when it lies in the span already."""
        v = xor_rows(self.rows, coeffs)
        return v if self.restrict(v) else 0

    def grow(self, k: int, draw: Callable[[int], BitVec]) -> BitMat:
        """The 2n x k matrix of the first k vectors ``extend`` keeps from ``draw(dim)``."""
        cols = []
        while len(cols) < k:
            v = self.extend(draw(len(self.free)).value)
            if v:
                cols.append(v)
        return BitMat._trusted_cols(2 * self.n, cols)

    def coefficients(self, v: int) -> int:
        """The coeffs with ``combine(coeffs) == v`` for a v in the span: the
        bits of v at the free columns, gathered from its binary string in C
        rather than one shift per column."""
        if not self.free:
            return 0
        bits = format(v, f"0{2 * self.n}b")[::-1]
        return int("0" + "".join(itemgetter(*self.free)(bits))[::-1], 2)

    def basis(self) -> list[int]:
        return list(self.rows)


# pivot k's bit in its word of _PackedDual.r: where np.packbits puts index
# k % 64 of a bit stream
_PIVOT_BIT = np.packbits(np.eye(64, dtype=np.uint8), axis=1).view(np.uint64)[:, 0]


def _words(d: int) -> int:
    """The 32-bit words that a draw of d bits takes: ceil(ceil(d/8)/4)."""
    return ((d + 7) // 8 + 3) // 4


class _PackedDual:
    """``_IntDual`` with the basis kept in systematic form and word-packed.

    Basis vector i is the unit vector at ``free[i]`` plus bits at the t =
    2n - dim positions no longer free, the pivots, numbered 0..t-1 in the
    order restrict took them. Only those pivot bits are stored: ``r`` is a
    (words, 2n) uint64 array whose first ceil(t/64) words of column c hold
    the pivot bits of basis vector dim-1-c, pivot k at word k // 64. Restrict
    drops a vector near the front of the order, which the reversed columns
    turn into a short move at the end of each word row.

    A vector travels as a bit buffer: an int packed into little-endian bytes
    and unpacked by numpy's default (big) bit order has bit p at index p ^ 7.
    Row 0 of ``piv`` and of ``frev`` holds the pivots and the free positions
    in column order, each as p ^ 7, so scatters at it write a combination
    into a buffer. Row 1 holds the same positions with their halves
    swapped, p +- n, so gathers at it read the buffer's pairing with each
    pivot and free position; one move updates both rows. ``extend`` and
    ``grow`` combine into a buffer and restrict by the vector there, with no
    int in between. The words of ``r`` hold the pivot bits as
    ``np.packbits`` packs that stream. Unused pivot slots point at bit
    2n, which a buffer never sets.
    """

    __slots__ = ("n", "free", "nbytes", "r", "piv", "frev", "out")

    def __init__(self, n: int):
        m = 2 * n
        self.n = n
        self.free = list(range(m))
        self.nbytes = m // 8 + 1  # room for bit m
        words = (m + 63) // 64
        self.r = np.zeros((words, m), dtype=np.uint64)
        self.piv = np.full((2, 64 * words), m ^ 7)
        cols = np.arange(m - 1, -1, -1)
        self.frev = np.stack((cols, (cols + n) % m)) ^ 7
        self.out = np.zeros(8 * self.nbytes, dtype=np.uint8)  # a vector's bits

    dim = _IntDual.dim
    coefficients = _IntDual.coefficients

    def _coeff_bits(self, coeffs: int) -> np.ndarray:
        # coeffs moved up to a byte edge, in big-endian bytes, unpack to
        # its bits from d-1 down: in column order
        d = len(self.free)
        raw = (coeffs << (-d & 7)).to_bytes((d + 7) >> 3, "big")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=d)

    def _combine_into(self, cols: np.ndarray, out: np.ndarray) -> None:
        # every position is written, so no stale bit remains
        d = len(self.free)
        w = (2 * self.n - d + 63) >> 6
        acc = np.bitwise_xor.reduce(self.r[:w, :d] * cols, axis=1)
        out[self.frev[0, :d]] = cols
        out[self.piv[0, : 64 * w]] = np.unpackbits(acc.view(np.uint8))

    def _restrict_bits(self, bits: np.ndarray) -> bool:
        d = len(self.free)
        if not d:  # the span is all of Z_2^{2n}
            return False
        t = 2 * self.n - d
        w = (t + 63) >> 6
        sv = np.packbits(bits[self.piv[1, : 64 * w]]).view(np.uint64)
        # flag c: the pairing of the vector with the one in column c, the
        # parity of its pivot bits against the vector's swapped ones plus
        # the vector's swapped bit at its free position
        flags = np.bitwise_count(np.bitwise_xor.reduce(self.r[:w, :d] & sv[:, None], axis=0))
        flags ^= bits[self.frev[1, :d]]
        flags &= 1
        s = d - 1 - int(flags[::-1].argmax())
        if not flags[s]:
            return False
        # the witness in column s gives its free position to the pivots as
        # pivot t, and every flagged column takes it on
        r = self.r[: (t + 64) >> 6, :d]
        r[t >> 6, s] |= _PIVOT_BIT[t & 63]
        r ^= r[:, s, None] * flags
        r[:, s:-1] = r[:, s + 1 :]
        frev = self.frev
        self.piv[:, t] = frev[:, s]
        frev[:, s : d - 1] = frev[:, s + 1 : d]
        del self.free[d - 1 - s]
        return True

    @staticmethod
    def _to_int(bits: np.ndarray) -> int:
        return int.from_bytes(np.packbits(bits).tobytes(), "little")

    def restrict(self, v: int) -> bool:
        raw = v.to_bytes(self.nbytes, "little")
        return self._restrict_bits(np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))

    def combine(self, coeffs: int) -> int:
        self._combine_into(self._coeff_bits(coeffs), self.out)
        return self._to_int(self.out)

    def extend(self, coeffs: int) -> int:
        out = self.out
        self._combine_into(self._coeff_bits(coeffs), out)
        return self._to_int(out) if self._restrict_bits(out) else 0

    def grow(self, k: int, draw: Callable[[int], BitVec]) -> BitMat:
        """``_IntDual.grow`` with one bulk draw: the same matrix, and the same
        bits taken from ``draw``, when ``draw(d)`` takes ceil(ceil(d/8)/4)
        whole 32-bit words and a draw of 32 * W bits equals W one-word draws
        back to back, as ``Rng.bits`` does.

        One draw holds the words that one ``draw(dim)`` per remaining column
        would take, and the columns take them in runs in that order. A
        rejected column's run is spent as a per-column draw would spend it,
        so the words run out early; the next draw takes what the columns
        left would take if all were kept. Each column is combined into its
        own row of bits, and the matrix is packed from those rows once.
        """
        m = 2 * self.n
        rows = np.zeros((k, 8 * self.nbytes), dtype=np.uint8)
        # the drawn bits not yet taken, last first, so that a run read from the
        # end lists its coefficients in column order
        stream = np.zeros(0, dtype=np.uint8)
        end = j = 0
        while j < k:
            d = m - j
            run = 32 * _words(d)
            if run > end:
                more = sum(_words(m - i) for i in range(j, k)) - end // 32
                raw = draw(32 * more).value.to_bytes(4 * more, "little")
                fresh = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
                stream = np.concatenate((fresh[::-1], stream[:end]))
                end = len(stream)
            row = rows[j]
            self._combine_into(stream[end - d : end], row)
            if self._restrict_bits(row):
                j += 1
            end -= run
        # row j holds column j's bit p at p ^ 7
        return BitMat._trusted_bits(rows[:, np.arange(m) ^ 7].T)

    def basis(self) -> list[int]:
        # all basis vectors at once, row c laid out as _combine_into lays
        # out the vector in column c, then the rows from the last column on
        d = len(self.free)
        w = (2 * self.n - d + 63) >> 6
        rows = np.zeros((d, 8 * self.nbytes), dtype=np.uint8)
        rows[np.arange(d), self.frev[0, :d]] = 1
        words = np.ascontiguousarray(self.r[:w, :d].T)
        rows[:, self.piv[0, : 64 * w]] = np.unpackbits(words.view(np.uint8), axis=1)
        return [int.from_bytes(b.tobytes(), "little") for b in np.packbits(rows[::-1], axis=1)]


def incremental_dual(n: int) -> _IntDual | _PackedDual:
    """Basis of all of Z_2^{2n}, to be restricted one span vector at a time.

    Word-packed from 2n = _PACKED_MIN_BITS on, int rows below; both give the
    same basis, in the same order, after the same restrictions.
    """
    return _PackedDual(n) if 2 * n >= _PACKED_MIN_BITS else _IntDual(n)


def radical_basis(s: BitMat) -> BitMat:
    """Canonical basis of im(s) intersected with its own symplectic dual: the
    span of the vectors that ``symplectic_subspace_basis`` leaves unpaired."""
    u_part, _, _ = symplectic_subspace_basis(s)
    return column_space_basis(u_part)


def is_isotropic(m: BitMat) -> bool:
    """True iff all column pairs have zero symplectic inner product."""
    n = _require_even_rows(m)
    cols = m.transpose().rows
    swapped = [swap_halves(c, n) for c in cols]
    for i in range(len(cols)):
        ci = cols[i]
        for j in range(i + 1, len(cols)):
            if (ci & swapped[j]).bit_count() & 1:
                return False
    return True


def symplectic_subspace_basis(s: BitMat) -> tuple[BitMat, BitMat, BitMat]:
    """Split a basis of im(s) into radical vectors and hyperbolic pairs.

    Returns (u_part, v_part, w_part): u vectors lie in im(s)'s symplectic
    dual, and v_i, w_j satisfy v_i * v_j = w_i * w_j = 0, v_i * w_j = delta_ij.
    """
    n = _require_even_rows(s)
    working = _rref(s.transpose().rows, 2 * n)
    u_part: list[int] = []
    v_part: list[int] = []
    w_part: list[int] = []
    while working:
        z = working.pop(0)
        zs = swap_halves(z, n)
        partner_idx = next(
            (i for i, t in enumerate(working) if (t & zs).bit_count() & 1), None
        )
        if partner_idx is None:
            u_part.append(z)
            continue
        w = working.pop(partner_idx)
        ws = swap_halves(w, n)
        for i, t in enumerate(working):
            if (t & ws).bit_count() & 1:
                t ^= z
            if (t & zs).bit_count() & 1:
                t ^= w
            working[i] = t
        v_part.append(z)
        w_part.append(w)
    return tuple(BitMat._trusted_cols(2 * n, part) for part in (u_part, v_part, w_part))


def permute_pairs(v: BitVec, perm: Sequence[int]) -> BitVec:
    """Apply the same permutation to both halves of a 2n-bit vector: pair j
    moves to perm[j]."""
    val, n = _as_symp_bits(v)
    out = 0
    for j in range(n):
        d = perm[j]
        out |= ((val >> j) & 1) << d
        out |= ((val >> (n + j)) & 1) << (n + d)
    return BitVec(2 * n, out)


def permute_rows_pairs(m: BitMat, perm: Sequence[int]) -> BitMat:
    """Permute the 2n rows of m pairwise: rows (j, n+j) move to (d, n+d)."""
    n = _require_even_rows(m)
    rows = [0] * (2 * n)
    for j in range(n):
        d = perm[j]
        rows[d] = m.rows[j]
        rows[n + d] = m.rows[n + j]
    return BitMat(2 * n, m.ncols, rows)


def check_isotropic(mat: BitMat) -> BitMat:
    """mat itself if it is a full-column-rank 2n x k matrix with pairwise
    symplectically orthogonal columns; ValueError otherwise."""
    if mat.nrows % 2:
        raise ValueError("odd row count")
    if rank(mat) != mat.ncols:
        raise ValueError("columns are not independent")
    if not is_isotropic(mat):
        raise ValueError("columns are not symplectically orthogonal")
    return mat
