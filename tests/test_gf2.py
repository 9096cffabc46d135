"""Tests for the bit-packed GF(2) and symplectic kernels."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naive_gf2 import (
    naive_matvec,
    naive_nullspace,
    naive_rank,
    naive_solve,
    naive_symp_inner,
)
from pair_vectors import from_pairs, pair
from slpn.gf2 import (
    _PACKED_MIN_BITS,
    BitMat,
    BitVec,
    EchelonSet,
    _IntDual,
    _PackedDual,
    check_isotropic,
    column_space_basis,
    incremental_dual,
    is_isotropic,
    kernel_basis,
    kernel_basis_info,
    pair_weight_int,
    permute_pairs,
    permute_rows_pairs,
    radical_basis,
    rank,
    solve,
    swap_halves,
    symp_dual_basis,
    symp_inner,
    symp_vec_mat,
    symplectic_subspace_basis,
    xor_rows,
)
from slpn.sampling import Rng


def e_basis(n, i):
    return BitVec.unit(2 * n, i - 1)


def f_basis(n, i):
    return BitVec.unit(2 * n, n + i - 1)


def random_bitmat(rng, nrows, ncols):
    return BitMat.from_numpy(rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8))


# -- BitVec / BitMat basics -------------------------------------------------


def test_bitvec_roundtrip_hex():
    v = BitVec.from_bits([1, 0, 1, 1, 0, 0, 0, 1, 1])
    assert BitVec.from_json(v.to_json()) == v
    assert v.to_json()["len"] == 9
    assert v.to_json()["hex"] == v.to_hex()
    assert v.to_hex() == v.to_hex().lower()


def test_bitvec_trailing_bits_masked():
    v = BitVec(3, 0b11111)
    assert v.value == 0b111
    assert v.weight() == 3


def test_bitvec_ops():
    a = BitVec.from_bits([1, 1, 0, 1])
    b = BitVec.from_bits([0, 1, 1, 1])
    assert (a ^ b).bits() == [1, 0, 1, 0]
    assert a.dot(b) == 0
    assert a.concat(b).bits() == [1, 1, 0, 1, 0, 1, 1, 1]
    assert a.sub(1, 3).bits() == [1, 0]
    with pytest.raises(ValueError):
        a ^ BitVec.zeros(3)


def test_public_constructors_mask_and_refuse_assignment():
    v, m = BitVec(4, 0xFF), BitMat(2, 4, [0xFF, 0x1F])
    assert v.value == 0xF and m.rows == (0xF, 0xF)
    for obj, name in ((v, "value"), (v, "nbits"), (m, "rows"), (m, "nrows"), (m, "ncols")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        BitVec._trusted(4, 3).value = 1
    with pytest.raises(AttributeError):
        BitMat._trusted(1, 4, (3,)).rows = (1,)


WIDTHS = st.integers(0, 70)


def _draw_bitmat(data, nrows: int, ncols: int) -> BitMat:
    word = st.integers(0, (1 << ncols) - 1)
    return BitMat(nrows, ncols, data.draw(st.lists(word, min_size=nrows, max_size=nrows)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trusted_sites_match_the_public_constructor(data):
    # every method that builds its result through the unmasked internal
    # constructor gives the object the public (masking) constructor builds
    # from the same computation, so no bit lies past the width
    r, c, c2 = data.draw(WIDTHS), data.draw(WIDTHS), data.draw(WIDTHS)
    m, o = _draw_bitmat(data, r, c), _draw_bitmat(data, c, c2)
    x, y = (BitVec(c, data.draw(st.integers(0, (1 << c) - 1))) for _ in range(2))
    flips = data.draw(st.lists(st.integers(0, c - 1), max_size=8)) if c else []
    lo = data.draw(st.integers(0, c))
    hi = data.draw(st.integers(lo, c))
    flipped = x.value
    for i in flips:
        flipped ^= 1 << i
    col = [sum(((row >> j) & 1) << i for i, row in enumerate(m.rows)) for j in range(c)]
    product = [0] * r
    for i, row in enumerate(m.rows):
        for j in range(c):
            if (row >> j) & 1:
                product[i] ^= o.rows[j]
    image = sum(((row & x.value).bit_count() & 1) << i for i, row in enumerate(m.rows))
    cases = [
        (x ^ y, BitVec(c, x.value ^ y.value)),
        (x.flip_bits(flips), BitVec(c, flipped)),
        (m.matvec(x), BitVec(r, image)),
        (m.matmul(o), BitMat(r, c2, product)),
        (m.transpose(), BitMat(c, r, col)),
        (m.take_cols(lo, hi), BitMat(r, hi - lo, [row >> lo for row in m.rows])),
        (BitMat.from_cols(m.row_vecs(), nrows=c), BitMat(c, r, col)),
        (BitMat._trusted_cols(c, list(m.rows)), BitMat(c, r, col)),
        (BitMat.from_json(m.to_json()), BitMat(r, c, list(m.rows))),
        (BitMat.from_numpy(m.to_numpy()), BitMat(r, c, list(m.rows))),
        (BitVec.from_json(x.to_json()), BitVec(c, x.value)),
        *zip(m.row_vecs(), [BitVec(c, row) for row in m.rows]),
        *zip(m.cols(), [BitVec(r, v) for v in col]),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        if isinstance(got, BitMat):
            assert type(got.rows) is tuple


def test_take_cols_refuses_a_range_outside_the_matrix():
    m = BitMat(2, 3, [0b101, 0b011])
    assert m.take_cols(1, 3) == BitMat(2, 2, [0b10, 0b01])
    assert m.take_cols(3, 3) == BitMat.zeros(2, 0)
    for lo, hi in ((-1, 2), (2, 1), (0, 4)):
        with pytest.raises(ValueError):
            m.take_cols(lo, hi)


def test_algebra_bases_match_the_public_constructor():
    # the kernel, column-space, dual and symplectic-split bases are built
    # through the unmasked internal constructor from bits that fit
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        s = random_bitmat(rng, 2 * n, int(rng.integers(0, 2 * n + 3)))
        kernel, _ = kernel_basis_info(s)
        for got in (kernel, column_space_basis(s), symp_dual_basis(s), *symplectic_subspace_basis(s)):
            assert got == BitMat(got.nrows, got.ncols, got.rows) and type(got.rows) is tuple
            assert got.nrows == (s.ncols if got is kernel else 2 * n)


def test_bitmat_json_roundtrip():
    rng = np.random.default_rng(0)
    m = random_bitmat(rng, 5, 11)
    assert BitMat.from_json(m.to_json()) == m


def test_bitmat_transpose_and_cols():
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 2, size=(7, 5), dtype=np.uint8)
    m = BitMat.from_numpy(arr)
    assert np.array_equal(m.transpose().to_numpy(), arr.T)
    assert m.col(3).bits() == list(arr[:, 3])
    rebuilt = BitMat.from_cols(m.cols(), nrows=7)
    assert rebuilt == m


def test_bitmat_matvec_matches_naive():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r, c = rng.integers(1, 20, size=2)
        arr = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        x = rng.integers(0, 2, size=c, dtype=np.uint8)
        got = BitMat.from_numpy(arr).matvec(BitVec.from_numpy(x))
        assert got.bits() == list(naive_matvec(arr, x))


def test_bitmat_matmul():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
    b = rng.integers(0, 2, size=(9, 4), dtype=np.uint8)
    got = BitMat.from_numpy(a).matmul(BitMat.from_numpy(b))
    assert np.array_equal(got.to_numpy(), (a @ b) % 2)


def test_empty_matrices_are_legal():
    m = BitMat(4, 0, [0, 0, 0, 0])
    assert rank(m) == 0
    assert symp_dual_basis(m).ncols == 4
    assert symp_dual_basis(m) == BitMat.identity(4)


# -- symp_inner -------------------------------------------------------------


def test_symp_inner_standard_basis_pairs():
    n = 2
    assert symp_inner(e_basis(n, 1), f_basis(n, 1)) == 1
    assert symp_inner(e_basis(n, 1), e_basis(n, 2)) == 0
    assert symp_inner(f_basis(n, 1), f_basis(n, 2)) == 0
    assert symp_inner(e_basis(n, 1), f_basis(n, 2)) == 0


def test_symp_inner_self_is_zero():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        v = BitVec.from_numpy(rng.integers(0, 2, size=2 * n, dtype=np.uint8))
        assert symp_inner(v, v) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_symp_inner_bilinear(data):
    n = data.draw(st.integers(1, 8))
    bits = st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)
    u = BitVec.from_bits(data.draw(bits))
    w = BitVec.from_bits(data.draw(bits))
    z = BitVec.from_bits(data.draw(bits))
    a = data.draw(st.integers(0, 1))
    b = data.draw(st.integers(0, 1))
    lhs_vec = BitVec(2 * n, (u.value if a else 0) ^ (w.value if b else 0))
    lhs = symp_inner(lhs_vec, z)
    rhs = (a * symp_inner(u, z) + b * symp_inner(w, z)) % 2
    assert lhs == rhs


def test_symp_inner_matches_naive():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        u = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
        w = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
        assert symp_inner(BitVec.from_numpy(u), BitVec.from_numpy(w)) == naive_symp_inner(u, w)


def test_symp_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        symp_inner(BitVec.zeros(4), BitVec.zeros(6))
    with pytest.raises(ValueError):
        symp_inner(BitVec.zeros(3), BitVec.zeros(3))


def test_symp_vec_mat_per_column():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, 6))
        m = random_bitmat(rng, 2 * n, k)
        f = BitVec.from_numpy(rng.integers(0, 2, size=2 * n, dtype=np.uint8))
        out = symp_vec_mat(f, m)
        assert out.nbits == k
        for j in range(k):
            assert out.bit(j) == symp_inner(f, m.col(j))


# -- rank / solve / kernel --------------------------------------------------


def test_rank_examples():
    assert rank(BitMat.identity(4)) == 4
    assert rank(BitMat.zeros(3, 5)) == 0
    ones = BitMat.from_numpy(np.array([[1, 1], [1, 1]]))
    assert naive_rank(np.array([[1, 1], [1, 1]])) == 1
    assert rank(ones) == 1


def test_solve_examples():
    ident = BitMat.identity(5)
    b = BitVec.from_bits([1, 0, 1, 1, 0])
    assert solve(ident, b) == b
    zero = BitMat.zeros(4, 4)
    assert solve(zero, BitVec.from_bits([1, 0, 0, 0])) is None
    assert solve(zero, BitVec.zeros(4)) == BitVec.zeros(4)


def test_solve_recovers_planted_solution():
    rng = np.random.default_rng(7)
    found_full_rank = 0
    while found_full_rank < 20:
        arr = rng.integers(0, 2, size=(8, 8), dtype=np.uint8)
        if naive_rank(arr) != 8:
            continue
        found_full_rank += 1
        x = rng.integers(0, 2, size=8, dtype=np.uint8)
        b = naive_matvec(arr, x)
        got = solve(BitMat.from_numpy(arr), BitVec.from_numpy(b))
        assert got is not None
        assert got.bits() == list(x)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(BitMat.zeros(3, 3), BitVec.zeros(4))


def test_kernel_examples():
    assert kernel_basis(BitMat.identity(4)).ncols == 0
    kb = kernel_basis(BitMat.zeros(3, 3))
    assert kb == BitMat.identity(3)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(8)
    for _ in range(300):
        r = int(rng.integers(1, 16))
        c = int(rng.integers(1, 16))
        arr = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        m = BitMat.from_numpy(arr)
        assert rank(m) == naive_rank(arr)

        b = rng.integers(0, 2, size=r, dtype=np.uint8)
        ours = solve(m, BitVec.from_numpy(b))
        naive = naive_solve(arr, b)
        assert (ours is None) == (naive is None)
        if ours is not None:
            # same contract: lowest-index pivots, free variables zero
            assert ours.bits() == list(naive)

        # the canonical basis, vector for vector in free-column order
        assert np.array_equal(kernel_basis(m).to_numpy().T, naive_nullspace(arr))


def test_column_space_basis():
    rng = np.random.default_rng(9)
    for _ in range(50):
        arr = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
        m = BitMat.from_numpy(arr)
        basis = column_space_basis(m)
        assert basis.ncols == rank(m)
        # every original column is spanned by the basis
        for j in range(m.ncols):
            assert solve(basis, m.col(j)) is not None


# -- symplectic dual / radical ---------------------------------------------


def test_symp_dual_empty_is_full_space():
    d = symp_dual_basis(BitMat(6, 0, [0] * 6))
    assert d.ncols == 6 and rank(d) == 6


def test_symp_dual_single_e1_at_n1():
    # exhaustive over the 4 vectors of Z_2^2
    s = BitMat.from_cols([e_basis(1, 1)])
    d = symp_dual_basis(s)
    members = {d.matvec(BitVec.from_bits([b])).value for b in (0, 1)}
    expected = {v for v in range(4) if naive_symp_inner([v & 1, v >> 1], [1, 0]) == 0}
    assert members == expected
    assert d.ncols == 1


def test_symp_dual_dimension_identity():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, 2 * n + 1))
        s = random_bitmat(rng, 2 * n, k)
        d = symp_dual_basis(s)
        assert d.ncols + rank(s) == 2 * n
        for j in range(d.ncols):
            for c in range(s.ncols):
                assert symp_inner(d.col(j), s.col(c)) == 0


def test_symp_dual_of_a_spanning_matrix_is_empty():
    # more columns than it takes to span Z_2^{2n}: restrict then meets an
    # empty dual, on both layouts
    for n in (5, 100):
        assert symp_dual_basis(Rng(1).bitmat(2 * n, 2 * n + 10)).ncols == 0


def test_symp_dual_golden():
    # a random 200 x 60 matrix: 2n = 200 runs on the word-packed dual, with
    # the last word partly used; the basis order and every vector are pinned
    d = symp_dual_basis(Rng(42).bitmat(200, 60))
    assert d.ncols == 140
    assert hashlib.sha256(d.to_hex().encode()).hexdigest()[:16] == "48db6fa714aa3cfb"


def test_radical_full_space_is_trivial():
    assert radical_basis(BitMat.identity(4)).ncols == 0


def test_radical_single_vector_is_itself():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        v = BitVec.from_numpy(rng.integers(0, 2, size=2 * n, dtype=np.uint8))
        if v.is_zero():
            continue
        r = radical_basis(BitMat.from_cols([v]))
        assert r.ncols == 1
        assert r.col(0) == v or solve(BitMat.from_cols([v]), r.col(0)) is not None


def test_radical_membership():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * n))
        s = random_bitmat(rng, 2 * n, k)
        rad = radical_basis(s)
        dual = symp_dual_basis(s)
        for j in range(rad.ncols):
            assert solve(s, rad.col(j)) is not None or s.ncols == 0
            assert solve(dual, rad.col(j)) is not None
        # dimension check against brute membership at small n
        if n <= 3:
            span = {s.matvec(BitVec(k, x)).value for x in range(1 << k)}
            dual_span = {
                dual.matvec(BitVec(dual.ncols, x)).value for x in range(1 << dual.ncols)
            }
            inter = span & dual_span
            assert 1 << rad.ncols == len(inter)
            # and the basis is the canonical one of exactly that set
            members = [BitVec(2 * n, v) for v in sorted(inter)]
            assert rad == column_space_basis(BitMat.from_cols(members, nrows=2 * n))


# -- isotropy / symplectic basis -------------------------------------------


def test_single_column_always_isotropic():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        v = rng.integers(0, 2, size=(2 * n, 1), dtype=np.uint8)
        assert is_isotropic(BitMat.from_numpy(v))


def test_e1_f1_not_isotropic():
    m = BitMat.from_cols([e_basis(2, 1), f_basis(2, 1)])
    assert not is_isotropic(m)


def test_isotropic_odd_rows_rejected():
    with pytest.raises(ValueError):
        is_isotropic(BitMat.zeros(3, 1))


def test_isotropic_cross_check_gram_characterization():
    # pairwise products vs M1^T M2 symmetric, on random matrices
    rng = np.random.default_rng(14)
    agree = 0
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 2 * n + 1))
        arr = rng.integers(0, 2, size=(2 * n, k), dtype=np.uint8)
        m1, m2 = arr[:n], arr[n:]
        gram = (m1.T @ m2) % 2
        symmetric = np.array_equal(gram, gram.T)
        assert is_isotropic(BitMat.from_numpy(arr)) == symmetric
        agree += 1
    assert agree == 2000


def check_symplectic_split(s):
    n = s.nrows // 2
    u, v, w = symplectic_subspace_basis(s)
    assert u.ncols + 2 * v.ncols == rank(s)
    assert v.ncols == w.ncols
    dual = symp_dual_basis(s)
    for j in range(u.ncols):
        assert solve(dual, u.col(j)) is not None  # condition (1)
    for i in range(v.ncols):
        for j in range(v.ncols):
            assert symp_inner(v.col(i), v.col(j)) == 0  # condition (2)
            assert symp_inner(w.col(i), w.col(j)) == 0  # condition (3)
            assert symp_inner(v.col(i), w.col(j)) == (1 if i == j else 0)  # (4)
    # the pieces together span im(s)
    everything = u.hstack(v).hstack(w)
    assert rank(everything) == rank(s)
    for j in range(everything.ncols):
        assert solve(s, everything.col(j)) is not None


def test_symplectic_subspace_basis_isotropic_input():
    s = BitMat.from_cols([e_basis(3, 1), e_basis(3, 2)])
    u, v, w = symplectic_subspace_basis(s)
    assert u.ncols == 2 and v.ncols == 0 and w.ncols == 0
    check_symplectic_split(s)


def test_symplectic_subspace_basis_hyperbolic_pair():
    s = BitMat.from_cols([e_basis(2, 1), f_basis(2, 1)])
    u, v, w = symplectic_subspace_basis(s)
    assert u.ncols == 0 and v.ncols == 1 and w.ncols == 1
    check_symplectic_split(s)


def test_symplectic_subspace_basis_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, 2 * n + 1))
        check_symplectic_split(random_bitmat(rng, 2 * n, k))


# -- pair helpers -----------------------------------------------------------


def test_pair_weight():
    v = from_pairs([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert v == BitVec.from_bits([0, 1, 0, 1, 0, 0, 1, 1])  # pair j at bits (j, n + j)
    assert pair_weight_int(v.value, 4) == 3


def test_swap_halves():
    v = BitVec.from_bits([1, 0, 0, 1])
    assert swap_halves(v.value, 2) == BitVec.from_bits([0, 1, 1, 0]).value


def test_permute_pairs_moves_pairs_together():
    rng = np.random.default_rng(16)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        v = BitVec.from_numpy(rng.integers(0, 2, size=2 * n, dtype=np.uint8))
        perm = rng.permutation(n)
        out = permute_pairs(v, perm)
        assert isinstance(out, BitVec) and out.nbits == 2 * n
        for j in range(n):
            assert pair(out, int(perm[j])) == pair(v, j)


def test_permute_rows_pairs_consistent_with_vectors():
    rng = np.random.default_rng(17)
    n, k = 4, 3
    m = random_bitmat(rng, 2 * n, k)
    x = BitVec.from_numpy(rng.integers(0, 2, size=k, dtype=np.uint8))
    perm = rng.permutation(n)
    lhs = permute_rows_pairs(m, perm).matvec(x)
    rhs = permute_pairs(m.matvec(x), perm)
    assert lhs == rhs


# -- check_isotropic ---------------------------------------------------------


def test_check_isotropic_rejects_bad_input():
    with pytest.raises(ValueError, match="not symplectically orthogonal"):
        check_isotropic(BitMat.from_cols([e_basis(2, 1), f_basis(2, 1)]))
    with pytest.raises(ValueError, match="not independent"):
        check_isotropic(BitMat.from_cols([e_basis(2, 1), e_basis(2, 1)]))
    with pytest.raises(ValueError, match="odd row count"):
        check_isotropic(BitMat(3, 1, [1, 0, 0]))
    good = BitMat.from_cols([e_basis(2, 1), e_basis(2, 2)])
    assert check_isotropic(good) is good


# -- incremental kernels -----------------------------------------------------


def test_xor_rows_matches_loop():
    rng = np.random.default_rng(21)
    rows = [int(x) for x in rng.integers(0, 2**62, size=40)]
    for _ in range(50):
        sel = int(rng.integers(0, 2**40))
        want = 0
        for j in range(40):
            if sel >> j & 1:
                want ^= rows[j]
        assert xor_rows(rows, sel) == want
    assert xor_rows([], 0) == 0


def test_echelon_set_tracks_rank():
    rng = np.random.default_rng(22)
    for ncols in (1, 5, 70):
        span = EchelonSet()
        added = []
        for _ in range(2 * ncols):
            v = int.from_bytes(rng.bytes(9), "little") & ((1 << ncols) - 1)
            if rng.random() < 0.3 and added:
                v = added[0] ^ added[-1]  # a vector already in the span
            grew = span.add(v)
            mat = BitMat.from_rows([BitVec(ncols, a) for a in added + [v]], ncols)
            assert grew == (naive_rank(mat.to_numpy()) == len(added) + 1)
            if grew:
                added.append(v)
            assert len(span) == len(added)



def _ints(bits: np.ndarray) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


def test_augmented_echelon_set_solves():
    # membership ignores the right-hand side, which rides along to solve()
    rng = np.random.default_rng(24)
    for ncols in (1, 5, 64, 70):
        for _ in range(5):
            a = rng.integers(0, 2, size=(ncols + 4, ncols), dtype=np.uint8)
            x = rng.integers(0, 2, size=ncols, dtype=np.uint8)
            b = naive_matvec(a, x)
            if rng.random() < 0.5:
                b[rng.integers(ncols + 4)] ^= 1  # maybe inconsistent
            plain, augmented = EchelonSet(), EchelonSet(augmented=True)
            for row, rhs in zip(a, b):
                assert augmented.add(_ints(row) << 1 | int(rhs)) == plain.add(_ints(row))
                assert len(augmented) == len(plain)
            got = augmented.solve()
            ref = naive_solve(a, b)
            if ref is not None and naive_rank(a) == ncols:
                assert got == _ints(ref)
            # whatever the rank, solve() meets every equation the set holds
            for r in filter(None, augmented.rows):
                assert ((r >> 1) & got).bit_count() & 1 == r & 1
    with pytest.raises(ValueError):
        EchelonSet().solve()


@pytest.mark.parametrize("n", [1, 2, 33, 63, 64, 88, 100, 130])
def test_dual_layouts_agree(n):
    # same restrict/combine/extend sequence on both layouts, including
    # vectors outside the dual, in the span, and zero. The pivot count grows
    # past 1.5n, so at n = 88, 100 and 130 it crosses two or three word
    # edges, and 2n = 176, 200 and 260 are not multiples of 64. n = 63 and
    # 64 sit on either side of the size cutoff
    rng = np.random.default_rng(23 + n)
    small, packed = _IntDual(n), _PackedDual(n)
    for step in range(3 * n):
        d = small.dim
        assert packed.dim == d
        if d == 0:
            assert small.coefficients(0) == packed.coefficients(0) == 0
            assert small.extend(0) == packed.extend(0) == 0
            break
        coeffs = int.from_bytes(rng.bytes((d + 7) // 8), "little") & ((1 << d) - 1)
        v = small.combine(coeffs)
        assert packed.combine(coeffs) == v
        assert small.coefficients(v) == packed.coefficients(v) == coeffs
        assert small.combine(0) == packed.combine(0) == 0
        kind = step % 4
        if kind == 3:
            # the fused step: the combination, or 0 when it is in the span
            got = small.extend(coeffs)
            assert got in (v, 0)
            assert packed.extend(coeffs) == got
        else:
            if kind == 1:
                v = int.from_bytes(rng.bytes((2 * n + 7) // 8), "little") & ((1 << 2 * n) - 1)
            elif kind == 2:
                v = 0
            assert small.restrict(v) == packed.restrict(v)
        assert small.basis() == packed.basis()
        assert small.free == packed.free


def test_incremental_dual_picks_layout_by_size():
    below = _PACKED_MIN_BITS // 2 - 1
    assert type(incremental_dual(below)) is _IntDual
    assert type(incremental_dual(below + 1)) is _PackedDual
