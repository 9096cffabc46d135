"""Tests for seeded randomness, distribution samplers, and instance generators."""
import copy
import hashlib
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from slpn.gf2 import BitMat, BitVec, _IntDual, _PackedDual, is_isotropic, rank, solve, symp_inner
from slpn.pke import PublicKey, enc_traced
from slpn.sampling import (
    HyperplaneRotation,
    Instance,
    Rng,
    draw_depolarizing,
    gen_lpn,
    gen_lsn,
    gen_symplpn,
    sample_bernoulli,
    sample_depolarizing,
    sample_isotropic,
    sample_lsn_matrices,
)
from slpn.supke import Seed, expand, invert


# -- Rng ---------------------------------------------------------------------


def test_rng_reproducible():
    a = Rng(1234)
    b = Rng(1234)
    assert a.bits(257) == b.bits(257)
    assert [a.integer(1000) for _ in range(10)] == [b.integer(1000) for _ in range(10)]


def test_rng_split_independent_and_deterministic():
    parent = Rng(7)
    c1 = parent.split(0)
    c2 = parent.split(1)
    again = Rng(7).split(0)
    assert c1.bits(128) == again.bits(128)
    assert Rng(7).split(0).bits(128) != Rng(7).split(1).bits(128)
    assert c2.bits(64).nbits == 64


def _public(obj):
    """obj rebuilt through the public constructor, which masks to the width."""
    if isinstance(obj, BitVec):
        return BitVec(obj.nbits, obj.value)
    return BitMat(obj.nrows, obj.ncols, list(obj.rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 70), st.integers(0, 70), st.data())
def test_trusted_draws_and_samplers_match_the_public_constructor(seed, a, b, data):
    # Rng draws and the samplers build through the unmasked internal
    # constructor; each result is what the public constructor makes of it
    rng = Rng(seed)
    n = data.draw(st.integers(2, 35))
    k = data.draw(st.integers(0, n))
    seed_n = data.draw(st.integers(1, 6))
    made = [
        rng.bits(a),
        rng.bitmat(a, b),
        sample_isotropic(rng, n, k),
        *sample_lsn_matrices(rng, k, n),
        HyperplaneRotation.sample(rng, n).c,
        expand(Seed(rng.bits(4 * seed_n * seed_n))),
    ]
    for obj in made:
        assert _public(obj) == obj
        if isinstance(obj, BitMat):
            assert type(obj.rows) is tuple and len(obj.rows) == obj.nrows


def _digest(hexstr: str) -> str:
    return hashlib.sha256(hexstr.encode()).hexdigest()[:16]


def test_rng_golden_stream():
    # values pinned from the reference implementation; any change to the
    # generator or to how the samplers consume it breaks them
    assert Rng(42).bits(64).to_hex() == "8ab9daec002f0916"


def test_rng_mixed_draw_golden_stream():
    # bits(c) for every c in 0..70, across the byte edges (8, 9), the 32-bit
    # word edges (31, 32, 33) and the 64-bit ones (64, 65), each followed by
    # another kind of draw: a draw that consumes one word more or less than
    # before shifts everything after it
    rng = Rng(2024)
    others = [
        rng.bit,
        lambda: rng.integer(1000),
        rng.random,
        lambda: rng.binomial(10, 0.3),
        lambda: rng.permutation(6),
        lambda: rng.bitmat(3, 5).rows,
    ]
    out = []
    for c in range(71):
        v = rng.bits(c)
        out.append((v.nbits, v.value))
        out.append(others[c % len(others)]())
    assert _digest(repr(out)) == "f7d983794a552fa9"


def _state(rng: Rng) -> str:
    state = rng.numpy().bit_generator.state
    return json.dumps(state, sort_keys=True, default=lambda a: a.tolist())


def test_rng_bits_runs_of_one_bulk_draw_equal_separate_draws():
    # bits(d) takes ceil(ceil(d/8)/4) whole 32-bit words of the stream and
    # keeps their first d bits, so one bits(32 * W) draw cut into those runs
    # gives the same values as one draw per d, and leaves the same state.
    # Sizes cover the one-word scalar path (d <= 32), d off a byte edge and
    # the dimensions of a dual basis
    for sizes in ([1, 7, 8, 9, 31, 32, 33], [64, 65, 100, 255, 3], [1024 - j for j in range(40)]):
        words = [((d + 7) // 8 + 3) // 4 for d in sizes]
        one, many = Rng(7), Rng(7)
        bulk = one.bits(32 * sum(words)).value
        pos = 0
        for d, w in zip(sizes, words):
            assert (bulk >> pos) & ((1 << d) - 1) == many.bits(d).value
            pos += 32 * w
        assert _state(one) == _state(many)
        assert one.bits(64) == many.bits(64)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("lead", [0, 1, 2, 3])
def test_rng_small_bits_are_the_next_uint32_word(seed, lead):
    # Philox hands out a 64-bit output as two 32-bit words and buffers the
    # second half, so starting after an odd number of words puts a small
    # draw on the buffered half; each small draw sits between draws that go
    # through numpy's Generator, which must see the stream where it left it
    rng, twin = Rng(seed), Rng(seed)
    for gen in (rng.numpy(), twin.numpy()):
        gen.integers(0, 1 << 32, size=lead, dtype=np.uint32)
    others = [
        lambda gen: gen.random(),
        lambda gen: gen.integers(1, 4, size=5).tolist(),
        lambda gen: gen.permutation(7).tolist(),
    ]
    for count in range(1, 33):
        word = int(twin.numpy().integers(0, 1 << 32, dtype=np.uint32))
        assert rng.bits(count) == BitVec(count, word & ((1 << count) - 1))
        draw = others[count % len(others)]
        assert draw(rng.numpy()) == draw(twin.numpy())
        assert _state(rng) == _state(twin)


@pytest.mark.parametrize("lead", [0, 1])
def test_rng_bit_is_the_top_bit_of_the_next_uint32_word(lead):
    # the bit integers(0, 2) returns, from the same single word, after an
    # even and an odd number of words; the Generator draws in between must
    # see the stream where the bit left it
    rng, twin = Rng(3), Rng(3)
    for gen in (rng.numpy(), twin.numpy()):
        gen.integers(0, 1 << 32, size=lead, dtype=np.uint32)
    for i in range(40):
        word = int(twin.numpy().integers(0, 1 << 32, dtype=np.uint32))
        assert rng.bit() == word >> 31
        if i % 3 == 0:
            assert rng.numpy().random() == twin.numpy().random()
        assert _state(rng) == _state(twin)


@pytest.mark.parametrize("odd", [False, True])
def test_rng_copies_continue_the_stream_after_a_small_draw(odd):
    rng = Rng(5)
    rng.bits(3)
    if odd:
        rng.bits(9)  # the next word is the buffered half of a Philox output
    twins = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
    want = [rng.bits(c) for c in (1, 17, 32, 40, 5)]
    for twin in twins:
        assert [twin.bits(c) for c in (1, 17, 32, 40, 5)] == want
        assert _state(twin) == _state(rng)


@pytest.mark.parametrize(
    "n, digest",
    [(4, "0fab7176a28849d3"), (64, "74002034d1dfb979"), (512, "033e22c63b85a78d")],
)
def test_sample_isotropic_golden_stream(n, digest):
    assert _digest(sample_isotropic(Rng(42), n, n).to_hex()) == digest


def _per_column_isotropic(rng: Rng, n: int, k: int) -> tuple[BitMat, int]:
    """Reference for ``sample_isotropic``: one ``bits(dim)`` draw, one
    ``combine`` and one ``restrict`` per drawn column, on the int layout at
    every size. Also returns how many drawn columns fell in the span and
    were rejected."""
    dual = _IntDual(n)
    cols, rejected = [], 0
    while len(cols) < k:
        v = dual.combine(rng.bits(dual.dim).value)
        if dual.restrict(v):
            cols.append(v)
        else:
            rejected += 1
    return BitMat._trusted_cols(2 * n, cols), rejected


@pytest.mark.parametrize("n, seed", [(72, 5), (88, 0), (88, 5), (130, 7)])
def test_sample_isotropic_matches_per_column_loop_through_rejections(n, seed):
    # seeds on which a drawn column lands in the span at least once, so that
    # the draw after a rejection is checked too, and the stream after it
    want, rejected = _per_column_isotropic(ref := Rng(seed), n, n)
    assert rejected >= 1
    got = sample_isotropic(rng := Rng(seed), n, n)
    assert got == want
    assert rng.bits(64) == ref.bits(64)


@pytest.mark.parametrize("n, k", [(64, 0), (64, 1), (200, 150)])
def test_sample_isotropic_matches_per_column_loop_below_n_columns(n, k):
    # the bulk draw is sized for the k columns asked for, not for n
    want, _ = _per_column_isotropic(ref := Rng(3), n, k)
    assert sample_isotropic(rng := Rng(3), n, k) == want
    assert rng.bits(64) == ref.bits(64)


class _ScriptedDual:
    """Stands in for the packed dual in its bulk-draw ``grow``: keeps the
    coefficients each attempt is given and refuses the attempts listed."""

    def __init__(self, n: int, refuse: set[int]):
        self.n, self.nbytes = n, 2 * n // 8 + 1
        self.refuse, self.seen = refuse, []

    def _combine_into(self, cols: np.ndarray, out: np.ndarray) -> None:
        # cols lists coefficient bit d-1 first
        self.seen.append(int("0" + "".join(map(str, cols)), 2))

    def _restrict_bits(self, bits: np.ndarray) -> bool:
        return len(self.seen) - 1 not in self.refuse


@pytest.mark.parametrize("refuse", [{0}, {1, 2}, {40}, {71}, {0, 72, 73}])
def test_bulk_draw_gives_each_attempt_its_per_column_bits(refuse):
    # refusals early on, where a column's run of words is longer than the
    # last columns' runs, leave part of a run over when the draw runs out;
    # real draws almost never land in the span that early
    n = 72
    dual = _ScriptedDual(n, refuse)
    rng = Rng(9)
    _PackedDual.grow(dual, n, rng.bits)
    ref, want, kept = Rng(9), [], 0
    while kept < n:
        attempt = len(want)
        want.append(ref.bits(2 * n - kept).value)
        kept += attempt not in refuse
    assert dual.seen == want
    assert rng.bits(64) == ref.bits(64)


def test_expand_golden_stream():
    seed = Seed(Rng(42).bits(4 * 128 * 128))
    assert _digest(expand(seed).to_hex()) == "3b53a829d2da4d32"


def test_invert_golden_stream():
    a = expand(Seed(Rng(42).bits(4 * 128 * 128)))
    assert _digest(invert(Rng(42), a).to_hex()) == "89cba525355a86b5"


def _instance_digest(inst: Instance) -> str:
    return _digest(json.dumps(inst.to_json(), sort_keys=True))


def test_depolarizing_golden_stream():
    assert _digest(sample_depolarizing(Rng(42), 64, 0.1).to_hex()) == "3eae60d3d12a2efc"


@pytest.mark.parametrize(
    "make, digest",
    [
        (lambda: gen_lpn(Rng(42), 32, 64, 0.1, structured=True, keep_witness=True), "2a772af69219f00f"),
        (lambda: gen_lpn(Rng(43), 32, 64, 0.1, structured=False, keep_witness=True), "8f7c725409a7778f"),
        (lambda: gen_symplpn(Rng(42), 32, 64, 0.1, structured=True, keep_witness=True), "d155c1f4a7f4fdd1"),
        (lambda: gen_symplpn(Rng(43), 32, 64, 0.1, structured=False, keep_witness=True), "9682adb7a6c41cee"),
        (lambda: gen_lsn(Rng(42), 8, 32, 0.1, keep_witness=True), "833f19597e466512"),
        # 2n = 192: the b-dual is word-packed and the joint rank spans 192 bits
        (lambda: gen_lsn(Rng(42), 8, 96, 0.1, keep_witness=True), "de08d2781bf7f6f4"),
    ],
    ids=["lpn", "lpn-uniform", "symplpn", "symplpn-uniform", "lsn", "lsn-packed"],
)
def test_gen_golden_stream(make, digest):
    assert _instance_digest(make()) == digest


# -- depolarizing noise -------------------------------------------------------


def _grid_thresholds(p) -> tuple[int, int, int]:
    """k T for k = 1, 2, 3, with T = ceil(p 2^53 / 3) from p's exact ratio:
    a uniform m 2^-53 takes pattern k when (k - 1) T <= m < k T."""
    num, den = p.as_integer_ratio()
    t = -(-(num << 53) // (3 * den))
    return t, 2 * t, 3 * t


def _reference_depolarizing(rng: Rng, n: int, p: float) -> BitVec:
    """Depolarizing noise from one uniform per pair, compared as an integer
    grid point against ``_grid_thresholds``, built as a 2n-byte bit array
    through the public constructor."""
    m = (rng.numpy().random(n) * 2.0**53).astype(np.int64)
    t1, t2, t3 = _grid_thresholds(p)
    patterns = np.where(m < t1, 1, np.where(m < t2, 2, np.where(m < t3, 3, 0)))
    lo = (patterns & 1).astype(np.uint8)
    hi = (patterns >> 1).astype(np.uint8)
    return BitVec.from_numpy(np.concatenate([lo, hi]))


def _reference_bernoulli(rng: Rng, n: int, p: float) -> BitVec:
    """The first packing of ``sample_bernoulli``, through the public constructor."""
    return BitVec.from_numpy((rng.numpy().random(n) < p).astype(np.uint8))


@pytest.mark.parametrize(
    "sample, reference",
    [(sample_depolarizing, _reference_depolarizing), (sample_bernoulli, _reference_bernoulli)],
    ids=["depolarizing", "bernoulli"],
)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 63, 64, 65, 128, 512])
def test_noise_packing_matches_the_byte_array_reference(sample, reference, n):
    # p = 0.03 and 0.3 at n = 512 set both fewer and more than the few noisy
    # pairs that are packed one at a time
    for seed in range(4):
        for p in (0, 0.03, 0.3, 0.75, 1):
            rng, ref = Rng(seed), Rng(seed)
            for _ in range(3):
                assert sample(rng, n, p) == reference(ref, n, p)
            assert _state(rng) == _state(ref)


def test_generator_random_is_the_top_53_bits_of_the_next_word():
    # the exact depolarizing law rests on this: random() is (next_uint64 >> 11)
    # 2^-53, also after small draws that leave half a word buffered
    for seed in range(4):
        rng, twin = Rng(seed), Rng(seed)
        for count in (0, 1, 5, 64, 3, 512):
            rng.bits(count % 33)
            twin.bits(count % 33)
            raw = twin.numpy().bit_generator.random_raw(count)
            assert rng.numpy().random(count).tolist() == ((raw >> 11) * 2.0**-53).tolist()
            assert _state(rng) == _state(twin)


class _ScriptedRng:
    """Stands in for an Rng whose next uniforms are given."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=np.float64)

    def numpy(self):
        return self

    def random(self, n):
        assert n == len(self.uniforms)
        return self.uniforms


@pytest.mark.parametrize("p", [0, 1e-9, 0.03, 0.3, 0.75, 1])
def test_depolarizing_law_at_each_threshold(p):
    # grid points m at each threshold k T and one step below it, fed to both
    # callers: pattern k on [(k - 1) T, k T), quiet from 3 T on. Each caller
    # sets bits (j, n + j) to (1,0), (0,1), (1,1) or (0,0); 40 copies of the
    # points reach the packed path of sample_depolarizing too
    t1, t2, t3 = _grid_thresholds(p)
    points = sorted({m for k in (t1, t2, t3) for m in (k - 1, k) if 0 <= m < 2**53} | {2**53 - 1})
    want = [1 if m < t1 else 2 if m < t2 else 3 if m < t3 else 0 for m in points]
    for copies in (1, 40):
        n = copies * len(points)
        u = [m * 2.0**-53 for m in points] * copies
        e = sample_depolarizing(_ScriptedRng(u), n, p)
        key = PublicKey(n, p, BitMat.zeros(2 * n, 1), BitVec.zeros(2 * n))
        _, f = enc_traced(_ScriptedRng(u), key, 0)
        for v in (e, f):
            assert [v.bit(j) | v.bit(n + j) << 1 for j in range(n)] == want * copies


@pytest.mark.parametrize("p", [0, 1e-9, 0.03, 0.1, 0.3, 0.75, 1 - 2**-52, 1 - 2**-53, 1])
def test_depolarizing_law_is_exact_on_the_grid(p):
    # the thresholds the sampler uses hold exactly T grid points per pattern,
    # so P(noisy) = 3 T 2^-53 lies in [p, p + 3 * 2^-53). Only for p = 1 and
    # p = 1 - 2^-53 is 3 T = 2^53 + 1: there t3 rounds to 1.0, every pair is
    # noisy, patterns 1 and 2 have probability T 2^-53 = (2^53 + 1) / 3 2^-53
    # each and pattern 3 has (T - 1) 2^-53 = (2^53 - 2) / 3 2^-53
    _, *thresholds = draw_depolarizing(Rng(0), 0, p)
    below = [0] + [math.ceil(Fraction(t) * 2**53) for t in thresholds]  # grid points under t_k
    held = [hi - lo for lo, hi in zip(below, below[1:])]
    t = _grid_thresholds(p)[0]
    if 3 * t > 2**53:
        assert p >= 1 - 2**-53 and t == (2**53 + 1) // 3
        assert thresholds[2] == 1.0 and held == [t, t, t - 1] and sum(held) == 2**53
    else:
        assert held == [t, t, t]
        assert p <= Fraction(3 * t, 2**53) < Fraction(p) + Fraction(3, 2**53)


def test_depolarizing_zero_noise():
    rng = Rng(0)
    for _ in range(20):
        assert sample_depolarizing(rng, 8, 0.0).is_zero()


def test_depolarizing_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_depolarizing(Rng(0), 4, 1.5)


def pair_counts(v) -> np.ndarray:
    arr = v.to_numpy()
    n = v.nbits // 2
    codes = arr[:n] + 2 * arr[n:]
    return np.bincount(codes, minlength=4)


def test_depolarizing_uniform_at_three_quarters():
    # p = 3/4 is a uniformly random pair
    rng = Rng(11)
    counts = pair_counts(sample_depolarizing(rng, 200_000, 0.75))
    assert chisquare(counts).pvalue > 0.001


def test_depolarizing_frequencies():
    # pair outcomes at p = 0.3: (0.7, 0.1, 0.1, 0.1) within 0.01
    rng = Rng(12)
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(2_000):  # exercise the per-call path
        counts += pair_counts(sample_depolarizing(rng, 1, 0.3))
    counts += pair_counts(sample_depolarizing(rng, 10**6, 0.3))  # i.i.d. pairs
    freqs = counts / counts.sum()
    assert abs(freqs[0] - 0.7) < 0.01
    for f in freqs[1:]:
        assert abs(f - 0.1) < 0.01


def test_bernoulli_weight():
    rng = Rng(13)
    v = sample_bernoulli(rng, 10**6, 0.05)
    assert abs(v.weight() / 10**6 - 0.05) < 0.002


# -- isotropic sampler --------------------------------------------------------


def test_sample_isotropic_structure():
    rng = Rng(21)
    for n, k in [(1, 1), (2, 2), (4, 3), (8, 8), (16, 5)]:
        m = sample_isotropic(rng, n, k)
        assert m.nrows == 2 * n and m.ncols == k
        assert is_isotropic(m)
        assert rank(m) == k


def test_sample_isotropic_rejects_k_above_n():
    with pytest.raises(ValueError):
        sample_isotropic(Rng(0), 2, 3)


@pytest.mark.parametrize("n", [4, 64])  # the int and the word-packed dual
def test_samplers_refuse_negative_sizes_before_any_draw(n):
    for draw, name in (
        (lambda rng: sample_isotropic(rng, n, -1), "k"),
        (lambda rng: sample_isotropic(rng, -1, -1), "n"),
        (lambda rng: sample_lsn_matrices(rng, -2, n), "k"),
        (lambda rng: sample_lsn_matrices(rng, 0, -n), "n"),
    ):
        with pytest.raises(ValueError, match=f"^{name} is negative"):
            draw(rng := Rng(0))
        assert rng.bits(64) == Rng(0).bits(64)
    assert sample_isotropic(Rng(0), 0, 0) == BitMat.zeros(0, 0)
    a, b = sample_lsn_matrices(Rng(0), 0, 0)
    assert a == b == BitMat.zeros(0, 0)


def test_sample_isotropic_n1_uniform_over_nonzero():
    rng = Rng(22)
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(30_000):
        m = sample_isotropic(rng, 1, 1)
        counts[m.col(0).value] += 1
    assert chisquare(list(counts.values())).pvalue > 0.001


def enumerate_isotropic_2x2():
    """All full-rank isotropic 4x2 matrices, by brute force."""
    out = []
    for c1 in range(1, 16):
        for c2 in range(1, 16):
            if c2 == c1:
                continue
            u = BitVec(4, c1)
            w = BitVec(4, c2)
            if symp_inner(u, w) == 0:
                out.append((c1, c2))
    return out


def test_sample_isotropic_n2_uniform():
    all_mats = enumerate_isotropic_2x2()
    assert len(all_mats) == 90
    rng = Rng(23)
    counts = dict.fromkeys(all_mats, 0)
    for _ in range(90_000):
        m = sample_isotropic(rng, 2, 2)
        counts[(m.col(0).value, m.col(1).value)] += 1
    assert chisquare(list(counts.values())).pvalue > 0.01


# -- instance generators ------------------------------------------------------


def test_gen_symplpn_zero_noise_in_image():
    rng = Rng(31)
    for _ in range(20):
        inst = gen_symplpn(rng, 3, 4, 0.0, structured=True)
        assert solve(inst.matrix, inst.word) is not None


def test_gen_symplpn_witness_consistent():
    rng = Rng(32)
    weights = []
    for _ in range(200):
        inst = gen_symplpn(rng, 6, 6, 0.2, structured=True, keep_witness=True)
        w = inst.witness
        assert w is not None and w.structured
        e = inst.word ^ inst.matrix.matvec(w.secret)
        assert e == w.error
        weights.append(sum(1 for j in range(6) if (e.value >> j | e.value >> (6 + j)) & 1))
    mean = sum(weights) / len(weights)
    # pair weight is Binomial(n, p): mean 1.2, sd ~ 0.98/sqrt(200)
    assert abs(mean - 1.2) < 0.3


def test_gen_symplpn_unstructured_word_independent():
    rng = Rng(33)
    counts = [0] * 16
    for _ in range(32_000):
        inst = gen_symplpn(rng, 2, 2, 0.1, structured=False)
        counts[inst.word.value % 16] += 1
    assert chisquare(counts).pvalue > 0.001


def test_gen_lsn_shapes_and_rank():
    rng = Rng(34)
    for k, n in [(1, 2), (2, 2), (3, 6), (6, 6)]:
        inst = gen_lsn(rng, k, n, 0.1)
        assert inst.matrix.ncols == n + k
        assert rank(inst.matrix) == n + k
        assert is_isotropic(inst.lsn_a_part())
        assert is_isotropic(inst.lsn_b_part())


def test_gen_lsn_witness_recomputes_error():
    rng = Rng(35)
    for _ in range(50):
        inst = gen_lsn(rng, 2, 4, 0.15, keep_witness=True)
        w = inst.witness
        e = inst.word ^ inst.matrix.matvec(w.secret)
        assert e == w.error


def test_gen_lsn_forced_zero_y_is_structured_over_a():
    # with b @ y taken off the word, (a-part, word) is a structured 2n-row
    # instance over the isotropic code a; at zero noise the word lies in im(a)
    rng = Rng(36)
    for _ in range(30):
        inst = gen_lsn(rng, 2, 3, 0.0, keep_witness=True)
        y = inst.witness.secret.sub(3, 5)
        word = inst.word ^ inst.lsn_b_part().matvec(y)
        assert solve(inst.lsn_a_part(), word) is not None


def test_gen_lsn_first_b_column_uniform_outside_image():
    # n = 2, k = 1: conditioned on a, the b column is uniform over the 12
    # vectors outside im(a), so (a, b1) is uniform over its 90 * 12 support
    rng = Rng(37)
    counts = {}
    for _ in range(50_000):
        inst = gen_lsn(rng, 1, 2, 0.1)
        a = inst.lsn_a_part()
        b1 = inst.lsn_b_part().col(0)
        assert solve(a, b1) is None
        key = (a.rows, b1.value)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 90 * 12
    assert chisquare(list(counts.values())).pvalue > 0.001


def test_gen_lpn():
    rng = Rng(38)
    inst = gen_lpn(rng, 8, 24, 0.0, structured=True, keep_witness=True)
    assert inst.matrix.nrows == 24 and inst.matrix.ncols == 8
    assert solve(inst.matrix, inst.word) is not None
    weights = []
    for _ in range(400):
        inst = gen_lpn(rng, 8, 24, 0.125, structured=True, keep_witness=True)
        e = inst.word ^ inst.matrix.matvec(inst.witness.secret)
        assert e == inst.witness.error
        weights.append(e.weight())
    mean = sum(weights) / len(weights)
    # Binomial(24, 1/8): mean 3, sd 1.62; 3 sigma of the sample mean
    assert abs(mean - 3.0) < 3 * 1.62 / 20


def test_generators_bit_identical_under_seed():
    i1 = gen_lsn(Rng(99), 2, 4, 0.1, keep_witness=True)
    i2 = gen_lsn(Rng(99), 2, 4, 0.1, keep_witness=True)
    assert i1.matrix == i2.matrix and i1.word == i2.word
    assert i1.witness.secret == i2.witness.secret


def test_instance_json_roundtrip():
    rng = Rng(40)
    for maker in (
        lambda: gen_symplpn(rng, 2, 3, 0.1, structured=True, keep_witness=True),
        lambda: gen_lsn(rng, 1, 3, 0.1, keep_witness=True),
        lambda: gen_lpn(rng, 3, 9, 0.2, structured=False, keep_witness=True),
    ):
        inst = maker()
        back = Instance.from_json(inst.to_json())
        assert back.kind == inst.kind
        assert back.matrix == inst.matrix
        assert back.word == inst.word
        assert (back.witness is None) == (inst.witness is None)
        if inst.witness and inst.witness.secret:
            assert back.witness.secret == inst.witness.secret
        slim = Instance.from_json(inst.without_witness().to_json())
        assert slim.witness is None



def _relabel(inst, **fields):
    obj = inst.to_json()
    obj.update(fields)
    return obj


def test_instance_loader_rejects_shape_contradicting_k_and_n():
    rng = Rng(41)
    symp = gen_symplpn(rng, 8, 8, 0.1, structured=True)  # 16 x 8
    with pytest.raises(ValueError, match="expected 198x3"):
        Instance.from_json(_relabel(symp, k=3, n=99))
    with pytest.raises(ValueError):
        Instance.from_json(_relabel(symp, k=7))
    lpn = gen_lpn(rng, 3, 9, 0.2, structured=True)  # 9 x 3
    with pytest.raises(ValueError):
        Instance.from_json(_relabel(lpn, n=8))
    with pytest.raises(ValueError):
        Instance.from_json(_relabel(lpn, k=9, n=3))  # transposed shape
    lsn = gen_lsn(rng, 1, 3, 0.1)  # 6 x 4
    with pytest.raises(ValueError):
        Instance.from_json(_relabel(lsn, k=2, n=2))
    with pytest.raises(ValueError):
        Instance.from_json(_relabel(lsn, kind="symplpn", k=4))  # not isotropic as a whole
    for inst in (symp, lpn, lsn):
        assert Instance.from_json(inst.to_json()).matrix == inst.matrix


def test_instance_loader_rejects_lsn_without_joint_rank():
    rng = Rng(42)
    inst = gen_lsn(rng, 1, 3, 0.1)
    a = inst.lsn_a_part()
    # b = a's first column: both parts stay isotropic, [a | b] has rank n
    dependent = a.hstack(a.take_cols(0, 1))
    with pytest.raises(ValueError, match="rank"):
        Instance.from_json(_relabel(inst, matrix=dependent.to_json()))

# -- hyperplane rotation ------------------------------------------------------


def standard_basis(n):
    es = [BitVec.unit(2 * n, i) for i in range(n)]
    fs = [BitVec.unit(2 * n, n + i) for i in range(n)]
    return es, fs


def is_symplectic(c: BitMat) -> bool:
    n = c.nrows // 2
    es, fs = standard_basis(n)
    basis = es + fs
    for i, u in enumerate(basis):
        for j in range(i + 1, len(basis)):
            want = symp_inner(u, basis[j])
            got = symp_inner(c.matvec(u), c.matvec(basis[j]))
            if want != got:
                return False
    return True


def test_rotation_maps_f1_to_r():
    rng = Rng(50)
    for n in (2, 3, 5):
        seen_non_identity = 0
        for _ in range(100):
            rot = HyperplaneRotation.sample(rng, n)
            f1 = BitVec.unit(2 * n, n)
            if rot.k_pair is not None:
                assert rot.c.matvec(f1) == rot.r
                seen_non_identity += 1
            else:
                assert rot.c == BitMat.identity(2 * n)
        assert seen_non_identity > 50


def test_rotation_is_symplectic():
    rng = Rng(51)
    for n in (2, 3, 4):
        for _ in range(50):
            rot = HyperplaneRotation.sample(rng, n)
            assert is_symplectic(rot.c)


def test_rotation_identity_when_second_half_zero():
    n = 3
    r = BitVec.from_bits([1, 0, 1, 0, 0, 0])
    rot = HyperplaneRotation.from_vector(r)
    assert rot.k_pair is None
    assert rot.c == BitMat.identity(2 * n)


def test_rotation_small_n_rejected():
    with pytest.raises(ValueError):
        HyperplaneRotation.sample(Rng(0), 1)


def test_rotation_cf1_uniform_over_valid_vectors():
    # restricted to draws with some second-half bit set, c @ f1 is uniform
    n = 2
    rng = Rng(52)
    counts = {}
    f1 = BitVec.unit(2 * n, n)
    for _ in range(60_000):
        rot = HyperplaneRotation.sample(rng, n)
        if rot.k_pair is None:
            continue
        v = rot.c.matvec(f1).value
        counts[v] = counts.get(v, 0) + 1
    valid = [v for v in range(16) if (v >> n) != 0]
    assert sorted(counts) == sorted(valid)
    assert chisquare(list(counts.values())).pvalue > 0.001


def _swap(v: int, i: int, j: int) -> int:
    """v with bits i and j exchanged."""
    if (v >> i) & 1 != (v >> j) & 1:
        v ^= (1 << i) | (1 << j)
    return v


def _reference_rotation(r: BitVec) -> tuple[BitMat, int | None]:
    """(c, k_pair) built column by column, as the map's definition reads: with
    r' = r after the pair swap 1 <-> k, e_1 -> e_1, f_1 -> r', every other
    basis vector x -> x + (r' . x) e_1, then the pair swap on the outputs."""
    n = r.nbits // 2
    k = next((j for j in range(1, n + 1) if r.bit(n + j - 1)), None)
    if k is None:
        return BitMat.identity(2 * n), None
    kk = k - 1
    rp = _swap(_swap(r.value, 0, kk), n, n + kk)
    cols = [1] + [0] * (2 * n - 1)
    cols[n] = rp
    for i in [*range(1, n), *range(n + 1, 2 * n)]:
        # r' . x for x the unit vector at i is the bit of r' at i's partner
        cols[i] = 1 << i | (rp >> ((i + n) % (2 * n))) & 1
    cols = [_swap(_swap(c, 0, kk), n, n + kk) for c in cols]
    return BitMat.from_cols([BitVec(2 * n, c) for c in cols]), k


def test_rotation_exhaustive_matches_reference():
    # every r at n = 2, 3 and 4
    for n in (2, 3, 4):
        f1 = BitVec.unit(2 * n, n)
        for rv in range(1 << (2 * n)):
            r = BitVec(2 * n, rv)
            rot = HyperplaneRotation.from_vector(r)
            assert (rot.c, rot.k_pair) == _reference_rotation(r)
            assert is_symplectic(rot.c)
            if rot.k_pair is None:
                assert (rv >> n) == 0
            else:
                assert rot.c.matvec(f1) == r
