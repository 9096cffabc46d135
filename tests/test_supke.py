"""Tests for seed expansion, its inverse, and the seed-keyed encryption wrapper."""
import pytest
from scipy.stats import chisquare

from slpn import diagnostics, supke
from slpn.gf2 import (
    BitMat,
    BitVec,
    _IntDual,
    _PackedDual,
    incremental_dual,
    is_isotropic,
    rank,
    symp_inner,
    xor_rows,
)
from slpn.pke import PublicKey, enc_traced, pick_p_for_success, predict_success
from slpn.sampling import Rng, sample_isotropic
from slpn.supke import (
    Seed,
    SuPublicKey,
    expand,
    invert,
    su_dec,
    su_enc,
    su_enc_traced,
    su_gen,
    su_gen_traced,
)
from supke_exhaustive import invert_raw_probability, ordered_dual_vectors


def test_incremental_dual_matches_from_scratch():
    # the incremental canonical dual must equal the one recomputed per step,
    # in both layouts and on both sides of the size cutoff; 2n = 66, 176,
    # 200 and 260 leave the last packed word partly used, and at n = 88 and
    # 130 the n pivots cross one and two word edges
    for layout in (_IntDual, _PackedDual, incremental_dual):
        for n in (2, 3, 5, 8, 33, 88, 100, 130):
            rng = Rng(99)
            cols = []
            inc = layout(n)
            mat = sample_isotropic(rng, n, n)
            for j in range(n):
                v = mat.col(j).value
                cols.append(v)
                assert inc.restrict(v)
                assert not inc.restrict(v)  # now in the span: refused, no change
                vecs, free = ordered_dual_vectors(cols, n)
                assert inc.basis() == vecs
                assert tuple(inc.free) == free
                assert inc.dim == len(vecs)


def test_seed_length_validation():
    Seed(BitVec.zeros(16))  # n = 2
    with pytest.raises(ValueError):
        Seed(BitVec.zeros(15))
    with pytest.raises(ValueError):
        Seed(BitVec.zeros(0))
    assert Seed(BitVec.zeros(64)).n == 4


def test_expand_deterministic():
    rng = Rng(1)
    seed = Seed(rng.bits(4 * 8 * 8))
    assert expand(seed) == expand(seed)


def test_expand_output_structure():
    rng = Rng(2)
    diagnostics.reset("supke.expand_zero_pad")
    for n in (2, 4, 8):
        for _ in range(40):
            before = diagnostics.value("supke.expand_zero_pad")
            m = expand(Seed(rng.bits(4 * n * n)))
            assert m.nrows == 2 * n and m.ncols == n
            assert is_isotropic(m)
            if diagnostics.value("supke.expand_zero_pad") == before:
                assert rank(m) == n


def _per_step_expand(seed: Seed) -> tuple[BitMat, int]:
    """Reference for ``expand``: one ``combine`` and one ``restrict`` per
    step, on the int layout at every size. Also returns how many steps fell
    in the span and were rejected."""
    n, bits = seed.n, seed.bits.value
    dual = _IntDual(n)
    pos, real, rejected = 0, [], 0
    for _ in range(2 * n):
        d = dual.dim
        w = dual.combine((bits >> pos) & ((1 << d) - 1))
        pos += d
        if dual.restrict(w):
            real.append(w)
            if len(real) == n:
                break
        else:
            rejected += 1
    real.extend([0] * (n - len(real)))
    return BitMat._trusted_cols(2 * n, real), rejected


@pytest.mark.parametrize("n, seed", [(72, 0), (72, 6), (130, 1)])
def test_expand_matches_per_step_loop_through_rejections(n, seed):
    # seeds whose expansion meets a step in the span at least once
    s = Seed(Rng(seed).bits(4 * n * n))
    want, rejected = _per_step_expand(s)
    assert rejected >= 1
    assert expand(s) == want


def test_expand_zero_pad_rate_bounded():
    # the fallback probability is at most 4^-(n+1): about 1.6% at n = 2
    rng = Rng(77)
    diagnostics.reset("supke.expand_zero_pad")
    trials = 8000
    for _ in range(trials):
        expand(Seed(rng.bits(16)))
    assert diagnostics.value("supke.expand_zero_pad") / trials < 0.03


def test_expand_distribution_matches_direct_sampler_at_n2():
    # sampled chi-square across the 90 outcomes, conditioned on the
    # non-padded event; the exhaustive version lives in the acceptance suite
    rng = Rng(3)
    counts = {}
    diagnostics.reset("supke.expand_zero_pad")
    for _ in range(18_000):
        before = diagnostics.value("supke.expand_zero_pad")
        m = expand(Seed(rng.bits(16)))
        if diagnostics.value("supke.expand_zero_pad") > before:
            continue
        counts[m.rows] = counts.get(m.rows, 0) + 1
    assert len(counts) == 90
    assert chisquare(list(counts.values())).pvalue > 0.01
    direct = {}
    for _ in range(18_000):
        m = sample_isotropic(rng, 2, 2)
        direct[m.rows] = direct.get(m.rows, 0) + 1
    assert sorted(direct) == sorted(counts)


def test_invert_output_length_and_roundtrip():
    rng = Rng(4)
    for n in (2, 4, 8, 16):
        a = sample_isotropic(rng, n, n)
        seed = invert(rng, a)
        assert seed.bits.nbits == 4 * n * n
        assert expand(seed) == a


def test_invert_roundtrip_rate_n8():
    # failure probability is at most 4^-(n+1); demand a perfect short run
    rng = Rng(5)
    for _ in range(300):
        a = sample_isotropic(rng, 8, 8)
        assert expand(invert(rng, a)) == a


def _reference_invert(rng: Rng, a: BitMat) -> tuple[Seed, int]:
    """Reference for ``invert``: separate ``coefficients``, ``combine`` and
    ``restrict`` calls per step on the int layout, the walk stopped at the
    n-th column and the rest of the seed padded by one draw. Also returns
    how many walks were retried."""
    n = a.ncols
    a_cols = a.transpose().rows
    retries = 0
    while True:
        dual = _IntDual(n)
        real, value, pos = [], 0, 0
        for _ in range(2 * n):
            r = len(real)
            took_real = rng.random() >= 4.0 ** (r - n)
            w = a_cols[r] if took_real else xor_rows(real, rng.bits(r).value) if r else 0
            coeffs = dual.coefficients(w)
            assert dual.combine(coeffs) == w
            value |= coeffs << pos
            pos += dual.dim
            if took_real:
                assert dual.restrict(w)
                real.append(w)
                if r + 1 == n:
                    value |= rng.bits(4 * n * n - pos).value << pos
                    return Seed(BitVec(4 * n * n, value)), retries
        retries += 1


@pytest.mark.parametrize(
    "layout, n, seeds",
    [
        (_IntDual, 1, 200),
        (_PackedDual, 1, 200),
        (_IntDual, 2, 200),
        (_PackedDual, 2, 200),
        (incremental_dual, 72, 2),
        (incremental_dual, 130, 2),
    ],
)
def test_invert_matches_reference_walk(monkeypatch, layout, n, seeds):
    # at n = 1 and 2 a walk misses its last column often enough that the
    # retried walk is checked too; the basis is word-packed at 72 and 130
    monkeypatch.setattr(supke, "incremental_dual", layout)
    retries = 0
    for seed in range(seeds):
        a = sample_isotropic(Rng(seed), n, n)
        want, retried = _reference_invert(ref := Rng(1000 + seed), a)
        retries += retried
        assert invert(rng := Rng(1000 + seed), a) == want
        assert rng.bits(64) == ref.bits(64)
    assert retries >= 1 or n > 2


def test_invert_rejects_bad_input():
    rng = Rng(6)
    with pytest.raises(ValueError):
        invert(rng, BitMat.zeros(8, 4))  # not full rank
    m = sample_isotropic(rng, 4, 4)
    with pytest.raises(ValueError):
        invert(rng, m.take_cols(0, 2))  # wrong shape
    with pytest.raises(ValueError):
        invert(rng, BitMat.zeros(0, 0))  # n = 0: no seed of that length
    bad = BitMat.from_cols([BitVec.unit(4, 0), BitVec.unit(4, 2)])
    with pytest.raises(ValueError):
        invert(rng, bad)  # not isotropic


@pytest.mark.parametrize("layout", [_IntDual, _PackedDual])
@pytest.mark.parametrize("n", [3, 72])
def test_invert_error_messages(monkeypatch, layout, n):
    # each broken column is checked as it is inserted, after the valid
    # columns before it; a zero column lies in every dual, so only the
    # rank check can refuse it
    monkeypatch.setattr(supke, "incremental_dual", layout)
    valid = list(sample_isotropic(Rng(17), n, n).transpose().rows)
    zero, dependent, pairing, pairing_off_dual = (list(valid) for _ in range(4))
    zero[n // 2] = 0
    dependent[2] = valid[0] ^ valid[1]
    # e_0 against f_0, alone or with a dual vector beside it outside the span
    pairing[0], pairing[1] = 1, 1 << n
    pairing_off_dual[0], pairing_off_dual[1] = 1, (1 << n) | 2
    for cols, message in (
        (zero, "not full rank"),
        (dependent, "not full rank"),
        (pairing, "not isotropic"),
        (pairing_off_dual, "not isotropic"),
    ):
        a = BitMat.from_cols([BitVec(2 * n, c) for c in cols], nrows=2 * n)
        with pytest.raises(ValueError, match=message):
            invert(Rng(18), a)


def test_invert_accepts_exactly_the_full_rank_isotropic_matrices():
    # random 2n x n matrices are almost never isotropic, so half the trials
    # start from a valid one and break it: a zero column, a column that is the
    # sum of two others, or a pair of columns that pair to 1
    rng = Rng(16)
    accepted = rejected = 0
    for trial in range(3000):
        n = 1 + trial % 6
        if trial % 2:
            a = rng.bitmat(2 * n, n)
        else:
            cols = list(sample_isotropic(rng, n, n).transpose().rows)
            i, j = rng.integer(n), rng.integer(n)
            kind = trial // 2 % 4
            if kind == 1:
                cols[i] = 0
            elif kind == 2 and n >= 3:
                cols[i] = cols[(i + 1) % n] ^ cols[(i + 2) % n]
            elif kind == 3 and i != j:
                # e_i against f_i: the two columns pair to 1
                cols[i], cols[j] = 1 << i, 1 << (n + i)
            a = BitMat.from_cols([BitVec(2 * n, c) for c in cols], nrows=2 * n)
        valid = rank(a) == n and is_isotropic(a)
        try:
            seed = invert(rng, a)
        except ValueError:
            assert not valid
            rejected += 1
        else:
            assert valid and seed.n == n
            accepted += 1
    assert accepted >= 500 and rejected >= 1500


def test_invert_bits_near_uniform():
    # per-bit marginal of inverted seeds; the spec-scale run is costly, so a
    # shorter run with a correspondingly wider tolerance
    rng = Rng(7)
    n = 16
    trials = 4000
    totals = [0] * (4 * n * n)
    for _ in range(trials):
        a = sample_isotropic(rng, n, n)
        seed = invert(rng, a)
        v = seed.bits.value
        for i in range(4 * n * n):
            totals[i] += (v >> i) & 1
    freqs = [t / trials for t in totals]
    # sigma = 0.0079 per bit; bound chosen for the max over 1024 bits
    assert max(abs(f - 0.5) for f in freqs) < 0.035


def test_invert_exactly_uniform_over_preimages_single_matrix():
    # analytic check on one matrix at n = 2: every preimage seed gets the same
    # raw emission probability (the exhaustive version is in acceptance)
    rng = Rng(8)
    a = sample_isotropic(rng, 2, 2)
    probs = set()
    count = 0
    for s in range(1 << 16):
        seed = Seed(BitVec(16, s))
        if expand(seed) == a:
            p = invert_raw_probability(seed, a)
            assert p is not None
            probs.add(p)
            count += 1
    assert count > 0
    assert len(probs) == 1


# -- the seed-keyed scheme ----------------------------------------------------


def test_su_public_key_bit_length():
    rng = Rng(9)
    pk, sk = su_gen(rng, 6, 0.1)
    assert pk.bit_length() == 4 * 36 + 12


def test_su_key_serialization():
    rng = Rng(10)
    pk, _ = su_gen(rng, 4, 0.1)
    assert SuPublicKey.from_json(pk.to_json()) == pk


def test_su_receiver_reproduces_matrix():
    rng = Rng(11)
    pk, _ = su_gen(rng, 5, 0.1)
    assert expand(pk.seed) == expand(pk.seed)


def test_su_enc_equals_plain_enc_given_expanded_matrix():
    rng = Rng(12)
    pk, sk = su_gen(rng, 6, 0.15)
    plain = PublicKey(pk.n, pk.p, expand(pk.seed), pk.b)
    ct_su, f_su = su_enc_traced(Rng(777), pk, 1)
    ct_plain, f_plain = enc_traced(Rng(777), plain, 1)
    assert f_su == f_plain
    assert ct_su == ct_plain


def test_su_enc_expands_seed_once(monkeypatch):
    pk, _ = su_gen(Rng(14), 16, 0.05)
    plain = PublicKey(pk.n, pk.p, expand(pk.seed), pk.b)
    calls = []

    def counting_expand(seed):
        calls.append(seed)
        return expand(seed)

    monkeypatch.setattr(supke, "expand", counting_expand)
    rng_su, rng_plain = Rng(778), Rng(778)
    for i in range(40):
        assert su_enc_traced(rng_su, pk, i & 1) == enc_traced(rng_plain, plain, i & 1)
    assert len(calls) == 1
    # the cached expansion is not part of the key's identity or encoding
    again = SuPublicKey.from_json(pk.to_json())
    assert again == pk and hash(again) == hash(pk)
    assert pk.to_json() == again.to_json()


def test_su_dec_identity():
    rng = Rng(13)
    for _ in range(25):
        pk, sk, e = su_gen_traced(rng, 6, 0.2)
        mu = rng.bit()
        ct, f = su_enc_traced(rng, pk, mu)
        assert su_dec(sk, ct) == mu ^ symp_inner(f, e)


def test_su_roundtrip_statistics():
    n = 64
    p = pick_p_for_success(n, 0.75)
    rng = Rng(14)
    hits = 0
    trials = 400
    for _ in range(trials):
        pk, sk = su_gen(rng, n, p)
        mu = rng.bit()
        hits += su_dec(sk, su_enc(rng, pk, mu)) == mu
    assert abs(hits / trials - predict_success(n, p)) < 0.06
