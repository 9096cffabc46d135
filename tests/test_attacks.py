"""Tests for exhaustive decoders, information-set decoding, and weight tools."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from naive_gf2 import naive_matvec, naive_rank
from slpn.attacks import (
    AttackResult,
    _code_form,
    brute_force_decide,
    brute_force_search,
    eta_weight,
    make_coin_oracle,
    min_distance,
    pair_aware_isd,
    prange_isd,
    witness_oracle,
)
from slpn.gf2 import BitMat, BitVec, pair_weight_int, rank, solve
from slpn.reductions import Decision
from slpn.sampling import (
    Instance,
    InstanceKind,
    Rng,
    gen_lpn,
    gen_lsn,
    gen_symplpn,
    sample_depolarizing,
    sample_isotropic,
)


def naive_min_error(instance):
    """Independent per-outcome enumeration: dense arithmetic, explicit loop."""
    arr = instance.matrix.to_numpy()
    word = np.array(instance.word.bits(), dtype=np.uint8)
    n_pairs = instance.matrix.nrows // 2
    best = None
    for xi in range(1 << instance.matrix.ncols):
        x = np.array([(xi >> j) & 1 for j in range(instance.matrix.ncols)], dtype=np.uint8)
        e = (word + naive_matvec(arr, x)) % 2
        if instance.kind is InstanceKind.LPN:
            w = int(e.sum())
        else:
            w = int(np.sum((e[:n_pairs] | e[n_pairs:]) > 0))
        if best is None or w < best[0] or (w == best[0] and xi < best[1]):
            best = (w, xi, e)
    return best


def test_brute_force_recovers_noiseless_secret():
    rng = Rng(1)
    for _ in range(20):
        inst = gen_symplpn(rng, 4, 4, 1e-12, structured=True, keep_witness=True)
        x, e = brute_force_search(inst.without_witness())
        if inst.witness.error.is_zero():
            assert x == inst.witness.secret
            assert e.is_zero()


def test_brute_force_never_beaten_by_witness():
    rng = Rng(2)
    for _ in range(100):
        inst = gen_symplpn(rng, 4, 4, 0.25, structured=True, keep_witness=True)
        _, e = brute_force_search(inst.without_witness())
        n = inst.n
        assert pair_weight_int(e.value, n) <= pair_weight_int(inst.witness.error.value, n)


def test_brute_force_matches_independent_enumeration():
    rng = Rng(3)
    for _ in range(25):
        structured = rng.bit() == 1
        inst = gen_symplpn(rng, 4, 4, 0.3, structured=structured)
        x, e = brute_force_search(inst)
        w_naive, x_naive, e_naive = naive_min_error(inst)
        assert x.value == x_naive
        assert e.bits() == list(e_naive)
        assert pair_weight_int(e.value, 4) == w_naive


def test_brute_force_matches_enumeration_on_lpn():
    rng = Rng(4)
    for _ in range(25):
        inst = gen_lpn(rng, 4, 10, 0.2, structured=bool(rng.bit()))
        x, e = brute_force_search(inst)
        w_naive, x_naive, e_naive = naive_min_error(inst)
        assert x.value == x_naive and e.weight() == w_naive


def test_attack_result_json_keeps_empty_vectors():
    # a 0-bit secret is a found secret, not a missing one
    out = AttackResult(True, BitVec(0), BitVec(4), 1, 0.0).to_json()
    assert out["secret"] == BitVec(0).to_json() and out["error"] == BitVec(4).to_json()
    assert AttackResult(False, None, None, 5, 0.0).to_json()["secret"] is None


def test_brute_force_limit():
    rng = Rng(5)
    inst = gen_lpn(rng, 25, 30, 0.1, structured=True)
    with pytest.raises(ValueError):
        brute_force_search(inst)


def test_brute_decide_structured_noiseless():
    rng = Rng(6)
    for _ in range(20):
        inst = gen_symplpn(rng, 4, 4, 1e-12, structured=True)
        assert brute_force_decide(inst) is Decision.STRUCTURED


def test_brute_decide_calibration_n8():
    rng = Rng(7)
    n, p = 8, 0.05
    wrong_unstructured = 0
    say_s = say_u = 0
    trials = 2000
    for i in range(trials):
        structured = i % 2 == 0
        inst = gen_symplpn(rng, n, n, p, structured=structured)
        verdict = brute_force_decide(inst)
        if structured:
            say_s += verdict is Decision.STRUCTURED
        else:
            say_u += verdict is Decision.STRUCTURED
            wrong_unstructured += verdict is Decision.STRUCTURED
    assert wrong_unstructured / (trials / 2) <= 0.1
    advantage = say_s / (trials / 2) - say_u / (trials / 2)
    assert advantage >= 0.5


def test_witness_and_coin_oracles():
    rng = Rng(8)
    inst = gen_symplpn(rng, 3, 3, 0.1, structured=True, keep_witness=True)
    assert witness_oracle(inst) is Decision.STRUCTURED
    inst_u = gen_symplpn(rng, 3, 3, 0.1, structured=False, keep_witness=True)
    assert witness_oracle(inst_u) is Decision.UNSTRUCTURED
    with pytest.raises(ValueError):
        witness_oracle(inst.without_witness())
    coin = make_coin_oracle(rng)
    seen = {coin(inst) for _ in range(64)}
    assert seen == {Decision.STRUCTURED, Decision.UNSTRUCTURED}


# -- information-set decoding ---------------------------------------------------


def test_prange_zero_noise_immediate():
    rng = Rng(9)
    for _ in range(10):
        inst = gen_symplpn(rng, 6, 6, 1e-12, structured=True, keep_witness=True)
        if not inst.witness.error.is_zero():
            continue
        res = prange_isd(rng, inst.without_witness(), max_iters=500)
        assert res.success
        assert res.secret == inst.witness.secret
        assert inst.matrix.matvec(res.secret) ^ res.error == inst.word


def test_prange_recovers_with_noise():
    rng = Rng(10)
    n = 16
    p = 2.0 / n  # expected pair weight 2
    wins = 0
    for _ in range(20):
        inst = gen_symplpn(rng, n, n, p, structured=True, keep_witness=True)
        res = prange_isd(rng, inst.without_witness(), max_iters=20_000)
        if res.success:
            wins += 1
            assert inst.matrix.matvec(res.secret) ^ res.error == inst.word
            assert pair_weight_int(res.error.value, n) <= math.ceil(2.5 * n * p)
    assert wins >= 18


def test_prange_gives_up():
    rng = Rng(11)
    inst = gen_symplpn(rng, 8, 8, 0.4, structured=False)
    res = prange_isd(rng, inst, max_iters=5, weight_threshold=0)
    assert not res.success
    assert res.iterations == 5


@pytest.mark.parametrize("attack", [prange_isd, pair_aware_isd])
def test_isd_refuses_a_negative_iteration_cap_before_any_draw(attack):
    rng, twin = Rng(16), Rng(16)
    inst = gen_symplpn(rng, 8, 8, 0.1, structured=True)
    gen_symplpn(twin, 8, 8, 0.1, structured=True)
    with pytest.raises(ValueError, match="max_iters = -5"):
        attack(rng, inst, max_iters=-5)
    assert rng.bits(64) == twin.bits(64)
    # a zero cap stays valid: no iteration, no success
    res = attack(rng, inst, max_iters=0)
    assert (res.success, res.iterations) == (False, 0)


def test_prange_per_iteration_rate_matches_exhaustive():
    # at zero noise the per-iteration success probability is exactly the
    # chance that a random size-k row subset is an information set
    rng = Rng(12)
    n = 6  # 12 x 6 matrix; C(12, 6) = 924 subsets
    inst = gen_symplpn(rng, n, n, 1e-15, structured=True)
    arr = inst.matrix.to_numpy()
    subsets = list(itertools.combinations(range(2 * n), n))
    exact = sum(naive_rank(arr[list(s)]) == n for s in subsets) / len(subsets)
    hits = 0
    trials = 4000
    for _ in range(trials):
        res = prange_isd(rng, inst, max_iters=1)
        hits += res.success
    assert abs(hits / trials - exact) < 0.05


def test_pair_aware_zero_noise_immediate():
    rng = Rng(13)
    inst = gen_symplpn(rng, 6, 6, 1e-12, structured=True, keep_witness=True)
    if inst.witness.error.is_zero():
        res = pair_aware_isd(rng, inst.without_witness(), max_iters=500)
        assert res.success
        assert inst.matrix.matvec(res.secret) ^ res.error == inst.word


def test_pair_aware_beats_or_matches_prange_on_pair_noise():
    rng = Rng(14)
    n = 24
    p = 3.0 / n
    plain_iters = []
    pair_iters = []
    for _ in range(30):
        inst = gen_symplpn(rng, n, n, p, structured=True)
        plain_iters.append(prange_isd(rng, inst, max_iters=50_000).iterations)
        pair_iters.append(pair_aware_isd(rng, inst, max_iters=50_000).iterations)
    plain_iters.sort()
    pair_iters.sort()
    assert pair_iters[len(pair_iters) // 2] <= plain_iters[len(plain_iters) // 2]


def test_pair_aware_needs_even_rows():
    rng = Rng(15)
    inst = gen_lpn(rng, 4, 9, 0.1, structured=True)
    with pytest.raises(ValueError):
        pair_aware_isd(rng, inst, max_iters=10)


def test_isd_on_lsn_instance():
    # the decoders accept any (matrix, word) pair with enough rows
    rng = Rng(16)
    inst = gen_lsn(rng, 2, 8, 0.02, keep_witness=True)
    res = prange_isd(rng, inst.without_witness(), max_iters=20_000)
    if res.success:
        assert inst.matrix.matvec(res.secret) ^ res.error == inst.word


# Pinned outcomes of both decoders on seeded instances: result, iteration
# count, and the next 64 bits the shared Rng yields after the attack, so any
# change to which sets are drawn, in what order, or how much of the stream
# an attack consumes shows here. The cases include caps below and between
# multiples of a batch, a threshold no error meets (-1), wins on the first
# iteration, zero noise, and an 8 x 16 LPN matrix that is never full rank.
# Columns: algorithm, generator, n, p, seed, max_iters, threshold, then
# success, iterations, secret hex, error hex, next Rng.bits(64) hex.
ISD_GOLDEN = [
    ("prange", "lpn", 8, 0.2, 120, 400, 2, True, 59, "d6", "1040", "600eda6d10de4e02"),
    ("prange", "lpn", 16, 0.15, 116, 400, None, True, 3, "7d50", "00302234", "62beca1b60c0d9ff"),
    ("prange", "lpn", 64, 0.05, 4, 400, None, True, 254, "80b18999a39c5131", "00000000008002000000200000088000", "f06f9addb77a2156"),
    ("prange", "lpn", 64, 0.05, 4, 40, None, False, 40, None, None, "fc206ba7d1222858"),
    ("prange", "lpn", 64, 0.0, 3, 100, None, True, 7, "d447351ab6346fb1", "00000000000000000000000000000000", "a44432a08131741f"),
    ("prange", "lpn_wide", 8, 0.0, 9, 40, None, False, 40, None, None, "88123e5134fd1671"),
    ("prange", "symplpn", 8, 0.2, 43, 400, 2, True, 124, "9e", "8888", "7d0d7c26b4d17849"),
    ("prange", "symplpn", 16, 0.2, 3, 400, 2, True, 55, "c1b6", "80100010", "e5f6946a1dac864d"),
    ("prange", "symplpn", 16, 0.3, 7, 40, -1, False, 40, None, None, "76d58cb646d1371e"),
    ("prange", "symplpn", 64, 0.05, 8, 400, None, True, 131, "9ef0059a42f613c9", "40000008010000004000200000000000", "ef623bb4c3442d99"),
    ("prange", "symplpn", 64, 0.02, 164, 400, None, True, 1, "f68e097216ee0136", "00000000000000000000000000000000", "fda80ea888b7f287"),
    ("prange", "lsn", 8, 0.2, 50, 400, 2, True, 104, "1601", "2400", "818938e168f6ceaf"),
    ("prange", "lsn", 8, 0.3, 8, 5, -1, False, 5, None, None, "a63b997319a2d39e"),
    ("prange", "lsn", 16, 0.2, 2, 400, 2, True, 49, "994a00", "08004000", "29175cb7a695c6a7"),
    ("prange", "lsn", 64, 0.05, 3, 400, None, True, 145, "b10dafec25cef7d603", "00000000020000110002000002010010", "be83a825cf316e43"),
    ("pair", "lpn", 8, 0.2, 120, 400, 2, True, 17, "d6", "1040", "d8d1693bcdca660e"),
    ("pair", "lpn", 16, 0.15, 116, 400, None, True, 3, "605e", "13903012", "06e7900583ca9540"),
    ("pair", "lpn", 64, 0.05, 4, 400, None, True, 32, "80b18999a39c5131", "00000000008002000000200000088000", "e19d884b98d43536"),
    ("pair", "lpn", 64, 0.05, 4, 40, None, True, 32, "80b18999a39c5131", "00000000008002000000200000088000", "e19d884b98d43536"),
    ("pair", "lpn", 64, 0.0, 3, 100, None, True, 1, "d447351ab6346fb1", "00000000000000000000000000000000", "6cb4f4aa1a0eed20"),
    ("pair", "lpn_wide", 8, 0.0, 9, 40, None, False, 40, None, None, "1577296898c3e0ae"),
    ("pair", "symplpn", 8, 0.2, 43, 400, 2, True, 24, "9e", "8888", "bfd3c02a201bbecb"),
    ("pair", "symplpn", 16, 0.2, 3, 400, 2, True, 6, "c1b6", "80100010", "c46003c96f266e23"),
    ("pair", "symplpn", 16, 0.3, 7, 40, -1, False, 40, None, None, "c008a2419a68fa4a"),
    ("pair", "symplpn", 64, 0.05, 8, 400, None, True, 10, "9ef0059a42f613c9", "40000008010000004000200000000000", "94200fed7851c72b"),
    ("pair", "symplpn", 64, 0.02, 164, 400, None, True, 1, "f68e097216ee0136", "00000000000000000000000000000000", "27b0ce9dadf6154d"),
    ("pair", "lsn", 8, 0.2, 50, 400, 2, True, 22, "1601", "2400", "7030ddbcd895b624"),
    ("pair", "lsn", 8, 0.3, 8, 5, -1, False, 5, None, None, "be49b79dd9b13068"),
    ("pair", "lsn", 16, 0.2, 2, 400, 2, True, 19, "994a00", "08004000", "ace7cc7c22726303"),
    ("pair", "lsn", 64, 0.05, 3, 400, None, True, 105, "b10dafec25cef7d603", "00000000020000110002000002010010", "02b02a715775f4d6"),
]


def _golden_instance(kind, n, p, rng):
    if kind == "lpn":
        return gen_lpn(rng, n, 2 * n, p, structured=True)
    if kind == "lpn_wide":
        return gen_lpn(rng, 2 * n, n, p, structured=True)
    if kind == "symplpn":
        return gen_symplpn(rng, n, n, p, structured=True)
    return gen_lsn(rng, 2, n, p)


@pytest.mark.parametrize(
    "algo, kind, n, p, seed, max_iters, threshold, success, iterations, secret, error, after",
    ISD_GOLDEN,
    ids=[f"{c[0]}-{c[1]}-n{c[2]}-seed{c[4]}-cap{c[5]}" for c in ISD_GOLDEN],
)
def test_isd_golden(algo, kind, n, p, seed, max_iters, threshold, success, iterations, secret, error, after):
    attack = prange_isd if algo == "prange" else pair_aware_isd
    rng = Rng(seed)
    inst = _golden_instance(kind, n, p, rng)
    res = attack(rng, inst, max_iters, threshold)
    assert res.success is success
    assert res.iterations == iterations
    assert (res.secret.to_hex() if res.secret else None) == secret
    assert (res.error.to_hex() if res.error else None) == error
    assert rng.bits(64).to_hex() == after



# A plain reference of both decoders: the same draws, with each picked set
# solved from scratch by `rank` and `solve`. It returns every AttackResult
# field but the wall time.


def _ref_sub(inst, rows):
    """The rows ``rows`` of the system as (matrix, right-hand side)."""
    m = inst.matrix
    sub = BitMat(len(rows), m.ncols, [m.rows[i] for i in rows])
    return sub, BitVec(len(rows), sum(inst.word.bit(i) << j for j, i in enumerate(rows)))


def _ref_outcome(inst, x, threshold):
    """The secret and error when x leaves an error no heavier than the threshold, else None."""
    e = inst.word ^ inst.matrix.matvec(x)
    if inst.kind is InstanceKind.LPN:
        weight = e.weight()
    else:
        weight = pair_weight_int(e.value, inst.matrix.nrows // 2)
    if threshold is None:
        expected = inst.matrix.nrows * inst.p if inst.kind is InstanceKind.LPN else inst.n * inst.p
        threshold = math.ceil(2.5 * expected)
    return (x, e) if weight <= threshold else None


def reference_prange(rng, inst, max_iters, threshold):
    gen, nrows, k = rng.numpy(), inst.matrix.nrows, inst.matrix.ncols
    for it in range(1, max_iters + 1):
        sub, b = _ref_sub(inst, gen.permutation(nrows)[:k].tolist())
        if rank(sub) < k:
            continue
        found = _ref_outcome(inst, solve(sub, b), threshold)
        if found:
            return (True, *found, it)
    return (False, None, None, max_iters)


def reference_pair_aware(rng, inst, max_iters, threshold):
    gen, n, k = rng.numpy(), inst.matrix.nrows // 2, inst.matrix.ncols

    def rank_of(rows):
        return rank(_ref_sub(inst, rows)[0])

    for it in range(1, max_iters + 1):
        pairs = gen.permutation(n)[: (k + 1) // 2].tolist()
        picked = pairs + [j + n for j in pairs]
        rows = list(picked)
        if rank_of(rows) < k:
            for i in gen.permutation(2 * n).tolist():
                if i not in picked and rank_of(rows + [i]) > rank_of(rows):
                    rows.append(i)
                    if rank_of(rows) == k:
                        break
            if rank_of(rows) < k:
                continue
        x = solve(*_ref_sub(inst, rows))
        if x is None:
            continue  # the picked rows disagree
        found = _ref_outcome(inst, x, threshold)
        if found:
            return (True, *found, it)
    return (False, None, None, max_iters)


def _reference_instance(shape, n, k, p, seed):
    rng = Rng(seed)
    if shape == "lpn":
        return gen_lpn(rng, k, 2 * n, p, structured=True)
    if shape == "lpn_wide":  # 8 x 16: never full column rank
        return gen_lpn(rng, 16, 8, p, structured=True)
    if shape == "lpn_uniform":
        return gen_lpn(rng, k, 2 * n, p, structured=False)
    if shape == "symplpn":
        return gen_symplpn(rng, k, n, p, structured=True)
    if shape == "lsn":
        return gen_lsn(rng, max(1, k // 2), n, p)
    if shape == "no_columns":
        return Instance(InstanceKind.LPN, BitMat.zeros(2 * n, 0), rng.bits(2 * n), 0, n, p)
    # rank deficient: the last column repeats the first
    inst = gen_symplpn(rng, max(2, k), n, p, structured=True)
    cols = inst.matrix.transpose().rows
    matrix = BitMat(len(cols), 2 * n, cols[:-1] + cols[:1]).transpose()
    return Instance(inst.kind, matrix, inst.word, inst.k, n, p)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    algo=st.sampled_from(["prange", "pair"]),
    shape=st.sampled_from(["lpn", "lpn_wide", "lpn_uniform", "symplpn", "lsn", "no_columns", "deficient"]),
    n=st.integers(2, 32),
    k_frac=st.floats(0.0, 1.0),
    p=st.sampled_from([0.0, 0.02, 0.1, 0.25]),
    seed=st.integers(0, 2**32 - 1),
    max_iters=st.sampled_from([0, 1, 5, 40]),
    threshold=st.sampled_from([None, -1, 0, 2, 5]),
)
@example(algo="prange", shape="deficient", n=6, k_frac=1.0, p=0.0, seed=1, max_iters=5, threshold=None)
@example(algo="pair", shape="deficient", n=6, k_frac=0.5, p=0.0, seed=2, max_iters=5, threshold=None)
@example(algo="prange", shape="lpn_wide", n=4, k_frac=0.5, p=0.0, seed=3, max_iters=40, threshold=None)
@example(algo="pair", shape="lpn_wide", n=4, k_frac=0.5, p=0.0, seed=4, max_iters=40, threshold=None)
@example(algo="prange", shape="no_columns", n=5, k_frac=0.0, p=0.1, seed=5, max_iters=40, threshold=2)
@example(algo="pair", shape="no_columns", n=5, k_frac=0.0, p=0.1, seed=6, max_iters=40, threshold=2)
@example(algo="pair", shape="symplpn", n=16, k_frac=1.0, p=0.0, seed=7, max_iters=1, threshold=None)
@example(algo="pair", shape="lsn", n=12, k_frac=0.5, p=0.25, seed=8, max_iters=40, threshold=-1)
def test_isd_matches_plain_reference(algo, shape, n, k_frac, p, seed, max_iters, threshold):
    k = max(1, round(k_frac * n))
    inst = _reference_instance(shape, n, k, p, seed)
    attack, reference = (prange_isd, reference_prange) if algo == "prange" else (pair_aware_isd, reference_pair_aware)
    rng, twin = Rng(seed ^ 0x5EED), Rng(seed ^ 0x5EED)
    res = attack(rng, inst, max_iters, threshold)
    assert (res.success, res.secret, res.error, res.iterations) == reference(twin, inst, max_iters, threshold)
    assert rng.bits(64) == twin.bits(64)


def _attack_both(inst, seed, max_iters=60):
    """prange then pair-aware on one instance from one Rng: every result field
    but the wall time, and the next draw."""
    rng = Rng(seed)
    runs = [attack(rng, inst, max_iters) for attack in (prange_isd, pair_aware_isd)]
    return [(r.success, r.secret, r.error, r.iterations) for r in runs], rng.bits(64)


@pytest.mark.parametrize("shape", ["symplpn", "lpn", "deficient"])
def test_isd_code_form_cache_is_invisible_and_reused(shape):
    inst = _reference_instance(shape, 12, 8, 0.05, 31)
    m = inst.matrix
    twin = BitMat(m.nrows, m.ncols, list(m.rows))  # equal, not the same object
    assert twin == m and twin.rows is not m.rows
    other = Instance(inst.kind, twin, inst.word ^ Rng(32).bits(m.nrows), inst.k, inst.n, inst.p)

    _code_form.cache_clear()
    cold = _attack_both(inst, 7)
    # pair-aware reused the form that prange built
    assert (_code_form.cache_info().misses, _code_form.cache_info().hits) == (1, 1)
    warm_other = _attack_both(other, 8)
    assert _attack_both(inst, 7) == cold
    assert (_code_form.cache_info().misses, _code_form.cache_info().hits) == (1, 5)
    _code_form.cache_clear()
    assert _attack_both(other, 8) == warm_other
    assert _code_form.cache_info().misses == 1


# -- code distance ----------------------------------------------------------------


def test_min_distance_identity_block():
    code = BitMat.from_cols([BitVec.unit(8, 0), BitVec.unit(8, 1)])
    assert min_distance(code) == 1
    assert min_distance(code, pair_metric=True) == 1


def test_min_distance_repetition():
    ones = BitVec.from_bits([1] * 8)
    code = BitMat.from_cols([ones])
    assert min_distance(code) == 8
    assert min_distance(code, pair_metric=True) == 4


def test_min_distance_matches_enumeration():
    rng = Rng(17)
    for _ in range(20):
        n, k = 4, 3
        code = sample_isotropic(rng, n, k)
        arr = code.to_numpy()
        best_plain = 99
        best_pair = 99
        for xi in range(1, 1 << k):
            x = np.array([(xi >> j) & 1 for j in range(k)], dtype=np.uint8)
            word = naive_matvec(arr, x)
            if word.any():
                best_plain = min(best_plain, int(word.sum()))
                best_pair = min(best_pair, int(np.sum((word[:n] | word[n:]) > 0)))
        assert min_distance(code) == best_plain
        assert min_distance(code, pair_metric=True) == best_pair


def test_min_distance_random_isotropic_rarely_tiny():
    rng = Rng(18)
    n = 8
    good = 0
    samples = 50
    for _ in range(samples):
        code = sample_isotropic(rng, n, n)
        good += min_distance(code, pair_metric=True) > 0.1 * n
    assert good >= 0.9 * samples


def test_min_distance_guards():
    with pytest.raises(ValueError):
        min_distance(BitMat.zeros(4, 0))
    with pytest.raises(ValueError):
        min_distance(BitMat.zeros(3, 1), pair_metric=True)


# -- dot-product weight bound ------------------------------------------------------


def test_eta_weight_edges():
    assert eta_weight(0, 0.3) == 0.0
    assert eta_weight(2, 0.75) == 0.5
    assert eta_weight(7, 0.75) == 0.5


def test_eta_weight_guards():
    with pytest.raises(ValueError):
        eta_weight(-1, 0.1)
    with pytest.raises(ValueError):
        eta_weight(2, 0.8)


def test_eta_weight_bounds_dot_product():
    # Pr[b . e = 1] lies in [eta(|b|, p), 1/2] for fixed b and pair noise e
    rng = Rng(19)
    n, p = 8, 0.2
    samples = 1_000_000
    big = sample_depolarizing(rng, n * samples, p)
    arr = big.to_numpy()
    lo = arr[: n * samples].reshape(samples, n)
    hi = arr[n * samples :].reshape(samples, n)
    for _ in range(5):
        b = rng.bits(2 * n)
        if b.is_zero():
            continue
        bl = np.array(b.bits()[:n], dtype=np.uint8)
        bh = np.array(b.bits()[n:], dtype=np.uint8)
        dots = (lo @ bl + hi @ bh) % 2
        rate = float(dots.mean())
        assert eta_weight(b.weight(), p) - 0.002 <= rate <= 0.5 + 0.002
