"""Tests for the instance reductions, with exhaustive oracles at small sizes."""
import dataclasses
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from pair_vectors import from_pairs, pairs
from slpn import diagnostics
from slpn.attacks import brute_force_search, make_brute_oracle, make_coin_oracle
from slpn.gf2 import (
    BitMat,
    BitVec,
    is_isotropic,
    rank,
    symp_inner,
    symp_vec_mat,
)
from slpn.harness import empirical_tv
from slpn.reductions import (
    Branch,
    Decision,
    HyperplaneDimensionError,
    ReductionReport,
    convolve_param,
    default_flood_count,
    drop_bit_transform,
    dual_mode_transform,
    interpolation_select,
    lpn_drop_bits,
    lsn_to_symplpn,
    measure_drop_bit,
    measure_lsn_reduction,
    symmetrize_noise,
)
from slpn.sampling import Instance, InstanceKind, Rng, gen_lpn, gen_lsn, gen_symplpn


# -- convolution of pair noise -------------------------------------------------


def pair_dist(p):
    return [1 - p, p / 3, p / 3, p / 3]


def convolve_pair(d1, d2):
    """Exhaustive single-pair convolution: outcomes XOR as 2-bit patterns."""
    out = [0.0] * 4
    for a, b in itertools.product(range(4), range(4)):
        out[a ^ b] += d1[a] * d2[b]
    return out


def test_convolve_param_edges():
    assert convolve_param(0.2, 0.2) == 0.0
    assert convolve_param(0.0, 0.4) == 0.4
    assert convolve_param(0.75, 0.75) == 0.0


def test_convolve_param_exact_over_grid():
    for i in range(20):
        p = 0.75 * i / 20
        for j in range(20):
            q = p + (0.75 - p) * j / 19
            u = convolve_param(p, q)
            got = convolve_pair(pair_dist(p), pair_dist(u))
            want = pair_dist(q)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_convolve_param_composes():
    p, q, r = 0.1, 0.3, 0.6
    d = convolve_pair(pair_dist(p), pair_dist(convolve_param(p, q)))
    d = convolve_pair(d, pair_dist(convolve_param(q, r)))
    assert max(abs(g - w) for g, w in zip(d, pair_dist(r))) < 1e-12


def test_convolve_param_domain():
    with pytest.raises(ValueError):
        convolve_param(0.8, 0.8)
    with pytest.raises(ValueError):
        convolve_param(0.3, 0.2)


# -- noise symmetrization --------------------------------------------------------


from exact_laws import depolarizing_law, exact_symmetrized_distribution


def pair_codes(v):
    return tuple(a | (b << 1) for a, b in pairs(v))


def test_symmetrize_all_pairs_noisy_is_uniform_overlay():
    # m = n: every pair is flooded with a uniform pattern
    n = 3
    rng = Rng(60)
    counts = Counter()
    base = from_pairs([(1, 1), (0, 1), (1, 0)])
    for _ in range(40_000):
        out, _ = symmetrize_noise(rng, base, range(n), n)
        counts[pair_codes(out)] += 1
    assert len(counts) == 64
    assert chisquare(list(counts.values())).pvalue > 0.001


def test_symmetrize_matches_exact_enumeration():
    # n = 4, m = 2: empirical law equals the enumerated law of the pipeline
    n, m = 4, 2
    rng = Rng(61)
    counts = Counter()
    trials = 200_000
    for _ in range(trials):
        noise = from_pairs(
            [(rng.bit(), rng.bit()), (rng.bit(), rng.bit()), (0, 0), (0, 0)]
        )
        out, _ = symmetrize_noise(rng, noise, [0, 1], n)
        counts[pair_codes(out)] += 1
    exact = {k: float(v) for k, v in exact_symmetrized_distribution(n, m).items()}
    # sampling-noise floor at 200k draws over 256 outcomes is about 0.014
    assert empirical_tv(counts, exact) < 0.02
    # the known gap to ideal pair noise at this size: exactly 11/128
    ideal = {k: float(v) for k, v in depolarizing_law(n, Fraction(m, n)).items()}
    gap = empirical_tv(exact, ideal)
    assert abs(gap - 11 / 128) < 1e-9


def test_symmetrize_moves_pairs_together():
    n = 4
    rng = Rng(62)
    for _ in range(200):
        noise = from_pairs([(1, 1), (1, 0), (0, 0), (0, 0)])
        out, perm = symmetrize_noise(rng, noise, [0, 1], n)
        assert sorted(perm) == list(range(n))
        assert isinstance(out, BitVec) and out.nbits == 2 * n


def test_symmetrize_resample_counter():
    diagnostics.reset("reductions.symmetrize_resample")
    rng = Rng(63)
    for _ in range(2000):
        symmetrize_noise(rng, BitVec.zeros(8), [0, 1], 4)
    # T < m happens with probability 1/9 per draw at n=4, m=2
    assert diagnostics.value("reductions.symmetrize_resample") > 100


class _ScriptedRng:
    """Stands in for an Rng in ``symmetrize_noise``: a fixed binomial draw T,
    a fixed permutation and a given overlay for the bits(2T) draw."""

    def __init__(self, t, perm, overlay):
        self.t, self.perm, self.overlay = t, perm, overlay

    def binomial(self, n, p):
        return self.t

    def permutation(self, n):
        return self.perm

    def bits(self, count):
        return BitVec(count, self.overlay)


def test_symmetrize_overlay_absorbs_noise_on_the_noisy_pairs():
    # for fixed T and permutation the overlay runs over all 4^T values, so
    # the outputs form the same multiset whatever the input held on the
    # chosen pairs, which include the noisy ones; drop_bit_transform adds no
    # noise of its own there because of this
    n, noisy, perm = 4, [1, 3], (2, 0, 3, 1)
    vec = from_pairs([(1, 0), (0, 1), (1, 1), (0, 1)])

    def outputs(t, v):
        return Counter(
            symmetrize_noise(_ScriptedRng(t, perm, o), v, noisy, n)[0].value
            for o in range(4**t)
        )

    for t in range(len(noisy), n + 1):
        base = outputs(t, vec)
        for x1, x3 in itertools.product(range(4), repeat=2):
            x = from_pairs([(0, 0), (x1 & 1, x1 >> 1), (0, 0), (x3 & 1, x3 >> 1)])
            assert outputs(t, vec ^ x) == base
    # at T = 3 the chosen pairs are 0, 1 and 3: noise on pair 2 shows
    assert outputs(3, vec ^ from_pairs([(0, 0), (0, 0), (1, 0), (0, 0)])) != outputs(3, vec)


# -- logical-part guesser --------------------------------------------------------


def test_lsn_guesser_perfect_oracle_zero_y():
    rng = Rng(64)
    k, n = 2, 4
    for _ in range(40):
        inst = gen_lsn(rng, k, n, 0.0, keep_witness=True)
        y = inst.witness.secret.sub(n, n + k)
        zero_y = dataclasses.replace(
            inst, word=inst.word ^ inst.lsn_b_part().matvec(y), witness=None
        )
        oracle = make_brute_oracle(weight_threshold=0)
        assert lsn_to_symplpn(rng, zero_y, oracle) == BitVec.zeros(k)


def test_lsn_guesser_forced_correct_at_k1():
    rng = Rng(65)
    rep = measure_lsn_reduction(rng, make_brute_oracle(), k=1, n=4, p=0.1, trials=400)
    assert rep.details["success_rate"] >= 0.7


def test_lsn_guesser_coin_oracle_is_baseline():
    rng = Rng(66)
    rep = measure_lsn_reduction(
        rng, make_coin_oracle(rng.split(1)), k=2, n=3, p=0.1, trials=1500
    )
    # coin oracle: correct w.p. 1/2 * 1/4 + 1/2 * 1/3 * 3/4 = 0.25
    assert abs(rep.details["success_rate"] - 0.25) < 0.05


def test_reduction_report_validates():
    with pytest.raises(ValueError):
        ReductionReport(10, 11, 0.0, 0.0, 0.0)


# -- one-logical-bit drop ---------------------------------------------------------


def test_drop_bit_structural():
    rng = Rng(67)
    for n in (2, 4, 6):
        for branch in (Branch.PLAIN, Branch.FLOODED):
            done = 0
            while done < 30:
                inst = gen_symplpn(rng, n, n, 0.1, structured=(done % 2 == 0))
                try:
                    out = drop_bit_transform(rng, inst, branch)
                except HyperplaneDimensionError:
                    continue
                done += 1
                assert out.kind is InstanceKind.SYMPLPN
                assert out.matrix.nrows == 2 * n and out.matrix.ncols == n - 1
                assert rank(out.matrix) == n - 1
                assert is_isotropic(out.matrix)
                assert out.k == n - 1 and 0 < out.p <= 0.75 + 1e-12


def test_drop_bit_rejects_wrong_shape():
    rng = Rng(68)
    inst = gen_symplpn(rng, 2, 4, 0.1, structured=True)
    with pytest.raises(ValueError):
        drop_bit_transform(rng, inst, Branch.PLAIN)


def test_drop_bit_unstructured_stays_uniform():
    # light version of the acceptance run: chi-square over all 2^8 words at n = 4
    rng = Rng(69)
    counts = Counter()
    trials = 60_000
    done = 0
    while done < trials:
        inst = gen_symplpn(rng, 4, 4, 0.1, structured=False)
        try:
            out = drop_bit_transform(rng, inst, Branch.PLAIN)
        except HyperplaneDimensionError:
            continue
        counts[out.word.value] += 1
        done += 1
    assert len(counts) == 256
    assert chisquare(list(counts.values())).pvalue > 0.001


def test_drop_bit_good_event_structured_decodes():
    # structured inputs whose first noise pair is clean produce decodable outputs
    rng = Rng(70)
    n, p, m = 4, 0.05, 1
    ok = 0
    total = 0
    while total < 300:
        inst = gen_symplpn(rng, n, n, p, structured=True, keep_witness=True)
        e = inst.witness.error
        if e.bit(0) or e.bit(n):
            continue
        try:
            out = drop_bit_transform(rng, inst.without_witness(), Branch.PLAIN, m=m)
        except HyperplaneDimensionError:
            continue
        total += 1
        _, err = brute_force_search(out)
        weight = sum(
            1 for j in range(n) if (err.value >> j | err.value >> (n + j)) & 1
        )
        ok += weight <= 2 * n * out.p
    assert ok / total > 0.8


def test_drop_bit_structured_output_law_at_n2():
    # at n = 2 the joint (matrix, word) outcome space is enumerable (15 x 16);
    # structured outputs must sit closer to the structured target law at the
    # transformed rate than to the uniform-word law. The residual distance to
    # the target is the reduction's finite-size slack at this degenerate size
    # (the flood covers half of the two pairs).
    rng = Rng(78)
    n, p = 2, 0.1
    counts = Counter()
    trials = 100_000
    p_out = None
    done = 0
    while done < trials:
        inst = gen_symplpn(rng, n, n, p, structured=True)
        try:
            out = drop_bit_transform(rng, inst, Branch.PLAIN)
        except HyperplaneDimensionError:
            continue
        p_out = out.p
        counts[(out.matrix.rows, out.word.value)] += 1
        done += 1

    def pair_prob(v, q):
        pr = 1.0
        for j in range(n):
            pat = ((v >> j) & 1) | (((v >> (n + j)) & 1) << 1)
            pr *= (1 - q) if pat == 0 else q / 3
        return pr

    target = {}
    for b in range(1, 16):
        rows = tuple((b >> i) & 1 for i in range(4))
        for w in range(16):
            pr = sum(0.5 * pair_prob(w ^ (b if x else 0), p_out) for x in (0, 1))
            target[(rows, w)] = pr / 15
    uniform = {(rows, w): 1.0 for rows in {k[0] for k in target} for w in range(16)}
    tv_target = empirical_tv(counts, target)
    tv_uniform = empirical_tv(counts, uniform)
    assert tv_target < tv_uniform
    assert tv_target < 0.15


def test_drop_bit_advantage_with_brute_oracle():
    rng = Rng(71)
    oracle = make_brute_oracle(weight_threshold=1)
    rep = measure_drop_bit(rng, oracle, n=4, p=0.05, branch=Branch.PLAIN, trials=1200, m=1)
    assert rep.branch is Branch.PLAIN
    assert rep.advantage > 0.15
    assert rep.details["p_structured"] > rep.details["p_unstructured"]


def test_interpolation_select():
    plain = ReductionReport(100, 60, 0.1, 0.0, 0.2, Branch.PLAIN)
    flooded = ReductionReport(100, 55, 0.01, 0.0, 0.1, Branch.FLOODED)
    assert interpolation_select(plain, flooded) is Branch.PLAIN
    assert interpolation_select(flooded, plain) is Branch.FLOODED  # larger wins
    tie = ReductionReport(100, 55, 0.1, 0.0, 0.2, Branch.FLOODED)
    assert interpolation_select(tie, plain) is Branch.PLAIN  # deterministic tie-break


def test_flood_count_clamp():
    assert default_flood_count(4, 0.1) <= 3
    assert default_flood_count(1024, 0.1) == math.ceil(100 / (1 - 0.4 / 3))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_drop_bit_accepts_the_largest_flood_count(n):
    rng = Rng(79)
    top = (3 * n) // 4
    done = 0
    while done < 5:
        inst = gen_symplpn(rng, n, n, 0.05, structured=True)
        try:
            out = drop_bit_transform(rng, inst, Branch.FLOODED, m=top)
        except HyperplaneDimensionError:
            continue
        assert out.p <= 0.75
        done += 1


@pytest.mark.parametrize("n", [2, 4, 8])
def test_drop_bit_refuses_flood_counts_out_of_range_before_any_draw(n):
    oracle = make_brute_oracle()
    for m in (0, (3 * n) // 4 + 1):
        rng, twin = Rng(80), Rng(80)
        inst = gen_symplpn(rng, n, n, 0.05, structured=True)
        gen_symplpn(twin, n, n, 0.05, structured=True)
        with pytest.raises(ValueError, match=f"m = {m} "):
            drop_bit_transform(rng, inst, Branch.FLOODED, m=m)
        with pytest.raises(ValueError, match=f"m = {m} "):
            measure_drop_bit(rng, oracle, n, 0.05, Branch.PLAIN, trials=2, m=m)
        assert rng.bits(64) == twin.bits(64)


@pytest.mark.parametrize("p", [0.75, 0.9, 1.0])
def test_drop_bit_refuses_p_from_three_quarters_before_any_draw(p):
    # at p = 3/4 the default flood count divides by 1 - 4p/3 = 0; above it
    # the clamped count would report an output rate below p
    n = 4
    rng, twin = Rng(81), Rng(81)
    inst = gen_symplpn(rng, n, n, p, structured=True)
    gen_symplpn(twin, n, n, p, structured=True)
    with pytest.raises(ValueError, match=f"p = {p}"):
        drop_bit_transform(rng, inst, Branch.FLOODED)
    with pytest.raises(ValueError, match=f"p = {p}"):
        measure_drop_bit(rng, make_brute_oracle(), n, p, Branch.PLAIN, trials=2)
    assert rng.bits(64) == twin.bits(64)


# -- dual-mode transform ----------------------------------------------------------


def test_dual_mode_structured_identity():
    rng = Rng(72)
    for n in (3, 4, 6):
        for _ in range(40):
            inst = gen_symplpn(rng, n - 1, n, 0.1, structured=True, keep_witness=True)
            h, w = dual_mode_transform(rng, inst)
            assert h.nrows == 2 * n and h.ncols == n + 1
            assert rank(h) == n + 1
            f = inst.witness.error
            assert w == symp_vec_mat(f, h)
            # every column of h pairs to zero with the whole code
            for j in range(h.ncols):
                for c in range(inst.matrix.ncols):
                    assert symp_inner(h.col(j), inst.matrix.col(c)) == 0


def test_dual_mode_unstructured_uniform():
    rng = Rng(73)
    n = 3
    counts = Counter()
    for _ in range(30_000):
        inst = gen_symplpn(rng, n - 1, n, 0.1, structured=False)
        _, w = dual_mode_transform(rng, inst)
        counts[w.value] += 1
    assert len(counts) == 1 << (n + 1)
    assert chisquare(list(counts.values())).pvalue > 0.001


def _dual_mode_digest(n, seeds):
    # (h, w) on structured and uniform words over fixed seeds, each followed
    # by the next 64-bit draw: a draw of another width, or another accepted
    # draw, changes h or shifts what comes after
    out = []
    for seed in range(seeds):
        rng = Rng(900 + seed)
        inst = gen_symplpn(rng, n - 1, n, 0.1, structured=seed % 2 == 0)
        h, w = dual_mode_transform(rng, inst)
        assert h == BitMat(h.nrows, h.ncols, h.rows)  # built unmasked from fitting columns
        out.append((h.to_hex(), w.to_hex(), rng.bits(64).to_hex()))
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, digest",
    [(3, "a34c719585e96749"), (4, "251b62b517d8b194"), (8, "74cab1b5d476b78a")],
    ids=["n3", "n4", "n8"],
)
def test_dual_mode_golden_stream(n, digest):
    assert _dual_mode_digest(n, 12) == digest


def test_dual_mode_golden_stream_packed():
    # 2n = 192 runs on the word-packed dual: one structured and one uniform word
    assert _dual_mode_digest(96, 2) == "f4ecf9586047405a"


def test_dual_mode_rejects_wrong_shape():
    rng = Rng(74)
    inst = gen_symplpn(rng, 3, 3, 0.1, structured=True)
    with pytest.raises(ValueError):
        dual_mode_transform(rng, inst)


# -- parity-instance column drop --------------------------------------------------


def test_lpn_drop_zero_tail_always_structured():
    rng = Rng(75)
    k, kp, nrows = 4, 2, 16
    oracle = make_brute_oracle(weight_threshold=0)
    for _ in range(30):
        a = rng.bitmat(nrows, k)
        x = rng.bits(k - kp).concat(BitVec.zeros(kp))
        inst = Instance(InstanceKind.LPN, a, a.matvec(x), k=k, n=nrows, p=0.0)
        assert lpn_drop_bits(inst, kp, oracle) is Decision.STRUCTURED


def test_lpn_drop_nonzero_tail_word_uniform():
    rng = Rng(76)
    k, kp, nrows = 2, 1, 3
    counts = Counter()
    for _ in range(24_000):
        a = rng.bitmat(nrows, k)
        x = rng.bits(k - kp).concat(BitVec(kp, 1))
        inst = Instance(InstanceKind.LPN, a, a.matvec(x), k=k, n=nrows, p=0.0)
        counts[inst.word.value] += 1
    assert len(counts) == 8
    assert chisquare(list(counts.values())).pvalue > 0.001


def test_lpn_drop_advantage_scales_with_tail():
    rng = Rng(77)
    k, nrows, p = 4, 16, 0.05
    oracle = make_brute_oracle()

    def oracle_rates(kk, trials=1200):
        say = [0, 0]
        for i in range(trials):
            inst = gen_lpn(rng, kk, nrows, p, structured=(i % 2 == 0))
            say[i % 2 == 0] += oracle(inst) is Decision.STRUCTURED
        return say[True] / (trials / 2), say[False] / (trials / 2)

    for kp in (1, 2):
        q0, q1 = oracle_rates(k - kp)
        delta = q0 - q1
        say = [0, 0]
        trials = 3000
        for i in range(trials):
            inst = gen_lpn(rng, k, nrows, p, structured=(i % 2 == 0))
            say[i % 2 == 0] += lpn_drop_bits(inst, kp, oracle) is Decision.STRUCTURED
        measured = say[True] / (trials / 2) - say[False] / (trials / 2)
        assert abs(measured - delta / (1 << kp)) < 0.06
