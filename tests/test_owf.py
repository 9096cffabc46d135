"""Tests for the one-way-function family."""
import dataclasses
import itertools
import math

import pytest

from slpn.attacks import min_distance
from pair_vectors import from_pairs
from slpn.gf2 import BitMat, BitVec, is_isotropic, pair_weight_int, rank
from slpn.owf import (
    OwfIndex,
    OwfInput,
    owf_eval,
    owf_gen,
    owf_sample,
    owf_verify_preimage,
    qgv_predicate,
    weight_cap,
)
from slpn.sampling import Rng, gen_lsn


def test_owf_gen_structure():
    rng = Rng(1)
    for k, n in [(1, 3), (2, 4), (4, 4)]:
        idx = owf_gen(rng, k, n, 0.1)
        assert is_isotropic(idx.a)
        assert is_isotropic(idx.b)
        assert rank(idx.joint()) == n + k


def test_owf_gen_reproducible():
    a = owf_gen(Rng(42), 2, 5, 0.1)
    b = owf_gen(Rng(42), 2, 5, 0.1)
    assert a.joint() == b.joint()


def test_owf_gen_rejects_large_k():
    with pytest.raises(ValueError):
        owf_gen(Rng(0), 5, 4, 0.1)


def test_weight_cap_floor():
    idx = owf_gen(Rng(1), 2, 6, 0.05)
    assert weight_cap(idx) == 0  # floor(2.01 * 6 * 0.05) = floor(0.603)
    idx2 = owf_gen(Rng(1), 2, 6, 0.12)
    assert weight_cap(idx2) == 1


def test_owf_sample_zero_noise():
    rng = Rng(2)
    idx = dataclasses.replace(owf_gen(rng, 2, 4, 0.3), p=0.0)
    for _ in range(10):
        x = owf_sample(rng, idx)
        assert x.e.is_zero()


def test_owf_sample_respects_cap_always():
    rng = Rng(3)
    idx = owf_gen(rng, 2, 8, 0.3)
    cap = weight_cap(idx)
    replaced = 0
    for _ in range(500):
        x = owf_sample(rng, idx)
        assert pair_weight_int(x.e.value, idx.n) <= cap
        replaced += x.e.is_zero()
    assert replaced >= 1  # at p = 0.3 the cap bites sometimes


def test_owf_sample_cap_replacement_rare_at_scale():
    # Chernoff regime: cap 2.01 * n * p far above the mean n * p
    rng = Rng(4)
    idx = owf_gen(rng, 8, 256, 0.1)
    cap = weight_cap(idx)
    replaced = 0
    trials = 400
    for _ in range(trials):
        x = owf_sample(rng, idx)
        assert pair_weight_int(x.e.value, idx.n) <= cap
        replaced += x.e.is_zero()
    assert replaced / trials <= 0.01


def test_owf_eval_zero_input():
    rng = Rng(5)
    idx = owf_gen(rng, 2, 4, 0.1)
    zero = OwfInput(BitVec.zeros(4), BitVec.zeros(2), BitVec.zeros(8))
    assert owf_eval(idx, zero).is_zero()


def test_owf_eval_linear():
    rng = Rng(6)
    idx = owf_gen(rng, 3, 5, 0.1)
    for _ in range(30):
        x1 = owf_sample(rng, idx)
        x2 = owf_sample(rng, idx)
        joint = OwfInput(x1.r ^ x2.r, x1.y ^ x2.y, x1.e ^ x2.e)
        assert owf_eval(idx, joint) == owf_eval(idx, x1) ^ owf_eval(idx, x2)


def test_owf_eval_dimension_guard():
    rng = Rng(7)
    idx = owf_gen(rng, 2, 4, 0.1)
    with pytest.raises(ValueError):
        owf_eval(idx, OwfInput(BitVec.zeros(3), BitVec.zeros(2), BitVec.zeros(8)))
    with pytest.raises(ValueError):
        owf_eval(idx, OwfInput(BitVec.zeros(4), BitVec.zeros(2), BitVec.zeros(6)))


def test_owf_verify_preimage_checks_dimensions_before_the_cap():
    # a 10-bit e at n=4: over the cap or not, the wrong length raises
    idx = owf_gen(Rng(7), 2, 4, 0.1)
    target = BitVec.zeros(8)
    for e in (BitVec(10, (1 << 10) - 1), BitVec.zeros(10)):
        with pytest.raises(ValueError, match="dimensions"):
            owf_verify_preimage(idx, OwfInput(BitVec.zeros(4), BitVec.zeros(2), e), target)


def test_owf_eval_reproduces_instance_word():
    # evaluating a generator witness gives back that instance's word
    rng = Rng(8)
    for _ in range(20):
        inst = gen_lsn(rng, 2, 5, 0.1, keep_witness=True)
        idx = OwfIndex(5, 2, 0.1, inst.lsn_a_part(), inst.lsn_b_part())
        secret = inst.witness.secret
        x = OwfInput(secret.sub(0, 5), secret.sub(5, 7), inst.witness.error)
        assert owf_eval(idx, x) == inst.word


def test_owf_verify_preimage():
    rng = Rng(9)
    idx = owf_gen(rng, 2, 6, 0.12)
    x = owf_sample(rng, idx)
    img = owf_eval(idx, x)
    assert owf_verify_preimage(idx, x, img)
    # over-cap error fails the domain check even when the algebra matches
    heavy = from_pairs([(1, 1)] * 6)
    shifted = OwfInput(x.r, x.y, x.e ^ heavy)
    target = owf_eval(idx, shifted)
    assert not owf_verify_preimage(idx, shifted, target)


def test_owf_brute_force_inversion_verifies():
    # exhaustive inverter at tiny size: search all (r, y, e) under the cap
    rng = Rng(10)
    idx = owf_gen(rng, 1, 3, 0.2)
    cap = weight_cap(idx)
    x = owf_sample(rng, idx)
    img = owf_eval(idx, x)
    found = None
    for rv, yv in itertools.product(range(8), range(2)):
        cand_r = BitVec(3, rv)
        cand_y = BitVec(1, yv)
        e = img ^ idx.a.matvec(cand_r) ^ idx.b.matvec(cand_y)
        if pair_weight_int(e.value, 3) <= cap:
            found = OwfInput(cand_r, cand_y, e)
            break
    assert found is not None
    assert owf_verify_preimage(idx, found, img)


def test_owf_roundtrip_serialization():
    rng = Rng(11)
    idx = owf_gen(rng, 2, 4, 0.1)
    assert OwfIndex.from_json(idx.to_json()).joint() == idx.joint()
    x = owf_sample(rng, idx)
    back = OwfInput.from_json(x.to_json())
    assert back.r == x.r and back.y == x.y and back.e == x.e


def test_qgv_predicate_values():
    assert qgv_predicate(1e-9, 0.5)
    assert not qgv_predicate(0.5, 0.5)  # H2(1/2) + 0.5 log2 3 = 1.79 > 0.5
    with pytest.raises(ValueError):
        qgv_predicate(0.0, 0.5)
    with pytest.raises(ValueError):
        qgv_predicate(0.2, 1.0)


def test_qgv_predicate_boundary():
    # the predicate flips exactly where H2(d) + d log2(3) = 1 - rate
    rate = 0.25
    lo, hi = 1e-6, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if qgv_predicate(mid, rate):
            lo = mid
        else:
            hi = mid
    boundary = (lo + hi) / 2
    h2 = -boundary * math.log2(boundary) - (1 - boundary) * math.log2(1 - boundary)
    assert abs(h2 + boundary * math.log2(3.0) - (1 - rate)) < 1e-9
    assert qgv_predicate(boundary * 0.99, rate)
    assert not qgv_predicate(min(0.999, boundary * 1.01), rate)


def errors_up_to_pair_weight(n, cap):
    out = [BitVec.zeros(2 * n)]
    if cap >= 1:
        for j in range(n):
            for pat in (1, 2, 3):
                pairs = [(0, 0)] * n
                pairs[j] = (pat & 1, pat >> 1)
                out.append(from_pairs(pairs))
    if cap >= 2:
        raise NotImplementedError("only caps 0 and 1 are enumerated here")
    return out


def unique_logical_part_per_image(idx) -> bool:
    n, k = idx.n, idx.k
    errors = errors_up_to_pair_weight(n, weight_cap(idx))
    images = {}
    for rv in range(1 << n):
        for yv in range(1 << k):
            base = idx.a.matvec(BitVec(n, rv)) ^ idx.b.matvec(BitVec(k, yv))
            for e in errors:
                img = (base ^ e).value
                prev = images.get(img)
                if prev is not None and prev != yv:
                    return False
                images[img] = yv
    return True


def test_unique_preimage_at_exhaustive_scale():
    # indices whose joint code clears twice the cap in pair distance give a
    # unique logical part per image
    rng = Rng(12)
    n, k, p = 6, 2, 0.05
    for _ in range(5):
        idx = owf_gen(rng, k, n, p)
        cap = weight_cap(idx)
        assert cap == 0
        assert min_distance(idx.joint(), pair_metric=True) > 2 * cap
        assert unique_logical_part_per_image(idx)


def test_uniqueness_checker_catches_low_distance_index():
    # crafted index with a pair-weight-2 codeword in the b part: the distance
    # precondition rejects it and the uniqueness check indeed fails at cap 1
    n, k, p = 6, 1, 0.12
    a = BitMat.from_cols([BitVec.unit(2 * n, j) for j in range(n)], nrows=2 * n)
    b = BitMat.from_cols([BitVec.unit(2 * n, n) ^ BitVec.unit(2 * n, n + 1)], nrows=2 * n)
    idx = OwfIndex(n, k, p, a, b)
    assert weight_cap(idx) == 1
    assert min_distance(idx.joint(), pair_metric=True) <= 2 * weight_cap(idx)
    assert not unique_logical_part_per_image(idx)

