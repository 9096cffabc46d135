"""Tests for the one-bit public-key scheme and its correctness formulas."""
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from pair_vectors import from_pairs
from slpn.gf2 import BitVec, solve, symp_inner, symp_vec_mat
from slpn.pke import (
    Ciphertext,
    PublicKey,
    SecretKey,
    dec,
    decrypt_bits,
    enc,
    enc_traced,
    encrypt_bits,
    gen,
    gen_traced,
    matched_noise,
    pick_p_for_success,
    predict_success,
)
from slpn.sampling import Rng, sample_depolarizing
from slpn.supke import su_enc, su_enc_traced, su_gen


def depolarizing_pair_probs(p):
    return {0: 1 - p, 1: p / 3, 2: p / 3, 3: p / 3}


def exhaustive_success_probability(n, p):
    """Independent oracle: sum Pr[e] Pr[f] over all single-pair outcomes, n times.

    Per pair, P(f * e = 1) is the same for every pair, and the parity of the
    sum decides success; enumerate the 4 x 4 outcomes per pair and convolve.
    """
    probs = depolarizing_pair_probs(p)
    odd = 0.0
    for a, b in itertools.product(range(4), range(4)):
        u = from_pairs([(a & 1, a >> 1)])
        w = from_pairs([(b & 1, b >> 1)])
        if symp_inner(u, w):
            odd += probs[a] * probs[b]
    p_even = 1.0
    p_odd = 0.0
    for _ in range(n):
        p_even, p_odd = p_even * (1 - odd) + p_odd * odd, p_even * odd + p_odd * (1 - odd)
    return p_even


# -- key generation -----------------------------------------------------------


def test_gen_rejects_bad_p():
    with pytest.raises(ValueError):
        gen(Rng(0), 8, 0.0)
    with pytest.raises(ValueError):
        gen(Rng(0), 8, 1.0)


def test_keygen_zero_noise_limit_b_in_image():
    # p -> 0 limit is exercised through tiny p: with n small, e = 0 happens often
    rng = Rng(1)
    pk, sk, e = gen_traced(rng, 6, 1e-9)
    assert e.is_zero()
    assert solve(pk.a, pk.b) is not None


def test_keygen_witness_identity():
    rng = Rng(2)
    for _ in range(25):
        pk, sk, e = gen_traced(rng, 8, 0.2)
        assert pk.b ^ pk.a.matvec(sk.x) == e


def test_key_serialization_roundtrip():
    rng = Rng(3)
    pk, sk = gen(rng, 5, 0.1)
    assert PublicKey.from_json(pk.to_json()) == pk
    assert SecretKey.from_json(sk.to_json()) == sk


# -- encryption / decryption --------------------------------------------------


def test_enc_zero_noise_is_plain():
    rng = Rng(4)
    pk, sk = gen(rng, 6, 0.3)
    quiet = dataclasses.replace(pk, p=1e-12)
    for mu in (0, 1):
        ct, f = enc_traced(rng, quiet, mu)
        if f.is_zero():
            assert ct.u.is_zero()
            assert ct.c == mu


def test_enc_u_is_per_column_product():
    rng = Rng(5)
    pk, sk = gen(rng, 5, 0.25)
    for _ in range(20):
        ct, f = enc_traced(rng, pk, 0)
        for j in range(pk.n):
            assert ct.u.bit(j) == symp_inner(f, pk.a.col(j))


def _state(rng: Rng) -> str:
    return json.dumps(rng.numpy().bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def test_enc_rejects_non_bit():
    # refused before any draw, including a float or a string that equals 1
    rng = Rng(6)
    pk, _ = gen(rng, 4, 0.2)
    spk, _ = su_gen(rng, 4, 0.2)
    for encrypt, key in ((enc, pk), (su_enc, spk)):
        for mu in (2, -1, 1.0, 0.0, "1", None):
            before = _state(rng)
            with pytest.raises(ValueError, match="message must be a single bit"):
                encrypt(rng, key, mu)
            assert _state(rng) == before
    for mu in (True, False, np.int64(1), np.uint8(0)):
        ct, f = enc_traced(rng, pk, mu)
        assert type(ct.c) is int and ct.c == symp_inner(f, pk.b) ^ int(mu)


@pytest.mark.parametrize("n", [1, 5, 128, 512])
def test_enc_matches_the_reference_definitions(n):
    # u = f * a and c = f * b + mu column by column, f is the depolarizing
    # sampler's vector, and the Rng ends where the sampler leaves it; at
    # p = 0.75 nearly every pair is noisy
    pk, _ = gen(Rng(n), n, 0.1)
    for p in (0, pick_p_for_success(n, 0.75), 0.5, 0.75):
        key = dataclasses.replace(pk, p=p)
        for seed in range(200):
            rng, twin = Rng(seed), Rng(seed)
            mu = seed & 1
            ct, f = enc_traced(rng, key, mu)
            assert f == sample_depolarizing(twin, n, p)
            assert ct.u == symp_vec_mat(f, key.a)
            assert ct.c == symp_inner(f, key.b) ^ mu
            assert _state(rng) == _state(twin)


def test_enc_refuses_inconsistent_key_dimensions_before_any_draw():
    pk, _ = gen(Rng(13), 4, 0.2)
    small, _ = gen(Rng(14), 3, 0.2)
    for key in (
        dataclasses.replace(pk, a=small.a),
        dataclasses.replace(pk, b=small.b),
        dataclasses.replace(pk, b=BitVec(9, 1)),
        dataclasses.replace(pk, n=3),
        dataclasses.replace(pk, n=5),
    ):
        rng = Rng(15)
        before = _state(rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            enc_traced(rng, key, 1)
        assert _state(rng) == before


@pytest.mark.parametrize(
    "keygen, encrypt, n, digest",
    [
        (gen, enc_traced, 2, "2973431e483650ae"),
        (gen, enc_traced, 8, "83ae7865c1f157f2"),
        (gen, enc_traced, 128, "cca4463a213abbf5"),
        (gen, enc_traced, 512, "6291936ecf8ce728"),
        (su_gen, su_enc_traced, 16, "a9d137c4628e3af7"),
        (su_gen, su_enc_traced, 128, "438916b0ae374e61"),
    ],
    ids=["pke-2", "pke-8", "pke-128", "pke-512", "supke-16", "supke-128"],
)
def test_enc_golden_stream(keygen, encrypt, n, digest):
    # 200 encryptions under one key at the 0.75 operating point: every
    # ciphertext, its noise f and where the Rng is left afterwards
    rng = Rng(1000 + n)
    pk, _ = keygen(rng, n, pick_p_for_success(n, 0.75))
    h = hashlib.sha256()
    for i in range(200):
        ct, f = encrypt(rng, pk, (i // 3) & 1)
        h.update(f"{ct.u.to_hex()} {ct.c} {f.to_hex()}\n".encode())
    h.update(rng.bits(64).to_hex().encode())
    assert h.hexdigest()[:16] == digest


def test_ciphertexts_differ_only_in_c_for_same_f():
    # encrypting mu and mu + 1 with the same noise flips only c
    rng = Rng(7)
    pk, sk = gen(rng, 5, 0.2)
    ct0, f0 = enc_traced(Rng(77), pk, 0)
    ct1, f1 = enc_traced(Rng(77), pk, 1)
    assert f0 == f1
    assert ct0.u == ct1.u
    assert ct0.c ^ ct1.c == 1


def test_dec_identity_white_box():
    rng = Rng(8)
    for _ in range(50):
        pk, sk, e = gen_traced(rng, 8, 0.15)
        mu = rng.bit()
        ct, f = enc_traced(rng, pk, mu)
        assert dec(sk, ct) == mu ^ symp_inner(f, e)


def test_dec_homomorphic_in_c():
    rng = Rng(9)
    pk, sk = gen(rng, 6, 0.2)
    ct = enc(rng, pk, 0)
    flipped = Ciphertext(ct.u, ct.c ^ 1)
    assert dec(sk, flipped) == dec(sk, ct) ^ 1


def test_ciphertext_serialization_roundtrip():
    rng = Rng(10)
    pk, sk = gen(rng, 6, 0.2)
    ct = enc(rng, pk, 1)
    assert Ciphertext.from_json(ct.to_json()) == ct


def test_multibit_roundtrip_low_noise():
    rng = Rng(11)
    pk, sk = gen(rng, 32, 0.01)
    msg = rng.bits(16)
    cts = encrypt_bits(rng, pk, msg)
    out = decrypt_bits(sk, cts)
    # per-bit failure ~ 0.2%; demand at most one flip in this fixed draw
    assert (out ^ msg).weight() <= 1


# -- success-probability formulas ----------------------------------------------


def test_predict_success_edge_cases():
    assert predict_success(10, 0.0) == 1.0
    assert abs(predict_success(1, 0.75) - 0.625) < 1e-15


def test_predict_success_matches_exhaustive_oracle():
    for n in (1, 2, 3, 5):
        for p in (0.1, 0.3, 0.5, 0.75):
            assert abs(predict_success(n, p) - exhaustive_success_probability(n, p)) < 1e-12


def test_predict_success_monotone_on_range():
    ps = [i / 100 for i in range(0, 76)]
    vals = [predict_success(16, p) for p in ps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_matched_noise_identity():
    for i in range(1, 21):
        q = i / 100
        p = matched_noise(q)
        assert abs((1 - 4 * p * p / 3) - (1 - 2 * q * q) ** 2) < 1e-12
    assert matched_noise(0.0) == 0.0


def test_matched_noise_small_q_expansion():
    q = 0.1
    assert abs(matched_noise(q) - math.sqrt(0.0297)) < 1e-12


def test_matched_noise_domain():
    with pytest.raises(ValueError):
        matched_noise(0.9)


def test_pick_p_inversion_contract():
    for n in (16, 64, 128):
        p = pick_p_for_success(n, 0.75)
        assert abs(predict_success(n, p) - 0.75) < 1e-10
    assert pick_p_for_success(32, 1 - 1e-12) < 1e-5


def test_pick_p_scales_inverse_sqrt():
    ratios = [pick_p_for_success(n, 0.75) * math.sqrt(n) for n in (64, 256, 1024)]
    for r in ratios:
        assert abs(r - ratios[0]) / ratios[0] < 0.1


def test_pick_p_rejects_target():
    with pytest.raises(ValueError):
        pick_p_for_success(8, 0.5)
    with pytest.raises(ValueError):
        pick_p_for_success(8, 1.0)


def test_measured_success_tracks_formula():
    # n = 128 at the 0.75 operating point, small run; the heavy run is in acceptance
    n = 128
    p = pick_p_for_success(n, 0.75)
    rng = Rng(12)
    hits = 0
    trials = 600
    for _ in range(trials):
        pk, sk = gen(rng, n, p)
        mu = rng.bit()
        hits += dec(sk, enc(rng, pk, mu)) == mu
    assert abs(hits / trials - 0.75) < 0.06
