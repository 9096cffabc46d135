"""Every JSON loader: round trips, and ValueError for anything malformed."""
import json
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from slpn.gf2 import BitMat, BitVec
from slpn.owf import OwfIndex, OwfInput, owf_gen, owf_sample
from slpn.pke import Ciphertext, PublicKey, SecretKey, enc, gen
from slpn.sampling import Instance, Rng, gen_lpn, gen_lsn, gen_symplpn
from slpn.supke import Seed, SuPublicKey, su_gen


def _instance(rng: Rng, n: int) -> Instance:
    keep, structured = rng.bit(), rng.bit()
    kind = rng.integer(3)
    if kind == 0:
        return gen_lpn(rng, n, 2 * n, 0.1, structured, keep)
    if kind == 1:
        return gen_symplpn(rng, n, n, 0.1, structured, keep)
    return gen_lsn(rng, n // 2, n, 0.1, keep)


# One valid object per loader, from a stream and a size n >= 2.
MAKERS = {
    BitVec: lambda rng, n: rng.bits(3 * n - 1),
    BitMat: lambda rng, n: rng.bitmat(n, 2 * n + 1),
    PublicKey: lambda rng, n: gen(rng, n, 0.1)[0],
    SecretKey: lambda rng, n: gen(rng, n, 0.1)[1],
    Ciphertext: lambda rng, n: enc(rng, gen(rng, n, 0.1)[0], rng.bit()),
    SuPublicKey: lambda rng, n: su_gen(rng, n, 0.1)[0],
    OwfIndex: lambda rng, n: owf_gen(rng, n // 2, n, 0.1),
    OwfInput: lambda rng, n: owf_sample(rng, owf_gen(rng, n // 2, n, 0.1)),
    Instance: lambda rng, n: _instance(rng, n),
}
LOADERS = list(MAKERS)
OPTIONAL_KEYS = {"witness", "secret", "error"}  # Instance's witness and its parts


def _payload(cls, seed: int = 5, n: int = 5) -> dict:
    obj = MAKERS[cls](Rng(seed), n)
    if isinstance(obj, Instance):
        obj = obj.without_witness()
    return obj.to_json()


@pytest.mark.parametrize(
    "payload",
    [
        {"len": 4, "hex": "ff"},
        {"len": 4, "hex": "01ff"},
        {"len": 12, "hex": "ff"},
        {"len": 4.7, "hex": "0f"},
    ],
    ids=["bits-past-len", "byte-too-many", "byte-too-few", "float-len"],
)
def test_bitvec_from_json_rejects_bad_payload(payload):
    with pytest.raises(ValueError):
        BitVec.from_json(payload)


def test_seed_from_hex_rejects_bits_past_its_length():
    with pytest.raises(ValueError, match="trailing bits"):
        Seed.from_hex(1, "ff")
    assert Seed.from_hex(1, "0f").bits == BitVec(4, 0xF)


@pytest.mark.parametrize(
    "payload",
    [{"rows": 0, "cols": 2**26, "hex": ""}, {"rows": 2**20, "cols": 0, "hex": ""}],
    ids=["no-rows-huge-cols", "huge-rows-no-cols"],
)
def test_bitmat_from_json_cost_follows_the_payload(payload):
    # a consistent empty payload that declares one huge dimension either
    # raises or loads at once, rather than building what the shape names
    t = time.perf_counter()
    try:
        m = BitMat.from_json(payload)
    except ValueError:
        return
    assert time.perf_counter() - t < 0.05
    assert (m.nrows, m.ncols) == (payload["rows"], payload["cols"])


def test_bitmat_from_json_bounds_the_row_count_and_loads_long_vectors():
    with pytest.raises(ValueError, match="rows"):
        BitMat.from_json({"rows": 2**20 + 1, "cols": 0, "hex": ""})
    v = Rng(3).bits(4 * 128 * 128 + 2 * 128)  # an n=128 seed-keyed public key vector
    assert BitVec.from_json(v.to_json()) == v


@pytest.mark.parametrize("cls", LOADERS, ids=lambda cls: cls.__name__)
def test_loader_rejects_missing_keys_and_non_objects(cls):
    payload = _payload(cls)
    for key in payload:
        broken = {k: v for k, v in payload.items() if k != key}
        with pytest.raises(ValueError, match=f"missing {key}"):
            cls.from_json(broken)
    with pytest.raises(ValueError, match="JSON object"):
        cls.from_json([payload])


INT_FIELDS = [
    (cls, key) for cls in LOADERS for key, value in _payload(cls).items() if type(value) is int
]


@pytest.mark.parametrize(
    "cls, key", INT_FIELDS, ids=[f"{cls.__name__}-{key}" for cls, key in INT_FIELDS]
)
def test_loader_int_fields_refuse_bool_float_and_str(cls, key):
    payload = _payload(cls)
    for bad in (float(payload[key]), str(payload[key]), payload[key] == 1):
        with pytest.raises(ValueError, match=key):
            cls.from_json(dict(payload, **{key: bad}))


# (loader, stream seed, size) for a generated valid object
VALID = st.tuples(st.sampled_from(LOADERS), st.integers(0, 2**32 - 1), st.integers(2, 7))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(VALID)
def test_loader_round_trips(case):
    cls, seed, n = case
    obj = MAKERS[cls](Rng(seed), n)
    assert cls.from_json(json.loads(json.dumps(obj.to_json()))) == obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(LOADERS), JSON_VALUES)
def test_loader_raises_only_value_error_on_arbitrary_json(cls, value):
    try:
        cls.from_json(value)
    except ValueError:
        pass


def _paths(node, path=()):
    """The key path of every value inside a payload, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _paths(value, path + (key,))


def _parent(payload: dict, path: tuple) -> dict:
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _hex_width(payload: dict, path: tuple) -> int:
    """Bit width of each row of the hex string at ``path``."""
    parent = _parent(payload, path)
    if path[-1] == "seed_hex":
        return 4 * parent["n"] ** 2
    return parent["len"] if "len" in parent else parent["cols"]


def _swapped(value):
    """A value of another JSON kind than ``value``."""
    if isinstance(value, str):
        return len(value)
    return str(value)


def _set_padding_bit(parent, key):
    parent[key] = parent[key][:-2] + f"{int(parent[key][-2:], 16) | 0x80:02x}"


MUTATIONS = {
    "drop-key": lambda parent, key: parent.pop(key),
    "swap-kind": lambda parent, key: parent.__setitem__(key, _swapped(parent[key])),
    "padding-bit": _set_padding_bit,
    "hex-byte-short": lambda parent, key: parent.__setitem__(key, parent[key][:-2]),
    "hex-byte-long": lambda parent, key: parent.__setitem__(key, parent[key] + "00"),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(VALID, st.sampled_from(sorted(MUTATIONS)), st.data())
def test_loader_rejects_mutated_payloads(case, mutation, data):
    cls, seed, n = case
    payload = MAKERS[cls](Rng(seed), n).to_json()
    sites = list(_paths(payload))
    if mutation == "drop-key":
        sites = [path for path in sites if path[-1] not in OPTIONAL_KEYS]
    elif mutation != "swap-kind":
        sites = [path for path in sites if path[-1] in ("hex", "seed_hex")]
    if mutation == "padding-bit":
        sites = [path for path in sites if _hex_width(payload, path) % 8]
    assume(sites)
    path = data.draw(st.sampled_from(sites))
    MUTATIONS[mutation](_parent(payload, path), path[-1])
    with pytest.raises(ValueError):
        cls.from_json(payload)


def _cols(nrows: int, bits) -> dict:
    """JSON of the matrix whose column i is the unit vector at bits[i]."""
    return BitMat.from_cols([BitVec.unit(nrows, i) for i in bits], nrows=nrows).to_json()


@pytest.mark.parametrize(
    "n, k, a_bits, b_bits",
    [
        # 8x3 a and 8x2 b: both isotropic, joint rank 5 = n + k, wrong shapes
        (4, 1, [0, 1, 2], [3, 4]),
        # 8-row matrices under n = 3: joint rank 5 = n + k again
        (3, 2, [0, 1, 2, 3], [4]),
    ],
    ids=["a-and-b-widths-swapped", "rows-not-2n"],
)
def test_owf_index_loader_checks_the_shapes_against_n_and_k(n, k, a_bits, b_bits):
    payload = {"n": n, "k": k, "p": 0.1, "a": _cols(8, a_bits), "b": _cols(8, b_bits)}
    with pytest.raises(ValueError, match="expected"):
        OwfIndex.from_json(payload)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: gen_lpn(rng, 3, 9, 0.1, structured=True, keep_witness=True),
        lambda rng: gen_symplpn(rng, 3, 4, 0.1, structured=True, keep_witness=True),
        lambda rng: gen_lsn(rng, 1, 4, 0.1, keep_witness=True),
    ],
    ids=["lpn", "symplpn", "lsn"],
)
def test_instance_loader_checks_the_witness_lengths(make):
    inst = make(Rng(10))
    payload = inst.to_json()
    assert Instance.from_json(payload) == inst
    wrong = {
        "secret": [inst.matrix.ncols + 1, inst.matrix.ncols - 1],
        "error": [3, inst.word.nbits + 1],
    }
    for key, widths in wrong.items():
        for width in widths:
            witness = dict(payload["witness"], **{key: BitVec.zeros(width).to_json()})
            with pytest.raises(ValueError, match=f"witness {key}"):
                Instance.from_json(dict(payload, witness=witness))


def test_owf_input_loader_refuses_an_odd_length_error():
    payload = owf_sample(Rng(11), owf_gen(Rng(11), 2, 4, 0.1)).to_json()
    assert OwfInput.from_json(payload).e.nbits == 8
    with pytest.raises(ValueError, match="odd"):
        OwfInput.from_json(dict(payload, e=BitVec.zeros(7).to_json()))


def test_code_loaders_refuse_bad_codes():
    # public keys and symplectic instances run check_isotropic, OWF indices
    # and LSN instances check_lsn_pair
    e1, e2, f1, f2 = (BitVec.unit(4, i) for i in range(4))  # n = 2

    def mat(*cols):
        return BitMat.from_cols(cols, nrows=4)

    zeros = BitVec.zeros(4).to_json()
    for a, message in [
        (mat(e1, f1), "not symplectically orthogonal"),
        (mat(e1, e1), "not independent"),
    ]:
        with pytest.raises(ValueError, match=message):
            PublicKey.from_json({"n": 2, "p": 0.1, "a": a.to_json(), "b": zeros})
        symplpn = {"kind": "symplpn", "k": 2, "n": 2, "p": 0.1, "word": zeros}
        with pytest.raises(ValueError, match=message):
            Instance.from_json(dict(symplpn, matrix=a.to_json()))
    for a, b, message in [
        (mat(e1, f1), mat(e2), "not symplectically orthogonal"),  # joint rank n + k
        (mat(e1, e2), mat(f1, e1 ^ f2), "not symplectically orthogonal"),  # joint rank n + k
        (mat(e1, e2), mat(e1), "does not have rank n \\+ k"),  # both parts isotropic
    ]:
        k = b.ncols
        index = {"n": 2, "k": k, "p": 0.1, "a": a.to_json(), "b": b.to_json()}
        lsn = {"kind": "lsn", "k": k, "n": 2, "p": 0.1, "word": zeros}
        lsn["matrix"] = a.hstack(b).to_json()
        for load, payload in ((OwfIndex.from_json, index), (Instance.from_json, lsn)):
            with pytest.raises(ValueError, match=message):
                load(payload)


# Keys take the rates key generation takes, 0 < p < 1; OWF indices and
# instances those their noise samplers take, 0 <= p <= 1.
RATE_BOUNDS = {
    PublicKey: ([-1, 0, 1, 2], [0.1]),
    SuPublicKey: ([-1, 0, 1, 2], [0.1]),
    OwfIndex: ([-1, -0.1, 1.5, 2], [0, 1]),
    Instance: ([-1, -0.1, 1.5, 2], [0, 1]),
}


@pytest.mark.parametrize("cls", sorted(RATE_BOUNDS, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_loaders_refuse_an_out_of_range_p(cls):
    payload = _payload(cls)
    refused, loaded = RATE_BOUNDS[cls]
    for p in refused:
        with pytest.raises(ValueError, match="p out of range"):
            cls.from_json(dict(payload, p=p))
    for p in loaded:
        assert cls.from_json(dict(payload, p=p)).p == p


@pytest.mark.parametrize(
    "make",
    [
        lambda rng, p: gen_lpn(rng, 3, 9, p, structured=False),
        lambda rng, p: gen_lpn(rng, 3, 9, p, structured=True),
        lambda rng, p: gen_symplpn(rng, 3, 4, p, structured=False),
        lambda rng, p: gen_symplpn(rng, 3, 4, p, structured=True),
        lambda rng, p: gen_lsn(rng, 1, 4, p),
        lambda rng, p: owf_gen(rng, 1, 4, p),
    ],
    ids=["lpn-unstructured", "lpn", "symplpn-unstructured", "symplpn", "lsn", "owf"],
)
def test_generators_refuse_an_out_of_range_p_before_any_draw(make):
    for p in (5, -3, 1.5, -0.1):
        rng = Rng(12)
        with pytest.raises(ValueError, match="p out of range"):
            make(rng, p)
        assert rng.bits(64) == Rng(12).bits(64)
    for p in (0, 1):
        assert make(Rng(12), p).p == p
