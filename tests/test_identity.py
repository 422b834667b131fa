import copy
import dataclasses
import hashlib
import importlib
import math
import pickle
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from chipchain import (
    Audit,
    AuditVerdict,
    Challenge,
    ChipGeometry,
    PrimeSearchExhausted,
    Prn,
    PublicKey,
    Response,
    SignatureMalformed,
    crp_audit,
    derive_keypair,
    extract_prn,
    key_fingerprint,
    keypair_for_chip,
    make_challenge,
    new_chip,
    respond,
    sign,
    verify,
)
from chipchain import _bn, _gmp, chip_model, identity
from chipchain.identity import (
    SUPPORTED_MODULUS_BITS,
    _builtin_bpsw_prp,
    _is_extra_strong_lucas_prp,
    _is_strong_base2_prp,
    _next_prime,
    _sieve_residues,
)

from conftest import SMALL, make_small_chip
from oracles import (
    extra_strong_lucas_oracle,
    hmac_sha256,
    hmac_sha256_library,
    is_prime_mr40,
    is_prime_trial,
    next_prime_oracle,
    response_oracle,
    rsa_sign_oracle,
)


# --------------------------------------------------------------- challenges

def test_challenge_deterministic():
    a = make_challenge(3)
    b = make_challenge(3)
    assert a == b
    assert len(a.data) == 32
    assert a.state_index == 3
    assert a.data == hashlib.sha256(
        b"chipchain/challenge/v1MGT\x00" + (3).to_bytes(8, "big")).digest()


def test_challenge_varies_with_state_index():
    data = {make_challenge(l).data for l in range(100)}
    assert len(data) == 100


def test_challenge_validation():
    with pytest.raises(ValueError):
        make_challenge(-1)


def test_challenge_state_index_fits_eight_bytes():
    assert make_challenge(2**64 - 1).state_index == 2**64 - 1
    for bad in (2**64, 10**30, -1):
        with pytest.raises(ValueError, match=r"\[0, 2\^64 - 1\]"):
            make_challenge(bad)


# ---------------------------------------------------------------- responses

def test_response_shape_and_determinism():
    chip = make_small_chip(1)
    prn = extract_prn(chip)
    challenge = make_challenge(0)
    r1 = respond(prn, challenge)
    r2 = respond(prn, challenge)
    assert r1 == r2
    assert len(r1.data) == 64
    assert r1.chip_id == chip.chip_id
    assert r1.state_index == 0


def test_response_matches_keyed_hash_oracle():
    """The 64-byte response is HMAC-SHA256 over two counter blocks."""
    chip = make_small_chip(2)
    prn = extract_prn(chip)
    challenge = make_challenge(5)
    want = response_oracle(prn.rows, prn.total_rows, challenge.data)
    assert respond(prn, challenge).data == want


@st.composite
def _prns(draw):
    total_rows = draw(st.integers(1, 2**32 - 1))
    count = draw(st.integers(0, min(40, total_rows)))
    rows = draw(st.lists(st.integers(0, total_rows - 1), min_size=count,
                         max_size=count, unique=True))
    return Prn("fuzz", 0, tuple(sorted(rows)), total_rows)


_CHALLENGES = st.one_of(
    st.builds(make_challenge, st.integers(0, 2**32)),
    st.builds(lambda data: Challenge(0, data),
              st.binary(min_size=32, max_size=32)),
)


@given(prn=_prns(), challenges=st.lists(_CHALLENGES, min_size=1, max_size=5))
def test_response_fuzz_matches_both_hmac_oracles(prn, challenges):
    """Repeated, interleaved calls on one Prn share its cached pad
    states; each must equal the textbook and the library HMAC."""
    for challenge in challenges + challenges[::-1]:
        got = respond(prn, challenge).data
        assert got == response_oracle(prn.rows, prn.total_rows, challenge.data)
        assert got == response_oracle(prn.rows, prn.total_rows, challenge.data,
                                      mac=hmac_sha256_library)


@pytest.mark.parametrize("failures, key_len, hashed", [(14, 64, False),
                                                       (15, 68, True)])
def test_response_key_block_boundary(failures, key_len, hashed):
    """A 64-byte key fills the SHA-256 block and is used as is; a longer
    one is hashed first, so it keys the same HMAC as its digest."""
    prn = Prn("edge", 0, tuple(range(0, 3 * failures, 3)), 1000)
    key = prn.canonical_bytes
    assert len(key) == key_len
    for challenge in (make_challenge(0), make_challenge(1)):
        got = respond(prn, challenge).data
        assert got == response_oracle(prn.rows, prn.total_rows, challenge.data)
        assert got == response_oracle(prn.rows, prn.total_rows, challenge.data,
                                      mac=hmac_sha256_library)
        first_block = hmac_sha256(hashlib.sha256(key).digest(),
                                  challenge.data + bytes(4))
        assert (got[:32] == first_block) is hashed


def _sha256_constructors():
    """Each SHA-256 constructor the pad states may use that imports here:
    CPython's builtin module (_sha2 from 3.12, _sha256 before) and the
    hashlib fallback."""
    found = {"hashlib": hashlib.sha256}
    for module in ("_sha2", "_sha256"):
        try:
            found[module] = importlib.import_module(module).sha256
        except ImportError:
            pass
    return found


SHA256_CONSTRUCTORS = _sha256_constructors()


def test_hmac_backend_names_the_pad_constructor():
    builtin = [name for name in SHA256_CONSTRUCTORS if name != "hashlib"]
    assert chip_model.HMAC_BACKEND == ("builtin" if builtin else "openssl")
    if builtin:
        assert chip_model._PAD_SHA256 is SHA256_CONSTRUCTORS[builtin[0]]


@pytest.mark.parametrize("name", sorted(SHA256_CONSTRUCTORS))
@given(prn=_prns(), challenges=st.lists(_CHALLENGES, min_size=1, max_size=5))
def test_each_sha256_constructor_matches_both_hmac_oracles(name, prn,
                                                            challenges):
    """Fresh Prns, keyed on each constructor, at the fuzzed keys and at
    the key-block boundary, give the bytes of both HMAC oracles."""
    constructor = SHA256_CONSTRUCTORS[name]
    with mock.patch.object(chip_model, "_PAD_SHA256", constructor):
        fresh = Prn(prn.chip_id, prn.column, prn.rows, prn.total_rows)
        assert type(fresh.hmac_states[0]) is type(constructor())
        # 14 failure rows make a 64-byte key, 15 a 68-byte one
        boundary = [Prn("edge", 0, tuple(range(0, 3 * failures, 3)), 1000)
                    for failures in (14, 15)]
        for keyed in [fresh] + boundary:
            for challenge in challenges + challenges[::-1]:
                got = respond(keyed, challenge).data
                for mac in (hmac_sha256, hmac_sha256_library):
                    assert got == response_oracle(keyed.rows, keyed.total_rows,
                                                  challenge.data, mac=mac)


def test_responded_prn_pickles_and_deep_copies():
    prn = extract_prn(make_small_chip(4))
    challenge = make_challenge(2)
    want = respond(prn, challenge)
    for clone in (pickle.loads(pickle.dumps(prn)), copy.deepcopy(prn)):
        assert clone == prn
        assert hash(clone) == hash(prn)
        assert respond(clone, challenge) == want
        assert respond(prn, challenge) == want


# Response is a frozen record, not a tuple: a NamedTuple would compare
# equal to the plain tuple of its fields and iterate.
def _two_equal_responses():
    prn = extract_prn(make_small_chip(4))
    twin = Prn(prn.chip_id, prn.column, prn.rows, prn.total_rows)
    return respond(prn, make_challenge(2)), respond(twin, make_challenge(2))


def test_equal_responses_compare_and_hash_equal():
    first, second = _two_equal_responses()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


def test_response_survives_pickle_and_deep_copy():
    response, _ = _two_equal_responses()
    for clone in (pickle.loads(pickle.dumps(response)),
                  copy.deepcopy(response)):
        assert type(clone) is Response
        assert clone == response
        assert hash(clone) == hash(response)


def test_response_public_fields():
    response, _ = _two_equal_responses()
    names = ["chip_id", "state_index", "data"]
    assert [field.name for field in dataclasses.fields(Response)] == names
    assert [name for name in dir(response)
            if not name.startswith("_")] == sorted(names)


@pytest.mark.parametrize("name, value", [("chip_id", "other"),
                                         ("state_index", 9),
                                         ("data", bytes(64))])
def test_response_fields_are_frozen(name, value):
    response, _ = _two_equal_responses()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(response, name, value)


def test_response_is_not_a_tuple():
    response, _ = _two_equal_responses()
    fields = (response.chip_id, response.state_index, response.data)
    assert response != fields
    assert fields != response
    with pytest.raises(TypeError):
        iter(response)


def test_respond_returns_a_slot_backed_response():
    """respond fills the slots without the generated __init__; what it
    returns must still be an ordinary Response."""
    response, _ = _two_equal_responses()
    assert type(response) is Response
    assert not hasattr(response, "__dict__")
    built = Response(response.chip_id, response.state_index, response.data)
    assert response == built
    assert hash(response) == hash(built)
    assert dataclasses.replace(response) == response
    assert (dataclasses.replace(response, state_index=3)
            == Response(response.chip_id, 3, response.data))


def test_response_differs_across_chips():
    challenge = make_challenge(0)
    a = respond(extract_prn(make_small_chip(1)), challenge)
    b = respond(extract_prn(make_small_chip(2)), challenge)
    assert a.data != b.data


def test_response_differs_across_challenges():
    prn = extract_prn(make_small_chip(1))
    seen = {respond(prn, make_challenge(l)).data for l in range(200)}
    assert len(seen) == 200


def test_response_avalanche():
    """Any single flipped challenge bit changes the whole response."""
    prn = extract_prn(make_small_chip(3))
    base = make_challenge(0)
    base_resp = respond(prn, base).data
    for bit in range(0, 256, 7):
        data = bytearray(base.data)
        data[bit // 8] ^= 1 << (bit % 8)
        mutated = Challenge(0, bytes(data))
        other = respond(prn, mutated).data
        assert other != base_resp
        # responses should differ in many positions, not just one
        assert sum(x != y for x, y in zip(other, base_resp)) > 16


# ----------------------------------------------------------- key derivation

def test_derive_deterministic():
    chip = make_small_chip(4)
    a = keypair_for_chip(chip, 0, modulus_bits=512)
    b = keypair_for_chip(chip, 0, modulus_bits=512)
    assert a.public_key == b.public_key
    assert a.secret_key.modulus == b.secret_key.modulus
    assert a.chip_id == chip.chip_id


def test_keypair_structure():
    pair = keypair_for_chip(make_small_chip(5), 0, modulus_bits=512)
    p, q = pair.secret_key.prime_p, pair.secret_key.prime_q
    n = pair.public_key.modulus
    assert p * q == n
    assert p != q
    assert n.bit_length() == 512
    assert is_prime_trial(p) and is_prime_trial(q)
    phi = (p - 1) * (q - 1)
    assert math.gcd(pair.public_key.exponent, phi) == 1
    assert pair.public_key.exponent * pair.secret_key.exponent % phi == 1


@pytest.mark.parametrize("bits", SUPPORTED_MODULUS_BITS)
def test_supported_modulus_sizes(bits):
    pair = keypair_for_chip(make_small_chip(6), 0, modulus_bits=bits)
    assert pair.public_key.modulus.bit_length() == bits
    assert pair.modulus_bits == bits


def test_unsupported_modulus_size():
    with pytest.raises(ValueError):
        keypair_for_chip(make_small_chip(6), 0, modulus_bits=768)


def test_derive_from_response_matches_pipeline():
    chip = make_small_chip(7)
    challenge = make_challenge(2)
    response = respond(extract_prn(chip), challenge)
    direct = derive_keypair(response, modulus_bits=512)
    pipeline = keypair_for_chip(chip, 2, modulus_bits=512)
    assert direct.public_key == pipeline.public_key


def test_distinct_chips_distinct_keys():
    keys = set()
    for seed in range(40):
        pair = keypair_for_chip(make_small_chip(seed), 0, modulus_bits=512)
        keys.add(pair.public_key)
    assert len(keys) == 40


def test_distinct_states_distinct_keys():
    chip = make_small_chip(8)
    keys = {keypair_for_chip(chip, l, modulus_bits=512).public_key for l in range(10)}
    assert len(keys) == 10


def test_exponentiation_roundtrip():
    """RSA invariant: (m^e)^d is m again modulo n."""
    pair = keypair_for_chip(make_small_chip(9), 0, modulus_bits=512)
    n = pair.public_key.modulus
    e = pair.public_key.exponent
    d = pair.secret_key.exponent
    for m in (2, 3, 65537, n - 2, 12345678901234567890 % n):
        assert pow(pow(m, e, n), d, n) == m


def test_keypair_regression_pin():
    # determinism pin: regenerating from the same chip must never drift
    pair = keypair_for_chip(make_small_chip(4), 0, modulus_bits=512)
    fp = key_fingerprint(pair.public_key)
    again = key_fingerprint(keypair_for_chip(make_small_chip(4), 0, modulus_bits=512).public_key)
    assert fp == again
    assert len(fp) == 16
    assert int(fp, 16) >= 0


# Frozen keys: (modulus bits, response label, key_fingerprint, sha256 of
# p || q as fixed-width big-endian).  Derived from fixed response bytes,
# so any change to the prime search or its primality test that picks a
# different prime shows here.
GOLDEN_KEYS = [
    (512, 0, "2c4e18ad3269dfed",
     "781bcf820ce78fcbff5ccabf88e14939bed9caf2f9d89739993b355b64636013"),
    (512, 1, "44e893a3b2336e61",
     "fba6ab766354fd52e38eece0646b189d462821ecbb4ce766a8649c5f26b3fc1a"),
    (512, 2, "726d1feaab8b3dd8",
     "203c4489a2e366d90d266d47dfcba27a74dca8f9382eab0e1340ef66ee15e35c"),
    (1024, 3, "0ed9eb9f209570c0",
     "d71d8fb7b2b81b1c24d15ab6de2a324e72463e03f4c982a5758181325db907a9"),
    (1024, 4, "cd55492597ccc7e0",
     "49ee649d116351f10b47c8576e1006db77a58768521b03a2b8a24639c10008b2"),
    (2048, 5, "efc705065d57def6",
     "8313225fc97b6344cc2dcd64e33eefd7d6164908af80750422ed6c2ab0928160"),
]


def golden_response(label: int) -> Response:
    data = hashlib.sha512(b"chipchain/golden-key/%d" % label).digest()
    return Response("golden", 0, data)


@pytest.mark.parametrize("bits,label,fingerprint,primes_sha256", GOLDEN_KEYS)
def test_golden_key_pins(bits, label, fingerprint, primes_sha256):
    pair = derive_keypair(golden_response(label), modulus_bits=bits)
    size = bits // 16
    secret = pair.secret_key
    primes = secret.prime_p.to_bytes(size, "big") + secret.prime_q.to_bytes(size, "big")
    assert key_fingerprint(pair.public_key) == fingerprint
    assert hashlib.sha256(primes).hexdigest() == primes_sha256


@pytest.mark.parametrize("bits,label,fingerprint,primes_sha256",
                         GOLDEN_KEYS[:4])
def test_golden_key_pins_with_builtin_pow(monkeypatch, bits, label,
                                          fingerprint, primes_sha256):
    """The keys do not depend on the powmod backend.  The Python
    Baillie-PSW pair is forced, since only its base-2 test calls
    _powmod."""
    monkeypatch.setattr(identity, "_powmod", pow)
    monkeypatch.setattr(identity, "_is_bpsw_prp", _builtin_bpsw_prp)
    _assert_uncached_golden_key(bits, label, fingerprint, primes_sha256)


@pytest.mark.parametrize("bits,label,fingerprint,primes_sha256", GOLDEN_KEYS)
def test_golden_key_pins_with_builtin_primality(monkeypatch, bits, label,
                                                fingerprint, primes_sha256):
    """The keys do not depend on the primality backend: the Python
    Baillie-PSW pair picks the primes GMP's test picks."""
    monkeypatch.setattr(identity, "_is_bpsw_prp", _builtin_bpsw_prp)
    _assert_uncached_golden_key(bits, label, fingerprint, primes_sha256)


def _assert_uncached_golden_key(bits, label, fingerprint, primes_sha256):
    public, secret = identity._derive_core.__wrapped__(
        golden_response(label).data, bits)
    size = bits // 16
    primes = secret.prime_p.to_bytes(size, "big") + secret.prime_q.to_bytes(
        size, "big")
    assert key_fingerprint(public) == fingerprint
    assert hashlib.sha256(primes).hexdigest() == primes_sha256


def test_prime_search_exhaustion():
    with pytest.raises(PrimeSearchExhausted):
        _next_prime(10**40 + 1, max_steps=0)


def test_next_prime_refuses_candidates_the_sieve_would_mark():
    """A candidate at or below the largest sieve prime (32749) could be
    marked by itself and skipped, so it is refused."""
    for candidate in (-5, 0, 2, 10007, 32748, 32749):
        with pytest.raises(ValueError, match="must exceed 32749"):
            _next_prime(candidate)
    assert _next_prime(32750) == 32771


def test_next_prime_finds_primes():
    # candidates above the sieve range, per the function contract
    for start in (10**6, 10**12 + 39, 10**30):
        prime = _next_prime(start, max_steps=10**4)
        assert prime >= start
        assert is_prime_trial(prime)
        # nothing prime was skipped on the way
        for skipped in range(start | 1, prime, 2):
            assert not is_prime_trial(skipped)


def _search_outcome(search, candidate, max_steps):
    try:
        return search(candidate, max_steps)
    except PrimeSearchExhausted:
        return PrimeSearchExhausted


_CANDIDATES = st.integers(16, 1024).flatmap(
    lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))


@given(candidate=_CANDIDATES, max_steps=st.integers(0, 600))
def test_next_prime_matches_per_step_oracle(candidate, max_steps):
    """The window sieve returns the prime the per-step search returns,
    and runs out of steps exactly when it does."""
    want = _search_outcome(next_prime_oracle, candidate, max_steps)
    assert _search_outcome(_next_prime, candidate, max_steps) == want


def test_next_prime_across_two_window_boundaries():
    """The maximal prime gap of 1132 after 1693182318746371 spans 566
    odd steps from 1693182318746373, so the search crosses the window
    boundaries at steps 256 and 512 before it finds the prime."""
    start, prime = 1693182318746373, 1693182318747503
    for search in (_next_prime, next_prime_oracle):
        with pytest.raises(PrimeSearchExhausted):
            search(start, max_steps=565)
        assert search(start, max_steps=566) == prime


# ------------------------------------------------------------- primality

# Base-2 strong pseudoprimes, Carmichael numbers, strong pseudoprimes to
# every prime base up to 23 and up to 37, strong Lucas pseudoprimes
# (Selfridge parameters) and the extra-strong Lucas pseudoprimes below
# 10^5 but 5777 and 10877, listed with the Selfridge ones: composites
# that fool one half of Baillie-PSW.
PSEUDOPRIMES = [
    2047, 3277, 4033, 4681, 8321,
    561, 1105, 1729, 3215031751,
    3825123056546413051, 318665857834031151167461,
    5459, 5777, 10877, 16109, 18971,
    989, 3239, 27971, 29681, 30739, 31631, 39059, 72389, 73919, 75077,
]

# The extra-strong Lucas pseudoprimes below 10^5 (OEIS A217719).
EXTRA_STRONG_LUCAS_PSEUDOPRIMES = [
    989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389,
    73919, 75077,
]


# Each Baillie-PSW test _next_prime can run, by PRIME_BACKEND: the
# Python pair always, GMP's where libgmp 6.2 or later loads.
BPSW_PATHS = {"builtin": _builtin_bpsw_prp}
if _gmp.is_bpsw_prp is not None:
    BPSW_PATHS["libgmp"] = _gmp.is_bpsw_prp


def test_primality_agrees_with_mr40_below_200000():
    """Every odd n from 3 on, with no sieve in front: each test alone
    rejects each odd composite.  5 is the one prime the Python Lucas
    half refuses (it divides 3^2 - 4), and GMP accepts it;
    _next_prime never tests it, since its candidates exceed every sieve
    prime."""
    for backend, bpsw in BPSW_PATHS.items():
        for n in range(3, 200000, 2):
            if n != 5:
                assert bpsw(n) == is_prime_mr40(n), (backend, n)
        assert bpsw(5) == (backend == "libgmp")


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_primality_rejects_pseudoprimes(n):
    for backend, bpsw in BPSW_PATHS.items():
        assert not bpsw(n), backend
    assert not is_prime_mr40(n)


def test_primality_rejects_squares_without_hanging():
    """A perfect square has no P with Jacobi(P^2 - 4 / n) = -1, so the
    Lucas parameter search would not end on one before P^2 - 4 reached a
    factor.
    1093 and 3511 are the Wieferich primes: their squares pass the
    strong base-2 test.  The Lucas test is also called alone, on every
    odd square."""
    key_prime = derive_keypair(golden_response(0),
                               modulus_bits=512).secret_key.prime_p
    roots = [p for p in range(2, 200) if is_prime_mr40(p)] + [1093, 3511, key_prime]

    def expire(signum, frame):
        raise TimeoutError("primality test did not return on a square")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        for root in roots:
            for backend, bpsw in BPSW_PATHS.items():
                assert not bpsw(root * root), (backend, root)
            assert not is_prime_mr40(root * root), root
            if root % 2:
                assert not _is_extra_strong_lucas_prp(root * root), root
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_extra_strong_lucas_matches_oracle_below_100000():
    for n in range(1, 100000, 2):
        assert _is_extra_strong_lucas_prp(n) == extra_strong_lucas_oracle(n), n


def test_extra_strong_lucas_pseudoprimes_below_100000():
    """The Lucas step alone accepts exactly the twelve composites of
    A217719 below 10^5, and PSEUDOPRIMES holds each of them, so
    test_primality_rejects_pseudoprimes checks Baillie-PSW on them."""
    fooled = [n for n in range(3, 100000, 2)
              if _is_extra_strong_lucas_prp(n) and not is_prime_mr40(n)]
    assert fooled == EXTRA_STRONG_LUCAS_PSEUDOPRIMES
    assert set(EXTRA_STRONG_LUCAS_PSEUDOPRIMES) <= set(PSEUDOPRIMES)


def _prime_of(bits):
    return st.integers(1 << (bits - 1), (1 << bits) - 1).map(
        lambda candidate: next_prime_oracle(candidate, is_prime=is_prime_trial))


_ODD_LUCAS_INPUTS = st.one_of(
    st.integers(16, 1024).flatmap(
        lambda bits: st.integers(1 << (bits - 2), (1 << (bits - 1)) - 1)
    ).map(lambda half: 2 * half + 1),
    st.tuples(st.integers(13, 512), st.integers(13, 512)).flatmap(
        lambda bits: st.tuples(_prime_of(bits[0]), _prime_of(bits[1]))
    ).map(lambda primes: primes[0] * primes[1]),
)


@given(n=_ODD_LUCAS_INPUTS)
def test_extra_strong_lucas_matches_oracle(n):
    """The V-only ladder agrees with the U and V doubling formulas on odd
    numbers of 16 to 1024 bits and on products of two primes."""
    assert _is_extra_strong_lucas_prp(n) == extra_strong_lucas_oracle(n)


@given(n=_ODD_LUCAS_INPUTS)
def test_bpsw_paths_agree_with_mr40(n):
    """Each Baillie-PSW test gives the 40-witness verdict on odd numbers
    of 16 to 1024 bits and on products of two primes."""
    want = is_prime_mr40(n)
    for backend, bpsw in BPSW_PATHS.items():
        assert bpsw(n) == want, backend


def _recording(visited):
    """identity._is_bpsw_prp as installed, appending each n to visited."""
    bpsw = identity._is_bpsw_prp

    def recording(n):
        visited.append(n)
        return bpsw(n)
    return recording


def test_primality_agrees_with_mr40_on_key_search_survivors(monkeypatch):
    """Every sieve survivor the golden-key derivations test gets the
    same verdict from the oracle and from each Baillie-PSW test, so the
    search picks the same primes on either backend."""
    visited = []
    with monkeypatch.context() as patch:
        patch.setattr(identity, "_is_bpsw_prp", _recording(visited))
        for bits, label, _fingerprint, _digest in GOLDEN_KEYS:
            identity._derive_core.__wrapped__(golden_response(label).data, bits)
    assert len(visited) > 2 * len(GOLDEN_KEYS)
    for n in visited:
        want = is_prime_mr40(n)
        for backend, bpsw in BPSW_PATHS.items():
            assert bpsw(n) == want, (backend, n)


def test_sieve_leaves_no_small_factor_and_saves_tests(monkeypatch):
    """The golden-key searches hand the Baillie-PSW test only numbers
    without an odd prime factor below 2^15, so trial division could not
    reject one, and fewer of them than the per-step search with its
    sieve up to 2053 does.  A wrong hit offset would let composites
    through and keep every key: this catches it."""
    odd_primorial = math.prod(p for p in range(3, 1 << 15, 2) if is_prime_trial(p))
    sieved, per_step = [], []

    def recording_oracle(n):
        per_step.append(n)
        return is_prime_mr40(n)

    derive = identity._derive_core.__wrapped__
    seeds = [(golden_response(label).data, bits)
             for bits, label, _fingerprint, _digest in GOLDEN_KEYS]
    with monkeypatch.context() as patch:
        patch.setattr(identity, "_is_bpsw_prp", _recording(sieved))
        keys = [derive(seed, bits) for seed, bits in seeds]
    with monkeypatch.context() as patch:
        patch.setattr(identity, "_next_prime",
                      lambda candidate: next_prime_oracle(candidate,
                                                          is_prime=recording_oracle))
        assert [derive(seed, bits) for seed, bits in seeds] == keys
    assert sieved
    for n in sieved:
        assert math.gcd(n, odd_primorial) == 1, n
    assert len(sieved) < len(per_step)


def test_golden_prime_search_work_is_pinned(monkeypatch):
    """The six golden derivations hand the Baillie-PSW test 249 numbers
    on either backend.  With the Python pair, the base-2 test sees the
    same 249 and the Lucas test runs once per prime they return, on
    nothing else.  A change that sieves less or confirms a prime twice
    shows here."""
    def derive_primes():
        primes = []
        for bits, label, _fingerprint, _digest in GOLDEN_KEYS:
            _public, secret = identity._derive_core.__wrapped__(
                golden_response(label).data, bits)
            primes += [secret.prime_p, secret.prime_q]
        return primes

    confirmed = []
    with monkeypatch.context() as patch:
        patch.setattr(identity, "_is_bpsw_prp", _recording(confirmed))
        primes = derive_primes()
    assert len(confirmed) == 249

    tested, lucas = [], []

    def recording(n):
        tested.append(n)
        return _is_strong_base2_prp(n)

    def recording_lucas(n):
        lucas.append(n)
        return _is_extra_strong_lucas_prp(n)

    monkeypatch.setattr(identity, "_is_bpsw_prp", _builtin_bpsw_prp)
    monkeypatch.setattr(identity, "_is_strong_base2_prp", recording)
    monkeypatch.setattr(identity, "_is_extra_strong_lucas_prp", recording_lucas)
    assert derive_primes() == primes
    assert tested == confirmed
    assert lucas == primes


def _sieve_oracle(candidate):
    return [candidate % p for p in identity._SIEVE_PRIMES.tolist()]


@given(candidate=st.one_of(_CANDIDATES, st.integers(1025, 4096).flatmap(
    lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))))
def test_sieve_residues_are_exact(candidate):
    """Exact for key-size candidates of 16 to 1024 bits, and for wider
    ones, which fold in more 256-bit chunks."""
    assert _sieve_residues(candidate).tolist() == _sieve_oracle(candidate)


def test_sieve_residues_at_word_and_chunk_boundaries():
    edges = [(1 << 256) - 1, (1 << 256) + 1, (1 << 1024) - 1]
    for k in range(1, 33):
        edges += [(1 << (32 * k)) - 1, 1 << (32 * k)]
    for candidate in edges:
        assert _sieve_residues(candidate).tolist() == _sieve_oracle(candidate), candidate


def test_sieve_residue_product_stays_below_2_53():
    """The largest chunk sum the float64 product can form, every word at
    2^32 - 1, is below 2^53, so every term and every partial sum is an
    exact float64 and no residue is taken of a rounded sum."""
    largest_word = (1 << 32) - 1
    powers = identity._WORD_POWERS.tolist()
    assert all(power == int(power) for row in powers for power in row)
    columns = zip(*powers)
    assert max(largest_word * int(sum(column)) for column in columns) < 1 << 53


# The module-level numpy tables of identity before the float64 chunk
# product, in bytes: _SIEVE_PRIMES, _SIEVE_HALVES and _CHUNK_POWER
# (28,088 each) and _WORD_POWERS (224,704).  Each table is resident in
# every process that imports chipchain.
_TABLE_BYTES_BOUND = 308_968
_LARGEST_TABLE_BYTES = 224_704


def test_identity_tables_stay_within_their_memory():
    tables = [value for value in vars(identity).values()
              if isinstance(value, np.ndarray)]
    assert tables
    # a view would hide the size of the array that holds its data
    assert all(table.flags.owndata for table in tables)
    assert sum(table.nbytes for table in tables) <= _TABLE_BYTES_BOUND
    assert max(table.nbytes for table in tables) <= _LARGEST_TABLE_BYTES


_REPEAT_PRIMES = identity._SIEVE_PRIMES[:identity._REPEAT_COUNT].tolist()


def _marked_by_slices(hits, width):
    """The window marking the single assignment replaced: one slice
    assignment per prime below the window width."""
    composite = np.zeros(width, dtype=bool)
    for p, hit in zip(_REPEAT_PRIMES, hits[:len(_REPEAT_PRIMES)].tolist()):
        composite[hit::p] = True
    single = hits[len(_REPEAT_PRIMES):]
    composite[single[single < width]] = True
    return composite


def test_repeat_primes_are_the_primes_below_the_window():
    assert _REPEAT_PRIMES == [p for p in range(3, identity._SIEVE_WINDOW, 2)
                              if is_prime_trial(p)]
    assert identity._SIEVE_PRIMES[len(_REPEAT_PRIMES)] > identity._SIEVE_WINDOW


@given(small=st.tuples(*(st.integers(0, p - 1) for p in _REPEAT_PRIMES)),
       large=hnp.arrays(np.int64,
                        len(identity._SIEVE_PRIMES) - len(_REPEAT_PRIMES),
                        elements=st.integers(0, identity._SIEVE_BOUND - 1)),
       width=st.integers(1, identity._SIEVE_WINDOW))
def test_one_assignment_marks_what_per_prime_slices_mark(small, large, width):
    """Same composite mask for any hits in [0, P), and for the narrower
    last window when max_steps is not a multiple of 256."""
    hits = np.concatenate([
        np.array(small, dtype=np.int64),
        large % identity._SIEVE_PRIMES[len(_REPEAT_PRIMES):]])
    assert (identity._composite_steps(hits, width).tolist()
            == _marked_by_slices(hits, width).tolist())


# ------------------------------------------------------------ serialization

def test_public_key_roundtrip():
    pair = keypair_for_chip(make_small_chip(10), 0, modulus_bits=512)
    blob = pair.public_key.to_bytes()
    assert PublicKey.from_bytes(blob) == pair.public_key
    key, offset = PublicKey.parse(blob + b"tail", 0)
    assert key == pair.public_key
    assert offset == len(blob)


def test_public_key_rejects_trailing_garbage():
    pair = keypair_for_chip(make_small_chip(10), 0, modulus_bits=512)
    with pytest.raises(ValueError):
        PublicKey.from_bytes(pair.public_key.to_bytes() + b"x")
    with pytest.raises(ValueError):
        PublicKey.from_bytes(pair.public_key.to_bytes()[:-3])


@pytest.mark.parametrize("modulus, exponent", [
    (b"\x00\xc3", b"\x01\x00\x01"),
    (b"", b"\x03"),
    (b"\xc3", b"\x00\x03"),
], ids=["modulus-leading-zero", "modulus-empty", "exponent-leading-zero"])
def test_public_key_rejects_non_minimal_integers(modulus, exponent):
    blob = (len(modulus).to_bytes(4, "big") + modulus
            + len(exponent).to_bytes(4, "big") + exponent)
    with pytest.raises(ValueError, match="not minimally encoded"):
        PublicKey.from_bytes(blob)
    assert PublicKey.from_bytes(PublicKey(0, 3).to_bytes()) == PublicKey(0, 3)


# ------------------------------------------------------------- sign/verify

def test_sign_verify_roundtrip():
    pair = keypair_for_chip(make_small_chip(11), 0, modulus_bits=512)
    message = b"registry entry 7"
    signature = sign(pair.secret_key, message)
    assert len(signature) == pair.public_key.byte_size
    assert verify(pair.public_key, message, signature)


@pytest.mark.parametrize("bits", SUPPORTED_MODULUS_BITS)
def test_sign_verify_same_bytes_with_builtin_pow(monkeypatch, bits):
    """sign and verify exponentiate through the handles their keys build;
    keys rebuilt under builtin pow handles give the same bytes."""
    pair = keypair_for_chip(make_small_chip(6), 0, modulus_bits=bits)
    message = b"registry entry 7"
    signature = sign(pair.secret_key, message)
    moduli = []

    def builtin_handle(exponent, modulus):
        moduli.append(modulus)
        return _bn._pow_closure(exponent, modulus)

    monkeypatch.setattr(identity, "_fixed_powmod", builtin_handle)
    secret = dataclasses.replace(pair.secret_key)
    public = dataclasses.replace(pair.public_key)
    assert sign(secret, message) == signature
    assert verify(public, message, signature)
    assert not verify(public, b"registry entry 8", signature)
    assert moduli == [secret.prime_p, secret.prime_q, public.modulus]


def test_verify_rejects_wrong_message():
    pair = keypair_for_chip(make_small_chip(11), 0, modulus_bits=512)
    signature = sign(pair.secret_key, b"original")
    assert not verify(pair.public_key, b"altered", signature)


def test_verify_rejects_flipped_signature_bits():
    pair = keypair_for_chip(make_small_chip(12), 0, modulus_bits=512)
    message = b"attest"
    signature = bytearray(sign(pair.secret_key, message))
    for byte_index in (0, len(signature) // 2, len(signature) - 1):
        mutated = bytearray(signature)
        mutated[byte_index] ^= 0x01
        assert not verify(pair.public_key, message, bytes(mutated))


def test_verify_rejects_cross_key():
    a = keypair_for_chip(make_small_chip(13), 0, modulus_bits=512)
    b = keypair_for_chip(make_small_chip(14), 0, modulus_bits=512)
    signature = sign(a.secret_key, b"hello")
    assert not verify(b.public_key, b"hello", signature)


def test_verify_rejects_signature_plus_modulus():
    """s + n opens to the same digest as s; verify refuses any signature
    integer at or above the modulus (RFC 8017 section 5.2.2)."""
    pair = keypair_for_chip(new_chip(ChipGeometry(rows=256), seed=0), 0,
                            modulus_bits=512)
    n, size = pair.public_key.modulus, pair.public_key.byte_size
    for i in range(200):
        message = b"message %d" % i
        signature = sign(pair.secret_key, message)
        forged_int = int.from_bytes(signature, "big") + n
        if forged_int < 1 << (8 * size):
            break
    else:
        pytest.fail("no signature s with s + n inside the key's byte size")
    forged = forged_int.to_bytes(size, "big")
    assert forged != signature
    assert pow(forged_int, pair.public_key.exponent, n) == pow(
        int.from_bytes(signature, "big"), pair.public_key.exponent, n)
    assert verify(pair.public_key, message, signature)
    assert not verify(pair.public_key, message, forged)
    assert not verify(pair.public_key, message, n.to_bytes(size, "big"))


def test_verify_wrong_length_raises():
    pair = keypair_for_chip(make_small_chip(11), 0, modulus_bits=512)
    with pytest.raises(SignatureMalformed):
        verify(pair.public_key, b"m", b"short")


def test_signature_is_deterministic():
    pair = keypair_for_chip(make_small_chip(15), 0, modulus_bits=512)
    assert sign(pair.secret_key, b"m") == sign(pair.secret_key, b"m")


@pytest.mark.parametrize("bits", SUPPORTED_MODULUS_BITS)
def test_crt_fields_match_keypair(bits):
    pair = keypair_for_chip(make_small_chip(6), 0, modulus_bits=bits)
    key = pair.secret_key
    p, q, d = key.prime_p, key.prime_q, key.exponent
    assert key.modulus == p * q == pair.public_key.modulus
    assert key.exponent_p == d % (p - 1)
    assert key.exponent_q == d % (q - 1)
    assert key.q_inverse == pow(q, -1, p)
    assert key.q_inverse * q % p == 1


@pytest.mark.parametrize("bits", SUPPORTED_MODULUS_BITS)
def test_sign_matches_plain_rsa_oracle(bits):
    pair = keypair_for_chip(make_small_chip(6), 0, modulus_bits=bits)
    key = pair.secret_key
    for message in (b"", b"m", b"chip nonce 0001", bytes(range(256)) * 4):
        assert sign(key, message) == rsa_sign_oracle(message, key.exponent,
                                                     key.modulus)


# A key's handles are built on first use and are not fields: a key that
# has built them is the same record as the key rebuilt from its fields.
def _cached(key) -> set[str]:
    """The names a key holds beyond its fields."""
    return set(vars(key)) - {f.name for f in dataclasses.fields(key)}


def _handle_free_twin(key):
    twin = type(key)(*(getattr(key, f.name) for f in dataclasses.fields(key)))
    assert _cached(twin) == set()
    return twin


@pytest.mark.parametrize("bits", SUPPORTED_MODULUS_BITS)
def test_keys_with_built_handles_keep_their_record_contract(bits):
    pair = keypair_for_chip(make_small_chip(7), 0, modulus_bits=bits)
    secret, public = pair.secret_key, pair.public_key
    message = b"chip nonce 0002"
    signature = sign(secret, message)
    assert verify(public, message, signature)
    assert public.to_bytes() == _handle_free_twin(public).to_bytes()
    assert signature == rsa_sign_oracle(message, secret.exponent,
                                        secret.modulus)
    assert _cached(secret) == {"_crt_powers"}
    assert _cached(public) == {"_opener", "_wire"}
    for key in (secret, public):
        twin = _handle_free_twin(key)
        assert key == twin and twin == key
        assert hash(key) == hash(twin)
        assert repr(key) == repr(twin)
        for clone in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key),
                      copy.copy(key), dataclasses.replace(key)):
            assert type(clone) is type(key)
            assert clone is not key
            assert _cached(clone) == set()
            assert clone == key
            assert hash(clone) == hash(key)
    for clone in (pickle.loads(pickle.dumps(secret)), copy.deepcopy(secret),
                  dataclasses.replace(secret)):
        assert sign(clone, message) == signature
    for clone in (pickle.loads(pickle.dumps(public)), copy.deepcopy(public),
                  dataclasses.replace(public)):
        assert verify(clone, message, signature)
        assert not verify(clone, b"chip nonce 0003", signature)
    assert sign(secret, message) == signature


# -------------------------------------------------------------------- audit

def audited(chip, pair, state_index, nonce=b"fresh-nonce"):
    return crp_audit(chip, pair.public_key, state_index, nonce)


def test_audit_genuine():
    chip = make_small_chip(20)
    pair = keypair_for_chip(chip, 0, modulus_bits=512)
    assert audited(chip, pair, 0).verdict is AuditVerdict.GENUINE


def test_audit_impostor_chip():
    """A different physical chip cannot answer for the registered key."""
    pair = keypair_for_chip(make_small_chip(20), 0, modulus_bits=512)
    impostor = make_small_chip(21)
    assert audited(impostor, pair, 0).verdict is AuditVerdict.IMPOSTOR


def test_audit_stale_state():
    chip = make_small_chip(20)
    pair_old = keypair_for_chip(chip, 0, modulus_bits=512)
    assert audited(chip, pair_old, 1).verdict is AuditVerdict.IMPOSTOR


def test_audit_rotated_key_recovers():
    chip = make_small_chip(20)
    pair_new = keypair_for_chip(chip, 1, modulus_bits=512)
    assert audited(chip, pair_new, 1).verdict is AuditVerdict.GENUINE


def test_audit_requires_nonce():
    chip = make_small_chip(20)
    pair = keypair_for_chip(chip, 0, modulus_bits=512)
    with pytest.raises(ValueError):
        crp_audit(chip, pair.public_key, 0, b"")


def test_audit_unsupported_claimed_key():
    chip = make_small_chip(20)
    bogus = PublicKey(modulus=(1 << 767) + 11, exponent=65537)
    assert crp_audit(chip, bogus, 0, b"n").verdict is AuditVerdict.IMPOSTOR


def test_audit_genuine_returns_a_signature_under_the_expected_key():
    chip = make_small_chip(20)
    pair = keypair_for_chip(chip, 0, modulus_bits=512)
    audit = audited(chip, pair, 0, nonce=b"genuine-nonce")
    assert isinstance(audit, Audit)
    assert audit.verdict is AuditVerdict.GENUINE
    assert audit.signature == sign(pair.secret_key, b"genuine-nonce")
    assert verify(pair.public_key, b"genuine-nonce", audit.signature)
    with pytest.raises(AttributeError):
        audit.signature = b""


def test_audit_impostor_returns_its_own_signature():
    claimed = keypair_for_chip(make_small_chip(20), 0, modulus_bits=512)
    impostor = make_small_chip(21)
    own = keypair_for_chip(impostor, 0, modulus_bits=512)
    audit = audited(impostor, claimed, 0, nonce=b"n")
    assert audit.verdict is AuditVerdict.IMPOSTOR
    assert audit.signature == sign(own.secret_key, b"n")
    assert verify(own.public_key, b"n", audit.signature)
    assert not verify(claimed.public_key, b"n", audit.signature)


def test_audit_unsupported_claimed_key_makes_no_signature():
    chip = make_small_chip(20)
    bogus = PublicKey(modulus=(1 << 767) + 11, exponent=65537)
    audit = crp_audit(chip, bogus, 0, b"n")
    assert audit == Audit(AuditVerdict.IMPOSTOR, None)


@pytest.mark.parametrize("state_index, nonce, message, claimed_bits", [
    (0, b"", "non-empty", 512),
    (-1, b"n", r"\[0, 2\^64 - 1\]", 512),
    (2**64, b"n", r"\[0, 2\^64 - 1\]", 512),
    (-1, b"n", r"\[0, 2\^64 - 1\]", 768),
    (2**64, b"n", r"\[0, 2\^64 - 1\]", 768),
], ids=["empty-nonce", "index-below-0", "index-2^64",
        "index-below-0-unsupported-key", "index-2^64-unsupported-key"])
def test_audit_refusals_still_raise(monkeypatch, state_index, nonce, message,
                                    claimed_bits):
    """A refused audit raises before the chip signs anything, whatever
    the size of the claimed key."""
    chip = make_small_chip(20)
    claimed = (keypair_for_chip(chip, 0, modulus_bits=512).public_key
               if claimed_bits == 512
               else PublicKey(modulus=(1 << 767) + 11, exponent=65537))

    def no_signing(*args):
        raise AssertionError("a refused audit must not sign")

    monkeypatch.setattr(identity, "sign", no_signing)
    with pytest.raises(ValueError, match=message):
        crp_audit(chip, claimed, state_index, nonce)


def test_a_pair_records_the_response_that_seeded_it():
    chip = make_small_chip(20)
    response = respond(extract_prn(chip), make_challenge(3))
    pair = derive_keypair(response, 512)
    assert pair.seed == response.data
    assert keypair_for_chip(chip, 3, 512).seed == response.data
    assert dataclasses.replace(pair, seed=b"other") == pair
    assert "seed" not in repr(pair)


def _counting(monkeypatch, name):
    """Wrap identity.<name> so that each call is recorded."""
    calls = []
    original = getattr(identity, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identity, name, counting)
    return calls


def test_audit_uses_the_held_pair_its_fresh_response_seeded(monkeypatch):
    """The chip is still read and still answers; the pair that answer
    seeded is not derived again."""
    chip = make_small_chip(20)
    pair = keypair_for_chip(chip, 2, modulus_bits=512)
    responses = _counting(monkeypatch, "respond")

    def no_derivation(*args):
        raise AssertionError("a held pair of this response must be used")

    monkeypatch.setattr(identity, "derive_keypair", no_derivation)
    for nonce in (b"first", b"second"):
        audit = crp_audit(chip, pair.public_key, 2, nonce, pair)
        assert audit == Audit(AuditVerdict.GENUINE,
                              sign(pair.secret_key, nonce))
    assert len(responses) == 2


@pytest.mark.parametrize("held_chip, held_state, held_bits", [
    (21, 0, 512), (20, 1, 512), (20, 0, 1024)],
    ids=["other-chip", "other-state", "other-size"])
def test_audit_derives_when_the_held_pair_is_not_its_responses(
        monkeypatch, held_chip, held_state, held_bits):
    """A held pair of another chip, state or size is not the pair this
    response seeds: the audit derives its own and decides on that."""
    chip = make_small_chip(20)
    genuine = keypair_for_chip(chip, 0, modulus_bits=512)
    held = keypair_for_chip(make_small_chip(held_chip), held_state,
                            modulus_bits=held_bits)
    derived = _counting(monkeypatch, "derive_keypair")
    audit = crp_audit(chip, genuine.public_key, 0, b"n", held)
    assert audit == Audit(AuditVerdict.GENUINE, sign(genuine.secret_key, b"n"))
    assert [(response.data, bits) for response, bits in derived] == [
        (genuine.seed, 512)]


def test_audit_of_a_swapped_chip_derives_and_fails(monkeypatch):
    """Holding the registered chip's pair does not let another chip
    pass: the swapped chip answers differently and keys its own pair."""
    registered = keypair_for_chip(make_small_chip(20), 0, modulus_bits=512)
    swapped = make_small_chip(21)
    own = keypair_for_chip(swapped, 0, modulus_bits=512)
    derived = _counting(monkeypatch, "derive_keypair")
    audit = crp_audit(swapped, registered.public_key, 0, b"n", registered)
    assert audit == Audit(AuditVerdict.IMPOSTOR, sign(own.secret_key, b"n"))
    assert [response.data for response, _bits in derived] == [own.seed]


def test_audit_hands_back_the_pair_that_signed():
    """A held pair comes back as it is, a derived one as derived, and an
    unsupported claimed size makes neither; the pair stays out of
    equality and repr."""
    chip = make_small_chip(20)
    held = keypair_for_chip(chip, 0, modulus_bits=512)
    assert crp_audit(chip, held.public_key, 0, b"n", held).keypair is held
    swapped = make_small_chip(21)
    audit = crp_audit(swapped, held.public_key, 0, b"n", held)
    assert audit.keypair == keypair_for_chip(swapped, 0, modulus_bits=512)
    assert audit.keypair.chip_id == swapped.chip_id
    assert audit == Audit(AuditVerdict.IMPOSTOR, audit.signature)
    assert "keypair" not in repr(audit)
    bogus = PublicKey(modulus=(1 << 767) + 11, exponent=65537)
    assert crp_audit(chip, bogus, 0, b"n").keypair is None

def test_fingerprint_distinctness_sweep():
    """No fingerprint, response, or key collides across a small chip batch."""
    fingerprints = set()
    responses = set()
    keys = set()
    challenge = make_challenge(0)
    for seed in range(60):
        chip = new_chip(SMALL, seed=seed)
        prn = extract_prn(chip)
        fingerprints.add(prn.canonical_bytes)
        responses.add(respond(prn, challenge).data)
        keys.add(keypair_for_chip(chip, 0, modulus_bits=512).public_key)
    assert len(fingerprints) == 60
    assert len(responses) == 60
    assert len(keys) == 60


def test_fingerprint_hash_is_sha256_prefix():
    pair = keypair_for_chip(make_small_chip(23), 0, modulus_bits=512)
    digest = hashlib.sha256(pair.public_key.to_bytes()).hexdigest()
    assert key_fingerprint(pair.public_key) == digest[:16]
