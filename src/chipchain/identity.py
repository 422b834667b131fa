"""Chip-bound identity: challenges, responses, and deterministic keys.

A challenge is a pure function of the security-state index.  A chip
answers with a keyed digest of the challenge under its fingerprint,
and the response seeds a deterministic RSA keypair, so the same chip
at the same state index always reproduces the same keys; possession of
the physical chip is what regenerates the secret key.  No key is
stored on the device side.  What is held, and by whom: a chip keeps
the Prn of each column it was read on (chip_model.extract_prn), a pure
function of its fixed failure rows; a pair records the response bytes
that seeded it, so an audit handed the pair its chip's fresh response
seeds uses it instead of deriving again, and an audit hands back the
pair that signed (crp_audit); a scenario run holds each node's chip
and keeps the pair of that chip at the current state index (a sweep
keeps the pair its audit hands back), dropping it on rotate or tamper
(network_sim.Simulation);
a transfer tree holds each seat's pair and its records but never the
chip, so a rotate is handed the chips to derive from (ledger); and
_derive_core keeps a bounded process-wide cache of derived keys by
response bytes and size, which no package path needs.

The keyed digest is HMAC-SHA256 with the PRN's canonical bytes as the
key.  Each Prn keeps the inner and outer SHA-256 states of its key,
computed once (the precomputation of RFC 2104 section 4), so a
response costs no key padding or key hashing; the response bytes are
those of the plain HMAC construction.  The pad states are objects of
CPython's builtin SHA-256 where it imports (chip_model.HMAC_BACKEND
"builtin"), whose copy and digest are a memcpy; a response makes four
copies.  Response is a frozen dataclass with slots, and respond fills
the three slots through their descriptors, which costs less than the
generated __init__ and its object.__setattr__ calls.
Every one-shot hash (challenges, the key-seed stream, the ledger and
the proof-of-work scan) stays on hashlib.sha256, OpenSSL's, which
digests a fresh message faster.

Each key prime is the first prime at or after a candidate drawn from a
SHA-256 counter stream over the response.  The candidate's residues mod
the odd primes below 2^15 come from one float64 matrix product over
its 32-bit words, which runs through BLAS and is exact because every
sum is below 2^53; a window sieve then marks their multiples among 256
odd numbers at a time (Menezes, van Oorschot and Vanstone, Handbook of
Applied Cryptography, section 4.4), those of the 53 primes below 256
in one assignment, and a Baillie-PSW test (Baillie and Wagstaff 1980)
confirms the survivors in order.  Where libgmp 6.2 or later loads
(PRIME_BACKEND "libgmp"), the test is GMP's mpz_probab_prime_p, strong
base 2 plus strong Lucas, in one foreign call per survivor (_gmp);
elsewhere ("builtin") it is a strong base-2 test plus an extra-strong
Lucas test (Grantham 2001) in Python.  The sieve is the search's trial
division.  Keys must stay those of the 40-witness Miller-Rabin schedule
the tests keep as the reference: each test here accepts every prime a
search can reach and no composite is known to pass any of them, so the
search stops on the same primes on either backend.

Every modular exponentiation here (signing, verifying, and the base-2
test of the builtin primality path) goes through OpenSSL's
BN_mod_exp_mont in the system libcrypto when it loads (POWMOD_BACKEND
"libcrypto"), else builtin pow ("builtin").  Both give the same
numbers, so keys and signatures are the same bytes on either backend.
The base-2 test, on a new modulus each time, calls _bn.powmod.  Keys
keep their Montgomery form: a SecretKey holds a _bn.fixed_powmod handle
per prime and a PublicKey one for its modulus, each built on first use,
so sign and verify convert no modulus or exponent and build no
Montgomery context per call.

Key sizes here are desk-scale (512 to 2048 bit) for fast simulation,
not production parameters.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from ._bn import (BACKEND as POWMOD_BACKEND, fixed_powmod as _fixed_powmod,
                  powmod as _powmod)
from ._gmp import BACKEND as PRIME_BACKEND, is_bpsw_prp as _gmp_bpsw_prp
from .chip_model import Prn, SimulatedChip, extract_prn
from .errors import PrimeSearchExhausted, SignatureMalformed, _number_in

SUPPORTED_MODULUS_BITS = (512, 1024, 2048)

_CHALLENGE_TAG = b"chipchain/challenge/v1"
_MANAGEMENT_TAG = b"MGT\x00"  # management issues every challenge
_KDF_TAG = b"chipchain/keyseed/v1"

MAX_STATE_INDEX = (1 << 64) - 1  # a challenge packs the index in 8 bytes


@dataclass(frozen=True)
class Challenge:
    """Attestation challenge, reproducible from its state_index."""

    state_index: int
    data: bytes


def _state_index(value) -> int:
    """A security-state index; every parser of one calls this check."""
    return _number_in(value, "state index", MAX_STATE_INDEX, "2^64 - 1")


def make_challenge(state_index: int) -> Challenge:
    state_index = _state_index(state_index)
    data = hashlib.sha256(
        _CHALLENGE_TAG + _MANAGEMENT_TAG + state_index.to_bytes(8, "big")
    ).digest()
    return Challenge(state_index, data)


@dataclass(frozen=True, slots=True)
class Response:
    """64-byte chip answer binding a fingerprint to a challenge."""

    chip_id: str
    state_index: int
    data: bytes


# respond fills a Response through its slot descriptors, which skips the
# generated __init__ and its three object.__setattr__ calls.
_new_response = Response.__new__
_set_chip_id = Response.chip_id.__set__
_set_state_index = Response.state_index.__set__
_set_data = Response.data.__set__


def respond(prn: Prn, challenge: Challenge) -> Response:
    """Keyed digest of the challenge under the chip fingerprint.

    Block i is HMAC-SHA256(canonical PRN bytes, challenge || i as a
    4-byte word), for i = 0 and 1.  The pad states come precomputed
    from the PRN (RFC 2104 section 4) on CPython's builtin SHA-256.
    The challenge is absorbed once; block 0 finishes a copy of that
    state and block 1 the state itself, each under a copy of the outer
    pad, so the bytes are those of a textbook HMAC per block.
    """
    inner_pad, outer_pad = prn.hmac_states
    inner = inner_pad.copy()
    inner.update(challenge.data)
    inner_0 = inner.copy()
    inner_0.update(b"\0\0\0\0")
    inner.update(b"\0\0\0\1")
    outer_0 = outer_pad.copy()
    outer_0.update(inner_0.digest())
    outer_1 = outer_pad.copy()
    outer_1.update(inner.digest())
    response = _new_response(Response)
    _set_chip_id(response, prn.chip_id)
    _set_state_index(response, challenge.state_index)
    _set_data(response, outer_0.digest() + outer_1.digest())
    return response


def _int_bytes(value: int) -> bytes:
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def _length_prefixed(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw


def _read_length_prefixed(data: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(data):
        raise ValueError("truncated length prefix")
    length = int.from_bytes(data[offset:offset + 4], "big")
    offset += 4
    if offset + length > len(data):
        raise ValueError("truncated field")
    return data[offset:offset + length], offset + length


def _read_int(data: bytes, offset: int) -> tuple[int, int]:
    """Read an integer field; only the encoding _int_bytes writes is valid."""
    raw, offset = _read_length_prefixed(data, offset)
    value = int.from_bytes(raw, "big")
    if raw != _int_bytes(value):
        raise ValueError("integer field is not minimally encoded")
    return value, offset


@dataclass(frozen=True)
class PublicKey:
    """RSA public key.

    Its wire bytes and its exponentiation handle are built once, on
    first use, and are not fields: equality, hashing, repr and copies
    see the modulus and the exponent only.
    """

    modulus: int
    exponent: int

    @property
    def byte_size(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    @cached_property
    def _wire(self) -> bytes:
        return (_length_prefixed(_int_bytes(self.modulus))
                + _length_prefixed(_int_bytes(self.exponent)))

    @cached_property
    def _opener(self):
        """s -> s^e mod n, with n in Montgomery form."""
        return _fixed_powmod(self.exponent, self.modulus)

    def to_bytes(self) -> bytes:
        return self._wire

    def __reduce__(self):
        # the cached handle cannot be pickled; the fields rebuild it
        return type(self), (self.modulus, self.exponent)

    @classmethod
    def parse(cls, data: bytes, offset: int = 0) -> tuple["PublicKey", int]:
        modulus, offset = _read_int(data, offset)
        exponent, offset = _read_int(data, offset)
        return cls(modulus, exponent), offset

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        key, offset = cls.parse(data)
        if offset != len(data):
            raise ValueError("trailing bytes after public key")
        return key


@dataclass(frozen=True)
class SecretKey:
    """Private exponent plus the CRT form that signing uses.

    exponent_p = d mod (p - 1), exponent_q = d mod (q - 1) and
    q_inverse = q^-1 mod p are derived once per key; the two prime
    handles are built on first use and, like PublicKey's, are not
    fields.
    """

    modulus: int
    exponent: int
    prime_p: int
    prime_q: int
    exponent_p: int
    exponent_q: int
    q_inverse: int

    @cached_property
    def _crt_powers(self):
        """(m -> m^exponent_p mod p, m -> m^exponent_q mod q), each prime
        in Montgomery form."""
        return (_fixed_powmod(self.exponent_p, self.prime_p),
                _fixed_powmod(self.exponent_q, self.prime_q))

    def __reduce__(self):
        # the cached handles cannot be pickled; the fields rebuild them
        return type(self), (self.modulus, self.exponent, self.prime_p,
                            self.prime_q, self.exponent_p, self.exponent_q,
                            self.q_inverse)


@dataclass(frozen=True)
class ChipKeyPair:
    """The pair a chip's response seeds; seed is that response's bytes,
    kept for crp_audit and left out of equality and repr."""

    chip_id: str
    state_index: int
    public_key: PublicKey
    secret_key: SecretKey
    modulus_bits: int
    seed: bytes = field(compare=False, repr=False)


def key_fingerprint(key: PublicKey) -> str:
    """Short stable hex handle for logs and tables."""
    return hashlib.sha256(key.to_bytes()).hexdigest()[:16]


_SIEVE_BOUND = 1 << 15  # the window sieve uses the odd primes below this
_SIEVE_WINDOW = 256  # odd steps marked per window


def _odd_primes_below(bound: int) -> np.ndarray:
    """Odd primes below bound by the sieve of Eratosthenes, as int64."""
    is_prime = np.ones(bound, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(bound - 1) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    return np.flatnonzero(is_prime)[1:].astype(np.int64)


_SIEVE_PRIMES = _odd_primes_below(_SIEVE_BOUND)  # 3 .. 32749, 3511 primes
_LARGEST_SIEVE_PRIME = int(_SIEVE_PRIMES[-1])
_CHUNK_WORDS = 8  # 32-bit words per 256-bit chunk of a candidate

# Primes below the window width can divide several steps of a window;
# each larger one divides at most one.  Prime i of the 53 below 256
# divides steps hits[i] + k p for k = 0 .. 255 // p, which the two flat
# tables list as (prime index, k p) pairs, 410 in all.  hits[i] < p, so
# every marked step lies below 2 * _SIEVE_WINDOW.
_REPEAT_COUNT = int(np.count_nonzero(_SIEVE_PRIMES < _SIEVE_WINDOW))
_MARK_PRIMES, _MARK_OFFSETS = (np.array(column, dtype=np.intp) for column in zip(*[
    (i, k * p) for i, p in enumerate(_SIEVE_PRIMES[:_REPEAT_COUNT].tolist())
    for k in range((_SIEVE_WINDOW - 1) // p + 1)]))


def _word_powers() -> tuple[np.ndarray, np.ndarray]:
    """2^(32k) mod each sieve prime for the words k < 8 of a chunk, as
    float64 rows so that the chunk product runs through BLAS (about
    225 kB), and 2^256 mod each sieve prime, as int64, to fold one chunk
    into the next.  Built row by row: no temporary outgrows the table."""
    shift = (1 << 32) % _SIEVE_PRIMES
    rows = np.empty((_CHUNK_WORDS, len(_SIEVE_PRIMES)), dtype=np.float64)
    power = np.ones_like(_SIEVE_PRIMES)
    for row in rows:
        row[:] = power
        power = power * shift % _SIEVE_PRIMES
    return rows, power


_WORD_POWERS, _CHUNK_POWER = _word_powers()


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_base2_prp(n: int) -> bool:
    d = n - 1
    twos = (d & -d).bit_length() - 1
    x = _powmod(2, d >> twos, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(twos - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_extra_strong_lucas_prp(n: int) -> bool:
    """Extra-strong Lucas test (Grantham, Frobenius pseudoprimes, 2001).

    n must be odd.  Q = 1 and P is the first of 3, 4, 5, ... with
    Jacobi(P^2 - 4 / n) = -1.  With n + 1 = d 2^s, d odd, n passes iff
    U_d = 0 and V_d = +-2 (mod n), or V_(d 2^r) = 0 for some
    0 <= r < s - 1.  Every odd prime passes but 5, which divides
    3^2 - 4.
    """
    if math.isqrt(n) ** 2 == n:  # no such P exists: the search would not end
        return False
    P = 3
    while True:
        j = _jacobi(P * P - 4, n)
        if j == -1:
            break
        if j == 0:  # P^2 - 4 shares a factor with n
            return False
        P += 1
    d = n + 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    # V = V_k and W = V_k+1 for k running over the binary digits of d,
    # two products per digit: V_2k = V_k^2 - 2 and V_2k+1 = V_k V_k+1 - P.
    # Each value is reduced before its constant is subtracted, so it
    # stays in [-P, n) until the final reduction.
    V, W = P % n, (P * P - 2) % n
    for bit in bin(d)[3:]:
        if bit == "1":
            V = V * W % n - P
            W = W * W % n - 2
        else:
            W = V * W % n - P
            V = V * V % n - 2
    V, W = V % n, W % n
    # (P^2 - 4) U_d = 2 V_d+1 - P V_d, and P^2 - 4 is a unit mod n.
    if (V == 2 or V == n - 2) and (2 * W - P * V) % n == 0:
        return True
    for _ in range(twos - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def _builtin_bpsw_prp(n: int) -> bool:
    """Baillie-PSW in Python: strong base 2, then extra-strong Lucas."""
    return _is_strong_base2_prp(n) and _is_extra_strong_lucas_prp(n)


# The test _next_prime confirms its survivors with: GMP's, in one
# foreign call, where libgmp 6.2 or later loads (PRIME_BACKEND "libgmp"),
# else the Python pair ("builtin").
_is_bpsw_prp = _gmp_bpsw_prp or _builtin_bpsw_prp


def _sieve_residues(candidate: int) -> np.ndarray:
    """candidate mod every sieve prime.

    Each 256-bit chunk of candidate is a row of eight 32-bit words, low
    word first, and one float64 product with _WORD_POWERS gives each
    chunk's sum of word * 2^(32k) mod P: every term is below 2^47 and
    every sum below 2^50 < 2^53, so each term and each partial sum is an
    exact float64, in any summation order.  Higher chunks fold in by
    Horner's rule with 2^256 mod P, in int64.
    """
    chunks = -(-candidate.bit_length() // 256) or 1
    words = np.frombuffer(candidate.to_bytes(32 * chunks, "little"), dtype="<u4")
    sums = words.astype(np.float64).reshape(chunks, _CHUNK_WORDS) @ _WORD_POWERS
    sums = sums.astype(np.int64)
    sums %= _SIEVE_PRIMES
    residues = sums[-1]
    for chunk in sums[-2::-1]:
        residues = (residues * _CHUNK_POWER + chunk) % _SIEVE_PRIMES
    return residues


def _composite_steps(hits: np.ndarray, width: int) -> np.ndarray:
    """Mask of the first width steps of a window: True where some sieve
    prime divides the step's number.  hits[i] is the first step of the
    window that _SIEVE_PRIMES[i] divides, in [0, P); width <= 256.

    The 53 primes below 256 are marked by one assignment through the
    (prime, multiple) tables; each larger prime marks its hit if the
    window reaches it.
    """
    composite = np.zeros(2 * _SIEVE_WINDOW, dtype=bool)
    composite[hits[_MARK_PRIMES] + _MARK_OFFSETS] = True
    single = hits[_REPEAT_COUNT:]
    composite[single[single < width]] = True
    return composite[:width]


def _next_prime(candidate: int, max_steps: int = 1 << 17) -> int:
    """First prime at or after candidate, stepping odd numbers.

    Step s is the number candidate + 2s (candidate made odd).  A window
    sieve marks, _SIEVE_WINDOW steps at a time, every step whose number
    an odd prime below _SIEVE_BOUND divides; the Baillie-PSW test
    _is_bpsw_prp runs on the unmarked steps in order.  The sieve is the
    search's trial division: a step reaches the test only with no odd
    prime factor below 2^15.  With candidate = 2m + 1, a sieve prime P
    divides 2(m + s) + 1 iff s = (P - 1) / 2 - m mod P, plus a multiple
    of P;
    the first such s is taken as ((3P - 1) / 2 - m mod P) mod P, so
    the remainder is never taken of a negative number, which costs
    numpy's int64 remainder about twice as much.
    candidate must exceed the largest sieve prime, which would
    otherwise mark itself (key-size integers always do).
    """
    if candidate <= _LARGEST_SIEVE_PRIME:
        raise ValueError(
            f"candidate must exceed {_LARGEST_SIEVE_PRIME}, got {candidate}")
    candidate |= 1
    # hits[i]: the first step of the window that _SIEVE_PRIMES[i] divides
    hits = (3 * _SIEVE_PRIMES >> 1) - _sieve_residues(candidate >> 1)
    hits %= _SIEVE_PRIMES
    base = 0
    while base < max_steps:
        width = min(_SIEVE_WINDOW, max_steps - base)
        for step in np.flatnonzero(~_composite_steps(hits, width)).tolist():
            n = candidate + 2 * (base + step)
            if _is_bpsw_prp(n):
                return n
        hits = (hits - width) % _SIEVE_PRIMES
        base += width
    raise PrimeSearchExhausted(
        f"no prime within {max_steps} odd steps of the candidate")


def _key_seed_blocks(seed: bytes):
    """Counter-mode SHA-256 over a fixed seed: block i is
    SHA-256(tag || seed || i as a 4-byte word)."""
    for counter in itertools.count():
        yield hashlib.sha256(
            _KDF_TAG + seed + counter.to_bytes(4, "big")).digest()


# Bounded so that memory does not grow with throughput.  A run derives
# each of its pairs once (a fig10 run 19), so the cache hits only when
# the same chips are keyed again, as in perfbench's warm fig10-sweep.
@lru_cache(maxsize=1024)
def _derive_core(seed: bytes, modulus_bits: int):
    half = modulus_bits // 2
    blocks = _key_seed_blocks(seed)

    def candidate() -> int:
        # half is 256, 512 or 1024 bits: whole SHA-256 blocks
        raw = int.from_bytes(
            b"".join(itertools.islice(blocks, half // 256)), "big")
        # top two bits forced so p*q always lands on modulus_bits bits
        return raw | (3 << (half - 2)) | 1

    while True:
        p = _next_prime(candidate())
        q = _next_prime(candidate())
        while q == p:
            q = _next_prime(candidate())
        n = p * q
        if n.bit_length() == modulus_bits:
            break
    phi = (p - 1) * (q - 1)
    e = 65537
    while math.gcd(e, phi) != 1:
        e += 2
    d = pow(e, -1, phi)
    secret = SecretKey(n, d, p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))
    return PublicKey(n, e), secret


def derive_keypair(response: Response, modulus_bits: int = 1024) -> ChipKeyPair:
    """Deterministic RSA pair seeded by a chip response.

    The same response always regenerates the identical pair, which is
    the whole point: keys never need storing next to the chip.
    """
    if modulus_bits not in SUPPORTED_MODULUS_BITS:
        raise ValueError(f"modulus_bits must be one of {SUPPORTED_MODULUS_BITS}")
    public, secret = _derive_core(response.data, modulus_bits)
    return ChipKeyPair(
        chip_id=response.chip_id,
        state_index=response.state_index,
        public_key=public,
        secret_key=secret,
        modulus_bits=modulus_bits,
        seed=response.data,
    )


def keypair_for_chip(chip: SimulatedChip, state_index: int,
                     modulus_bits: int = 1024) -> ChipKeyPair:
    """Extract, respond, derive: the full chip-to-keys pipeline.

    The extraction returns the Prn the chip already holds after its
    first read, so a caller that read the chip builds no second one.
    """
    prn = extract_prn(chip)
    return derive_keypair(respond(prn, make_challenge(state_index)),
                          modulus_bits)


_DIGEST_SIZE = 32


def _padded_digest_int(message: bytes, size: int) -> int:
    if size < _DIGEST_SIZE + 11:
        raise ValueError("modulus too small to carry a padded digest")
    digest = hashlib.sha256(message).digest()
    padded = (b"\x00\x01" + b"\xff" * (size - _DIGEST_SIZE - 3)
              + b"\x00" + digest)
    return int.from_bytes(padded, "big")


def sign(secret_key: SecretKey, message: bytes) -> bytes:
    """Signature over the padded digest of message.

    Computed with the Chinese remainder theorem (Quisquater and
    Couvreur, 1982): one exponentiation mod p and one mod q, each
    through the key's handle for its prime, joined by Garner's formula.
    The result equals em^d mod n, so the signature bytes are the same
    as those of the plain modexp.
    """
    key = secret_key
    size = (key.modulus.bit_length() + 7) // 8
    em = _padded_digest_int(bytes(message), size)
    power_p, power_q = key._crt_powers
    m1 = power_p(em)
    m2 = power_q(em)
    s = m2 + (key.q_inverse * (m1 - m2) % key.prime_p) * key.prime_q
    return s.to_bytes(size, "big")


def verify(public_key: PublicKey, message: bytes, signature: bytes) -> bool:
    """True iff signature opens to the padded digest of message.

    A signature integer at or above the modulus is refused (the RSAVP1
    range check, RFC 8017 section 5.2.2): s + n would otherwise open to
    the same digest as s whenever it fits the key's byte size.
    """
    size = public_key.byte_size
    if len(signature) != size:
        raise SignatureMalformed(
            f"signature must be {size} bytes for this key, got {len(signature)}")
    s = int.from_bytes(signature, "big")
    if s >= public_key.modulus:
        return False
    recovered = public_key._opener(s)
    return recovered == _padded_digest_int(bytes(message), size)


class AuditVerdict(Enum):
    GENUINE = "Genuine"
    IMPOSTOR = "Impostor"


@dataclass(frozen=True)
class Audit:
    """Outcome of one challenge-response audit.

    signature is the chip's signature over the verifier's nonce, the
    transcript of the exchange, or None when no signature was made
    (the claimed key has an unsupported size).  keypair is the pair the
    chip's fresh response seeded, the one that signed (held or derived),
    or None with the signature; it is left out of equality and repr.
    """

    verdict: AuditVerdict
    signature: bytes | None
    keypair: ChipKeyPair | None = field(default=None, compare=False,
                                        repr=False)


def crp_audit(chip: SimulatedChip, expected_key: PublicKey,
              state_index: int, nonce: bytes,
              held: ChipKeyPair | None = None) -> Audit:
    """Challenge the physical chip and test it against a claimed key.

    The chip answers the challenge of state_index and the keypair its
    response seeds signs the fresh nonce.  A derivation is a pure
    function of the response, so a held pair that this response seeded
    at the claimed size is used as it is; without one (no pair, or one
    of another chip, state or size) the audit derives.  Genuine
    requires both that pair's public key to equal the claimed one and
    the nonce signature to verify under the claimed key; an Impostor
    verdict is a result, not an error.  Either way the chip's signature
    and the pair that made it come back with the verdict, so a caller
    keeping the transcript never signs again and a caller keeping pairs
    never derives this pair again.
    """
    nonce = bytes(nonce)
    if not nonce:
        raise ValueError("nonce must be non-empty")
    # built first, so an out-of-range index raises whatever the key size
    challenge = make_challenge(state_index)
    bits = expected_key.modulus.bit_length()
    if bits not in SUPPORTED_MODULUS_BITS:
        return Audit(AuditVerdict.IMPOSTOR, None)
    response = respond(extract_prn(chip), challenge)
    if (held is not None and held.seed == response.data
            and held.modulus_bits == bits):
        pair = held
    else:
        pair = derive_keypair(response, bits)
    signature = sign(pair.secret_key, nonce)
    try:
        signature_ok = verify(expected_key, nonce, signature)
    except SignatureMalformed:
        signature_ok = False
    if signature_ok and pair.public_key == expected_key:
        return Audit(AuditVerdict.GENUINE, signature, pair)
    return Audit(AuditVerdict.IMPOSTOR, signature, pair)
