import hashlib
import struct

import pytest

from chipchain import active_kernel, pow_search


def sha(nonce: int, body: bytes) -> bytes:
    return hashlib.sha256(struct.pack(">Q", nonce) + body).digest()


def test_difficulty_zero_accepts_first_nonce():
    nonce, digest, attempts = pow_search(b"body", nonce_start=17, difficulty_bits=0)
    assert nonce == 17
    assert attempts == 1
    assert digest == sha(17, b"body")


def test_search_scans_linearly():
    """The winning nonce is the first one meeting the target."""
    body = b"linearity probe"
    nonce, digest, attempts = pow_search(body, difficulty_bits=8)
    assert digest == sha(nonce, body)
    assert digest[0] == 0
    assert attempts == nonce + 1
    for earlier in range(nonce):
        assert sha(earlier, body)[0] != 0


def test_nonce_start_offsets_search():
    body = b"offset probe"
    base_nonce, _, _ = pow_search(body, difficulty_bits=8)
    nonce, _, attempts = pow_search(body, nonce_start=base_nonce + 1, difficulty_bits=8)
    assert nonce > base_nonce
    assert attempts == nonce - base_nonce


def test_max_attempts_exhaustion():
    assert pow_search(b"x", difficulty_bits=200, max_attempts=50) is None
    assert pow_search(b"x", difficulty_bits=0, max_attempts=0) is None


def test_nonce_space_end():
    # two nonces left before the 64-bit space ends
    start = 2**64 - 2
    result = pow_search(b"tail", nonce_start=start, difficulty_bits=255)
    assert result is None or result[0] >= start


@pytest.mark.parametrize("start", [250, 255, 256, 511, 2**64 - 300])
def test_scan_rewrites_nonce_bytes_across_rollovers(start):
    """The scan keeps nonce || body in one buffer and rewrites the high
    nonce bytes once per 256 nonces; every attempt must still hash the
    full nonce, before and after a low-byte rollover.  From 2**64 - 300
    the attempt cap runs past the nonce space and the scan stops at
    its end."""
    body = b"rollover probe"
    winners = []
    for difficulty in list(range(10)) + [256]:
        expected = _integer_rule_search(body, difficulty, 1000, start)
        assert pow_search(body, start, difficulty, max_attempts=1000) == expected
        if expected is not None:
            winners.append(expected[0])
    assert any(nonce >> 8 != start >> 8 for nonce in winners)


def test_last_nonce_is_searchable():
    last = 2**64 - 1
    assert pow_search(b"tail", last, 0) == (last, sha(last, b"tail"), 1)


def test_unreachable_target_ends_at_the_nonce_space():
    assert pow_search(b"tail", nonce_start=2**64 - 2, difficulty_bits=256) is None


def test_validation_errors():
    with pytest.raises(ValueError):
        pow_search(b"x", difficulty_bits=-1)
    with pytest.raises(ValueError):
        pow_search(b"x", difficulty_bits=257)
    with pytest.raises(ValueError):
        pow_search(b"x", nonce_start=2**64)
    with pytest.raises(ValueError):
        pow_search(b"x", nonce_start=-1)
    with pytest.raises(ValueError):
        pow_search(b"x", max_attempts=-1)


def test_non_byte_multiple_difficulty():
    nonce, digest, _ = pow_search(b"partial byte", difficulty_bits=11)
    assert digest[0] == 0
    assert digest[1] >> 5 == 0


def _integer_rule_search(body, difficulty, max_attempts, nonce_start=0):
    """First nonce from nonce_start, within max_attempts and the 64-bit
    nonce space, whose digest, read as an integer, is below
    2**(256 - difficulty)."""
    bound = 1 << (256 - difficulty)
    for nonce in range(nonce_start, min(nonce_start + max_attempts, 2**64)):
        digest = sha(nonce, body)
        if int.from_bytes(digest, "big") < bound:
            return nonce, digest, nonce - nonce_start + 1
    return None


@pytest.mark.parametrize("difficulty", [0, 1, 8, 14, 256])
def test_pure_kernel_matches_integer_rule(difficulty):
    for body in (b"", b"parity", bytes(100)):
        expected = _integer_rule_search(body, difficulty, 1 << 17)
        assert pow_search(body, 0, difficulty, max_attempts=1 << 17) == expected
        if difficulty == 256:
            assert expected is None


def test_active_kernel_reports_something():
    assert active_kernel() == "pure"
