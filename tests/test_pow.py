import hashlib
import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chipchain import HAVE_NATIVE, active_kernel, pow_search, pow_search_pure
from chipchain._pow import _FORCE_PURE

KERNELS = [pow_search_pure] + ([pow_search] if HAVE_NATIVE and not _FORCE_PURE else [])
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE or _FORCE_PURE, reason="compiled kernel unavailable"
)


def sha(nonce: int, body: bytes) -> bytes:
    return hashlib.sha256(struct.pack(">Q", nonce) + body).digest()


@pytest.mark.parametrize("kernel", KERNELS)
def test_difficulty_zero_accepts_first_nonce(kernel):
    nonce, digest, attempts = kernel(b"body", nonce_start=17, difficulty_bits=0)
    assert nonce == 17
    assert attempts == 1
    assert digest == sha(17, b"body")


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_scans_linearly(kernel):
    """The winning nonce is the first one meeting the target."""
    body = b"linearity probe"
    nonce, digest, attempts = kernel(body, difficulty_bits=8)
    assert digest == sha(nonce, body)
    assert digest[0] == 0
    assert attempts == nonce + 1
    for earlier in range(nonce):
        assert sha(earlier, body)[0] != 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_nonce_start_offsets_search(kernel):
    body = b"offset probe"
    base_nonce, _, _ = kernel(body, difficulty_bits=8)
    nonce, _, attempts = kernel(body, nonce_start=base_nonce + 1, difficulty_bits=8)
    assert nonce > base_nonce
    assert attempts == nonce - base_nonce


@pytest.mark.parametrize("kernel", KERNELS)
def test_max_attempts_exhaustion(kernel):
    assert kernel(b"x", difficulty_bits=200, max_attempts=50) is None
    assert kernel(b"x", difficulty_bits=0, max_attempts=0) is None


@pytest.mark.parametrize("kernel", KERNELS)
def test_nonce_space_end(kernel):
    # two nonces left before the 64-bit space ends
    start = 2**64 - 2
    result = kernel(b"tail", nonce_start=start, difficulty_bits=255)
    assert result is None or result[0] >= start


@pytest.mark.parametrize("kernel", KERNELS)
def test_validation_errors(kernel):
    with pytest.raises(ValueError):
        kernel(b"x", difficulty_bits=-1)
    with pytest.raises(ValueError):
        kernel(b"x", difficulty_bits=257)
    with pytest.raises(ValueError):
        kernel(b"x", nonce_start=2**64)
    with pytest.raises(ValueError):
        kernel(b"x", nonce_start=-1)
    with pytest.raises(ValueError):
        kernel(b"x", max_attempts=-1)


@pytest.mark.parametrize("kernel", KERNELS)
def test_non_byte_multiple_difficulty(kernel):
    nonce, digest, _ = kernel(b"partial byte", difficulty_bits=11)
    assert digest[0] == 0
    assert digest[1] >> 5 == 0


def _integer_rule_search(body, difficulty, max_attempts):
    """First nonce from 0 whose digest, read as an integer, is below
    2**(256 - difficulty)."""
    bound = 1 << (256 - difficulty)
    for nonce in range(max_attempts):
        digest = sha(nonce, body)
        if int.from_bytes(digest, "big") < bound:
            return nonce, digest, nonce + 1
    return None


@pytest.mark.parametrize("difficulty", [0, 1, 8, 14, 256])
def test_pure_kernel_matches_integer_rule(difficulty):
    for body in (b"", b"parity", bytes(100)):
        expected = _integer_rule_search(body, difficulty, 1 << 17)
        assert pow_search_pure(body, 0, difficulty, max_attempts=1 << 17) == expected
        if difficulty == 256:
            assert expected is None


def test_active_kernel_reports_something():
    assert active_kernel() in ("native", "pure")


@needs_native
def test_kernels_agree_on_fixed_cases():
    for body in (b"", b"a", b"chip stamp" * 9, bytes(200)):
        for difficulty in (0, 4, 10):
            assert pow_search_pure(body, 0, difficulty) == pow_search(body, 0, difficulty)


@needs_native
@settings(max_examples=150)
@given(
    body=st.binary(min_size=0, max_size=120),
    difficulty=st.integers(min_value=0, max_value=10),
    start=st.integers(min_value=0, max_value=2**63),
)
def test_kernels_agree_fuzz(body, difficulty, start):
    pure = pow_search_pure(body, start, difficulty, max_attempts=4096)
    native = pow_search(body, start, difficulty, max_attempts=4096)
    assert pure == native


@needs_native
def test_kernels_agree_on_exhaustion_boundary():
    body = b"boundary"
    hit = pow_search_pure(body, 0, 8)
    assert hit is not None
    nonce = hit[0]
    assert pow_search(body, 0, 8, max_attempts=nonce) is None
    assert pow_search(body, 0, 8, max_attempts=nonce + 1) == hit


def test_pure_fallback_env(tmp_path):
    """CHIPCHAIN_PURE forces the portable kernel regardless of the build."""
    env = dict(os.environ, CHIPCHAIN_PURE="1")
    code = "import chipchain; print(chipchain.active_kernel())"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "pure"
