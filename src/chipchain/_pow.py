"""Proof-of-work nonce search.

A single hot loop: find the smallest nonce whose SHA-256 over
(nonce || body) clears a leading-zero-bit difficulty target.
"""

from __future__ import annotations

import hashlib

from .errors import _number_in

_NONCE_SPACE = 1 << 64


def active_kernel() -> str:
    """Name of the mining kernel; the pure-Python scan is the only one."""
    return "pure"


def _difficulty(value) -> int:
    """Leading zero bits a digest is checked for: at most all 256 of them."""
    return _number_in(value, "difficulty", 256)


def pow_search(body: bytes, nonce_start: int = 0, difficulty_bits: int = 0,
               max_attempts: int | None = None):
    """Linear scan in pure Python.

    Returns (nonce, digest, attempts) for the first qualifying nonce at
    or after nonce_start, or None if the scan exhausted the nonce space
    or the attempt cap first.
    """
    difficulty_bits = _difficulty(difficulty_bits)
    if not 0 <= nonce_start < _NONCE_SPACE:
        raise ValueError("nonce_start must fit in 64 bits")
    if max_attempts is not None and max_attempts < 0:
        raise ValueError("max_attempts must be >= 0")
    # big-endian bytes order like the integers they encode, so the
    # digest clears the target iff it is at most the largest passing value
    limit = ((1 << (256 - difficulty_bits)) - 1).to_bytes(32, "big")
    end = _NONCE_SPACE
    if max_attempts is not None:
        end = min(end, nonce_start + max_attempts)
    sha256 = hashlib.sha256
    # nonce || body in one buffer: the top 7 nonce bytes are written
    # once per 256 nonces and only the low byte inside
    message = bytearray(8) + bytes(body)
    nonce = nonce_start
    while nonce < end:
        high = nonce >> 8
        message[:7] = high.to_bytes(7, "big")
        for low in range(nonce & 0xFF, min(end - (high << 8), 256)):
            message[7] = low
            digest = sha256(message).digest()
            if digest <= limit:
                nonce = high << 8 | low
                return nonce, digest, nonce - nonce_start + 1
        nonce = (high + 1) << 8
    return None
