"""Proof-of-work nonce search.

A single hot loop: find the smallest nonce whose SHA-256 over
(nonce || body) clears a leading-zero-bit difficulty target.
"""

from __future__ import annotations

import hashlib

_NONCE_SPACE = 1 << 64


def active_kernel() -> str:
    """Name of the mining kernel; the pure-Python scan is the only one."""
    return "pure"


def pow_search(body: bytes, nonce_start: int = 0, difficulty_bits: int = 0,
               max_attempts: int | None = None):
    """Linear scan in pure Python.

    Returns (nonce, digest, attempts) for the first qualifying nonce at
    or after nonce_start, or None if the scan exhausted the nonce space
    or the attempt cap first.
    """
    if not 0 <= difficulty_bits <= 256:
        raise ValueError("difficulty_bits must be in [0, 256]")
    if not 0 <= nonce_start < _NONCE_SPACE:
        raise ValueError("nonce_start must fit in 64 bits")
    if max_attempts is not None and max_attempts < 0:
        raise ValueError("max_attempts must be >= 0")
    body = bytes(body)
    # big-endian bytes order like the integers they encode, so the
    # digest clears the target iff it is at most the largest passing value
    limit = ((1 << (256 - difficulty_bits)) - 1).to_bytes(32, "big")
    remaining = _NONCE_SPACE - nonce_start
    if max_attempts is not None:
        remaining = min(remaining, max_attempts)
    sha256 = hashlib.sha256
    nonce = nonce_start
    for attempt in range(remaining):
        digest = sha256(nonce.to_bytes(8, "big") + body).digest()
        if digest <= limit:
            return nonce, digest, attempt + 1
        nonce += 1
    return None
