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


def _target(difficulty_bits) -> bytes:
    """The largest 32-byte digest with difficulty_bits leading zero bits.

    Big-endian bytes order like the integers they encode, so a digest
    clears the difficulty iff it compares at most this.
    """
    bits = _difficulty(difficulty_bits)
    return ((1 << (256 - bits)) - 1).to_bytes(32, "big")


def _nonce_start(value) -> int:
    """A nonce to scan from: it packs in the message's 8 bytes."""
    return _number_in(value, "nonce start", _NONCE_SPACE - 1, "2^64 - 1")


def _max_attempts(value) -> int:
    """An attempt cap: the whole nonce space at most."""
    return _number_in(value, "max attempts", _NONCE_SPACE, "2^64")


def pow_search(body: bytes, nonce_start: int = 0, difficulty_bits: int = 0,
               max_attempts: int | None = None):
    """Linear scan in pure Python.

    Returns (nonce, digest, attempts) for the first qualifying nonce at
    or after nonce_start, or None if the scan exhausted the nonce space
    or the attempt cap first.
    """
    limit = _target(difficulty_bits)
    nonce_start = _nonce_start(nonce_start)
    end = _NONCE_SPACE
    if max_attempts is not None:
        end = min(end, nonce_start + _max_attempts(max_attempts))
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
