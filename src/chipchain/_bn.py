"""Modular exponentiation through the system's libcrypto.

Two entry points give the numbers of builtin pow:

- powmod(base, exponent, modulus), one-shot, for the base-2 test of key
  generation, where every candidate is a new modulus;
- fixed_powmod(exponent, modulus), a handle for a key: it converts the
  exponent and the modulus once and puts the modulus in Montgomery form
  once (a BN_MONT_CTX; Montgomery 1985), as OpenSSL's own RSA caches one
  per key.  handle(base) is pow(base, exponent, modulus).

Both call OpenSSL's BN_mod_exp_mont in libcrypto.so.3, the library
Python's own _hashlib links.  The one-shot call passes no Montgomery
context, so libcrypto builds one for that call alone: building a handle
would cost the same conversions and the same context plus the foreign
calls that create and free them.  BN_mod_exp_mont takes odd moduli only,
so an even modulus, a modulus below 3, or a negative base or exponent
goes to builtin pow.  Each operand is converted at its own byte length:
in CRT signing the padded message is longer than the prime modulus.

The library is opened by its soname, with no search
(ctypes.util.find_library would run ldconfig).  If it cannot be opened
or lacks a function, BACKEND is "builtin": powmod is builtin pow and a
handle is a closure over it.

A ctypes mistake crashes the process instead of raising, so the surface
is kept small: nine functions, each with declared argument and result
types, every return code checked.  One BN_CTX with four scratch
BIGNUMs is allocated once and released with the process (freeing them
at exit could pull them from under a daemon thread still inside a
call).  Beside them sits one scratch output buffer that every call
writes its result into and reads it back from; it starts at 256 bytes
(a 2048-bit modulus) and only grows, under the lock, when a larger
modulus comes.  A handle does not keep a buffer of its own, since a
key cache keeps every key's handles alive.  ctypes releases the GIL
during each foreign call, so a lock guards the BN_CTX, the scratch
BIGNUMs and the buffer, which is read before the lock is released.

A handle owns its exponent, modulus and Montgomery context: the caller
that keeps the handle (a key, in identity) owns them.  They are freed
when the handle is collected, through free functions that the handle's
class holds in a closure, so module teardown cannot take them away.
Once the interpreter is finalizing a collected handle frees nothing,
for the same daemon threads.  A handle refuses pickling and copying: a
copy would free the same native objects twice.
"""

from __future__ import annotations

import ctypes
import sys
import threading

_LIBRARY = "libcrypto.so.3"

_P = ctypes.c_void_p
_INT = ctypes.c_int
_SIGNATURES = {  # name: (restype, argtypes)
    "BN_CTX_new": (_P, []),
    "BN_new": (_P, []),
    "BN_clear_free": (None, [_P]),
    "BN_bin2bn": (_P, [ctypes.c_char_p, _INT, _P]),
    "BN_bn2binpad": (_INT, [_P, ctypes.c_char_p, _INT]),
    "BN_MONT_CTX_new": (_P, []),
    "BN_MONT_CTX_set": (_INT, [_P, _P, _P]),
    "BN_MONT_CTX_free": (None, [_P]),
    "BN_mod_exp_mont": (_INT, [_P, _P, _P, _P, _P, _P]),
}


def _to_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _pow_closure(exponent: int, modulus: int):
    """The fixed-modulus handle on builtin pow."""
    return lambda base: pow(base, exponent, modulus)


def _load(name: str = _LIBRARY):
    """(powmod, fixed_powmod, backend name) for the library name, or the
    builtin pow ones."""
    try:
        lib = ctypes.CDLL(name)
        funcs = {fname: getattr(lib, fname) for fname in _SIGNATURES}
    except (OSError, AttributeError):
        return pow, _pow_closure, "builtin"
    for fname, (restype, argtypes) in _SIGNATURES.items():
        funcs[fname].restype = restype
        funcs[fname].argtypes = argtypes

    ctx = funcs["BN_CTX_new"]()
    scratch = [funcs["BN_new"]() for _ in range(4)]
    if not ctx or not all(scratch):
        raise MemoryError("libcrypto could not allocate its scratch numbers")

    result_bn, base_bn, exponent_bn, modulus_bn = scratch
    bin2bn = funcs["BN_bin2bn"]
    bn2binpad = funcs["BN_bn2binpad"]
    mod_exp = funcs["BN_mod_exp_mont"]
    mont_new = funcs["BN_MONT_CTX_new"]
    mont_set = funcs["BN_MONT_CTX_set"]
    mont_free = funcs["BN_MONT_CTX_free"]
    bn_free = funcs["BN_clear_free"]
    is_finalizing = sys.is_finalizing
    lock = threading.Lock()
    out = ctypes.create_string_buffer(256)

    def reserve(size: int) -> None:
        """Grow the output buffer to at least size bytes; lock held."""
        nonlocal out
        if size > len(out):
            out = ctypes.create_string_buffer(size)

    def powmod(base: int, exponent: int, modulus: int) -> int:
        if base < 0 or exponent < 0 or modulus < 3 or not modulus & 1:
            return pow(base, exponent, modulus)
        b, e = _to_bytes(base), _to_bytes(exponent)
        size = (modulus.bit_length() + 7) // 8
        m = modulus.to_bytes(size, "big")
        with lock:
            reserve(size)
            if (bin2bn(b, len(b), base_bn)
                    and bin2bn(e, len(e), exponent_bn)
                    and bin2bn(m, size, modulus_bn)
                    and mod_exp(result_bn, base_bn, exponent_bn, modulus_bn,
                                ctx, None)
                    and bn2binpad(result_bn, out, size) == size):
                return int.from_bytes(out[:size], "big")
        raise RuntimeError("libcrypto BN_mod_exp_mont failed")

    class MontgomeryPowmod:
        """base -> pow(base, exponent, modulus) for an odd modulus above 2
        and a non-negative exponent, both converted once."""

        __slots__ = ("_exponent", "_modulus", "_exponent_bn", "_modulus_bn",
                     "_mont", "_size")

        def __init__(self, exponent: int, modulus: int):
            e = _to_bytes(exponent)
            size = (modulus.bit_length() + 7) // 8
            m = modulus.to_bytes(size, "big")
            self._exponent, self._modulus, self._size = exponent, modulus, size
            self._exponent_bn = bin2bn(e, len(e), None)
            self._modulus_bn = bin2bn(m, size, None)
            self._mont = mont_new()
            if not (self._exponent_bn and self._modulus_bn and self._mont):
                raise MemoryError("libcrypto could not allocate a handle")
            with lock:
                reserve(size)  # so that a call never needs to grow it
                ok = mont_set(self._mont, self._modulus_bn, ctx)
            if not ok:
                raise RuntimeError("libcrypto BN_MONT_CTX_set failed")

        def __call__(self, base: int) -> int:
            if base < 0:
                return pow(base, self._exponent, self._modulus)
            b, size = _to_bytes(base), self._size
            with lock:
                if (bin2bn(b, len(b), base_bn)
                        and mod_exp(result_bn, base_bn, self._exponent_bn,
                                    self._modulus_bn, ctx, self._mont)
                        and bn2binpad(result_bn, out, size) == size):
                    return int.from_bytes(out[:size], "big")
            raise RuntimeError("libcrypto BN_mod_exp_mont failed")

        def __reduce__(self):
            raise TypeError("a libcrypto handle cannot be pickled or copied")

        def __del__(self):
            # freeing NULL is a no-op, so a half-built handle frees too
            if is_finalizing():
                return
            mont_free(getattr(self, "_mont", None))
            bn_free(getattr(self, "_modulus_bn", None))
            bn_free(getattr(self, "_exponent_bn", None))

    def fixed_powmod(exponent: int, modulus: int):
        if exponent < 0 or modulus < 3 or not modulus & 1:
            return _pow_closure(exponent, modulus)
        return MontgomeryPowmod(exponent, modulus)

    return powmod, fixed_powmod, "libcrypto"


powmod, fixed_powmod, BACKEND = _load()
