"""Modular exponentiation through the system's libcrypto.

powmod(base, exponent, modulus) returns pow(base, exponent, modulus).
For a non-negative base and exponent and a positive modulus it calls
OpenSSL's BN_mod_exp (Montgomery multiplication for odd moduli,
Montgomery 1985) in libcrypto.so.3, the library Python's own _hashlib
links; any other arguments go to builtin pow.  Each operand is
converted at its own byte length: in CRT signing the padded message is
longer than the prime modulus.

The library is opened by its soname, with no search
(ctypes.util.find_library would run ldconfig).  If it cannot be opened
or lacks a function, powmod is builtin pow and BACKEND is "builtin".

A ctypes mistake crashes the process instead of raising, so the
surface is kept small: five functions, each with declared argument
and result types, every return code checked, and one BN_CTX with four
scratch BIGNUMs, allocated once and released with the process (freeing
them at exit could pull them from under a daemon thread still inside a
call).  ctypes releases the GIL during each foreign call, so a lock
guards the scratch BIGNUMs.
"""

from __future__ import annotations

import ctypes
import threading

_LIBRARY = "libcrypto.so.3"

_P = ctypes.c_void_p
_SIGNATURES = {  # name: (restype, argtypes)
    "BN_CTX_new": (_P, []),
    "BN_new": (_P, []),
    "BN_bin2bn": (_P, [ctypes.c_char_p, ctypes.c_int, _P]),
    "BN_mod_exp": (ctypes.c_int, [_P, _P, _P, _P, _P]),
    "BN_bn2binpad": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_int]),
}


def _to_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _load(name: str = _LIBRARY):
    """(powmod, backend name) for the library name, or builtin pow."""
    try:
        lib = ctypes.CDLL(name)
        funcs = {fname: getattr(lib, fname) for fname in _SIGNATURES}
    except (OSError, AttributeError):
        return pow, "builtin"
    for fname, (restype, argtypes) in _SIGNATURES.items():
        funcs[fname].restype = restype
        funcs[fname].argtypes = argtypes

    ctx = funcs["BN_CTX_new"]()
    scratch = [funcs["BN_new"]() for _ in range(4)]
    if not ctx or not all(scratch):
        raise MemoryError("libcrypto could not allocate its scratch numbers")

    result, base_bn, exponent_bn, modulus_bn = scratch
    bin2bn = funcs["BN_bin2bn"]
    mod_exp = funcs["BN_mod_exp"]
    bn2binpad = funcs["BN_bn2binpad"]
    lock = threading.Lock()

    def powmod(base: int, exponent: int, modulus: int) -> int:
        if base < 0 or exponent < 0 or modulus < 1:
            return pow(base, exponent, modulus)
        b, e = _to_bytes(base), _to_bytes(exponent)
        size = (modulus.bit_length() + 7) // 8
        m = modulus.to_bytes(size, "big")
        out = ctypes.create_string_buffer(size)
        with lock:
            ok = (bin2bn(b, len(b), base_bn)
                  and bin2bn(e, len(e), exponent_bn)
                  and bin2bn(m, size, modulus_bn)
                  and mod_exp(result, base_bn, exponent_bn, modulus_bn, ctx)
                  and bn2binpad(result, out, size) == size)
        if not ok:
            raise RuntimeError("libcrypto BN_mod_exp failed")
        return int.from_bytes(out.raw, "big")

    return powmod, "libcrypto"


powmod, BACKEND = _load()
