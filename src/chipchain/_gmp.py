"""The Baillie-PSW probable-prime test through the system's libgmp.

is_bpsw_prp(n) hands n to GMP's mpz_probab_prime_p with reps = 24,
which runs trial division, a strong base-2 test and a strong Lucas test
(Baillie and Wagstaff 1980) inside one foreign call.  From GMP 6.2 on,
those are all a reps of 24 or below asks for: each rep above 24 adds a
Miller-Rabin round to a random base, so 24 keeps the verdict
deterministic.  Before 6.2, reps counted Miller-Rabin rounds alone and
no Lucas test ran, so an older library is not loaded.

The library is opened by its soname, with no search
(ctypes.util.find_library would run ldconfig), and __gmp_version is read
before anything else.  If the library cannot be opened, lacks a
function, or is older than 6.2, is_bpsw_prp is None and BACKEND is
"builtin": the caller keeps its own test.

A ctypes mistake crashes the process instead of raising, so the surface
is kept small: three functions, each with declared argument and result
types.  n goes in as its big-endian bytes through mpz_import, into one
scratch mpz_t that is initialised once and never freed (freeing it at
exit could pull it from under a daemon thread still inside a call);
mpz_import grows its limbs as a larger n comes.  ctypes releases the GIL
during each foreign call, so a lock guards the scratch number from the
import to the verdict.
"""

from __future__ import annotations

import ctypes
import threading

_LIBRARY = "libgmp.so.10"
_MINIMUM_VERSION = (6, 2)  # the first GMP whose low reps mean Baillie-PSW
_REPS = 24  # trial division and Baillie-PSW, no random-base rounds


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: allocated limbs, signed used limbs, limbs."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("limbs", ctypes.c_void_p)]


_MPZ = ctypes.POINTER(_Mpz)
_SIZE = ctypes.c_size_t
_INT = ctypes.c_int
_SIGNATURES = {  # name: (restype, argtypes)
    "__gmpz_init": (None, [_MPZ]),
    "__gmpz_import": (None, [_MPZ, _SIZE, _INT, _SIZE, _INT, _SIZE,
                             ctypes.c_char_p]),
    "__gmpz_probab_prime_p": (_INT, [_MPZ, _INT]),
}


def _version(lib) -> tuple[int, ...]:
    """The (major, minor) of the library's __gmp_version."""
    text = ctypes.c_char_p.in_dll(lib, "__gmp_version").value
    return tuple(int(part) for part in text.split(b".")[:2])


def _load(name: str = _LIBRARY):
    """(is_bpsw_prp, backend name) for the library name, or (None,
    "builtin") where it cannot be used."""
    try:
        lib = ctypes.CDLL(name)
        if _version(lib) < _MINIMUM_VERSION:
            return None, "builtin"
        funcs = {fname: getattr(lib, fname) for fname in _SIGNATURES}
    except (OSError, AttributeError, ValueError):
        # not there, no __gmp_version (ValueError), or no such function
        return None, "builtin"
    for fname, (restype, argtypes) in _SIGNATURES.items():
        funcs[fname].restype = restype
        funcs[fname].argtypes = argtypes

    scratch = _Mpz()
    funcs["__gmpz_init"](scratch)
    mpz_import = funcs["__gmpz_import"]
    probab_prime = funcs["__gmpz_probab_prime_p"]
    lock = threading.Lock()

    def is_bpsw_prp(n: int) -> bool:
        """True iff n > 0 passes GMP's trial division and Baillie-PSW."""
        data = n.to_bytes((n.bit_length() + 7) // 8, "big")
        with lock:
            mpz_import(scratch, len(data), 1, 1, 0, 0, data)
            return probab_prime(scratch, _REPS) != 0

    return is_bpsw_prp, "libgmp"


is_bpsw_prp, BACKEND = _load()
