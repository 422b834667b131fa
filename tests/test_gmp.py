"""GMP's Baillie-PSW test agrees with the package's Python pair, and the
package uses it wherever libgmp 6.2 or later loads."""

import ctypes
import sys
import threading

import pytest

from chipchain import PRIME_BACKEND, _gmp, identity

from conftest import HandOverLock
from oracles import is_prime_mr40


def _system_gmp_version():
    """(major, minor) of the libgmp.so.10 this process can open, read
    without _gmp, or None."""
    try:
        lib = ctypes.CDLL("libgmp.so.10")
        text = ctypes.c_char_p.in_dll(lib, "__gmp_version").value
    except (OSError, ValueError):
        return None
    return tuple(int(part) for part in text.decode().split(".")[:2])


needs_gmp = pytest.mark.skipif(_gmp.is_bpsw_prp is None,
                               reason="no libgmp 6.2 or later here")


def test_backend_is_libgmp_wherever_it_loads():
    """A silent fallback would keep every result and lose the speed."""
    version = _system_gmp_version()
    if version is None or version < (6, 2):
        pytest.skip("no libgmp.so.10 of version 6.2 or later here")
    assert PRIME_BACKEND == _gmp.BACKEND == "libgmp"
    assert identity._is_bpsw_prp is _gmp.is_bpsw_prp


@pytest.mark.parametrize("name", ["libchipchain-absent.so.0", "libc.so.6"])
def test_load_falls_back_without_libgmp(name):
    # the first cannot be opened; the second has no __gmp_version
    assert _gmp._load(name) == (None, "builtin")


@pytest.mark.parametrize("version", [(6, 1), (5, 1), (4, 3)])
def test_load_refuses_gmp_before_6_2(monkeypatch, version):
    """Before 6.2, reps counted Miller-Rabin rounds and no Lucas test
    ran, so the library is not used."""
    if _system_gmp_version() is None:
        pytest.skip("no libgmp.so.10 here")
    monkeypatch.setattr(_gmp, "_version", lambda lib: version)
    assert _gmp._load() == (None, "builtin")


@needs_gmp
def test_reads_the_library_version():
    assert _gmp._version(ctypes.CDLL("libgmp.so.10")) == _system_gmp_version()


MERSENNE_EXPONENTS = [61, 89, 107, 127, 521, 607, 1279, 2203, 2281]


@needs_gmp
@pytest.mark.parametrize("exponent", MERSENNE_EXPONENTS)
def test_mersenne_primes_and_their_neighbours(exponent):
    """Primes of 61 to 2281 bits, whose bytes fill whole limbs or not,
    and the odd numbers beside them."""
    prime = (1 << exponent) - 1
    assert _gmp.is_bpsw_prp(prime)
    assert identity._builtin_bpsw_prp(prime)
    for n in (prime - 2, prime + 2):
        assert _gmp.is_bpsw_prp(n) == identity._builtin_bpsw_prp(n), n


@needs_gmp
def test_small_numbers():
    """0, 1 and 2, which no key search reaches, get the plain verdict."""
    assert [_gmp.is_bpsw_prp(n) for n in range(4)] == [False, False, True, True]


@needs_gmp
def test_threads_share_the_scratch_number(monkeypatch):
    """Each call imports n into one scratch mpz_t and tests it under the
    lock.  The lock hands over at each release, so a test run after the
    release would see another thread's number.  Threads test primes and
    composites of 256 to 2048 bits at once, more threads than cores."""
    with monkeypatch.context() as patch:
        patch.setattr(_gmp.threading, "Lock", HandOverLock)
        is_bpsw_prp, backend = _gmp._load()
    assert backend == "libgmp"
    numbers = [(1 << 521) - 1, (1 << 607) - 1, (1 << 1279) - 1,
               (1 << 2203) - 1, (1 << 255) - 19, (1 << 127) - 1]
    cases = [(n + delta, is_prime_mr40(n + delta))
             for n in numbers for delta in (0, 2)]
    threads, rounds = 6, 20
    barrier = threading.Barrier(threads)
    failures = []

    def work(index):
        barrier.wait(timeout=30)
        for k in range(rounds):
            n, expected = cases[(index + k) % len(cases)]
            if is_bpsw_prp(n) != expected:
                failures.append((index, k))

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []
