"""The libcrypto modular exponentiation agrees with builtin pow."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chipchain import POWMOD_BACKEND, _bn, identity

from conftest import HandOverLock
from oracles import rsa_sign_oracle

SRC = str(Path(__file__).resolve().parent.parent / "src")


@st.composite
def _operands(draw):
    """A modulus of 16 to 4096 bits, odd or even, with a base that may
    exceed it and an exponent of up to 600 bits."""
    bits = draw(st.integers(16, 4096))
    modulus = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    base = draw(st.integers(0, (1 << (bits + 64)) - 1))
    exponent = draw(st.integers(0, (1 << min(bits, 600)) - 1))
    return base, exponent, modulus


@settings(max_examples=150)
@given(_operands())
def test_powmod_matches_builtin_pow(operands):
    assert _bn.powmod(*operands) == pow(*operands)


@pytest.mark.parametrize("bits", [512, 1024, 2048, 4096])
def test_powmod_full_size_exponent(bits):
    modulus = (1 << bits) - 159  # odd
    base = 3 ** (bits // 2) % modulus
    exponent = modulus - 2
    assert _bn.powmod(base, exponent, modulus) == pow(base, exponent, modulus)
    assert _bn.powmod(base, exponent, modulus + 1) == pow(base, exponent,
                                                           modulus + 1)


EDGE_CASES = [
    # base at or above the modulus
    (7, 5, 7), (8, 5, 7), (1 << 600, 3, (1 << 255) - 19),
    ((1 << 255) - 19, 9, (1 << 255) - 19),
    # base 0
    (0, 0, 7), (0, 5, 7), (0, 0, 1 << 64), (0, 3, (1 << 521) - 1),
    # exponents 0 and 1
    (5, 0, 7), (5, 1, 7), (12345, 0, (1 << 127) - 1),
    (1 << 300, 1, (1 << 127) - 1), (9, 1, 8),
    # modulus 1
    (0, 0, 1), (5, 0, 1), (5, 3, 1), (1 << 200, 1 << 200, 1),
    # even moduli
    (3, 10, 2), (3, 10, 8), (5, 117, 1 << 64), (7, (1 << 200) + 1, 10 ** 40),
    (2, 1000, 1 << 512), ((1 << 512) + 3, 65537, (1 << 1024) - 2),
    # arguments libcrypto is not asked for
    (-3, 5, 7), (3, -1, 7), (3, 2, -7), (-(1 << 300), 5, (1 << 127) - 1),
]


@pytest.mark.parametrize("base,exponent,modulus", EDGE_CASES)
def test_powmod_edge_cases(base, exponent, modulus):
    assert _bn.powmod(base, exponent, modulus) == pow(base, exponent, modulus)


@settings(max_examples=150)
@given(_operands(), st.lists(st.integers(-(1 << 80), 1 << 4160), max_size=4))
def test_fixed_powmod_matches_builtin_pow(operands, more_bases):
    base, exponent, modulus = operands
    handle = _bn.fixed_powmod(exponent, modulus)
    for b in [base, *more_bases]:
        assert handle(b) == pow(b, exponent, modulus)


@pytest.mark.parametrize("base,exponent,modulus", EDGE_CASES)
def test_fixed_powmod_edge_cases(base, exponent, modulus):
    assert _bn.fixed_powmod(exponent, modulus)(base) == pow(base, exponent,
                                                           modulus)


def test_fixed_powmod_cannot_be_copied():
    """A copy of a libcrypto handle would free its native objects twice."""
    handle = _bn.fixed_powmod(65537, (1 << 521) - 1)
    if POWMOD_BACKEND != "libcrypto":
        pytest.skip("the builtin handle owns no native objects")
    for clone in (pickle.dumps, copy.copy, copy.deepcopy):
        with pytest.raises(TypeError, match="cannot be pickled or copied"):
            clone(handle)
    assert handle(3) == pow(3, 65537, (1 << 521) - 1)


def test_powmod_modulus_zero_raises_like_pow():
    with pytest.raises(ValueError):
        _bn.powmod(3, 2, 0)


def test_powmod_from_many_threads():
    """ctypes drops the GIL inside each call, so calls overlap; each
    thread's operands differ in size, and every result must be its own.
    Four threads on two cores, switching as often as the interpreter
    allows."""
    threads, rounds = 4, 60
    cases = []
    for index in range(threads):
        bits = 256 * (index + 1)
        modulus = (1 << bits) - 1 - 2 * index
        operands = [((k + 2) ** 40 + index, modulus >> (k % 7 + 1), modulus)
                    for k in range(rounds)]
        cases.append([(ops, pow(*ops)) for ops in operands])
    barrier = threading.Barrier(threads)
    failures = []

    def work(index):
        barrier.wait(timeout=30)
        for k, (operands, expected) in enumerate(cases[index]):
            if _bn.powmod(*operands) != expected:
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


def test_handles_and_powmod_share_the_output_buffer_across_threads(
        monkeypatch):
    """Every call writes its result into one scratch buffer and reads it
    back under the lock.  Threads call handles of 512-, 1024- and
    2048-bit moduli and the one-shot powmod, whose moduli run up to
    3072 bits, at the same time.  The lock hands over at each release,
    so a result read after the release would be another thread's, of
    another size."""
    if POWMOD_BACKEND != "libcrypto":
        pytest.skip("the builtin backend has no buffer")
    with monkeypatch.context() as patch:
        patch.setattr(_bn.threading, "Lock", HandOverLock)
        powmod, fixed_powmod, _backend = _bn._load()
    rounds = 40
    moduli = [(1 << bits) - 1 - 2 * k
              for k, bits in enumerate((512, 1024, 2048))]
    handles = [fixed_powmod(65537, modulus) for modulus in moduli]
    handle_cases = [[(base, pow(base, 65537, modulus))
                     for base in ((k + 3) ** 50 % modulus
                                  for k in range(rounds))]
                    for modulus in moduli]
    one_shot = [((k + 5) ** 30, 65537, (1 << (512 * (k % 6 + 1))) - 3)
                for k in range(rounds)]
    one_shot_cases = [(ops, pow(*ops)) for ops in one_shot]
    barrier = threading.Barrier(len(handles) + 1)
    failures = []

    def call_handle(index):
        barrier.wait(timeout=30)
        for k, (base, expected) in enumerate(handle_cases[index]):
            if handles[index](base) != expected:
                failures.append((index, k))

    def call_powmod():
        barrier.wait(timeout=30)
        for k, (operands, expected) in enumerate(one_shot_cases):
            if powmod(*operands) != expected:
                failures.append(("powmod", k))

    pool = [threading.Thread(target=call_handle, args=(i,))
            for i in range(len(handles))]
    pool.append(threading.Thread(target=call_powmod))
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in pool)
    assert failures == []


def test_sign_and_verify_from_many_threads():
    """Eight threads sign and verify with one key, whose handles the
    first calls build; every signature must be its own message's."""
    threads, rounds = 8, 12
    pair = identity.derive_keypair(identity.Response("t", 0, bytes(64)), 1024)
    # rebuilt from the fields, so that no handle is built yet
    secret = dataclasses.replace(pair.secret_key)
    public = dataclasses.replace(pair.public_key)
    cases = [[(b"thread %d message %d" % (index, k),
               rsa_sign_oracle(b"thread %d message %d" % (index, k),
                               secret.exponent, secret.modulus))
              for k in range(rounds)] for index in range(threads)]
    barrier = threading.Barrier(threads)
    failures = []

    def work(index):
        barrier.wait(timeout=30)
        for k, (message, expected) in enumerate(cases[index]):
            signature = identity.sign(secret, message)
            if (signature != expected
                    or not identity.verify(public, message, signature)
                    or identity.verify(public, message + b"!", signature)):
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


def test_exit_while_daemon_threads_sign():
    """The main thread returns while daemon threads are inside sign and
    verify; interpreter teardown must not free a handle under them."""
    code = (
        "import pickle, threading\n"
        "import chipchain\n"
        "pair = chipchain.derive_keypair(chipchain.Response('x', 0,"
        " bytes(range(64))), 2048)\n"
        "started = threading.Barrier(5, timeout=30)\n"
        "def work(blob):\n"
        "    secret, public = pickle.loads(blob)\n"
        "    started.wait()\n"
        "    while True:\n"
        "        signature = chipchain.sign(secret, b'nonce')\n"
        "        assert chipchain.verify(public, b'nonce', signature)\n"
        "blob = pickle.dumps((pair.secret_key, pair.public_key))\n"
        "for _ in range(4):\n"
        "    threading.Thread(target=work, args=(blob,), daemon=True).start()\n"
        "del pair\n"
        "started.wait()\n"
        "print('signing')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(3):
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, "signing\n", "")


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_dropped_handles_free_their_native_objects():
    """A kept handle holds two BIGNUMs and a Montgomery context of about
    700 bytes at 1024 bits, so 20 000 leaked ones would add about 14 MB."""
    modulus = (1 << 1024) - 105  # odd

    def churn(count):
        for k in range(count):
            _bn.fixed_powmod(65537 + 2 * k, modulus)

    churn(2000)  # let the allocators reach their steady state
    before = _resident_bytes()
    churn(20000)
    assert _resident_bytes() - before < 4 << 20


@pytest.mark.parametrize("name", ["libchipchain-absent.so.0", "libc.so.6"])
def test_load_falls_back_to_builtin_pow(name):
    # the first cannot be opened; the second has no BN_* functions
    powmod, fixed_powmod, backend = _bn._load(name)
    assert (powmod, backend) == (pow, "builtin")
    assert fixed_powmod is _bn._pow_closure
    assert fixed_powmod(65537, 10 ** 20 + 39)(12345) == pow(12345, 65537,
                                                             10 ** 20 + 39)


def test_package_falls_back_when_libcrypto_cannot_load():
    """With every library refused at import, keys come from builtin pow
    and the Python Baillie-PSW pair, and are the same bytes."""
    code = (
        "import ctypes\n"
        "def refuse(name, *args, **kwargs):\n"
        "    raise OSError(name)\n"
        "ctypes.CDLL = refuse\n"
        "import chipchain\n"
        "from chipchain import identity\n"
        "from chipchain import _bn, identity\n"
        "print(chipchain.POWMOD_BACKEND, identity._powmod is pow,\n"
        "      identity._fixed_powmod is _bn._pow_closure)\n"
        "print(chipchain.PRIME_BACKEND,\n"
        "      identity._is_bpsw_prp is identity._builtin_bpsw_prp)\n"
        "response = chipchain.Response('x', 0, bytes(range(64)))\n"
        "pair = chipchain.derive_keypair(response, 512)\n"
        "print(chipchain.key_fingerprint(pair.public_key))\n"
        "signature = chipchain.sign(pair.secret_key, b'nonce')\n"
        "print(signature.hex(),\n"
        "      chipchain.verify(pair.public_key, b'nonce', signature),\n"
        "      chipchain.verify(pair.public_key, b'nonce!', signature))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    pair = identity.derive_keypair(identity.Response("x", 0, bytes(range(64))),
                                   512)
    signature = identity.sign(pair.secret_key, b"nonce")
    assert out == ["builtin", "True", "True", "builtin", "True",
                   identity.key_fingerprint(pair.public_key),
                   signature.hex(), "True", "False"]


def _hashlib_links_libcrypto3() -> bool:
    """True iff importing _hashlib alone loads libcrypto.so.3."""
    probe = ("import _hashlib, ctypes, os\n"
             "ctypes.CDLL('libcrypto.so.3', mode=os.RTLD_NOLOAD)\n")
    return subprocess.run([sys.executable, "-c", probe],
                          capture_output=True).returncode == 0


def test_backend_is_libcrypto_where_hashlib_links_it():
    """A silent fallback would keep every result and lose the speed."""
    if not _hashlib_links_libcrypto3():
        pytest.skip("_hashlib does not link libcrypto.so.3 here")
    assert POWMOD_BACKEND == "libcrypto"
    assert identity._powmod is _bn.powmod
    assert identity._fixed_powmod is _bn.fixed_powmod
    key = identity.PublicKey((1 << 521) - 1, 65537)
    assert type(key._opener).__name__ == "MontgomeryPowmod"
