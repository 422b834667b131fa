"""Independent reference implementations used to pin library results.

Everything in this file is written the slow, obvious way and shares no
code with the package but its exception types: binomials as explicit
products cross-checked against a Pascal recurrence, transfer schedules
by repeated scanning, root folds by replaying the byte rules over plain
dicts, a chain's verdict by rehashing every block from its fields.
Tests freeze several outputs of these oracles as literals.
"""

import fractions
import hashlib
import hmac
import math
import struct

from chipchain.errors import PrimeSearchExhausted


def binom_product(n: int, k: int) -> int:
    """C(n, k) as the explicit multiplicative product, exact at every step."""
    if n < 0 or k < 0:
        raise ValueError("negative argument")
    if k > n:
        raise ValueError("k exceeds n")
    k = min(k, n - k)
    acc = 1
    for i in range(k):
        acc = acc * (n - i) // (i + 1)
    return acc


def binom_pascal(n: int, k: int) -> int:
    """C(n, k) by building Pascal rows; quadratic, for cross-checking only."""
    if k > n or k < 0 or n < 0:
        raise ValueError("out of range")
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def is_prime_trial(n: int, witnesses=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)) -> bool:
    """Miller-Rabin with a fixed witness set, written independently."""
    if n < 2:
        return False
    for p in witnesses:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The first 40 primes, 2 .. 173, by trial division.
MR40_WITNESSES = tuple(p for p in range(2, 174) if all(p % q for q in range(2, p)))


def is_prime_mr40(n: int) -> bool:
    """The 40-witness Miller-Rabin schedule that confirmed key primes
    before Baillie-PSW replaced it: trial division by the first 40
    primes, then a strong test to each of them as base.  Deterministic,
    and the reference the package's primality test must agree with.
    """
    return is_prime_trial(n, MR40_WITNESSES)


def jacobi_oracle(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by the textbook rules: reduce
    a mod n, pull out factors of 2 with (2/n) = (-1)^((n^2 - 1)/8), and
    swap by quadratic reciprocity, (-1)^((a - 1)(n - 1)/4)."""
    sign = 1
    a %= n
    while a > 1:
        if a % 2 == 0:
            sign *= (-1) ** ((n * n - 1) // 8)
            a //= 2
        else:
            sign *= (-1) ** ((a - 1) * (n - 1) // 4)
            a, n = n % a, a
    if a == 0:
        return 1 if n == 1 else 0
    return sign


def extra_strong_lucas_oracle(n: int) -> bool:
    """Extra-strong Lucas test from its definition, for odd n > 0.

    Q = 1 and P is the first of 3, 4, 5, ... with (P^2 - 4 / n) = -1
    (a Jacobi symbol of 0 rejects n; a square has no such P and is
    rejected).  U_d and V_d for the odd part d of n + 1 = d 2^s come
    from the doubling formulas of both sequences, U_2k = U_k V_k and
    V_2k = V_k^2 - 2, and the step formulas U_k+1 = (P U_k + V_k) / 2
    and V_k+1 = (D U_k + P V_k) / 2.  n passes iff U_d = 0 and
    V_d = +-2, or V_(d 2^r) = 0 for some 0 <= r < s - 1.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    P = 3
    while True:
        D = P * P - 4
        symbol = jacobi_oracle(D, n)
        if symbol == -1:
            break
        if symbol == 0:
            return False
        P += 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    half = (n + 1) // 2  # 2^-1 mod n
    U, V = 1, P % n  # k = 1
    for digit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2) % n
        if digit == "1":
            U, V = (P * U + V) * half % n, (D * U + P * V) * half % n
    if U == 0 and V in (2 % n, (n - 2) % n):
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


# The first 310 primes but 2, 3 .. 2053, by trial division.
_ORACLE_SIEVE_PRIMES = tuple(p for p in range(3, 2054, 2)
                             if all(p % q for q in range(3, p, 2)))


def next_prime_oracle(candidate: int, max_steps: int = 1 << 17,
                      is_prime=is_prime_mr40) -> int:
    """The per-step prime search the window sieve replaced, unchanged:
    step odd numbers from candidate, test each against every residue
    mod the odd primes up to 2053, and hand the survivors to is_prime.
    candidate must be larger than the sieve primes."""
    if candidate % 2 == 0:
        candidate += 1
    residues = [candidate % p for p in _ORACLE_SIEVE_PRIMES]
    for step in range(max_steps):
        offset = 2 * step
        for r, p in zip(residues, _ORACLE_SIEVE_PRIMES):
            if (r + offset) % p == 0:
                break
        else:
            n = candidate + offset
            if is_prime(n):
                return n
    raise PrimeSearchExhausted(
        f"no prime within {max_steps} odd steps of the candidate")


def bruteforce_schedule(node_ids, edges):
    """Transfer order by repeatedly scanning for the smallest ready node.

    A node is ready once every edge pointing at it has been emitted.
    Returns (schedule, sink). Raises ValueError on cycles or when the
    edge set does not funnel into exactly one sink.
    """
    nodes = sorted(node_ids)
    pending_in = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for src, dst in edges:
        pending_in[dst] += 1
        out[src].append(dst)
    for n in nodes:
        out[n].sort()
    done = set()
    schedule = []
    while len(done) < len(nodes):
        ready = [n for n in nodes if n not in done and pending_in[n] == 0]
        if not ready:
            raise ValueError("cycle")
        n = ready[0]
        done.add(n)
        for dst in out[n]:
            schedule.append((n, dst))
            pending_in[dst] -= 1
    sinks = [n for n in nodes if not out[n]]
    if len(sinks) != 1:
        raise ValueError("want exactly one sink, got %d" % len(sinks))
    return schedule, sinks[0]


def oracle_root_fold(edges, public_keys, sign_fn):
    """Replay the ledger byte rules over flat dicts.

    public_keys maps node id to serialized public key bytes; sign_fn(node,
    payload) must produce the node's signature bytes.  Returns the final
    folded hash per node, computed without any package bookkeeping.
    """
    schedule, _sink = bruteforce_schedule(public_keys.keys(), edges)
    latest = {}
    latest_sig = {}
    for n, pk in public_keys.items():
        latest[n] = hashlib.sha256(pk + bytes(32) + b"").digest()
        latest_sig[n] = b""
    for src, dst in schedule:
        h = hashlib.sha256(public_keys[src] + latest[src] + latest_sig[src]).digest()
        sig = sign_fn(src, public_keys[dst] + h)
        latest[dst] = hashlib.sha256(public_keys[dst] + latest[dst] + h).digest()
        latest_sig[dst] = sig
    return latest


def verify_chain_oracle(blocks, difficulty_bits: int) -> bool:
    """verify_chain's loop as it stood before blocks kept the bytes they
    seal: every block's hash recomputed from its fields, the difficulty
    counted as leading zero bits.  The two helpers it called are inlined,
    and the stamp is serialized from its fields, so this shares no code
    with the package."""

    def field(value: int) -> bytes:
        raw = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
        return len(raw).to_bytes(4, "big") + raw

    def block_hash(nonce, stamp, prev_block_hash):
        key = stamp.root_key
        stamp_bytes = (field(key.modulus) + field(key.exponent)
                       + stamp.root_hash + stamp.state_index.to_bytes(8, "big"))
        return hashlib.sha256(nonce.to_bytes(8, "big") + stamp_bytes
                              + prev_block_hash).digest()

    def leading_zero_bits(digest):
        return 8 * len(digest) - int.from_bytes(digest, "big").bit_length()

    prev = bytes(32)
    for position, block in enumerate(blocks):
        if block.height != position:
            return False
        if block.prev_block_hash != prev:
            return False
        if block_hash(block.nonce, block.stamp, block.prev_block_hash) \
                != block.block_hash:
            return False
        if leading_zero_bits(block.block_hash) < difficulty_bits:
            return False
        prev = block.block_hash
    return True


def random_tree_edges(rng, n: int):
    """Random converging topology over n nodes: node i>0 sends to a node < i.

    Node ids sort lexicographically ("n00".."n63"), node "n00" is the sink.
    """
    names = ["n%02d" % i for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((names[i], names[parent]))
    return names, edges


def geometric_median_bounds(p: fractions.Fraction, runs: int):
    """Sanity range for the median of `runs` geometric draws with success p.

    The median of a geometric distribution is about ln 2 / p; the wide
    [mean/4, mean*4] envelope used by the mining test comes from here.
    """
    mean = 1 / p
    return mean / 4, mean * 4


def hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """Textbook HMAC written out from the RFC 2104 construction."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key + bytes(block - len(key))
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.sha256(ipad + msg).digest()
    return hashlib.sha256(opad + inner).digest()


def hmac_sha256_library(key: bytes, msg: bytes) -> bytes:
    """The standard library's HMAC-SHA256, a second, independent oracle."""
    return hmac.digest(key, msg, "sha256")


def response_oracle(prn_rows, total_rows: int, challenge_data: bytes,
                    mac=hmac_sha256) -> bytes:
    """Recompute the 64-byte keyed response from first principles."""
    key = struct.pack(">II", total_rows, len(prn_rows))
    for r in sorted(prn_rows):
        key += struct.pack(">I", r)
    out = b""
    for counter in (0, 1):
        out += mac(key, challenge_data + struct.pack(">I", counter))
    return out


def rsa_sign_oracle(message: bytes, d: int, n: int) -> bytes:
    """Textbook RSA signature: one full modexp with d over the padded digest.

    The encoded message is 00 01, then 0xff filler, then 00 and the
    SHA-256 digest, filling the byte length of n.
    """
    size = (n.bit_length() + 7) // 8
    digest = hashlib.sha256(message).digest()
    encoded = b"\x00\x01" + b"\xff" * (size - len(digest) - 3) + b"\x00" + digest
    return pow(int.from_bytes(encoded, "big"), d, n).to_bytes(size, "big")


class DenseChipOracle:
    """A chip's cells as full per-column lists, written out cell by cell.

    Every regular row and every spare row of a touched column is a
    stored cell, the dead regular cells at failure rows included; a
    normal-mode write skips those and writes the spare each failure row
    is swapped to instead.  read_normal returns None until the column
    has seen a write in both modes.
    """

    def __init__(self, rows: int, redundancy_rows: int, swap_map):
        self.rows = rows
        self.redundancy_rows = redundancy_rows
        self.swap_map = dict(swap_map)
        self.regular = {}
        self.spare = {}
        self.modes = {}

    def write(self, mode: str, column: int, value: int) -> None:
        regular = self.regular.setdefault(column, [0] * self.rows)
        spare = self.spare.setdefault(column, [0] * self.redundancy_rows)
        if mode == "normal":
            for row in range(self.rows):
                if row in self.swap_map:
                    spare[self.swap_map[row]] = value
                else:
                    regular[row] = value
        else:
            for index in range(self.redundancy_rows):
                spare[index] = value
        self.modes.setdefault(column, set()).add(mode)

    def read_normal(self, column: int):
        if self.modes.get(column) != {"normal", "special"}:
            return None
        regular, spare = self.regular[column], self.spare[column]
        return [spare[self.swap_map[row]] if row in self.swap_map else regular[row]
                for row in range(self.rows)]
