"""The four benchmark workloads.

Each workload turns the workload seed into inputs, runs one op on them
and checks the op's output.  The three steps are kept apart so that
only `op` is timed:

    wl = WORKLOADS[name](seed)      # set-up: input generation, warm-up
    args = wl.prepare(i)            # inputs of op i (untimed)
    out = wl.op(args)               # the timed op
    digest = wl.check(i, args, out) # raises CheckFailed; returns bytes

Every call into the package goes through a module attribute at call
time (`cc.run_scenario`, never a name bound at import), so the tracing
harness sees the calls it wraps.

Chip seeds are disjoint across workloads and across ops: the bundled
fig10 chips use seeds below 1000 and every other chip seed is
`(workload << 60) | (seed << 24) | counter`, so no workload or op warms
another's key cache.  Cold and warm key derivation therefore come from
how inputs are built, never from touching the package's cache.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import chipchain as cc

MODULUS_BITS = 512
# Two bits below the mining-cost acceptance anchor (16).  Attempts per
# block are geometric, so at 16 one block per op leaves the run-to-run
# spread of op_ms_p50 near 11% across seeds in a 20 s run; at 14 it is
# near 3% and mining is still the largest layer of the op.
MINING_DIFFICULTY = 14
ORACLE_EVERY = 8  # from-scratch rebuild on every 8th chain-repair op
MAX_SEED = 1 << 32
_COUNTER_BITS = 24


class CheckFailed(Exception):
    """An op's output broke one of the workload's expectations."""


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def chip_seed(workload: int, seed: int, counter: int) -> int:
    if not 0 <= counter < 1 << _COUNTER_BITS:
        raise ValueError("chip counter out of range")
    return (workload << 60) | (seed << _COUNTER_BITS) | counter


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


class Fig10Sweep:
    """The bundled fig10 scenario, unchanged, under a new simulation seed per op."""

    name = "fig10-sweep"
    expected = ("network_sim.run_scenario", "chip_model.new_chip",
                "chip_model.extract_prn", "identity.respond",
                "identity.derive_keypair", "identity.sign", "identity.verify",
                "identity.crp_audit", "ledger.build_tree",
                "ledger.rotate_state_reproduce", "ledger.mine_block",
                "pow.pow_search")
    trace_ops = 30

    def __init__(self, seed: int):
        self.seed = seed
        self.config = cc.bundled_scenario("fig10-coexistence")
        # warm-up: one run fills the key cache with the bundled chips' keys
        args = self.prepare(1 << _COUNTER_BITS)
        self.check(-1, args, self.op(args))

    def prepare(self, i: int):
        return self.config, (self.seed << 32) | i

    def op(self, args):
        config, sim_seed = args
        return cc.run_scenario(config, seed=sim_seed)

    def check(self, i, args, log) -> bytes:
        _expect(cc.check_invariants(log) == [], "invariants broken")
        _expect(log.rejections == 1, "spoofer not rejected exactly once")
        _expect(log.admitted == tuple(f"n{k}" for k in range(9)),
                "not all nine devices admitted")
        _expect(log.members == log.admitted and log.evicted == ()
                and log.state_index == 1, "membership lost through rotation")
        _expect(len(log.chain) == 3 and log.chain_ok(), "chain of 3 not verified")
        return _sha("\n".join(log.to_records()).encode(),
                    *(block.block_hash for block in log.chain))


class Fig10Fresh(Fig10Sweep):
    """fig10's topology and schedule with all ten chip seeds new on every op."""

    name = "fig10-fresh"
    trace_ops = 6
    _workload = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.config = cc.bundled_scenario("fig10-coexistence")

    def prepare(self, i: int):
        chips = {
            name: dataclasses.replace(
                spec, seed=chip_seed(self._workload, self.seed, 16 * i + k))
            for k, (name, spec) in enumerate(sorted(self.config.chips.items()))
        }
        return (dataclasses.replace(self.config, chips=chips),
                (self.seed << 32) | i)


class Population:
    """One fresh chip per op: PRN, base and 1000 indexed responses, 512-bit key."""

    name = "population"
    expected = ("chip_model.new_chip", "chip_model.extract_prn",
                "identity.respond", "identity.derive_keypair",
                "entropy_analysis.collision_report")
    trace_ops = 40
    _workload = 2
    geometry = cc.ChipGeometry(rows=2000, redundancy_rows=20)

    def __init__(self, seed: int):
        self.seed = seed
        self.base = cc.make_challenge(0)
        self.challenges = [cc.make_challenge(index) for index in range(1000)]
        self.fingerprints: set[bytes] = set()
        self.responses: set[bytes] = set()
        self.keys: set = set()

    def prepare(self, i: int):
        return i, chip_seed(self._workload, self.seed, i)

    def op(self, args):
        i, seed = args
        chip = cc.new_chip(self.geometry, seed=seed, chip_id=f"p{seed}")
        prn = cc.extract_prn(chip)
        base = cc.respond(prn, self.base)
        answers = [cc.respond(prn, challenge).data
                   for challenge in self.challenges]
        pair = cc.keypair_for_chip(chip, 0, modulus_bits=MODULUS_BITS)
        report = cc.collision_report(self.geometry.rows,
                                     failure_count=len(prn.rows),
                                     population=i + 1)
        return prn, base, answers, pair, report

    def check(self, i, args, out) -> bytes:
        prn, base, answers, pair, report = out
        fingerprint = prn.canonical_bytes
        key = pair.public_key
        _expect(fingerprint not in self.fingerprints, "repeated fingerprint")
        _expect(base.data not in self.responses, "repeated base response")
        _expect(key not in self.keys, "repeated public key")
        _expect(len(set(answers)) == len(answers),
                "repeated response among one chip's challenges")
        _expect(answers[0] == base.data, "challenge 0 answered differently")
        _expect(report.population == i + 1, "wrong population")
        self.fingerprints.add(fingerprint)
        self.responses.add(base.data)
        self.keys.add(key)
        return _sha(fingerprint, cc.key_fingerprint(key).encode(),
                    b"".join(answers), str(report.per_chip).encode())


def random_tree_edges(rng, n: int):
    """Random converging topology over n nodes: node i>0 sends to a node < i.

    The same construction as the repair-equivalence test oracle; node
    "n00" is the root.
    """
    names = ["n%02d" % i for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((names[i], names[parent]))
    return names, edges


class ChainRepair:
    """Replace a seeded victim in a 64-node tree, mine the new root, verify.

    Repairs carry forward: each op starts from the previous op's tree
    and chain.
    """

    name = "chain-repair"
    expected = ("chip_model.new_chip", "chip_model.extract_prn",
                "identity.respond", "identity.derive_keypair", "identity.sign",
                "identity.verify", "ledger.replace_chip", "ledger.mine_block",
                "ledger.verify_tree", "ledger.verify_chain", "pow.pow_search")
    trace_ops = 60
    _workload = 3
    geometry = cc.ChipGeometry(rows=256)
    nodes = 64

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng((self._workload, seed))
        self.names, self.edges = random_tree_edges(rng, self.nodes)
        self.parent = dict(self.edges)
        self.chips = {
            name: cc.new_chip(self.geometry,
                              seed=chip_seed(self._workload, seed, k),
                              chip_id=f"t{k}")
            for k, name in enumerate(self.names)
        }
        self.tree = cc.build_tree(self.edges, self.chips, 0,
                                  modulus_bits=MODULUS_BITS)
        self.chain = [cc.mine_block(self.tree.root_stamp(), cc.ZERO_HASH,
                                    MINING_DIFFICULTY, height=0)]

    def prepare(self, i: int):
        rng = np.random.default_rng((self._workload, self.seed, i))
        victim = self.names[int(rng.integers(0, self.nodes))]
        return victim, chip_seed(self._workload, self.seed, self.nodes + i)

    def op(self, args):
        victim, seed = args
        chip = cc.new_chip(self.geometry, seed=seed, chip_id=f"t{seed}")
        tree, recomputed = cc.replace_chip(self.tree, victim, chip, 0)
        block = cc.mine_block(tree.root_stamp(), self.chain[-1].block_hash,
                              MINING_DIFFICULTY, height=len(self.chain))
        self.tree = tree
        self.chain.append(block)
        self.chips[victim] = chip
        return (recomputed, cc.verify_tree(tree),
                cc.verify_chain(self.chain, MINING_DIFFICULTY))

    def check(self, i, args, out) -> bytes:
        victim, _ = args
        recomputed, tree_ok, chain_ok = out
        path = [victim]
        while path[-1] in self.parent:
            path.append(self.parent[path[-1]])
        _expect(tree_ok, "repaired tree failed verify_tree")
        _expect(chain_ok, "chain failed verify_chain")
        _expect(recomputed == path, "recomputed nodes are not the root path")
        if i % ORACLE_EVERY == 0:
            # repairs carry forward, so this also catches earlier damage
            rebuilt = cc.build_tree(self.edges, self.chips, 0,
                                    modulus_bits=MODULUS_BITS)
            _expect(all(rebuilt.nodes[name].latest_hash
                        == self.tree.nodes[name].latest_hash
                        for name in self.names),
                    "repair differs from a from-scratch rebuild")
        return _sha(self.tree.root_hash, self.chain[-1].block_hash)


WORKLOADS = {wl.name: wl for wl in (Fig10Sweep, Fig10Fresh, Population,
                                    ChainRepair)}
