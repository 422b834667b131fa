"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Each criterion states its own tolerance and, where one
applies, its runtime budget; the assertions enforce exactly what the
printed line reports.
"""

import dataclasses
import random
import statistics
import time
from fractions import Fraction

import numpy as np

from chipchain import (
    ChipGeometry,
    RootStamp,
    SimulatedChip,
    build_tree,
    collision_report,
    extract_prn,
    generation_table,
    keypair_for_chip,
    make_challenge,
    mine_block,
    new_chip,
    parse_chain,
    replace_chip,
    respond,
    rotate_state_reproduce,
    serialize_chain,
    sign,
    verify,
    verify_chain,
    verify_record,
    verify_tree,
    ZERO_HASH,
)
from chipchain.cli import dispatch
from chipchain.config import bundled_scenario
from chipchain.network_sim import check_invariants, run_scenario

from oracles import binom_product, random_tree_edges

DESK = ChipGeometry(rows=2000, redundancy_rows=20)


def report(number: int, name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}"
    print(line)
    assert ok, line


def test_c01_entropy_anchor():
    started = time.perf_counter()
    result = dispatch(["entropy", "--y", "2000", "--l", "1", "--m", "10",
                       "--output", "records"])
    elapsed = time.perf_counter() - started
    want = binom_product(2000, 10)
    reported = None
    for part in result.stdout_payload.split():
        if part.startswith("combinations="):
            reported = int(part.split("=", 1)[1])
    ok = (result.exit_code == 0 and reported == want
          and reported > 10**25 and elapsed < 1.0)
    report(1, "entropy anchor", ok,
           f"cli={reported} oracle={want} >1e25={reported > 10**25} "
           f"elapsed={elapsed:.3f}s (budget 1s)")


def test_c02_collision_anchor():
    result = collision_report(2000, 1, 10, 10**14)
    bound = Fraction(1, 10**11)
    exact_types = isinstance(result.per_chip, Fraction) and isinstance(bound, Fraction)
    ok = exact_types and result.per_chip < bound
    report(2, "collision anchor", ok,
           f"per_chip={result.per_chip.numerator}/{result.per_chip.denominator} "
           f"< 1/10^11 (exact rational comparison)")


def test_c03_generation_trend():
    table = generation_table(failure_count=10)
    nats = [row.entropy_nats for row in table]
    ok = len(table) == 11 and all(a < b for a, b in zip(nats, nats[1:]))
    report(3, "generation trend", ok,
           f"entropy strictly increases over {len(table)} rungs: "
           f"{nats[0]:.2f} .. {nats[-1]:.2f} nats")


def test_c04_prn_fidelity_and_stability():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(500):
        total = int(rng.integers(64, 4096))
        spares = int(rng.integers(1, 21))
        count = int(rng.integers(0, spares + 1))
        rows = sorted(int(r) for r in rng.choice(total, size=count, replace=False))
        chip = SimulatedChip(f"fuzz-{trial}", ChipGeometry(rows=total, redundancy_rows=spares), rows)
        if extract_prn(chip).rows != tuple(rows):
            mismatches += 1
    chip = new_chip(DESK, seed=77)
    first = extract_prn(chip).canonical_bytes
    unstable = sum(extract_prn(chip).canonical_bytes != first for _ in range(1000))
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and unstable == 0 and elapsed < 30.0
    report(4, "fingerprint fidelity", ok,
           f"500 fuzzed chips, {mismatches} mismatches; 1000 repeats, "
           f"{unstable} unstable; elapsed={elapsed:.2f}s (budget 30s)")


def test_c05_distinctness_suite():
    started = time.perf_counter()
    population = 10_000
    base = make_challenge(0)
    fingerprints = set()
    responses = set()
    keys = set()
    challenges = [make_challenge(l) for l in range(1000)]
    per_chip_duplicates = 0
    for seed in range(population):
        chip = new_chip(DESK, seed=seed)
        prn = extract_prn(chip)
        fingerprints.add(prn.canonical_bytes)
        responses.add(respond(prn, base).data)
        keys.add(keypair_for_chip(chip, 0, modulus_bits=512).public_key)
        seen = {respond(prn, challenge).data for challenge in challenges}
        if len(seen) != len(challenges):
            per_chip_duplicates += 1
    elapsed = time.perf_counter() - started
    ok = (len(fingerprints) == population and len(responses) == population
          and len(keys) == population and per_chip_duplicates == 0)
    report(5, "distinctness suite", ok,
           f"{population} chips: {len(fingerprints)} fingerprints, "
           f"{len(responses)} responses, {len(keys)} keys, all unique; "
           f"1000 challenges/chip, {per_chip_duplicates} chips with internal "
           f"duplicates; elapsed={elapsed:.1f}s")


def test_c06_key_linkage():
    started = time.perf_counter()
    pairs = [keypair_for_chip(new_chip(DESK, seed=s), 0, modulus_bits=512)
             for s in range(100)]
    message = b"linkage probe"
    roundtrip_failures = sum(
        not verify(pair.public_key, message, sign(pair.secret_key, message))
        for pair in pairs
    )
    cross_accepts = 0
    signatures = [sign(pair.secret_key, message) for pair in pairs]
    for i, pair in enumerate(pairs):
        for j, signature in enumerate(signatures):
            if i != j and verify(pair.public_key, message, signature):
                cross_accepts += 1
    elapsed = time.perf_counter() - started
    ok = roundtrip_failures == 0 and cross_accepts == 0 and elapsed < 60.0
    report(6, "key linkage", ok,
           f"100 keypairs, {roundtrip_failures} roundtrip failures, "
           f"{cross_accepts}/9900 cross-verifications accepted; "
           f"elapsed={elapsed:.1f}s (budget 60s)")


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_c07_tamper_detection():
    topology = [("n2", "n1"), ("n3", "n1"), ("n1", "n0")]
    chips = {f"n{i}": new_chip(ChipGeometry(rows=256), seed=300 + i) for i in range(4)}
    tree = build_tree(topology, chips, state_index=0, modulus_bits=512)

    chain = []
    prev = ZERO_HASH
    current = tree
    for height in range(5):
        block = mine_block(current.root_stamp(), prev, difficulty_bits=12,
                           height=height)
        chain.append(block)
        prev = block.block_hash
        current = rotate_state_reproduce(current, chips, height + 1)
    assert verify_chain(chain, 12)
    assert verify_tree(tree)

    rng = random.Random(99)
    wire = serialize_chain(chain)
    missed_chain = 0
    for _ in range(500):
        mutated = _flip_bit(wire, rng.randrange(len(wire) * 8))
        try:
            blocks = parse_chain(mutated)
        except ValueError:
            continue
        if verify_chain(blocks, 12):
            missed_chain += 1

    # records: every byte-content field that defines a record's meaning
    records = [node.genesis for node in tree.nodes.values()]
    records += [r for node in tree.nodes.values() for r in node.incoming]
    byte_fields = ("prev_hash", "prev_signature", "hash_value", "signature")
    missed_record = 0
    for _ in range(500):
        record = rng.choice(records)
        surfaces = [f for f in byte_fields if getattr(record, f)]
        surfaces += ["sender_key", "receiver_key"]
        field_name = rng.choice(surfaces)
        if field_name in ("sender_key", "receiver_key"):
            from chipchain import PublicKey
            blob = getattr(record, field_name).to_bytes()
            try:
                key = PublicKey.from_bytes(_flip_bit(blob, rng.randrange(len(blob) * 8)))
            except ValueError:
                continue
            mutated = dataclasses.replace(record, **{field_name: key})
        else:
            value = getattr(record, field_name)
            mutated = dataclasses.replace(
                record, **{field_name: _flip_bit(value, rng.randrange(len(value) * 8))}
            )
        if verify_record(mutated):
            missed_record += 1

    ok = missed_chain == 0 and missed_record == 0
    report(7, "tamper detection", ok,
           f"1000 single-bit mutations (500 chain wire, 500 record fields): "
           f"{missed_chain + missed_record} undetected")


def test_c08_mining_cost():
    started = time.perf_counter()
    pair = keypair_for_chip(new_chip(ChipGeometry(rows=256), seed=400), 0,
                            modulus_bits=512)
    attempts = []
    for index in range(100):
        stamp = RootStamp(pair.public_key,
                          bytes([index % 256]) * 32, index)
        block = mine_block(stamp, difficulty_bits=16, max_attempts=2**26)
        attempts.append(block.nonce + 1)
    median = statistics.median(attempts)
    elapsed = time.perf_counter() - started
    ok = 2**14 <= median <= 2**18 and elapsed < 60.0
    report(8, "mining cost", ok,
           f"difficulty 16, 100 runs: median attempts {median:.0f} in "
           f"[2^14={2**14}, 2^18={2**18}]; elapsed={elapsed:.1f}s (budget 60s)")


def test_c09_resilience_equivalence():
    rng = np.random.default_rng(11)
    geometry = ChipGeometry(rows=256)
    replace_failures = 0
    rotate_failures = 0
    trees = 100
    for trial in range(trees):
        n = int(rng.integers(2, 65))
        names, edges = random_tree_edges(rng, n)
        chips = {name: new_chip(geometry, seed=trial * 1000 + i,
                                chip_id=f"r{trial}-{i}")
                 for i, name in enumerate(names)}
        tree = build_tree(edges, chips, state_index=0, modulus_bits=512)

        victim = names[int(rng.integers(0, n))]
        # each node sends along exactly one edge, so the root path is unique
        outgoing = dict(edges)
        expected_path = [victim]
        while expected_path[-1] in outgoing:
            expected_path.append(outgoing[expected_path[-1]])
        replacement = new_chip(geometry, seed=900_000 + trial,
                               chip_id=f"r{trial}-new")
        repaired, recomputed = replace_chip(tree, victim, replacement, 0)
        rebuilt = build_tree(edges, {**chips, victim: replacement}, 0,
                             modulus_bits=512)
        same = all(
            repaired.nodes[name].latest_hash == rebuilt.nodes[name].latest_hash
            for name in names
        )
        if recomputed != expected_path or not same or not verify_tree(repaired):
            replace_failures += 1

        rotated = rotate_state_reproduce(tree, chips, 1)
        re_rotated = build_tree(edges, chips, 1, modulus_bits=512)
        same_rotation = all(
            rotated.nodes[name].latest_hash == re_rotated.nodes[name].latest_hash
            for name in names
        )
        if not same_rotation or not verify_tree(rotated):
            rotate_failures += 1

    ok = replace_failures == 0 and rotate_failures == 0
    report(9, "resilience equivalence", ok,
           f"{trees} random trees (<=64 nodes): {replace_failures} replacement "
           f"divergences, {rotate_failures} rotation divergences")


def test_c10_coexistence_scenario():
    started = time.perf_counter()
    config = bundled_scenario("fig10-coexistence")
    runs = 100
    failures = []
    for seed in range(runs):
        log = run_scenario(config, seed=seed)
        good = (log.rejections == 1
                and log.admitted == tuple(f"n{i}" for i in range(9))
                and log.members == log.admitted
                and log.state_index == 1
                and log.evicted == ()
                and len(log.chain) == 3
                and log.chain_ok()
                and check_invariants(log) == [])
        if not good:
            failures.append(seed)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    report(10, "coexistence scenario", ok,
           f"{runs - len(failures)}/{runs} seeded runs rejected the spoofer, "
           f"kept 9 members through rotation, chain of 3 verified; "
           f"elapsed={elapsed:.1f}s (budget 120s)")
