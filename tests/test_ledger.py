import dataclasses
import hashlib

import numpy as np
import pytest

from chipchain import (
    Block,
    ChainInvalid,
    ChipGeometry,
    ChipNode,
    CycleDetected,
    GENESIS_SIGNATURE,
    MultipleSinks,
    NonceExhausted,
    NumberInvalid,
    PublicKey,
    RootStamp,
    SignatureMalformed,
    StateMismatch,
    TransactionRecord,
    UnknownChip,
    ZERO_HASH,
    block_hash,
    build_tree,
    fold_hash,
    keypair_for_chip,
    leading_zero_bits,
    load_chain,
    mine_block,
    new_chip,
    parse_chain,
    record_hash,
    replace_chip,
    rotate_state_reproduce,
    save_chain,
    seat_tree,
    serialize_chain,
    sign,
    transfer,
    verify,
    verify_chain,
    verify_record,
    verify_tree,
)

from conftest import SMALL, make_small_chip
from oracles import bruteforce_schedule, oracle_root_fold, random_tree_edges

FIG_TOPOLOGY = [
    ("n2", "n1"), ("n3", "n1"), ("n5", "n4"),
    ("n7", "n6"), ("n8", "n6"),
    ("n1", "n0"), ("n4", "n0"), ("n6", "n0"),
]


@pytest.fixture(scope="module")
def fig_tree(small_chips):
    return build_tree(FIG_TOPOLOGY, small_chips, state_index=0, modulus_bits=512)


# ------------------------------------------------------------ record rules

def test_genesis_record_bytes():
    node = ChipNode("solo", keypair_for_chip(make_small_chip(30), 0, 512), [])
    pk = node.public_key.to_bytes()
    assert node.genesis.hash_value == hashlib.sha256(pk + bytes(32) + b"").digest()
    assert node.genesis.signature == GENESIS_SIGNATURE
    assert node.genesis.sender_key == node.genesis.receiver_key
    assert verify_record(node.genesis)


def test_record_hash_rule():
    node = ChipNode("r", keypair_for_chip(make_small_chip(35), 0, 512), [])
    pk = node.public_key
    assert record_hash(pk, bytes(32), b"sig") == hashlib.sha256(
        pk.to_bytes() + bytes(32) + b"sig"
    ).digest()


def test_fold_hash_rule():
    node = ChipNode("r", keypair_for_chip(make_small_chip(35), 0, 512), [])
    pk = node.public_key
    assert fold_hash(pk, b"a" * 32, b"b" * 32) == hashlib.sha256(
        pk.to_bytes() + b"a" * 32 + b"b" * 32
    ).digest()


def test_transfer_produces_verifiable_record():
    a = ChipNode("a", keypair_for_chip(make_small_chip(31), 0, 512), [])
    b = ChipNode("b", keypair_for_chip(make_small_chip(32), 0, 512), [])
    record = transfer(a, b)
    assert verify_record(record)
    assert record.sender_key == a.public_key
    assert record.receiver_key == b.public_key
    # receiver folded the incoming hash into its running latest
    want = fold_hash(b.public_key, b.genesis.hash_value, record.hash_value)
    assert b.latest_hash == want
    assert b.latest_signature == record.signature
    assert b.incoming == [record]
    assert a.incoming == []


def test_transfer_state_mismatch():
    a = ChipNode("a", keypair_for_chip(make_small_chip(31), 0, 512), [])
    b = ChipNode("b", keypair_for_chip(make_small_chip(32), 1, 512), [])
    with pytest.raises(StateMismatch):
        transfer(a, b)


def test_verify_record_rejects_mutations():
    a = ChipNode("a", keypair_for_chip(make_small_chip(33), 0, 512), [])
    b = ChipNode("b", keypair_for_chip(make_small_chip(34), 0, 512), [])
    record = transfer(a, b)
    flipped_hash = bytes([record.hash_value[0] ^ 1]) + record.hash_value[1:]
    assert not verify_record(dataclasses.replace(record, hash_value=flipped_hash))
    flipped_sig = bytes([record.signature[0] ^ 1]) + record.signature[1:]
    assert not verify_record(dataclasses.replace(record, signature=flipped_sig))
    assert not verify_record(dataclasses.replace(record, prev_hash=bytes(32)))
    assert not verify_record(dataclasses.replace(record, signature=b"too short"))


def test_verify_record_wrong_length_signature_reads_false():
    a = ChipNode("a", keypair_for_chip(make_small_chip(33), 0, 512), [])
    b = ChipNode("b", keypair_for_chip(make_small_chip(34), 0, 512), [])
    record = transfer(a, b)
    for signature in (record.signature[:-1], record.signature + b"\x00", b""):
        with pytest.raises(SignatureMalformed):
            verify(record.sender_key, b"payload", signature)
        assert verify_record(dataclasses.replace(record, signature=signature)) is False


def test_verify_record_rejects_signature_plus_modulus():
    """A record whose signature bytes encode s + n instead of s opens to
    the same digest under the sender's key and must still be refused."""
    a = ChipNode("a", keypair_for_chip(make_small_chip(30), 0, 512), [])
    b = ChipNode("b", keypair_for_chip(make_small_chip(31), 0, 512), [])
    record = transfer(a, b)
    key = record.sender_key
    forged_int = int.from_bytes(record.signature, "big") + key.modulus
    assert forged_int < 1 << (8 * key.byte_size)
    forged = forged_int.to_bytes(key.byte_size, "big")
    assert verify_record(record)
    assert not verify_record(dataclasses.replace(record, signature=forged))


# ------------------------------------------------------------ tree building

def test_fig_tree_shape(fig_tree):
    assert fig_tree.root_id == "n0"
    assert fig_tree.schedule == (
        ("n2", "n1"), ("n3", "n1"), ("n1", "n0"), ("n5", "n4"),
        ("n4", "n0"), ("n7", "n6"), ("n8", "n6"), ("n6", "n0"),
    )
    assert verify_tree(fig_tree)
    # sink accumulated one record per inbound edge
    assert len(fig_tree.nodes["n0"].incoming) == 3
    assert len(fig_tree.nodes["n1"].incoming) == 2
    assert len(fig_tree.nodes["n5"].incoming) == 0


def test_fig_tree_schedule_matches_bruteforce(fig_tree, small_chips):
    want, sink = bruteforce_schedule(small_chips.keys(), FIG_TOPOLOGY)
    assert list(fig_tree.schedule) == want
    assert fig_tree.root_id == sink


def test_fig_tree_folds_match_oracle(fig_tree):
    """Every node's folded hash agrees with a flat-dict replay."""
    keys = {nid: node.public_key.to_bytes() for nid, node in fig_tree.nodes.items()}
    secrets = {nid: node.keypair.secret_key for nid, node in fig_tree.nodes.items()}
    want = oracle_root_fold(
        FIG_TOPOLOGY, keys, lambda nid, payload: sign(secrets[nid], payload)
    )
    for nid, node in fig_tree.nodes.items():
        assert node.latest_hash == want[nid], nid
    assert fig_tree.root_hash == want["n0"]


def test_tree_input_order_invariance(small_chips, fig_tree):
    shuffled = [FIG_TOPOLOGY[i] for i in (5, 2, 7, 0, 4, 6, 1, 3)]
    again = build_tree(shuffled, small_chips, state_index=0, modulus_bits=512)
    assert again.schedule == fig_tree.schedule
    assert again.root_hash == fig_tree.root_hash


def test_seat_tree_takes_the_pairs_build_tree_derives(fig_tree, small_chips):
    """build_tree is a derivation per chip, then seat_tree: seating the
    same pairs gives the same tree, and the nodes hold the pairs given."""
    pairs = {nid: keypair_for_chip(chip, 0, 512)
             for nid, chip in small_chips.items()}
    seated = seat_tree(FIG_TOPOLOGY, pairs)
    assert (seated.state_index, seated.modulus_bits) == (0, 512)
    assert seated.root_hash == fig_tree.root_hash
    assert seated.schedule == fig_tree.schedule
    assert all(seated.nodes[nid].keypair is pairs[nid] for nid in pairs)
    assert all(seated.nodes[nid].incoming == fig_tree.nodes[nid].incoming
               for nid in pairs)
    assert verify_tree(seated)


def test_seat_tree_refuses_missing_or_mixed_pairs(fig_tree, small_chips):
    """Every edge endpoint needs a pair, and the tree binds to the root
    pair's state and size: a pair at another state or size is refused."""
    pairs = {nid: node.keypair for nid, node in fig_tree.nodes.items()}
    with pytest.raises(UnknownChip, match="^edge endpoint 'n3' has no chip$"):
        seat_tree(FIG_TOPOLOGY,
                  {nid: pairs[nid] for nid in pairs if nid != "n3"})
    with pytest.raises(StateMismatch, match="^n3 keyed at state 1, root n0 at 0$"):
        seat_tree(FIG_TOPOLOGY,
                  dict(pairs, n3=keypair_for_chip(small_chips["n3"], 1, 512)))
    with pytest.raises(StateMismatch, match="^n1 keyed at state 0, root n0 at 1$"):
        seat_tree(FIG_TOPOLOGY,
                  dict(pairs, n0=keypair_for_chip(small_chips["n0"], 1, 512)))
    with pytest.raises(ValueError,
                       match="^n3 key pair is 1024-bit, root n0's is 512-bit$"):
        seat_tree(FIG_TOPOLOGY,
                  dict(pairs, n3=keypair_for_chip(small_chips["n3"], 0, 1024)))
    with pytest.raises(MultipleSinks):
        seat_tree([], {})


def test_seat_tree_seats_a_one_node_tree(fig_tree):
    pair = fig_tree.nodes["n5"].keypair
    tree = seat_tree([], {"solo": pair})
    assert (tree.root_id, tree.schedule, tree.edges) == ("solo", (), ())
    assert (tree.state_index, tree.modulus_bits) == (0, 512)
    assert tree.nodes["solo"].keypair is pair
    assert tree.nodes["solo"].incoming == []
    assert tree.root_stamp().root_key == pair.public_key
    assert verify_tree(tree)


def test_single_node_tree(small_chips):
    tree = build_tree([], {"n0": small_chips["n0"]}, state_index=0, modulus_bits=512)
    assert tree.root_id == "n0"
    assert tree.schedule == ()
    assert tree.root_hash == tree.nodes["n0"].genesis.hash_value
    assert verify_tree(tree)


def test_tree_topology_errors(small_chips):
    chips2 = {k: small_chips[k] for k in ("n0", "n1")}
    with pytest.raises(CycleDetected):
        build_tree([("n0", "n1"), ("n1", "n0")], chips2, 0, modulus_bits=512)
    with pytest.raises(MultipleSinks):
        build_tree([], chips2, 0, modulus_bits=512)
    with pytest.raises(MultipleSinks, match="found sinks: none"):
        build_tree([], {}, 0, modulus_bits=512)
    with pytest.raises(UnknownChip):
        build_tree([("n0", "zz")], chips2, 0, modulus_bits=512)
    with pytest.raises(ValueError):
        build_tree([("n0", "n1"), ("n0", "n1")], chips2, 0, modulus_bits=512)
    with pytest.raises(CycleDetected):
        # a self-edge can never drain
        build_tree([("n0", "n0")], chips2, 0, modulus_bits=512)


def test_three_chain_with_cycle_below(small_chips):
    chips = {k: small_chips[k] for k in ("n0", "n1", "n2")}
    with pytest.raises(CycleDetected):
        build_tree([("n1", "n2"), ("n2", "n1"), ("n2", "n0")], chips, 0, modulus_bits=512)


def test_random_trees_match_oracle():
    """Random converging topologies agree with the flat replay oracle."""
    rng = np.random.default_rng(7)
    for trial in range(6):
        n = int(rng.integers(2, 17))
        names, edges = random_tree_edges(rng, n)
        chips = {name: make_small_chip(1000 + trial * 100 + i, chip_id=f"t{trial}-{i}")
                 for i, name in enumerate(names)}
        tree = build_tree(edges, chips, state_index=0, modulus_bits=512)
        keys = {nid: node.public_key.to_bytes() for nid, node in tree.nodes.items()}
        secrets = {nid: node.keypair.secret_key for nid, node in tree.nodes.items()}
        want = oracle_root_fold(edges, keys, lambda nid, p: sign(secrets[nid], p))
        assert tree.root_id == "n00"
        for nid in names:
            assert tree.nodes[nid].latest_hash == want[nid]
        assert verify_tree(tree)


def test_verify_tree_detects_tampering(fig_tree):
    node = fig_tree.nodes["n1"]
    bad_record = dataclasses.replace(node.incoming[0], prev_hash=b"\x01" * 32)
    bad_node = dataclasses.replace(node, incoming=[bad_record, node.incoming[1]])
    mutated = dataclasses.replace(
        fig_tree, nodes={**fig_tree.nodes, "n1": bad_node}
    )
    assert not verify_tree(mutated)


def _with_incoming(tree, node_id, incoming):
    node = dataclasses.replace(tree.nodes[node_id], incoming=incoming)
    return dataclasses.replace(tree, nodes={**tree.nodes, node_id: node})


def test_verify_tree_detects_swapped_records(fig_tree):
    """A record's place is its list position: two records swapped in
    place are each checked against the other's schedule edge."""
    first, second = fig_tree.nodes["n1"].incoming
    assert not verify_tree(_with_incoming(fig_tree, "n1", [second, first]))


def test_verify_tree_detects_a_missing_record(fig_tree):
    # n6 -> n0 is the last edge of the schedule, so every earlier record
    # checks out and only the count of n0's records is short
    assert fig_tree.schedule[-1] == ("n6", "n0")
    incoming = fig_tree.nodes["n0"].incoming
    assert not verify_tree(_with_incoming(fig_tree, "n0", incoming[:-1]))


def _changed(value, other_key):
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:] if value else b"\x01"
    if isinstance(value, PublicKey):
        return other_key
    raise AssertionError(f"no change rule for a {type(value).__name__} field")


def test_verify_tree_checks_every_record_field(fig_tree):
    """Every seated record, with any one field of TransactionRecord
    changed, fails verify_tree: no field goes unchecked."""
    other_key = keypair_for_chip(make_small_chip(85), 0, 512).public_key
    assert other_key not in {n.public_key for n in fig_tree.nodes.values()}
    fields = [f.name for f in dataclasses.fields(TransactionRecord)]
    for node_id, node in fig_tree.nodes.items():
        for position, record in enumerate(node.incoming):
            for name in fields:
                incoming = list(node.incoming)
                incoming[position] = dataclasses.replace(
                    record, **{name: _changed(getattr(record, name), other_key)})
                assert not verify_tree(
                    _with_incoming(fig_tree, node_id, incoming)), (node_id,
                                                                  position, name)


def _resigned_into_root(tree, old_sender, signer, prev_hash, prev_signature):
    """The tree with old_sender's record into n0 swapped for one that signer
    signs over (prev_hash, prev_signature): valid by verify_record alone."""
    root = tree.nodes["n0"]
    sender = tree.nodes[signer]
    position = next(i for i, r in enumerate(root.incoming)
                    if r.sender_key == tree.nodes[old_sender].public_key)
    h = record_hash(sender.public_key, prev_hash, prev_signature)
    signature = sign(sender.keypair.secret_key, root.public_key.to_bytes() + h)
    record = dataclasses.replace(
        root.incoming[position], sender_key=sender.public_key,
        prev_hash=prev_hash, prev_signature=prev_signature, hash_value=h,
        signature=signature)
    assert verify_record(record)
    incoming = list(root.incoming)
    incoming[position] = record
    bad_root = dataclasses.replace(root, incoming=incoming)
    return dataclasses.replace(tree, nodes={**tree.nodes, "n0": bad_root})


def test_verify_tree_detects_a_resigned_stale_record(fig_tree):
    mutated = _resigned_into_root(fig_tree, "n1", "n1", ZERO_HASH,
                                  GENESIS_SIGNATURE)
    assert not verify_tree(mutated)


def test_verify_tree_detects_a_record_from_another_sender(fig_tree):
    n4 = fig_tree.nodes["n4"]
    mutated = _resigned_into_root(fig_tree, "n1", "n4", n4.latest_hash,
                                  n4.latest_signature)
    assert not verify_tree(mutated)


def test_verify_tree_detects_an_extra_record(fig_tree):
    # The root sends nothing, so only the record count can catch this.
    root, n3 = fig_tree.nodes["n0"], fig_tree.nodes["n3"]  # no edge n3 -> n0
    h = record_hash(n3.public_key, n3.latest_hash, n3.latest_signature)
    extra = dataclasses.replace(
        fig_tree.nodes["n1"].incoming[1], receiver_key=root.public_key,
        signature=sign(n3.keypair.secret_key, root.public_key.to_bytes() + h))
    assert extra.sender_key == n3.public_key and verify_record(extra)
    bad_root = dataclasses.replace(root, incoming=[*root.incoming, extra])
    mutated = dataclasses.replace(fig_tree, nodes={**fig_tree.nodes, "n0": bad_root})
    assert not verify_tree(mutated)


# -------------------------------------------------------------- replacement

def test_replace_leaf(fig_tree):
    new_tree, recomputed = replace_chip(fig_tree, "n7", make_small_chip(77), 0)
    assert recomputed == ["n7", "n6", "n0"]
    assert verify_tree(new_tree)
    assert new_tree.root_hash != fig_tree.root_hash


def test_replace_mid_node(fig_tree):
    new_tree, recomputed = replace_chip(fig_tree, "n1", make_small_chip(78), 0)
    assert recomputed == ["n1", "n0"]
    assert verify_tree(new_tree)


def test_replace_root(fig_tree):
    new_tree, recomputed = replace_chip(fig_tree, "n0", make_small_chip(79), 0)
    assert recomputed == ["n0"]
    assert verify_tree(new_tree)


def test_replace_equals_rebuild(fig_tree, small_chips):
    """Incremental repair must land byte-identical to a full rebuild."""
    replacement = make_small_chip(80)
    new_tree, _ = replace_chip(fig_tree, "n4", replacement, 0)
    chips = dict(small_chips)
    chips["n4"] = replacement
    rebuilt = build_tree(FIG_TOPOLOGY, chips, state_index=0, modulus_bits=512)
    for nid in chips:
        assert new_tree.nodes[nid].latest_hash == rebuilt.nodes[nid].latest_hash
        assert new_tree.nodes[nid].latest_signature == rebuilt.nodes[nid].latest_signature
    assert new_tree.root_hash == rebuilt.root_hash


def test_replace_leaves_unrelated_nodes_untouched(fig_tree):
    new_tree, _ = replace_chip(fig_tree, "n7", make_small_chip(81), 0)
    # n2 feeds n1 which feeds n0; none of them sit under n7's path
    assert new_tree.nodes["n2"].latest_hash == fig_tree.nodes["n2"].latest_hash
    assert new_tree.nodes["n2"].incoming == fig_tree.nodes["n2"].incoming
    assert new_tree.nodes["n1"].latest_hash == fig_tree.nodes["n1"].latest_hash


def test_replace_does_not_mutate_input(fig_tree):
    """The repair copies the seats it re-signs and shares every other
    seat with the parent, which keeps every record and its root."""
    before = fig_tree.root_hash
    incoming_before = {node_id: list(node.incoming)
                       for node_id, node in fig_tree.nodes.items()}
    repaired, recomputed = replace_chip(fig_tree, "n7", make_small_chip(82), 0)
    for node_id, node in fig_tree.nodes.items():
        assert (repaired.nodes[node_id] is node) == (node_id not in recomputed)
        assert node.incoming == incoming_before[node_id]
    assert fig_tree.root_hash == before
    assert verify_tree(fig_tree)


def test_replace_errors(fig_tree):
    with pytest.raises(UnknownChip):
        replace_chip(fig_tree, "n99", make_small_chip(83), 0)
    with pytest.raises(StateMismatch):
        replace_chip(fig_tree, "n7", make_small_chip(83), 4)


# ----------------------------------------------------------------- rotation

def test_rotate_rekeys_every_node(fig_tree, small_chips):
    rotated = rotate_state_reproduce(fig_tree, small_chips, 1)
    assert rotated.state_index == 1
    assert verify_tree(rotated)
    assert rotated.root_hash != fig_tree.root_hash
    for nid in fig_tree.nodes:
        assert rotated.nodes[nid].public_key != fig_tree.nodes[nid].public_key


def test_rotate_roundtrip(fig_tree, small_chips):
    back = rotate_state_reproduce(
        rotate_state_reproduce(fig_tree, small_chips, 1), small_chips, 0)
    assert back.root_hash == fig_tree.root_hash
    for nid in fig_tree.nodes:
        assert back.nodes[nid].latest_hash == fig_tree.nodes[nid].latest_hash


def test_rotate_same_state_rejected(fig_tree, small_chips):
    with pytest.raises(ValueError):
        rotate_state_reproduce(fig_tree, small_chips, 0)


def test_rotate_keys_each_seat_from_the_chip_handed_in(fig_tree, small_chips):
    """The tree holds no chip: a seat whose chip the caller swapped is
    keyed from the chip handed in, and the others as before."""
    other = make_small_chip(84, chip_id="c3-other")
    rotated = rotate_state_reproduce(fig_tree, {**small_chips, "n3": other}, 1)
    assert rotated.nodes["n3"].keypair == keypair_for_chip(other, 1, 512)
    assert rotated.nodes["n4"].keypair == keypair_for_chip(
        small_chips["n4"], 1, 512)
    assert verify_tree(rotated)
    plain = rotate_state_reproduce(fig_tree, small_chips, 1)
    assert rotated.root_hash != plain.root_hash


# ---------------------------------------------------------------- stamping

@pytest.fixture(scope="module")
def stamps(fig_tree):
    """A few distinct stamps to mine against."""
    out = [fig_tree.root_stamp()]
    for index in (1, 2, 3, 4):
        out.append(RootStamp(out[0].root_key, hashlib.sha256(b"%d" % index).digest(), index))
    return out


def test_root_stamp_roundtrip(fig_tree):
    stamp = fig_tree.root_stamp()
    assert stamp.root_hash == fig_tree.root_hash
    assert stamp.state_index == 0
    parsed, consumed = RootStamp.parse(stamp.to_bytes())
    assert parsed == stamp
    assert consumed == len(stamp.to_bytes())


def test_root_stamp_parse_truncation(fig_tree):
    blob = fig_tree.root_stamp().to_bytes()
    with pytest.raises(ValueError):
        RootStamp.parse(blob[:-8])


def test_block_hash_rule(stamps):
    prev = b"\xaa" * 32
    assert block_hash(5, stamps[0], prev) == hashlib.sha256(
        (5).to_bytes(8, "big") + stamps[0].to_bytes() + prev
    ).digest()


def test_leading_zero_bits():
    assert leading_zero_bits(bytes(32)) == 256
    assert leading_zero_bits(b"\x00\x01" + bytes(30)) == 15
    assert leading_zero_bits(b"\x80" + bytes(31)) == 0
    assert leading_zero_bits(b"\x00\x00\x20" + bytes(29)) == 18


def test_mine_block_difficulty_zero(stamps):
    block = mine_block(stamps[0], difficulty_bits=0)
    assert block.nonce == 0
    assert block.height == 0
    assert block.block_hash == block_hash(0, stamps[0], ZERO_HASH)


def test_mine_block_meets_difficulty(stamps):
    block = mine_block(stamps[1], difficulty_bits=12)
    assert leading_zero_bits(block.block_hash) >= 12
    assert block.block_hash == block_hash(block.nonce, stamps[1], block.prev_block_hash)


def test_mine_block_deterministic(stamps):
    a = mine_block(stamps[2], difficulty_bits=10)
    b = mine_block(stamps[2], difficulty_bits=10)
    assert a == b


def test_mine_block_exhaustion(stamps):
    with pytest.raises(NonceExhausted):
        mine_block(stamps[0], difficulty_bits=32, max_attempts=10)


def test_mine_block_difficulty_cap(stamps):
    with pytest.raises(ValueError):
        mine_block(stamps[0], difficulty_bits=33)
    with pytest.raises(ValueError):
        mine_block(stamps[0], difficulty_bits=-1)


def test_mine_block_refuses_a_short_previous_hash(stamps):
    """parse_chain reads a 32-byte link, so a shorter one is never mined."""
    with pytest.raises(ChainInvalid) as caught:
        mine_block(stamps[0], b"short", 0)
    assert str(caught.value) == "previous block hash must be 32 bytes, got 5"


def test_mine_block_refuses_a_short_root_hash(stamps):
    stamp = dataclasses.replace(stamps[0], root_hash=b"abc")
    with pytest.raises(ChainInvalid) as caught:
        mine_block(stamp, ZERO_HASH, 0)
    assert str(caught.value) == "root hash must be 32 bytes, got 3"


def test_mine_block_refuses_a_state_index_past_8_bytes(stamps):
    """The state index is checked by identity, its owner, before the scan."""
    stamp = dataclasses.replace(stamps[0], state_index=2**64)
    with pytest.raises(NumberInvalid) as caught:
        mine_block(stamp, ZERO_HASH, 0)
    assert str(caught.value) == ("state index must be in [0, 2^64 - 1], "
                                 "got 18446744073709551616")


def make_chain(stamps, difficulty=8):
    blocks = []
    prev = ZERO_HASH
    for height, stamp in enumerate(stamps):
        block = mine_block(stamp, prev_block_hash=prev,
                           difficulty_bits=difficulty, height=height)
        blocks.append(block)
        prev = block.block_hash
    return blocks


def test_verify_chain_accepts_fresh_chain(stamps):
    chain = make_chain(stamps[:4])
    assert verify_chain(chain, difficulty_bits=8)
    assert verify_chain([], difficulty_bits=8)


def test_verify_chain_rejects_higher_difficulty(stamps):
    chain = make_chain(stamps[:3], difficulty=4)
    assert not verify_chain(chain, difficulty_bits=30)


def test_verify_chain_rejects_reordered_blocks(stamps):
    chain = make_chain(stamps[:3])
    assert not verify_chain([chain[0], chain[2], chain[1]], difficulty_bits=8)


def test_verify_chain_rejects_height_rewrite(stamps):
    chain = make_chain(stamps[:3])
    chain[1] = dataclasses.replace(chain[1], height=7)
    assert not verify_chain(chain, difficulty_bits=8)


def test_verify_chain_rejects_stamp_rewrite(stamps):
    """Re-mining one block honestly still breaks the link to its successor."""
    chain = make_chain(stamps)
    forged = RootStamp(stamps[0].root_key, hashlib.sha256(b"forged").digest(), 9)
    remined = mine_block(forged, prev_block_hash=chain[1].prev_block_hash,
                         difficulty_bits=8, height=1)
    assert leading_zero_bits(remined.block_hash) >= 8
    chain[1] = remined
    assert not verify_chain(chain, difficulty_bits=8)


def test_verify_chain_rejects_truncated_prefix(stamps):
    chain = make_chain(stamps[:3])
    assert not verify_chain(chain[1:], difficulty_bits=8)
    # honest prefixes still verify
    assert verify_chain(chain[:2], difficulty_bits=8)


# ------------------------------------------------------------------- wire

def test_block_wire_roundtrip(stamps):
    block = mine_block(stamps[1], difficulty_bits=6, height=3)
    blob = block.to_bytes()
    assert Block.parse(blob) == block
    assert blob[0:8] == (3).to_bytes(8, "big")
    assert blob[8:16] == block.nonce.to_bytes(8, "big")
    assert blob[-32:] == block.block_hash
    assert blob[-64:-32] == block.prev_block_hash


def test_block_parse_rejects_bad_length(stamps):
    block = mine_block(stamps[1], difficulty_bits=0)
    with pytest.raises(ValueError):
        Block.parse(block.to_bytes()[:-1])


def test_chain_wire_roundtrip(tmp_path, stamps):
    chain = make_chain(stamps[:3])
    blob = serialize_chain(chain)
    assert parse_chain(blob) == chain
    path = tmp_path / "chain.bin"
    save_chain(chain, path)
    assert load_chain(path) == chain
    assert parse_chain(serialize_chain([])) == []


def test_chain_parse_rejects_truncation(stamps):
    blob = serialize_chain(make_chain(stamps[:2]))
    with pytest.raises(ValueError):
        parse_chain(blob[:-5])
    with pytest.raises(ValueError):
        parse_chain(blob + b"\x00\x00\x00\x08extra!!!")


def test_chain_parse_errors_name_block_and_offset(stamps):
    chain = make_chain(stamps[:2])
    blob = serialize_chain(chain)
    second = 4 + len(chain[0].to_bytes())
    cases = [
        (blob[:-5], f"block 1 at byte {second}: truncated block"),
        (blob + b"\x00\x00", f"block 2 at byte {len(blob)}: "
                              "truncated block length prefix"),
        (blob[:second] + b"\x00\x00\x00\x08extra!!!",
         f"block 1 at byte {second}: truncated block header"),
    ]
    for data, message in cases:
        with pytest.raises(ChainInvalid, match=f"^{message}"):
            parse_chain(data)


def test_chain_of_stamped_roots(fig_tree, small_chips):
    """End-to-end: tree root stamped into blocks, chain verifies, bits matter."""
    b0 = mine_block(fig_tree.root_stamp(), difficulty_bits=8, height=0)
    rotated = rotate_state_reproduce(fig_tree, small_chips, 1)
    b1 = mine_block(rotated.root_stamp(), prev_block_hash=b0.block_hash,
                    difficulty_bits=8, height=1)
    assert verify_chain([b0, b1], difficulty_bits=8)
    # stamps embed different state indexes and root hashes
    assert b0.stamp.state_index == 0 and b1.stamp.state_index == 1
    assert b0.stamp.root_hash != b1.stamp.root_hash
    assert b1.stamp.root_key != b0.stamp.root_key
