"""Transfer tree of chips and the proof-of-work chain above it.

Enrolled chips pass value along a directed topology that must funnel
into a single final receiver, the root chip.  Each transfer hashes the
sender's public key together with the sender's latest record and signs
the result toward the receiver; a record holds what its sender hashed
and signed, and the schedule fixes its place.  A node stores only its
key pair and its incoming records; its fold, the genesis hash with each
incoming record hash folded in, is computed from them.  The root chip's
fold therefore commits to every public key and every transfer below it,
which is what makes substituting any chip in the structure detectable.
The tree never holds a chip: seat_tree takes derived key pairs, and
build_tree, a rotate and a replacement derive from chips handed in.

The root's stamp (public key, final fold, state index) is the payload
miners seal into blocks.  Blocks chain by hash with a leading-zero-bit
difficulty, so rewriting one stamp forces re-mining the whole suffix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ._pow import _target, pow_search
from .chip_model import SimulatedChip
from .errors import (
    ChainInvalid,
    CycleDetected,
    MultipleSinks,
    NonceExhausted,
    NumberInvalid,
    SignatureMalformed,
    StateMismatch,
    UnknownChip,
    _number_in,
)
from .identity import (
    ChipKeyPair,
    PublicKey,
    _state_index,
    keypair_for_chip,
    sign,
    verify,
)

ZERO_HASH = bytes(32)
GENESIS_SIGNATURE = b""

MAX_MINING_DIFFICULTY = 32  # desk scale; verification accepts up to 256


def record_hash(sender_key: PublicKey, prev_hash: bytes,
                prev_signature: bytes) -> bytes:
    """Digest binding a sender's key to its latest record."""
    return hashlib.sha256(
        sender_key.to_bytes() + prev_hash + prev_signature).digest()


def signed_payload(receiver_key: PublicKey, hash_value: bytes) -> bytes:
    """What the sender signs: the receiver's key plus the new hash."""
    return receiver_key.to_bytes() + hash_value


def fold_hash(receiver_key: PublicKey, latest: bytes,
              incoming_hash: bytes) -> bytes:
    """Receiver-side accumulation of one incoming record."""
    return hashlib.sha256(
        receiver_key.to_bytes() + latest + incoming_hash).digest()


@dataclass(frozen=True)
class TransactionRecord:
    """One chip-to-chip transfer, as its sender hashed and signed it; its
    place among the receiver's records is its list position, which
    verify_tree checks against the schedule."""

    sender_key: PublicKey
    receiver_key: PublicKey
    prev_hash: bytes
    prev_signature: bytes
    hash_value: bytes
    signature: bytes


def verify_record(record: TransactionRecord) -> bool:
    """Recompute the record hash and check the transfer signature.

    A transfer signature is as long as its key, so an empty one marks a
    genesis record (ChipNode.genesis); its hash rule and self-addressing
    are all there is to check.
    """
    expected = record_hash(record.sender_key, record.prev_hash,
                           record.prev_signature)
    if record.hash_value != expected:
        return False
    if record.signature == GENESIS_SIGNATURE:
        return (record.sender_key == record.receiver_key
                and record.prev_hash == ZERO_HASH
                and record.prev_signature == GENESIS_SIGNATURE)
    try:
        return verify(record.sender_key,
                      signed_payload(record.receiver_key, record.hash_value),
                      record.signature)
    except SignatureMalformed:
        return False


@dataclass
class ChipNode:
    """A chip's seat in the transfer tree: the key pair its chip derived
    and the records it received, not the chip itself.  Genesis, fold and
    latest signature derive from them; the fold starts from the genesis
    record's hash, record_hash(key, ZERO_HASH, GENESIS_SIGNATURE), and
    folds in each incoming record's hash in order.  A repaired tree shares
    its untouched seats with the tree it came from, so a seat is not
    changed once its tree is built."""

    node_id: str
    keypair: ChipKeyPair
    incoming: list[TransactionRecord]

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public_key

    @property
    def genesis(self) -> TransactionRecord:
        """The self-record every seat starts from; nothing to sign yet."""
        key = self.public_key
        return TransactionRecord(
            key, key, ZERO_HASH, GENESIS_SIGNATURE,
            record_hash(key, ZERO_HASH, GENESIS_SIGNATURE), GENESIS_SIGNATURE)

    @property
    def latest_hash(self) -> bytes:
        # the genesis record's hash, without building the record
        latest = record_hash(self.public_key, ZERO_HASH, GENESIS_SIGNATURE)
        for record in self.incoming:
            latest = fold_hash(self.public_key, latest, record.hash_value)
        return latest

    @property
    def latest_signature(self) -> bytes:
        return (self.incoming[-1].signature if self.incoming
                else GENESIS_SIGNATURE)


def _signed_record(sender: ChipNode, receiver: ChipNode) -> TransactionRecord:
    """The sender's next record toward the receiver, signed."""
    prev_hash, prev_signature = sender.latest_hash, sender.latest_signature
    h = record_hash(sender.public_key, prev_hash, prev_signature)
    signature = sign(sender.keypair.secret_key,
                     signed_payload(receiver.public_key, h))
    return TransactionRecord(sender.public_key, receiver.public_key,
                             prev_hash, prev_signature, h, signature)


def transfer(sender: ChipNode, receiver: ChipNode) -> TransactionRecord:
    """Append the sender's next signed record to the receiver's records."""
    if sender.keypair.state_index != receiver.keypair.state_index:
        raise StateMismatch(
            f"sender {sender.node_id} keyed at state "
            f"{sender.keypair.state_index}, receiver {receiver.node_id} at "
            f"{receiver.keypair.state_index}")
    record = _signed_record(sender, receiver)
    receiver.incoming.append(record)
    return record


def _topological_schedule(node_ids: Iterable[str],
                          edges: Sequence[tuple[str, str]]):
    """Deterministic transfer order plus the root (unique sink).

    Ready nodes are processed smallest id first; a node's outgoing
    edges fire together, ordered by receiver id.
    """
    node_ids = sorted(set(node_ids))
    outgoing: dict[str, list[str]] = {n: [] for n in node_ids}
    indegree: dict[str, int] = {n: 0 for n in node_ids}
    for src, dst in edges:
        outgoing[src].append(dst)
        indegree[dst] += 1

    sinks = [n for n in node_ids if not outgoing[n]]
    if node_ids and not sinks:
        raise CycleDetected("every node sends onward; the topology loops")
    if len(sinks) != 1:
        raise MultipleSinks(
            f"transfer topology must funnel into one chip, found sinks: "
            f"{', '.join(sinks) or 'none'}")

    schedule: list[tuple[str, str]] = []
    ready = [n for n in node_ids if indegree[n] == 0]
    heapq.heapify(ready)
    processed = 0
    while ready:
        node = heapq.heappop(ready)
        processed += 1
        for dst in sorted(outgoing[node]):
            schedule.append((node, dst))
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, dst)
    if processed != len(node_ids):
        raise CycleDetected("transfer topology contains a cycle")
    return tuple(schedule), sinks[0]


@dataclass(frozen=True)
class RootStamp:
    """What the root chip publishes for mining.

    Its wire bytes are built once, on first use, and are not a field.
    """

    root_key: PublicKey
    root_hash: bytes
    state_index: int

    @cached_property
    def _wire(self) -> bytes:
        return (self.root_key.to_bytes() + self.root_hash
                + self.state_index.to_bytes(8, "big"))

    def to_bytes(self) -> bytes:
        return self._wire

    @classmethod
    def parse(cls, data: bytes, offset: int = 0) -> tuple["RootStamp", int]:
        key, offset = PublicKey.parse(data, offset)
        if offset + 40 > len(data):
            raise ValueError("truncated root stamp")
        root_hash = data[offset:offset + 32]
        state_index = int.from_bytes(data[offset + 32:offset + 40], "big")
        return cls(key, root_hash, state_index), offset + 40


@dataclass(frozen=True)
class ChipMerkleTree:
    """Executed transfer structure: nodes, schedule, and the root."""

    nodes: Mapping[str, ChipNode]
    edges: tuple[tuple[str, str], ...]
    schedule: tuple[tuple[str, str], ...]
    root_id: str
    state_index: int
    modulus_bits: int

    @property
    def root_hash(self) -> bytes:
        return self.nodes[self.root_id].latest_hash

    def root_stamp(self) -> RootStamp:
        root = self.nodes[self.root_id]
        return RootStamp(root.public_key, root.latest_hash, self.state_index)


def _normalized_edges(topology: Iterable[tuple[str, str]]):
    edges = [(str(a), str(b)) for a, b in topology]
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge in transfer topology")
    return tuple(edges)


def build_tree(topology: Iterable[tuple[str, str]],
               chips: Mapping[str, SimulatedChip], state_index: int,
               modulus_bits: int = 1024) -> ChipMerkleTree:
    """Derive every chip's keys at the state index, then seat_tree."""
    keypairs = {node_id: keypair_for_chip(chip, state_index, modulus_bits)
                for node_id, chip in chips.items()}
    return seat_tree(topology, keypairs)


def seat_tree(topology: Iterable[tuple[str, str]],
              keypairs: Mapping[str, ChipKeyPair]) -> ChipMerkleTree:
    """Seat each node at genesis with its key pair and run all transfers
    in deterministic order.

    The nodes are the keys of keypairs, and the tree is bound to the
    state index and size of the root's pair; a pair at another state or
    of another size is refused.
    """
    edges = _normalized_edges(topology)
    for src, dst in edges:
        for endpoint in (src, dst):
            if endpoint not in keypairs:
                raise UnknownChip(f"edge endpoint {endpoint!r} has no chip")
    schedule, root_id = _topological_schedule(keypairs.keys(), edges)
    root_pair = keypairs[root_id]
    state_index, modulus_bits = root_pair.state_index, root_pair.modulus_bits
    for node_id, pair in sorted(keypairs.items()):
        if pair.state_index != state_index:
            raise StateMismatch(f"{node_id} keyed at state {pair.state_index}, "
                                f"root {root_id} at {state_index}")
        if pair.modulus_bits != modulus_bits:
            raise ValueError(f"{node_id} key pair is {pair.modulus_bits}-bit, "
                             f"root {root_id}'s is {modulus_bits}-bit")
    nodes = {node_id: ChipNode(node_id, keypairs[node_id], [])
             for node_id in sorted(keypairs)}
    for src, dst in schedule:
        transfer(nodes[src], nodes[dst])
    return ChipMerkleTree(nodes, edges, schedule, root_id, state_index,
                          modulus_bits)


def verify_tree(tree: ChipMerkleTree) -> bool:
    """Check every record against the schedule edge that seats it: its
    sender's key and final fold, its receiver key, its hash rule and its
    signature; and that no node holds a missing or an extra record.

    A node sends only after all its incoming edges fired, so the record
    it sent must carry its final fold and latest signature.  A record
    out of place fails the sender-key check or, where two seats share a
    key, the prev-fold check.
    """
    nodes = tree.nodes
    arrivals: dict[str, int] = {}
    for src, dst in tree.schedule:
        position = arrivals.get(dst, 0)
        arrivals[dst] = position + 1
        sender, receiver = nodes[src], nodes[dst]
        if position >= len(receiver.incoming):
            return False
        record = receiver.incoming[position]
        if (record.sender_key != sender.public_key
                or record.receiver_key != receiver.public_key
                or record.prev_hash != sender.latest_hash
                or record.prev_signature != sender.latest_signature
                or not verify_record(record)):
            return False
    return all(len(node.incoming) == arrivals.get(node_id, 0)
               for node_id, node in nodes.items())


def replace_chip(tree: ChipMerkleTree, node_id: str, new_chip: SimulatedChip,
                 state_index: int):
    """Seat a replacement chip and repair only what its change dirties.

    Returns (new_tree, recomputed_ids).  The replaced node's keys and
    incoming signatures change, then the change propagates along the
    schedule through every node downstream toward the root; siblings off
    that path are untouched, which is the repair-cost win this structure
    exists for.  The new tree holds copies of the recomputed seats only
    and shares every other seat with the tree handed in, which stays as
    it was.
    """
    if node_id not in tree.nodes:
        raise UnknownChip(f"no node {node_id!r} in the tree")
    if state_index != tree.state_index:
        raise StateMismatch(
            f"tree is bound to state {tree.state_index}, not {state_index}")

    nodes = dict(tree.nodes)
    replaced = nodes[node_id]
    nodes[node_id] = dataclasses.replace(
        replaced,
        keypair=keypair_for_chip(new_chip, state_index, tree.modulus_bits),
        incoming=list(replaced.incoming))

    # A node sends only after all its incoming edges fired, so its fold is
    # final by then: every record into the replaced node or out of a dirty
    # sender is just the sender's next signed record at its position.
    arrivals: dict[str, int] = {}
    dirty = {node_id}
    recomputed = [node_id]
    for src, dst in tree.schedule:
        position = arrivals.get(dst, 0)
        arrivals[dst] = position + 1
        if src not in dirty and dst != node_id:
            continue
        receiver = nodes[dst]
        if dst not in dirty:
            receiver = nodes[dst] = dataclasses.replace(
                receiver, incoming=list(receiver.incoming))
            dirty.add(dst)
            recomputed.append(dst)
        receiver.incoming[position] = _signed_record(nodes[src], receiver)

    return dataclasses.replace(tree, nodes=nodes), recomputed


def rotate_state_reproduce(tree: ChipMerkleTree,
                           chips: Mapping[str, SimulatedChip],
                           new_state_index: int) -> ChipMerkleTree:
    """Re-derive every key at a new state index from the chips the
    caller holds for the tree's nodes and replay the tree's topology.

    Entirely new keys and folds; a seat whose chip was swapped is keyed
    from the chip handed in.  Because everything is deterministic,
    rotating the same chips back to the old index reproduces the old
    tree exactly.
    """
    return build_tree(tree.edges, chips,
                      _new_state(tree.state_index, new_state_index),
                      tree.modulus_bits)


def _new_state(current: int, value) -> int:
    """The state index a rotate from current moves to: a rotate that kept
    the index would re-key nothing.  Every rotate calls this check."""
    state = _state_index(value)
    if state == current:
        raise NumberInvalid(f"new state index must differ from the current "
                            f"one, got {state}")
    return state


def _seal_bytes(nonce: int, stamp: RootStamp, prev_block_hash: bytes) -> bytes:
    """What a block's hash seals: nonce, stamp, previous block hash."""
    return nonce.to_bytes(8, "big") + stamp.to_bytes() + prev_block_hash


@dataclass(frozen=True)
class Block:
    """One mined stamp, linked to the block before it.

    The bytes its hash seals are built once, on first use, and are not a
    field; the wire form is the height, those bytes and the hash.
    """

    height: int
    nonce: int
    stamp: RootStamp
    prev_block_hash: bytes
    block_hash: bytes

    @cached_property
    def _sealed(self) -> bytes:
        return _seal_bytes(self.nonce, self.stamp, self.prev_block_hash)

    def to_bytes(self) -> bytes:
        return struct.pack(">Q", self.height) + self._sealed + self.block_hash

    @classmethod
    def parse(cls, data: bytes) -> "Block":
        if len(data) < 16:
            raise ValueError("truncated block header")
        height, nonce = struct.unpack_from(">QQ", data, 0)
        stamp, offset = RootStamp.parse(data, 16)
        if offset + 64 != len(data):
            raise ValueError("block length does not match its stamp")
        prev_block_hash = data[offset:offset + 32]
        block_hash = data[offset + 32:offset + 64]
        return cls(height, nonce, stamp, prev_block_hash, block_hash)


def block_hash(nonce: int, stamp: RootStamp, prev_block_hash: bytes) -> bytes:
    return hashlib.sha256(_seal_bytes(nonce, stamp, prev_block_hash)).digest()


def leading_zero_bits(digest: bytes) -> int:
    return 8 * len(digest) - int.from_bytes(digest, "big").bit_length()


def _mining_difficulty(value) -> int:
    """A difficulty to mine at; every parser of one calls this check."""
    return _number_in(value, "difficulty", MAX_MINING_DIFFICULTY)


def _height(value) -> int:
    """A block height: the wire packs it in 8 bytes."""
    return _number_in(value, "height", (1 << 64) - 1, "2^64 - 1")


def mine_block(stamp: RootStamp, prev_block_hash: bytes = ZERO_HASH,
               difficulty_bits: int = 8, nonce_start: int = 0,
               height: int = 0, max_attempts: int | None = None) -> Block:
    """Scan nonces until the block hash clears the difficulty.

    The scan is linear from nonce_start, so mining is deterministic and
    the attempt count is block.nonce - nonce_start + 1.  A block that
    parse_chain could not read back is refused before the scan.
    """
    difficulty_bits = _mining_difficulty(difficulty_bits)
    height = _height(height)
    _state_index(stamp.state_index)
    for what, value in (("root hash", stamp.root_hash),
                        ("previous block hash", prev_block_hash)):
        if len(value) != len(ZERO_HASH):
            raise ChainInvalid(f"{what} must be {len(ZERO_HASH)} bytes, "
                               f"got {len(value)}")
    # pow_search puts each nonce in front of the rest of the sealed bytes
    body = _seal_bytes(0, stamp, prev_block_hash)[8:]
    result = pow_search(body, nonce_start, difficulty_bits, max_attempts)
    if result is None:
        raise NonceExhausted(
            f"no qualifying nonce at difficulty {difficulty_bits} "
            f"within the attempt budget")
    nonce, digest, _attempts = result
    return Block(height, nonce, stamp, prev_block_hash, digest)


def verify_chain(blocks: Sequence[Block], difficulty_bits: int) -> bool:
    """Check each block in turn: its height is its position, it links to
    the block before (the first to ZERO_HASH), one SHA-256 over the bytes
    it seals gives its hash, and that hash is at most the difficulty
    target, the byte form of having difficulty_bits leading zero bits."""
    target = _target(difficulty_bits)
    sha256 = hashlib.sha256
    prev = ZERO_HASH
    for height, block in enumerate(blocks):
        digest = block.block_hash
        if (block.height != height or block.prev_block_hash != prev
                or sha256(block._sealed).digest() != digest
                or digest > target):
            return False
        prev = digest
    return True


def serialize_chain(blocks: Sequence[Block]) -> bytes:
    out = bytearray()
    for block in blocks:
        raw = block.to_bytes()
        out += len(raw).to_bytes(4, "big") + raw
    return bytes(out)


def parse_chain(data: bytes) -> list[Block]:
    """Read serialize_chain's bytes back into blocks.

    Any malformed block raises ChainInvalid naming the block's index and
    the byte offset of its length prefix.
    """
    blocks = []
    offset = 0
    while offset < len(data):
        where = f"block {len(blocks)} at byte {offset}"
        if offset + 4 > len(data):
            raise ChainInvalid(f"{where}: truncated block length prefix")
        end = offset + 4 + int.from_bytes(data[offset:offset + 4], "big")
        if end > len(data):
            raise ChainInvalid(f"{where}: truncated block")
        try:
            blocks.append(Block.parse(data[offset + 4:end]))
        except ValueError as exc:
            raise ChainInvalid(f"{where}: {exc}") from exc
        offset = end
    return blocks


def save_chain(blocks: Sequence[Block], path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_chain(blocks))


def load_chain(path) -> list[Block]:
    with open(path, "rb") as fh:
        return parse_chain(fh.read())
