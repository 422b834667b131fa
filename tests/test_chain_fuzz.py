"""Mutation fuzz of the chain wire parser and of the chain verifier.

Mutants of a serialized two-block chain must either parse or fail with
a ChipChainError that names the block and its byte offset, and a chain
that parses must serialize back to the same bytes.  verify_chain must
give the frozen oracle's verdict on every chain that parses and on
chains whose blocks were rewritten field by field.
"""

import dataclasses
import hashlib
import re

from hypothesis import given, settings, strategies as st

from chipchain import (
    ChainInvalid,
    ChipChainError,
    PublicKey,
    RootStamp,
    ZERO_HASH,
    block_hash,
    mine_block,
    parse_chain,
    serialize_chain,
    verify_chain,
)
from oracles import verify_chain_oracle

_KEY = PublicKey((1 << 511) | 0x1F3D, 65537)
_FIRST = mine_block(RootStamp(_KEY, bytes(range(32)), 0), difficulty_bits=4)
_SECOND = mine_block(RootStamp(_KEY, bytes(32), 1), _FIRST.block_hash,
                     difficulty_bits=4, height=1)
WIRE = serialize_chain([_FIRST, _SECOND])
# byte values at the edges of the length prefixes and integer fields
EDGE_BYTES = [0x00, 0x01, 0x03, 0x04, 0x7F, 0x80, 0xFF]
KINDS = ["flip", "byte", "truncate", "insert", "delete", "splice"]
_WHERE = re.compile(r"block \d+ at byte \d+: ")
# mined at 4; a block clears 5 or 8 by chance, and 0 and 256 are the ends
DIFFICULTIES = (0, 1, 4, 5, 8, 256)


def _same_verdict(blocks):
    for bits in DIFFICULTIES:
        assert verify_chain(blocks, bits) == verify_chain_oracle(blocks, bits), bits


def _int_fields():
    """(block prefix, field prefix) offsets of the key's integer fields."""
    fields = []
    block_at = 0
    for block in (_FIRST, _SECOND):
        modulus_at = block_at + 4 + 16
        exponent_at = modulus_at + 4 + int.from_bytes(
            WIRE[modulus_at:modulus_at + 4], "big")
        fields += [(block_at, modulus_at), (block_at, exponent_at)]
        block_at += 4 + len(block.to_bytes())
    return fields


def _padded(block_at: int, field_at: int) -> bytearray:
    """WIRE with a zero byte in front of one integer field's value and
    both length prefixes grown to match: well framed, not minimal."""
    data = bytearray(WIRE)
    for at in (block_at, field_at):
        grown = int.from_bytes(data[at:at + 4], "big") + 1
        data[at:at + 4] = grown.to_bytes(4, "big")
    data[field_at + 4:field_at + 4] = b"\x00"
    return data


@st.composite
def mutants(draw) -> bytes:
    padding = draw(st.sampled_from([None] * 4 + _int_fields()))
    data = bytearray(WIRE) if padding is None else _padded(*padding)
    for _ in range(draw(st.integers(0 if padding else 1, 3))):
        kind = draw(st.sampled_from(KINDS))
        i = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "byte" and data:
            data[i] = draw(st.sampled_from(EDGE_BYTES))
        elif kind == "truncate":
            del data[i:]
        elif kind == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[i:i + draw(st.integers(1, 8))]
        else:
            j = draw(st.integers(i, len(data)))
            data[i:i] = data[i:j]
    return bytes(data)


@settings(max_examples=400)
@given(mutants())
def test_chain_parser_fuzz(data):
    try:
        blocks = parse_chain(data)
    except ChipChainError as exc:
        assert isinstance(exc, ChainInvalid)
        assert _WHERE.match(str(exc)), str(exc)
        return
    assert serialize_chain(blocks) == data
    _same_verdict(blocks)


def _mined(count: int):
    blocks, prev = [], ZERO_HASH
    for height in range(count):
        stamp = RootStamp(_KEY, hashlib.sha256(b"%d" % height).digest(), height)
        blocks.append(mine_block(stamp, prev, 4, height=height))
        prev = blocks[-1].block_hash
    return blocks


CHAIN = _mined(4)
_OTHER_KEY = PublicKey((1 << 511) | 0x2A61, 3)
_U64 = st.integers(0, 2**64 - 1)
# another block's hash or link keeps the chain's own values in play
_HASHES = st.binary(min_size=32, max_size=32) | st.sampled_from(
    [ZERO_HASH] + [block.block_hash for block in CHAIN])


@st.composite
def rewritten_chains(draw):
    """A mined chain of 0-4 blocks with up to two blocks rewritten, each
    optionally resealed with its true hash, then reordered or cut."""
    blocks = CHAIN[:draw(st.integers(0, len(CHAIN)))]
    for _ in range(draw(st.integers(0, 2)) if blocks else 0):
        i = draw(st.integers(0, len(blocks) - 1))
        block, stamp = blocks[i], blocks[i].stamp
        field = draw(st.sampled_from(["height", "nonce", "root_key",
                                      "root_hash", "state_index",
                                      "prev_block_hash", "block_hash"]))
        if field == "height":
            block = dataclasses.replace(block,
                                        height=draw(st.integers(0, 5) | _U64))
        elif field == "nonce":
            block = dataclasses.replace(block, nonce=draw(_U64))
        elif field == "root_key":
            stamp = dataclasses.replace(stamp, root_key=_OTHER_KEY)
        elif field == "root_hash":
            stamp = dataclasses.replace(
                stamp, root_hash=draw(_HASHES | st.binary(max_size=40)))
        elif field == "state_index":
            stamp = dataclasses.replace(stamp, state_index=draw(_U64))
        elif field == "prev_block_hash":
            block = dataclasses.replace(block, prev_block_hash=draw(_HASHES))
        else:
            block = dataclasses.replace(block, block_hash=draw(_HASHES))
        block = dataclasses.replace(block, stamp=stamp)
        if draw(st.booleans()):
            block = dataclasses.replace(block, block_hash=block_hash(
                block.nonce, block.stamp, block.prev_block_hash))
        blocks = blocks[:i] + [block] + blocks[i + 1:]
    shape = draw(st.sampled_from(["keep", "reorder", "cut"]))
    if shape == "reorder":
        blocks = draw(st.permutations(blocks))
    elif shape == "cut":
        start = draw(st.integers(0, len(blocks)))
        blocks = blocks[start:draw(st.integers(start, len(blocks)))]
    return blocks


def test_the_mined_chain_verifies_at_its_difficulty():
    assert verify_chain(CHAIN, 4) and verify_chain_oracle(CHAIN, 4)


@settings(max_examples=400)
@given(rewritten_chains())
def test_verify_chain_agrees_with_the_oracle(blocks):
    _same_verdict(blocks)
