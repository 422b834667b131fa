"""Mutation fuzz of the chain wire parser.

Mutants of a serialized two-block chain must either parse or fail with
a ChipChainError that names the block and its byte offset, and a chain
that parses must serialize back to the same bytes.
"""

import re

from hypothesis import given, settings, strategies as st

from chipchain import (
    ChainInvalid,
    ChipChainError,
    PublicKey,
    RootStamp,
    mine_block,
    parse_chain,
    serialize_chain,
)

_KEY = PublicKey((1 << 511) | 0x1F3D, 65537)
_FIRST = mine_block(RootStamp(_KEY, bytes(range(32)), 0), difficulty_bits=4)
_SECOND = mine_block(RootStamp(_KEY, bytes(32), 1), _FIRST.block_hash,
                     difficulty_bits=4, height=1)
WIRE = serialize_chain([_FIRST, _SECOND])
# byte values at the edges of the length prefixes and integer fields
EDGE_BYTES = [0x00, 0x01, 0x03, 0x04, 0x7F, 0x80, 0xFF]
KINDS = ["flip", "byte", "truncate", "insert", "delete", "splice"]
_WHERE = re.compile(r"block \d+ at byte \d+: ")


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
