"""Fuzz of the chip's inputs: the fixture parser and the constructors.

Mutants of a fixture record must either parse or fail with a
ChipChainError, and a record that parses must describe a part that
reads out its recorded failure rows and writes back the same record.
Each number a part, its failure model or a PRN takes, drawn from ints,
floats, bools, numpy integers and short strings, must likewise build
a part that manufactures and reads out, or fail with a ChipChainError.
"""

import re

import numpy as np
from hypothesis import given, settings, strategies as st

from chipchain import (
    ChipChainError,
    ChipGeometry,
    FailureModel,
    Prn,
    SimulatedChip,
    extract_prn,
    format_chip_fixture,
    make_challenge,
    new_chip,
    parse_chip_fixture,
    respond,
)
from chipchain.chip_model import MAX_ROWS

FIXTURE = format_chip_fixture(
    new_chip(ChipGeometry(rows=64, redundancy_rows=8), seed=5))

# boundary values of the fixture checks, plus a few that are not numbers
EDGES = ["-1", "0", "1", "7", "8", "63", "64", "4294967295", "4294967296",
         "99999999999999999999", "", "1.5", "abc", "nan", "3, 3", ",", "1,,2"]
KEYS = ["chip_id", "rows", "cols", "redundancy_rows", "seed", "failure_rows",
        "swap_targets", "bogus"]
KINDS = ["number"] * 3 + ["value", "drop", "duplicate", "swap", "junk"]
_NUMBER = re.compile(r"-?\d+")
# extraction allocates one byte per row, so only small parts are read out
_READ_LIMIT = 1 << 16


@st.composite
def mutants(draw) -> str:
    lines = FIXTURE.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append("")
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(KINDS))
        if kind == "number":
            found = [(j, m) for j, line in enumerate(lines)
                     for m in _NUMBER.finditer(line)]
            if found:
                j, m = draw(st.sampled_from(found))
                lines[j] = (lines[j][:m.start()] + draw(st.sampled_from(EDGES))
                            + lines[j][m.end():])
        elif kind == "value":
            lines.insert(i, f"{draw(st.sampled_from(KEYS))} = "
                            f"{draw(st.sampled_from(EDGES))}")
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, draw(st.text(max_size=24)))
    return "\n".join(lines)


@settings(max_examples=300)
@given(mutants())
def test_fixture_parser_fuzz(text):
    try:
        chip = parse_chip_fixture(text)
    except ChipChainError:
        return
    again = parse_chip_fixture(format_chip_fixture(chip))
    assert (again.geometry, again.failure_rows, dict(again.swap_map)) == (
        chip.geometry, chip.failure_rows, dict(chip.swap_map))
    if chip.geometry.rows <= _READ_LIMIT:
        assert extract_prn(chip).rows == chip.failure_rows


# small ints around the bounds of a small part, the bounds of every part,
# and values that are not integers
NUMBERS = st.one_of(
    st.integers(-2, 70),
    st.sampled_from([MAX_ROWS, MAX_ROWS + 1, 2**64, 10**400]),
    st.floats(),
    st.booleans(),
    st.integers(-2, 70).map(np.int64),
    st.integers(0, 70).map(np.uint8),
    st.text(max_size=3),
)


def _or(default):
    """default half the time, so that a draw reaches the later checks."""
    return st.booleans().flatmap(lambda keep: st.just(default) if keep else NUMBERS)


@settings(max_examples=300, deadline=None)
@given(rows=_or(64), cols=_or(8), redundancy_rows=_or(8), mean_failures=_or(3.0),
       min_failures=_or(1), column=_or(0), seed=st.integers(0, 9))
def test_geometry_and_model_build_or_refuse(rows, cols, redundancy_rows,
                                            mean_failures, min_failures,
                                            column, seed):
    try:
        chip = new_chip(ChipGeometry(rows, cols, redundancy_rows),
                        FailureModel(mean_failures, min_failures), seed)
        prn = extract_prn(chip, column)
    except ChipChainError:
        return
    assert prn.rows == chip.failure_rows
    assert all(type(r) is int for r in prn.rows)


@settings(max_examples=300, deadline=None)
@given(failure_rows=st.lists(_or(5), max_size=5),
       swap_map=st.none() | st.lists(_or(1), max_size=5)
       | st.dictionaries(NUMBERS, NUMBERS, max_size=3),
       column=_or(0))
def test_failure_rows_and_swap_map_build_or_refuse(failure_rows, swap_map,
                                                   column):
    if isinstance(swap_map, list):  # targets of the failure rows, in order
        swap_map = dict(zip(failure_rows, swap_map))
    try:
        chip = SimulatedChip("x", ChipGeometry(rows=64, redundancy_rows=8),
                             failure_rows, swap_map)
        prn = extract_prn(chip, column)
    except ChipChainError:
        return
    assert prn.rows == chip.failure_rows
    targets = list(chip.swap_map.values())
    assert len(set(targets)) == len(targets) and all(0 <= t < 8 for t in targets)


@settings(max_examples=300, deadline=None)
@given(chip_id=st.text(max_size=3) | NUMBERS, column=_or(0),
       rows=st.lists(_or(3), max_size=5), total_rows=_or(64))
def test_prn_fields_build_or_refuse(chip_id, column, rows, total_rows):
    try:
        prn = Prn(chip_id, column, rows, total_rows)
    except ChipChainError:
        return
    assert prn == Prn(prn.chip_id, prn.column, list(prn.rows), prn.total_rows)
    assert prn.canonical_bytes[:4] == prn.total_rows.to_bytes(4, "big")
    respond(prn, make_challenge(0))
