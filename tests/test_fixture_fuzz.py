"""Mutation fuzz of the chip fixture parser.

Mutants of a fixture record must either parse or fail with a
ChipChainError, and a record that parses must describe a part that
reads out its recorded failure rows and writes back the same record.
"""

import re

from hypothesis import given, settings, strategies as st

from chipchain import (
    ChipChainError,
    ChipGeometry,
    extract_prn,
    format_chip_fixture,
    new_chip,
    parse_chip_fixture,
)

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
