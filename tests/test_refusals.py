"""One refusal per value.

A chip seed, a security-state index, a mining difficulty, a chain's
verification difficulty, a scan's nonce start and attempt cap and a
block's height are each checked by the module that owns the value
(chip_model, identity, ledger and _pow); a seed has no upper bound.  Every entry point that takes one (library call, CLI flag,
scenario line, ledger file, chip fixture) hands a bad value to that
check and adds only its place, so each bad value reads one text after
the place, and every refusal is a ChipChainError and a ValueError.
"""

import pytest

from chipchain import (
    ChipChainError,
    ChipGeometry,
    PublicKey,
    RootStamp,
    SimulatedChip,
    ZERO_HASH,
    crp_audit,
    keypair_for_chip,
    make_challenge,
    mine_block,
    new_chip,
    parse_chip_fixture,
    parse_scenario,
    parse_topology,
    pow_search,
    verify_chain,
)
from chipchain.cli import dispatch

SMALL = ChipGeometry(rows=256, redundancy_rows=20)
KEY = PublicKey((1 << 511) | 1, 65537)

# value -> (bad value, the owner's one text); text entry points take the
# integers, library calls every value
REFUSALS = {
    "seed": [
        (-1, "seed must be >= 0, got -1"),
        (1.0, "seed must be an integer, got 1.0"),
        ("3", "seed must be an integer, got '3'"),
    ],
    "state index": [
        (-1, "state index must be in [0, 2^64 - 1], got -1"),
        (2**64, "state index must be in [0, 2^64 - 1], got 18446744073709551616"),
        (1.0, "state index must be an integer, got 1.0"),
        ("3", "state index must be an integer, got '3'"),
    ],
    "mining difficulty": [
        (-1, "difficulty must be in [0, 32], got -1"),
        (33, "difficulty must be in [0, 32], got 33"),
        (8.0, "difficulty must be an integer, got 8.0"),
        ("8", "difficulty must be an integer, got '8'"),
    ],
    "verification difficulty": [
        (-1, "difficulty must be in [0, 256], got -1"),
        (257, "difficulty must be in [0, 256], got 257"),
        (8.0, "difficulty must be an integer, got 8.0"),
        ("8", "difficulty must be an integer, got '8'"),
    ],
    "nonce start": [
        (-1, "nonce start must be in [0, 2^64 - 1], got -1"),
        (2**64, "nonce start must be in [0, 2^64 - 1], got 18446744073709551616"),
        (1.5, "nonce start must be an integer, got 1.5"),
        ("0", "nonce start must be an integer, got '0'"),
    ],
    "max attempts": [
        (-1, "max attempts must be in [0, 2^64], got -1"),
        (2**64 + 1, "max attempts must be in [0, 2^64], got 18446744073709551617"),
        (2.5, "max attempts must be an integer, got 2.5"),
        ("9", "max attempts must be an integer, got '9'"),
    ],
    "height": [
        (-1, "height must be in [0, 2^64 - 1], got -1"),
        (2**64, "height must be in [0, 2^64 - 1], got 18446744073709551616"),
        (1.5, "height must be an integer, got 1.5"),
        ("0", "height must be an integer, got '0'"),
    ],
}

LIBRARY = {
    "seed": {
        "new_chip": lambda v: new_chip(SMALL, seed=v),
        "SimulatedChip": lambda v: SimulatedChip("x", SMALL, [3], seed=v),
    },
    "state index": {
        "make_challenge": make_challenge,
        "keypair_for_chip": lambda v: keypair_for_chip(new_chip(SMALL), v, 512),
        "crp_audit": lambda v: crp_audit(new_chip(SMALL), KEY, v, b"n"),
    },
    "mining difficulty": {
        "mine_block": lambda v: mine_block(RootStamp(KEY, bytes(32), 0),
                                           ZERO_HASH, v),
    },
    "verification difficulty": {
        "verify_chain": lambda v: verify_chain([], v),
        "pow_search": lambda v: pow_search(b"", 0, v),
    },
    "nonce start": {
        "mine_block": lambda v: mine_block(RootStamp(KEY, bytes(32), 0),
                                           ZERO_HASH, 0, nonce_start=v),
        "pow_search": lambda v: pow_search(b"", v),
    },
    "max attempts": {
        "mine_block": lambda v: mine_block(RootStamp(KEY, bytes(32), 0),
                                           ZERO_HASH, 0, max_attempts=v),
        "pow_search": lambda v: pow_search(b"", 0, 0, v),
    },
    "height": {
        "mine_block": lambda v: mine_block(RootStamp(KEY, bytes(32), 0),
                                           ZERO_HASH, 0, height=v),
    },
}

# value -> {entry: (flag, the command line it is given on)}
CLI = {
    "seed": {
        "chip new": ("--seed", ["chip", "new"]),
        "ledger replace": ("--new-seed", ["ledger", "replace", "--topology",
                                          "t.cfg", "--old", "a"]),
    },
    "state index": {
        "id keygen": ("--l", ["id", "keygen", "--chip", "c.chip"]),
        "ledger rotate from": ("--from-l", ["ledger", "rotate", "--topology",
                                            "t.cfg", "--new-l", "1"]),
        "ledger rotate new": ("--new-l", ["ledger", "rotate", "--topology",
                                          "t.cfg"]),
    },
    "mining difficulty": {
        "ledger mine": ("--difficulty", ["ledger", "mine", "--topology",
                                         "t.cfg", "--chain", "c.bin"]),
    },
    "verification difficulty": {
        "ledger verify": ("--difficulty", ["ledger", "verify", "--chain",
                                           "c.bin"]),
    },
    "nonce start": {
        "ledger mine": ("--nonce-start", ["ledger", "mine", "--topology",
                                          "t.cfg", "--chain", "c.bin",
                                          "--difficulty", "4"]),
    },
}

SCENARIO = """\
[params]
difficulty = 4
modulus_bits = 512
y = 256

[chips]
ca seed=1
cb seed=2

[nodes]
mgmt role=management
sec role=security
a role=device chip=ca
b role=device chip=cb

[topology]
b -> a

[schedule]
1 enroll a
2 enroll b
3 build_tree
4 mine
"""

LEDGER = "[chips]\nn0 seed=50\nn1 seed=51\n\n[topology]\nn1 -> n0\n"

FIXTURE = ("chip_id = x\nrows = 16\ncols = 8\nredundancy_rows = 4\nseed = 7\n"
           "failure_rows = 3, 9\nswap_targets = 1, 0\n")

# value -> {entry: (parser, good text, good line, bad line with {v},
#                   place before the owner's text)}
TEXT = {
    "seed": {
        "scenario chip": (parse_scenario, SCENARIO, "ca seed=1",
                          "ca seed={v}", "chip 'ca': "),
        "scenario tamper": (parse_scenario, SCENARIO, "4 mine",
                            "4 tamper a seed={v}", ""),
        "ledger file chip": (parse_topology, LEDGER, "n0 seed=50",
                             "n0 seed={v}", "chip 'n0': "),
        "chip fixture": (parse_chip_fixture, FIXTURE, "seed = 7",
                         "seed = {v}", ""),
    },
    "state index": {
        "scenario rotate": (parse_scenario, SCENARIO, "4 mine",
                            "4 rotate {v}", ""),
    },
    "mining difficulty": {
        "scenario params": (parse_scenario, SCENARIO, "difficulty = 4",
                            "difficulty = {v}", ""),
        "scenario mine": (parse_scenario, SCENARIO, "4 mine", "4 mine {v}", ""),
    },
}


def owner_rows(entries, integers_only):
    """(bad value, entry, the owner's text) for each entry of each value;
    a text entry point reads integers, so it takes only those."""
    return [pytest.param(value, entry, text,
                         id=f"{value_name}-{name}-{value!r}")
            for value_name, table in entries.items()
            for name, entry in table.items()
            for value, text in REFUSALS[value_name]
            if not integers_only or type(value) is int]


@pytest.mark.parametrize("value, call, text",
                         owner_rows(LIBRARY, integers_only=False))
def test_library_calls_raise_the_owners_text(value, call, text):
    with pytest.raises(ChipChainError) as caught:
        call(value)
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == text


@pytest.mark.parametrize("value, entry, text",
                         owner_rows(CLI, integers_only=True))
def test_cli_flags_exit_2_with_the_owners_text(tmp_path, monkeypatch, value,
                                               entry, text):
    monkeypatch.chdir(tmp_path)
    flag, command = entry
    result = dispatch(command + [flag, str(value)])
    assert result.exit_code == 2
    assert result.stdout_payload == ""
    assert result.diagnostics.splitlines()[-1].endswith(
        f"error: argument {flag}: {text}")


@pytest.mark.parametrize("value, entry, text",
                         owner_rows(TEXT, integers_only=True))
def test_text_lines_name_their_place_then_the_owners_text(value, entry, text):
    parse, good, line, bad_line, place = entry
    assert line in good.splitlines()
    bad_line = bad_line.format(v=value)
    bad = good.replace(line, bad_line)
    line_no = bad.splitlines().index(bad_line) + 1
    prefix = "fixture line" if parse is parse_chip_fixture else "line"
    with pytest.raises(ChipChainError) as caught:
        parse(bad)
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == f"{prefix} {line_no}: {place}{text}"


def test_mine_keeps_the_scenario_difficulty_as_its_lower_bound():
    """A block mined below [params] difficulty would fail the run's own
    chain check, so `mine D` refuses it with a rule of its own."""
    bad = SCENARIO.replace("4 mine", "4 mine 3")
    line_no = bad.splitlines().index("4 mine 3") + 1
    with pytest.raises(ChipChainError) as caught:
        parse_scenario(bad)
    assert str(caught.value) == (
        f"line {line_no}: mine difficulty 3 is below [params] difficulty 4, "
        f"at which the run verifies its whole chain")
    assert parse_scenario(SCENARIO.replace("4 mine", "4 mine 32")) \
        .schedule[-1].args == {"difficulty": 32}


def test_verify_chain_refuses_a_difficulty_outside_the_digest():
    """A chain cannot be verified at a negative difficulty, nor above the
    256 bits of its digests."""
    block = mine_block(RootStamp(KEY, bytes(32), 0), ZERO_HASH, 4)
    assert verify_chain([block], 4)
    for bits in (-1, 257, 300):
        with pytest.raises(ValueError, match=r"in \[0, 256\]"):
            verify_chain([block], bits)
