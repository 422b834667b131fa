"""One refusal per value.

Each value is checked by the module that owns it:
- chip_model: a part's rows, cols and redundancy rows, a PRN's total
  rows, a failure model's mean and min failures, and a chip seed,
  which has no upper bound;
- identity: a security-state index and a key size (modulus bits);
- ledger: a mining difficulty, a block's height, and a rotate's new
  state index, which must differ from the one in force;
- _pow: a chain's verification difficulty, a scan's nonce start and
  its attempt cap;
- entropy_analysis: the counts of rows, block side, failures and
  population, and a binomial's n and k.

Every entry point that takes one (library call, CLI flag, scenario
line, ledger file, chip fixture) hands a bad value to that check and
adds only its place, so each bad value reads one text after the place,
and every refusal is a ChipChainError and a ValueError.  Integer text
is read by one reader, which refuses a decimal integer too long for
Python to convert by its digit count.
"""

from functools import cache

import numpy as np
import pytest

from chipchain import (
    ChipChainError,
    ChipGeometry,
    ColumnOutOfRange,
    FailureModel,
    Prn,
    PublicKey,
    RootStamp,
    Simulation,
    SimulatedChip,
    ZERO_HASH,
    build_tree,
    collision_report,
    combinations,
    crp_audit,
    derive_keypair,
    entropy_report,
    extract_prn,
    keypair_for_chip,
    make_challenge,
    mine_block,
    new_chip,
    parse_chip_fixture,
    parse_scenario,
    parse_topology,
    pow_search,
    respond,
    rotate_state_reproduce,
    verify_chain,
    write_column,
)
from chipchain.cli import dispatch

SMALL = ChipGeometry(rows=256, redundancy_rows=20)
KEY = PublicKey((1 << 511) | 1, 65537)

# value -> (bad value, the owner's one text); text entry points take the
# integers, library calls every value
REFUSALS = {
    "chip rows": [
        (0, "rows must be positive, got 0"),
        (2**32, "rows must be at most 4294967295, got 4294967296"),
        (2000.5, "rows must be an integer, got 2000.5"),
        ("3", "rows must be an integer, got '3'"),
    ],
    "total rows": [
        (0, "total_rows must be positive, got 0"),
        (2**32, "total_rows must be at most 4294967295, got 4294967296"),
        (16.0, "total_rows must be an integer, got 16.0"),
    ],
    "cols": [
        (0, "cols must be positive, got 0"),
        (-3, "cols must be positive, got -3"),
        (2.5, "cols must be an integer, got 2.5"),
    ],
    "redundancy rows": [
        (-1, "redundancy_rows must be >= 0, got -1"),
        (2**16 + 1, "redundancy_rows must be at most 65536, got 65537"),
        (4.0, "redundancy_rows must be an integer, got 4.0"),
    ],
    # a text reads lambda as a float, so its integers are the ones whose
    # text does not print the value
    "mean failures": [
        (0, "mean_failures must be positive"),
        (-1, "mean_failures must be positive"),
        (float("nan"), "mean_failures must be finite, got nan"),
        (1e19, "mean_failures must be at most 9.22337e+18, got 1e+19"),
        ("5", "mean_failures must be an int or a float, got '5'"),
    ],
    "min failures": [
        (-1, "min_failures must be >= 0, got -1"),
        (1.5, "min_failures must be an integer, got 1.5"),
    ],
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
    "modulus bits": [
        (768, "modulus bits must be one of 512, 1024, 2048, got 768"),
        (4096, "modulus bits must be one of 512, 1024, 2048, got 4096"),
        (512.0, "modulus bits must be an integer, got 512.0"),
        ("512", "modulus bits must be an integer, got '512'"),
    ],
    # every entry point below starts at state 0
    "new state": [
        (0, "new state index must differ from the current one, got 0"),
    ],
    "rows": [
        (0, "rows must be >= 1, got 0"),
        (-5, "rows must be >= 1, got -5"),
        (2000.5, "rows must be an integer, got 2000.5"),
        ("3", "rows must be an integer, got '3'"),
    ],
    "block side": [
        (0, "block side must be >= 1, got 0"),
        (1.5, "block side must be an integer, got 1.5"),
    ],
    "failure count": [
        (-1, "failure count must be >= 0, got -1"),
        (2.0, "failure count must be an integer, got 2.0"),
    ],
    "population": [
        (0, "population must be >= 1, got 0"),
        (1.5, "population must be an integer, got 1.5"),
    ],
    "n": [
        (-1, "n must be >= 0, got -1"),
        (5.0, "n must be an integer, got 5.0"),
    ],
    "k": [
        (-1, "k must be >= 0, got -1"),
        (None, "k must be an integer, got None"),
    ],
}

CHIPS = {"a": new_chip(SMALL, seed=1), "b": new_chip(SMALL, seed=2)}
EDGES = (("b", "a"),)


@cache
def tree_at_state_0():
    return build_tree(EDGES, CHIPS, 0, 512)


LIBRARY = {
    "chip rows": {
        "ChipGeometry": ChipGeometry,
        "SimulatedChip": lambda v: SimulatedChip("x", ChipGeometry(v), [3]),
    },
    "total rows": {"Prn": lambda v: Prn("x", 0, (1,), v)},
    "cols": {"ChipGeometry": lambda v: ChipGeometry(256, cols=v)},
    "redundancy rows": {
        "ChipGeometry": lambda v: ChipGeometry(256, redundancy_rows=v),
    },
    "mean failures": {
        "FailureModel": FailureModel,
        "new_chip": lambda v: new_chip(SMALL, FailureModel(v, 0)),
    },
    "min failures": {
        "FailureModel": lambda v: FailureModel(min_failures=v),
        "new_chip": lambda v: new_chip(SMALL, FailureModel(min_failures=v)),
    },
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
    "modulus bits": {
        "derive_keypair": lambda v: derive_keypair(
            respond(extract_prn(CHIPS["a"]), make_challenge(0)), v),
        "keypair_for_chip": lambda v: keypair_for_chip(CHIPS["a"], 0, v),
        "build_tree": lambda v: build_tree(EDGES, CHIPS, 0, v),
    },
    "new state": {
        "rotate_state_reproduce": lambda v: rotate_state_reproduce(
            tree_at_state_0(), CHIPS, v),
        "Simulation.rotate": lambda v: Simulation(
            parse_scenario(SCENARIO)).rotate(v),
    },
    "rows": {
        "entropy_report": entropy_report,
        "collision_report": collision_report,
    },
    "block side": {
        "entropy_report": lambda v: entropy_report(2000, v),
        "collision_report": lambda v: collision_report(2000, v),
    },
    "failure count": {
        "entropy_report": lambda v: entropy_report(2000, 1, v),
        "collision_report": lambda v: collision_report(2000, 1, v),
    },
    "population": {
        "collision_report": lambda v: collision_report(2000, population=v),
    },
    "n": {"combinations": lambda v: combinations(v, 0)},
    "k": {"combinations": lambda v: combinations(5, v)},
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
    "modulus bits": {
        "id keygen": ("--modulus-bits", ["id", "keygen", "--chip", "c.chip"]),
        "ledger build": ("--modulus-bits", ["ledger", "build", "--topology",
                                            "t.cfg"]),
    },
    "new state": {
        "ledger rotate": ("--new-l", ["ledger", "rotate", "--topology",
                                      "t.cfg", "--from-l", "0"]),
    },
    "rows": {
        "entropy": ("--y", ["entropy"]),
        "entropy collisions": ("--y", ["entropy", "collisions"]),
    },
    "block side": {"entropy": ("--l", ["entropy"])},
    "failure count": {"entropy": ("--m", ["entropy"])},
    "population": {"entropy collisions": ("--n", ["entropy", "collisions"])},
}

SCENARIO = """\
[params]
difficulty = 4
modulus_bits = 512
y = 256
lambda = 10
redundancy = 20
min_failures = 1

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

LEDGER = ("[params]\ny = 256\nlambda = 10\nredundancy = 20\nmin_failures = 1\n"
          "\n[chips]\nn0 seed=50\nn1 seed=51\n\n[topology]\nn1 -> n0\n")

FIXTURE = ("chip_id = x\nrows = 16\ncols = 8\nredundancy_rows = 4\nseed = 7\n"
           "failure_rows = 3, 9\nswap_targets = 1, 0\n")

# value -> {entry: (parser, good text, good line, bad line with {v},
#                   place before the owner's text)}
TEXT = {
    "chip rows": {
        "scenario params": (parse_scenario, SCENARIO, "y = 256", "y = {v}", ""),
        "scenario chip": (parse_scenario, SCENARIO, "ca seed=1",
                          "ca seed=1 y={v}", "chip 'ca': "),
        "ledger file params": (parse_topology, LEDGER, "y = 256",
                               "y = {v}", ""),
        "ledger file chip": (parse_topology, LEDGER, "n0 seed=50",
                             "n0 seed=50 y={v}", "chip 'n0': "),
        "chip fixture": (parse_chip_fixture, FIXTURE, "rows = 16",
                         "rows = {v}", ""),
    },
    "cols": {
        "chip fixture": (parse_chip_fixture, FIXTURE, "cols = 8",
                         "cols = {v}", ""),
    },
    "redundancy rows": {
        "scenario params": (parse_scenario, SCENARIO, "redundancy = 20",
                            "redundancy = {v}", ""),
        "scenario chip": (parse_scenario, SCENARIO, "ca seed=1",
                          "ca seed=1 redundancy={v}", "chip 'ca': "),
        "ledger file params": (parse_topology, LEDGER, "redundancy = 20",
                               "redundancy = {v}", ""),
        "chip fixture": (parse_chip_fixture, FIXTURE, "redundancy_rows = 4",
                         "redundancy_rows = {v}", ""),
    },
    "mean failures": {
        "scenario params": (parse_scenario, SCENARIO, "lambda = 10",
                            "lambda = {v}", ""),
        "scenario chip": (parse_scenario, SCENARIO, "ca seed=1",
                          "ca seed=1 lambda={v}", "chip 'ca': "),
        "ledger file params": (parse_topology, LEDGER, "lambda = 10",
                               "lambda = {v}", ""),
    },
    "min failures": {
        "scenario params": (parse_scenario, SCENARIO, "min_failures = 1",
                            "min_failures = {v}", ""),
        "scenario chip": (parse_scenario, SCENARIO, "ca seed=1",
                          "ca seed=1 min_failures={v}", "chip 'ca': "),
        "ledger file params": (parse_topology, LEDGER, "min_failures = 1",
                               "min_failures = {v}", ""),
    },
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
    "modulus bits": {
        "scenario params": (parse_scenario, SCENARIO, "modulus_bits = 512",
                            "modulus_bits = {v}", ""),
    },
    "new state": {
        "scenario rotate": (parse_scenario, SCENARIO, "4 mine",
                            "4 rotate {v}", ""),
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


def test_a_numpy_integer_counts_as_its_value():
    """Each owner takes its value through operator.index, so a numpy
    integer is its value: no refusal and no C long overflow.  The chip
    is one no other test keys, so no cached key hides the numpy size."""
    chip = new_chip(SMALL, seed=3)
    assert keypair_for_chip(chip, 0, np.int64(512)) == \
        keypair_for_chip(chip, 0, 512)
    assert entropy_report(np.int64(2000), np.int32(1), np.int64(10)) == \
        entropy_report(2000, 1, 10)
    assert collision_report(2000, population=np.int64(10**6)) == \
        collision_report(2000, population=10**6)


HUGE = 10**5000  # more digits than Python converts to text by default


@pytest.mark.parametrize("call, text", [
    (lambda: make_challenge(HUGE), "state index must be in [0, 2^64 - 1], "
     "got an integer of more than 4300 digits"),
    (lambda: keypair_for_chip(CHIPS["a"], 0, HUGE), "modulus bits must be "
     "one of 512, 1024, 2048, got an integer of more than 4300 digits"),
    (lambda: entropy_report(-HUGE), "rows must be >= 1, got a negative "
     "integer of more than 4300 digits"),
    (lambda: collision_report(2000, population=-HUGE), "population must be "
     ">= 1, got a negative integer of more than 4300 digits"),
    (lambda: ChipGeometry(rows=HUGE), "rows must be at most 4294967295, "
     "got an integer of more than 4300 digits"),
    (lambda: new_chip(SMALL, seed=-HUGE), "seed must be >= 0, got a negative "
     "integer of more than 4300 digits"),
    (lambda: Prn("x", 0, (1,), HUGE), "total_rows must be at most 4294967295, "
     "got an integer of more than 4300 digits"),
    (lambda: write_column(new_chip(SMALL), "normal", 0, HUGE), "cell value "
     "must be 0 or 1, got an integer of more than 4300 digits"),
    (lambda: FailureModel(HUGE), "mean_failures must be at most 9.22337e+18, "
     "got an integer of more than 4300 digits"),
    (lambda: new_chip(SMALL, FailureModel(min_failures=HUGE)), "min_failures="
     "an integer of more than 4300 digits exceeds redundancy_rows=20"),
    (lambda: SimulatedChip("x", SMALL, [-HUGE]), "failure row outside the "
     "regular array: a negative integer of more than 4300 digits not in "
     "[0, 256)"),
    (lambda: SimulatedChip("x", SMALL, [3], swap_map={HUGE: 0}), "swap map "
     "keys must equal the failure rows [3], got [an integer of more than 4300 "
     "digits]"),
], ids=["make_challenge", "keypair_for_chip", "entropy_report",
        "collision_report", "ChipGeometry", "new_chip", "Prn", "write_column",
        "FailureModel", "new_chip min_failures", "SimulatedChip row",
        "SimulatedChip swap key"])
def test_a_number_too_long_to_print_is_refused_by_its_size(call, text):
    """The owner's text names the value's sign and size, so the refusal
    stays a NumberInvalid instead of the bare ValueError that printing
    the number would raise."""
    with pytest.raises(ChipChainError) as caught:
        call()
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == text



def test_a_column_too_long_to_print_is_refused_by_its_size():
    with pytest.raises(ColumnOutOfRange) as caught:
        extract_prn(new_chip(SMALL), HUGE)
    assert str(caught.value) == (
        "column an integer of more than 4300 digits outside 0..7")


DIGITS = "7" * 5000  # decimal text longer than Python converts to an int
TOO_LONG = "integer has 5000 digits, more than the 4300 Python converts"


@pytest.mark.parametrize("command, flag", [
    (["chip", "new"], "--seed"),
    (["chip", "new"], "--y"),
    (["chip", "prn", "--chip", "c.chip"], "--column"),
    (["entropy"], "--m"),
    (["ledger", "verify", "--chain", "c.bin"], "--difficulty"),
], ids=["chip new seed", "chip new y", "chip prn column", "entropy m",
        "ledger verify difficulty"])
@pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
def test_a_flag_too_long_to_read_is_refused_by_its_digit_count(
        tmp_path, monkeypatch, command, flag, sign):
    """The one reader of integer text gives the count, not the digits, and
    never calls a decimal integer "not an integer"."""
    monkeypatch.chdir(tmp_path)
    result = dispatch(command + [flag, sign + DIGITS])
    assert result.exit_code == 2
    assert result.diagnostics.splitlines()[-1].endswith(
        f"error: argument {flag}: {TOO_LONG}")
    assert DIGITS not in result.diagnostics


@pytest.mark.parametrize("parse, good, line, bad_line, place", [
    (parse_scenario, SCENARIO, "y = 256", "y = {v}", "params.y: "),
    (parse_scenario, SCENARIO, "ca seed=1", "ca seed={v}", ""),
    (parse_scenario, SCENARIO, "4 mine", "4 mine {v}", ""),
    (parse_topology, LEDGER, "redundancy = 20", "redundancy = {v}",
     "params.redundancy: "),
    (parse_topology, LEDGER, "n0 seed=50", "n0 seed=50 y={v}", ""),
    (parse_chip_fixture, FIXTURE, "rows = 16", "rows = {v}", "rows: "),
    (parse_chip_fixture, FIXTURE, "failure_rows = 3, 9",
     "failure_rows = 3, {v}", "failure_rows: "),
    (parse_chip_fixture, FIXTURE, "swap_targets = 1, 0",
     "swap_targets = {v}, 0", "swap_targets: "),
], ids=["scenario params", "scenario chip", "scenario mine",
        "ledger file params", "ledger file chip", "fixture rows",
        "fixture failure rows", "fixture swap targets"])
def test_a_line_too_long_to_read_is_refused_by_its_digit_count(
        parse, good, line, bad_line, place):
    bad_line = bad_line.format(v=DIGITS)
    bad = good.replace(line, bad_line)
    line_no = bad.splitlines().index(bad_line) + 1
    prefix = "fixture line" if parse is parse_chip_fixture else "line"
    with pytest.raises(ChipChainError) as caught:
        parse(bad)
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == f"{prefix} {line_no}: {place}{TOO_LONG}"
