import argparse
import os
import re
import subprocess
import sys

import pytest

import chipchain
from chipchain import (
    ChipChainError,
    ChipGeometry,
    FailureModel,
    PublicKey,
    RootStamp,
    build_tree,
    load_topology,
    mine_block,
    new_chip,
    replace_chip,
    serialize_chain,
)
from chipchain import cli, identity
from chipchain.cli import _build_parser, dispatch, main
from chipchain.config import bundled_scenario
from chipchain.network_sim import run_scenario

from oracles import binom_product
from test_network_sim import MINI, REENROLL_SCHEDULE, REFUSED

TOPOLOGY = """
# four chips funneling into n0
[params]
y = 256

[chips]
n0 seed=50
n1 seed=51
n2 seed=52
n3 seed=53

[topology]
n2 -> n0
n3 -> n1
n1 -> n0
"""


@pytest.fixture()
def topo_file(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(TOPOLOGY)
    return str(path)


def lines_of(result):
    return result.stdout_payload.splitlines()


def field(line, key):
    for part in line.split():
        k, _, v = part.partition("=")
        if k == key:
            return v
    raise KeyError(f"{key} not in {line!r}")


def field_anywhere(result, key):
    for line in lines_of(result):
        try:
            return field(line, key)
        except KeyError:
            continue
    raise KeyError(f"{key} not in output")


# ------------------------------------------------------------------ basics

def test_version():
    result = dispatch(["version"])
    assert result.exit_code == 0
    assert result.stdout_payload.startswith("chipchain 0.1.0")
    assert "pow kernel:" in result.stdout_payload
    assert re.search(r"powmod: (libcrypto|builtin), primality: (libgmp|builtin)\)",
                     result.stdout_payload)
    assert f"hmac: {chipchain.HMAC_BACKEND}, powmod:" in result.stdout_payload
    assert (f"powmod: {chipchain.POWMOD_BACKEND}, "
            f"primality: {chipchain.PRIME_BACKEND})") in result.stdout_payload


def test_unknown_command_usage_error():
    result = dispatch(["frobnicate"])
    assert result.exit_code == 2
    assert result.stdout_payload == ""


def test_help_exits_zero():
    result = dispatch(["--help"])
    assert result.exit_code == 0
    assert "usage" in result.stdout_payload


def test_missing_required_flag():
    result = dispatch(["id", "keygen"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flag, value", [
    ("--l", "18446744073709551616"), ("--l", "-1"), ("--l", "two"),
    ("--from-l", "18446744073709551616"), ("--new-l", "18446744073709551616"),
])
def test_state_index_flags_are_bounded(topo_file, flag, value):
    argv = {"--l": ["id", "keygen", "--chip", "absent.chip"],
            "--from-l": ["ledger", "rotate", "--topology", topo_file,
                         "--new-l", "1"],
            "--new-l": ["ledger", "rotate", "--topology", topo_file]}[flag]
    result = dispatch(argv + [flag, value])
    assert result.exit_code == 2
    assert result.stdout_payload == ""
    assert "usage:" in result.diagnostics
    assert f"argument {flag}:" in result.diagnostics
    assert "state index" in result.diagnostics.splitlines()[-1]


MINE = ["ledger", "mine", "--topology", "{topo}", "--chain", "c.bin"]
VERIFY = ["ledger", "verify", "--chain", "c.bin"]
AUDIT = ["id", "audit", "--chip", "c.chip"]
# a well-formed key for the command lines that never get to use it
ANY_KEY = PublicKey((1 << 511) | 1, 65537).to_bytes().hex()


@pytest.mark.parametrize("argv, flag, value, message", [
    (["chip", "new"], "--seed", "-1", "seed must be >= 0, got -1"),
    (["scenario", "run", "fig10-coexistence"], "--seed", "-1",
     "seed must be >= 0, got -1"),
    (["ledger", "replace", "--topology", "{topo}", "--old", "n3"],
     "--new-seed", "-1", "seed must be >= 0, got -1"),
    (["chip", "new"], "--seed", "x", "seed must be an integer, got 'x'"),
    (VERIFY, "--difficulty", "-5", "difficulty must be in [0, 256], got -5"),
    (VERIFY, "--difficulty", "257", "difficulty must be in [0, 256], got 257"),
    (MINE, "--difficulty", "40", "difficulty must be in [0, 32], got 40"),
    (MINE, "--difficulty", "-1", "difficulty must be in [0, 32], got -1"),
    (MINE + ["--difficulty", "4"], "--nonce-start", "-1",
     "nonce start must be in [0, 2^64 - 1], got -1"),
    (MINE + ["--difficulty", "4"], "--nonce-start", str(2**64),
     "nonce start must be in [0, 2^64 - 1], got 18446744073709551616"),
    (AUDIT, "--pk", "zz", "invalid public key 'zz': non-hexadecimal number "
     "found in fromhex() arg at position 0"),
    (AUDIT, "--pk", "00", "invalid public key '00': truncated length prefix"),
    (AUDIT + ["--pk", ANY_KEY], "--nonce", "zz", "nonce must be hex, got 'zz'"),
    (["entropy"], "--y", "-5", "rows must be >= 1, got -5"),
    (["entropy"], "--l", "0", "block side must be >= 1, got 0"),
    (["entropy", "collisions"], "--m", "-1",
     "failure count must be >= 0, got -1"),
    (["entropy", "collisions"], "--y", "0", "rows must be >= 1, got 0"),
    (["entropy", "collisions"], "--n", "1e5000",
     "population must be in [1, 1e100], got 1e5000"),
    (["entropy", "collisions"], "--n", "nan",
     "population must be an integer, got 'nan'"),
    (["ledger", "rotate", "--topology", "{topo}"], "--new-l", "0",
     "new state index must differ from the current one, got 0"),
    (AUDIT + ["--pk", ANY_KEY], "--nonce", "", "nonce must be non-empty"),
])
def test_numeric_flags_are_bounded(topo_file, tmp_path, monkeypatch, argv,
                                   flag, value, message):
    workdir = tmp_path / "run"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    argv = [topo_file if part == "{topo}" else part for part in argv]
    result = dispatch(argv + [flag, value])
    assert result.exit_code == 2
    assert result.stdout_payload == ""
    assert "usage:" in result.diagnostics
    assert result.diagnostics.splitlines()[-1].endswith(
        f"argument {flag}: {message}")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("argv, dest, value", [
    (["chip", "new", "--seed", "0"], "seed", 0),
    (VERIFY + ["--difficulty", "256"], "difficulty", 256),
    (MINE + ["--difficulty", "32"], "difficulty", 32),
    (MINE + ["--difficulty", "0", "--nonce-start", str(2**64 - 1)],
     "nonce_start", 2**64 - 1),
])
def test_numeric_flags_accept_their_bounds(argv, dest, value):
    assert getattr(_build_parser().parse_args(argv), dest) == value


# ------------------------------------------------------ command-line surface

# every command line that runs a handler and its options, positionals included
LEAF_OPTIONS = {
    "chip new": {"--seed", "--output", "--y", "--lambda", "--redundancy",
                 "--min-failures", "--chip-id", "--dir"},
    "chip prn": {"--chip", "--column", "--output"},
    "entropy": {"--y", "--l", "--m", "--output"},
    "entropy table": {"--generations", "--l", "--m", "--output"},
    "entropy collisions": {"--n", "--y", "--l", "--m", "--output"},
    "id keygen": {"--chip", "--l", "--show-secret", "--output",
                  "--modulus-bits"},
    "id audit": {"--chip", "--pk", "--l", "--nonce", "--output"},
    "ledger build": {"--topology", "--l", "--modulus-bits"},
    "ledger mine": {"--topology", "--l", "--difficulty", "--chain",
                    "--nonce-start", "--modulus-bits"},
    "ledger verify": {"--chain", "--difficulty"},
    "ledger replace": {"--topology", "--old", "--new-seed", "--l",
                       "--modulus-bits"},
    "ledger rotate": {"--topology", "--from-l", "--new-l", "--modulus-bits"},
    "scenario run": {"target", "--seed", "--output"},
    "version": set(),
}


def leaf_parsers(parser, path=()):
    """(path, parser) for each command line that runs a handler."""
    if parser.get_default("handler") is not None:
        yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from leaf_parsers(child, path + (name,))


def leaf_actions(parser):
    return [action for action in parser._actions
            if not isinstance(action, (argparse._HelpAction,
                                       argparse._SubParsersAction))]


def test_each_subcommand_takes_only_its_options():
    found = {path: {action.option_strings[0] if action.option_strings
                    else action.dest for action in leaf_actions(leaf)}
             for path, leaf in leaf_parsers(_build_parser())}
    assert found == LEAF_OPTIONS
    assert sum(len(options) for options in found.values()) == 57


@pytest.mark.parametrize("argv, flag, value", [
    (["chip", "new"], "--modulus-bits", "512"),
    (["chip", "prn", "--chip", "c.chip"], "--seed", "1"),
    (["chip", "prn", "--chip", "c.chip"], "--modulus-bits", "512"),
    (["chip", "prn", "--chip", "c.chip"], "--id", "x"),
    (["chip", "prn", "--chip", "c.chip"], "--dir", "."),
    (["chip", "prn", "--chip", "c.chip"], "--fixture", "c.chip"),
    (["entropy", "table"], "--seed", "1"),
    (["entropy", "table"], "--modulus-bits", "512"),
    (["id", "keygen", "--chip", "c.chip"], "--seed", "1"),
    (["id", "audit", "--chip", "c.chip", "--pk", ANY_KEY], "--seed", "1"),
    (["id", "audit", "--chip", "c.chip", "--pk", ANY_KEY], "--modulus-bits",
     "512"),
    (["ledger", "build", "--topology", "t.cfg"], "--seed", "1"),
    (["ledger", "build", "--topology", "t.cfg"], "--output", "records"),
    (["ledger", "mine", "--topology", "t.cfg", "--difficulty", "8",
      "--chain", "c.bin"], "--seed", "1"),
    (["ledger", "mine", "--topology", "t.cfg", "--difficulty", "8",
      "--chain", "c.bin"], "--output", "records"),
    (["ledger", "verify", "--chain", "c.bin", "--difficulty", "8"],
     "--seed", "1"),
    (["ledger", "verify", "--chain", "c.bin", "--difficulty", "8"],
     "--output", "records"),
    (["ledger", "verify", "--chain", "c.bin", "--difficulty", "8"],
     "--modulus-bits", "512"),
    (["ledger", "replace", "--topology", "t.cfg", "--old", "n3",
      "--new-seed", "99"], "--seed", "1"),
    (["ledger", "replace", "--topology", "t.cfg", "--old", "n3",
      "--new-seed", "99"], "--output", "records"),
    (["ledger", "rotate", "--topology", "t.cfg", "--new-l", "1"],
     "--seed", "1"),
    (["ledger", "rotate", "--topology", "t.cfg", "--new-l", "1"],
     "--output", "records"),
    (["scenario", "run", "fig10-coexistence"], "--modulus-bits", "512"),
    (["version"], "--seed", "1"),
    (["version"], "--output", "records"),
    (["version"], "--modulus-bits", "512"),
    (["id", "keygen", "--chip", "c.chip"], "--column", "0"),
    (["id", "audit", "--chip", "c.chip", "--pk", ANY_KEY], "--column", "0"),
])
def test_removed_flags_are_usage_errors(argv, flag, value):
    result = dispatch(argv + [flag, value])
    assert result.exit_code == 2
    assert result.stdout_payload == ""
    assert f"unrecognized arguments: {flag} {value}" in result.diagnostics


class ReadRecorder(argparse.Namespace):
    """Namespace that notes the name of each attribute read from it."""

    def __init__(self):
        super().__init__(_reads=set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_reads").add(name)
        return super().__getattribute__(name)


def test_each_option_is_read_by_its_handler(topo_file, tmp_path):
    """The file's valid invocations, replayed on a namespace that records
    reads: between them they read every option of every subcommand, and
    nothing else."""
    parser = _build_parser()
    leaves = {leaf.get_default("handler"): (path, leaf)
              for path, leaf in leaf_parsers(parser)}
    reads = {path: set() for path in LEAF_OPTIONS}

    def run(argv):
        args = parser.parse_args(argv, namespace=ReadRecorder())
        handler = args.handler
        args._reads.clear()
        lines, code, _ = handler(args)
        reads[leaves[handler][0]] |= args._reads
        return lines, code

    chip = str(tmp_path / "gamma.chip")
    chain = str(tmp_path / "chain.bin")
    ledger = ["--topology", topo_file, "--modulus-bits", "512"]
    run(["chip", "new", "--chip-id", "gamma", "--seed", "11", "--y", "2000",
         "--lambda", "10", "--redundancy", "20", "--min-failures", "1",
         "--dir", str(tmp_path), "--output", "records"])
    run(["chip", "prn", "--chip", chip, "--column", "0",
         "--output", "records"])
    run(["entropy", "--y", "2000", "--l", "1", "--m", "10"])
    run(["entropy", "table", "--generations", "4 Gb,8 Gb", "--output", "records"])
    run(["entropy", "collisions", "--n", "1e14"])
    lines, _ = run(["id", "keygen", "--chip", chip, "--modulus-bits", "512",
                    "--show-secret", "--output", "records"])
    pk_hex = field(lines[0], "pk")
    run(["id", "audit", "--chip", chip, "--pk", pk_hex, "--l", "0",
         "--nonce", "00", "--output", "records"])
    run(["ledger", "build", *ledger, "--l", "0"])
    run(["ledger", "mine", *ledger, "--difficulty", "8", "--chain", chain,
         "--nonce-start", "0"])
    run(["ledger", "verify", "--chain", chain, "--difficulty", "8"])
    run(["ledger", "replace", *ledger, "--old", "n3", "--new-seed", "99"])
    run(["ledger", "rotate", *ledger, "--from-l", "0", "--new-l", "2"])
    run(["scenario", "run", "fig10-coexistence", "--seed", "3",
         "--output", "records"])
    run(["version"])

    for path, leaf in leaves.values():
        assert reads[path] == {action.dest for action in leaf_actions(leaf)}


# ----------------------------------------------------------------- entropy

def test_entropy_anchor_exact():
    result = dispatch(["entropy", "--y", "2000", "--l", "1", "--m", "10"])
    assert result.exit_code == 0
    assert str(binom_product(2000, 10)) in result.stdout_payload


def test_entropy_records_fields():
    result = dispatch(
        ["entropy", "--y", "2000", "--l", "1", "--m", "10", "--output", "records"]
    )
    line = lines_of(result)[0]
    assert field(line, "combinations") == str(binom_product(2000, 10))
    assert field(line, "y") == "2000"
    assert float(field(line, "entropy_nats")) == pytest.approx(60.88207631272997)


def test_entropy_table_lists_generations():
    result = dispatch(["entropy", "table", "--output", "records"])
    rows = lines_of(result)
    assert len(rows) == 11
    nats = [float(field(line, "entropy_nats")) for line in rows]
    assert nats == sorted(nats)


def test_entropy_collisions_exact_fields():
    result = dispatch(["entropy", "collisions", "--y", "2000", "--m", "10",
                       "--n", "1e14", "--output", "records"])
    line = lines_of(result)[0]
    assert field(line, "per_chip") == "3.62451758014e-13"
    assert field(line, "per_pair") == "3.62451758014e-27"
    assert field(line, "expected_pairs") == "1.81225879007e+1"


@pytest.mark.parametrize("argv", [
    ["entropy", "--n", "7"],
    ["entropy", "--generations", "4 Gb"],
    ["entropy", "table", "--y", "5"],
    ["entropy", "table", "--n", "7"],
    ["entropy", "collisions", "--generations", "4 Gb"],
])
def test_entropy_modes_refuse_flags_they_do_not_read(argv):
    result = dispatch(argv)
    assert result.exit_code == 2
    assert result.stdout_payload == ""
    assert "usage:" in result.diagnostics


@pytest.mark.parametrize("argv", [
    ["entropy", "--y", "5", "table"],
    ["entropy", "--y=5", "table", "--output", "records"],
    ["entropy", "--m", "5", "--y", "5", "table"],
])
def test_entropy_refuses_a_flag_given_before_a_mode_that_ignores_it(argv):
    result = dispatch(argv)
    assert result.exit_code == 2
    assert result.stdout_payload == ""
    assert "usage:" in result.diagnostics
    assert result.diagnostics.endswith("entropy table does not read --y")


def test_entropy_reads_flags_given_before_the_mode():
    before = dispatch(["entropy", "--output", "records", "--l", "2", "table"])
    assert before.exit_code == 0
    assert before == dispatch(["entropy", "table", "--output", "records",
                               "--l", "2"])
    given = dispatch(["entropy", "--y", "3000", "--m", "4", "collisions"])
    assert given.exit_code == 0
    assert given == dispatch(["entropy", "collisions", "--y", "3000",
                              "--m", "4"])


def test_entropy_rejects_bad_population():
    result = dispatch(["entropy", "collisions", "--n", "zebras"])
    assert result.exit_code == 2
    assert result.diagnostics.endswith(
        "argument --n: population must be an integer, got 'zebras'")


@pytest.mark.parametrize("argv", [
    ["entropy", "--y", "4294967295", "--m", "1000"],
    ["entropy", "collisions", "--y", "4294967295", "--m", "1000"],
    ["entropy", "--y", "4294967295", "--l", "4294967296", "--m", "4294967296"],
])
def test_entropy_refuses_a_count_too_long_to_print(argv):
    result = dispatch(argv)
    assert result.exit_code == 1
    assert result.diagnostics.startswith("CountTooLarge: ")


# ---------------------------------------------------------------- chip/id

def test_chip_new_and_prn(tmp_path):
    made = dispatch(["chip", "new", "--chip-id", "alpha", "--seed", "5",
                     "--y", "2000", "--dir", str(tmp_path)])
    assert made.exit_code == 0
    assert (tmp_path / "alpha.chip").exists()

    prn = dispatch(["chip", "prn", "--chip", str(tmp_path / "alpha.chip"),
                    "--output", "records"])
    assert prn.exit_code == 0
    line = lines_of(prn)[0]
    assert field(line, "rows") == "2,90,97,107,261,553,764,815,1139,1950"
    assert field(line, "canonical") == (
        "000007d00000000a000000020000005a000000610000006b"
        "0000010500000229000002fc0000032f000004730000079e"
    )


# the fixture field of each chip option a fixture records
FIXTURE_KEYS = {"y": "rows", "redundancy": "redundancy_rows"}


@pytest.mark.parametrize("key, value, message", [
    ("y", "0", "rows must be positive, got 0"),
    ("y", "4294967296", "rows must be at most 4294967295, got 4294967296"),
    ("lambda", "nan", "mean_failures must be finite, got nan"),
    ("lambda", "0", "mean_failures must be positive"),
    ("lambda", "1e19", "mean_failures must be at most 9.22337e+18, got 1e+19"),
    ("redundancy", "-1", "redundancy_rows must be >= 0, got -1"),
    ("redundancy", "2001", "redundancy_rows=2001 exceeds rows=2000"),
    ("min_failures", "-1", "min_failures must be >= 0, got -1"),
    ("min_failures", "21", "min_failures=21 exceeds redundancy_rows=20"),
])
def test_a_bad_chip_parameter_reads_the_same_at_every_boundary(
        tmp_path, key, value, message):
    """chip new, a scenario config, a ledger file and, for the geometry
    keys, a chip fixture refuse it with one text."""
    chips = f"[chips]\nc seed=1 {key}={value}\n"
    ledger = tmp_path / "net.cfg"
    ledger.write_text(chips)
    scenario = tmp_path / "run.cfg"
    scenario.write_text(chips + "[nodes]\nmgmt role=management\n"
                                "sec role=security\n")
    results = [
        dispatch(["chip", "new", f"--{key.replace('_', '-')}", value,
                  "--dir", str(tmp_path / "chips")]),
        dispatch(["scenario", "run", str(scenario)]),
        dispatch(["ledger", "build", "--topology", str(ledger)]),
    ]
    assert [result.diagnostics for result in results] == [
        f"GeometryInvalid: {message}",
        f"ConfigInvalid: line 2: chip 'c': {message}",
        f"ConfigInvalid: line 2: chip 'c': {message}",
    ]
    if key in FIXTURE_KEYS:
        record = {"chip_id": "c", "rows": "2000", "redundancy_rows": "20",
                  "failure_rows": "1", FIXTURE_KEYS[key]: value}
        fixture = tmp_path / "c.chip"
        fixture.write_text("".join(f"{k} = {v}\n" for k, v in record.items()))
        line_no = list(record).index(FIXTURE_KEYS[key]) + 1
        results.append(dispatch(["chip", "prn", "--chip", str(fixture)]))
        assert results[-1].diagnostics == (
            f"FixtureInvalid: fixture line {line_no}: {message}")
    for result in results:
        assert result.exit_code == 1
        name = result.diagnostics.partition(":")[0]
        assert issubclass(getattr(chipchain, name), ChipChainError)
    assert not (tmp_path / "chips").exists()


@pytest.mark.parametrize("chip_id", [
    "../escaped", "a\nrows = 5", " pad ", "x/y", "-lead", "a#b", ".hidden",
])
def test_chip_new_refuses_an_id_its_fixture_cannot_hold(tmp_path, chip_id):
    chip_dir = tmp_path / "chips"
    result = dispatch(["chip", "new", f"--chip-id={chip_id}",
                       "--dir", str(chip_dir)])
    assert result.exit_code == 1
    assert result.diagnostics == (
        "FixtureInvalid: chip_id must match [A-Za-z0-9][A-Za-z0-9._-]*, "
        f"got {chip_id!r}")
    assert list(tmp_path.iterdir()) == []


def test_chip_new_takes_every_id_the_pattern_allows(tmp_path):
    for chip_id in ("a", "Z9", "chip-7", "n0.v2_b", "0-rev.A"):
        result = dispatch(["chip", "new", "--chip-id", chip_id,
                           "--dir", str(tmp_path)])
        assert result.exit_code == 0
        prn = dispatch(["chip", "prn", "--chip",
                        str(tmp_path / f"{chip_id}.chip")])
        assert lines_of(prn)[0].startswith(f"chip {chip_id}, column 0")


@pytest.mark.parametrize("argv, diagnostics", [
    (["--y", "4294967296"],
     "GeometryInvalid: rows must be at most 4294967295, got 4294967296"),
    (["--y", "4294967295", "--redundancy", "100000000", "--lambda", "1e8"],
     "GeometryInvalid: redundancy_rows must be at most 65536, got 100000000"),
])
def test_chip_new_rejects_geometry_beyond_bounds(tmp_path, argv, diagnostics):
    chip_dir = tmp_path / "chips"
    result = dispatch(["chip", "new", *argv, "--dir", str(chip_dir)])
    assert result.exit_code == 1
    assert result.diagnostics == diagnostics
    assert not chip_dir.exists()


def test_chip_prn_fixture_flag(tmp_path):
    dispatch(["chip", "new", "--chip-id", "beta", "--seed", "9",
              "--dir", str(tmp_path)])
    result = dispatch(["chip", "prn", "--chip", str(tmp_path / "beta.chip")])
    assert result.exit_code == 0
    assert lines_of(result) == [
        "chip beta, column 0",
        "  failure rows (14): "
        "26,53,227,1199,1279,1327,1426,1439,1547,1717,1824,1825,1834,1848",
        "  canonical bytes: 000007d00000000e0000001a00000035000000e3000004af"
        "000004ff0000052f000005920000059f0000060b000006b500000720000007210000"
        "072a00000738",
    ]


@pytest.mark.parametrize("argv, diagnostics", [
    (["chip", "prn", "--chip"], "FixtureInvalid: fixture line 2: "),
    (["ledger", "build", "--topology"], "ConfigInvalid: line 2: "),
    (["scenario", "run"], "ConfigInvalid: line 2: "),
])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, argv, diagnostics):
    path = tmp_path / "input"
    path.write_bytes(b"# line one\n\xff line two\n")
    result = dispatch(argv + [str(path)])
    assert result.exit_code == 1
    assert result.diagnostics == diagnostics + "byte 0xff is not UTF-8 text"


def test_chip_prn_missing_file(tmp_path):
    result = dispatch(["chip", "prn", "--chip", str(tmp_path / "ghost.chip")])
    assert result.exit_code == 1
    assert result.diagnostics


def test_id_keygen_deterministic(tmp_path):
    dispatch(["chip", "new", "--chip-id", "gamma", "--seed", "11",
              "--dir", str(tmp_path)])
    fixture = str(tmp_path / "gamma.chip")
    argv = ["id", "keygen", "--chip", fixture, "--modulus-bits", "512",
            "--output", "records"]
    a, b = dispatch(argv), dispatch(argv)
    assert a.exit_code == 0
    assert a.stdout_payload == b.stdout_payload
    line = lines_of(a)[0]
    assert len(field(line, "fingerprint")) == 16
    assert "sk_exponent" not in a.stdout_payload
    pk_hex = field(line, "pk")
    assert len(bytes.fromhex(pk_hex)) > 64


def test_id_keygen_show_secret(tmp_path):
    dispatch(["chip", "new", "--chip-id", "gamma", "--seed", "11",
              "--dir", str(tmp_path)])
    result = dispatch(["id", "keygen", "--chip", str(tmp_path / "gamma.chip"),
                       "--modulus-bits", "512", "--show-secret",
                       "--output", "records"])
    assert "sk_exponent" in result.stdout_payload


def test_id_audit_genuine_and_impostor(tmp_path):
    dispatch(["chip", "new", "--chip-id", "delta", "--seed", "13",
              "--dir", str(tmp_path)])
    fixture = str(tmp_path / "delta.chip")
    keygen = dispatch(["id", "keygen", "--chip", fixture,
                       "--modulus-bits", "512", "--output", "records"])
    pk_hex = field(lines_of(keygen)[0], "pk")

    good = dispatch(["id", "audit", "--chip", fixture, "--pk", pk_hex])
    assert good.exit_code == 0
    assert "Genuine" in good.stdout_payload

    # same chip, stale state index
    stale = dispatch(["id", "audit", "--chip", fixture, "--pk", pk_hex,
                      "--l", "3"])
    assert stale.exit_code == 1
    assert "Impostor" in stale.stdout_payload


def test_id_audit_tampered_key(tmp_path):
    dispatch(["chip", "new", "--chip-id", "eps", "--seed", "17",
              "--dir", str(tmp_path)])
    fixture = str(tmp_path / "eps.chip")
    keygen = dispatch(["id", "keygen", "--chip", fixture,
                       "--modulus-bits", "512", "--output", "records"])
    pk_hex = field(lines_of(keygen)[0], "pk")
    flipped = ("0" if pk_hex[50] != "0" else "1")
    tampered = pk_hex[:50] + flipped + pk_hex[51:]
    result = dispatch(["id", "audit", "--chip", fixture, "--pk", tampered])
    assert result.exit_code == 1


# ------------------------------------------------------------------ ledger

def test_ledger_build(topo_file):
    result = dispatch(["ledger", "build", "--topology", topo_file,
                       "--modulus-bits", "512"])
    assert result.exit_code == 0
    lines = lines_of(result)
    node_lines = [l for l in lines if l.startswith("node=")]
    assert len(node_lines) == 4
    summary = [l for l in lines if "root=" in l]
    assert summary
    assert field(summary[0], "root") == "n0"


def test_ledger_build_deterministic(topo_file):
    argv = ["ledger", "build", "--topology", topo_file, "--modulus-bits", "512"]
    assert dispatch(argv).stdout_payload == dispatch(argv).stdout_payload


def test_ledger_mine_verify_cycle(topo_file, tmp_path):
    chain = str(tmp_path / "chain.bin")
    mine = ["ledger", "mine", "--topology", topo_file, "--modulus-bits", "512",
            "--difficulty", "8", "--chain", chain]
    first = dispatch(mine)
    assert first.exit_code == 0
    assert field(lines_of(first)[-1], "height") == "0"
    second = dispatch(mine)
    assert field(lines_of(second)[-1], "height") == "1"

    good = dispatch(["ledger", "verify", "--chain", chain, "--difficulty", "8"])
    assert good.exit_code == 0
    assert "verified=yes" in good.stdout_payload

    harder = dispatch(["ledger", "verify", "--chain", chain, "--difficulty", "20"])
    assert harder.exit_code == 1
    assert "verified=no" in harder.stdout_payload


def test_ledger_verify_corrupt_file(tmp_path):
    path = tmp_path / "chain.bin"
    path.write_bytes(b"\x00\x00\x00\x10 definitely not a chain")
    result = dispatch(["ledger", "verify", "--chain", str(path),
                       "--difficulty", "8"])
    assert result.exit_code == 1
    assert result.diagnostics


def test_ledger_verify_truncated_chain_names_block_and_offset(tmp_path):
    key = PublicKey((1 << 511) | 1, 65537)
    first = mine_block(RootStamp(key, bytes(32), 0), difficulty_bits=4)
    second = mine_block(RootStamp(key, bytes(32), 1), first.block_hash,
                        difficulty_bits=4, height=1)
    path = tmp_path / "chain.bin"
    path.write_bytes(serialize_chain([first, second])[:-5])
    result = dispatch(["ledger", "verify", "--chain", str(path),
                       "--difficulty", "4"])
    assert result.exit_code == 1
    offset = 4 + len(first.to_bytes())
    assert result.diagnostics == (
        f"ChainInvalid: block 1 at byte {offset}: truncated block")


def test_ledger_replace(topo_file):
    result = dispatch(["ledger", "replace", "--topology", topo_file,
                       "--old", "n3", "--new-seed", "99",
                       "--modulus-bits", "512"])
    assert result.exit_code == 0
    assert field_anywhere(result, "recomputed") == "n3,n1,n0"
    assert field_anywhere(result, "rebuild_match") == "yes"
    assert field_anywhere(result, "old_root") != field_anywhere(result, "new_root")


def test_ledger_replace_unknown_node(topo_file):
    result = dispatch(["ledger", "replace", "--topology", topo_file,
                       "--old", "zz", "--new-seed", "99",
                       "--modulus-bits", "512"])
    assert result.exit_code == 1
    assert result.diagnostics == f"UnknownChip: no chip 'zz' in {topo_file}"


@pytest.mark.parametrize(
    "old, new, message_part",
    [
        ("n0 seed=50", "n0 seed=50 lambda=nan", "mean_failures must be finite"),
        ("n0 seed=50", "n0 seed=50 seed=51", "duplicate option 'seed'"),
        ("y = 256", "y = abc", "params.y: expected integer"),
        (None, "n2 -> n0", "duplicate edge"),
        (None, "n2 -> n2", "self transfer"),
        (None, "n9 -> n0", "unknown chip 'n9'"),
        (None, "[nodes]", "unknown section [nodes]"),
    ],
)
def test_ledger_build_rejects_bad_topology(tmp_path, old, new, message_part):
    text = TOPOLOGY.replace(old, new) if old else TOPOLOGY + new + "\n"
    line_no = text.splitlines().index(new) + 1 if old else len(text.splitlines())
    path = tmp_path / "net.cfg"
    path.write_text(text)
    result = dispatch(["ledger", "build", "--topology", str(path),
                       "--modulus-bits", "512"])
    assert result.exit_code == 1
    assert result.diagnostics.startswith(f"ConfigInvalid: line {line_no}: ")
    assert message_part in result.diagnostics


def test_ledger_build_without_chips_has_no_final_receiver(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("[params]\ny = 256\n")
    result = dispatch(["ledger", "build", "--topology", str(path)])
    assert result.exit_code == 1
    assert result.diagnostics.startswith("MultipleSinks: ")


def test_ledger_build_with_chips_and_no_topology_names_the_second_chip(
        tmp_path):
    path = tmp_path / "sinks.cfg"
    path.write_text("[chips]\nn0 seed=1\nn1 seed=2\n")
    result = dispatch(["ledger", "build", "--topology", str(path)])
    assert result.exit_code == 1
    assert result.diagnostics == (
        "ConfigInvalid: line 3: transfer topology must funnel into one "
        "chip, found sinks: n0, n1; [topology] is empty")


def test_ledger_build_of_one_chip_without_topology(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("[params]\ny = 256\n[chips]\nn0 seed=1\n")
    result = dispatch(["ledger", "build", "--topology", str(path),
                       "--modulus-bits", "512"])
    assert result.exit_code == 0, result.diagnostics


def test_ledger_replace_keeps_the_replaced_chips_parameters(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(TOPOLOGY.replace("n3 seed=53",
                                     "n3 seed=53 lambda=3 min_failures=2"))
    result = dispatch(["ledger", "replace", "--topology", str(path),
                       "--old", "n3", "--new-seed", "99",
                       "--modulus-bits", "512"])
    assert result.exit_code == 0
    assert field_anywhere(result, "rebuild_match") == "yes"

    geometry = ChipGeometry(rows=256, redundancy_rows=20)
    own = new_chip(geometry, FailureModel(mean_failures=3.0, min_failures=2),
                   seed=99, chip_id="n3-replacement")
    from_defaults = new_chip(geometry, FailureModel(), seed=99,
                             chip_id="n3-replacement")
    assert own.failure_rows != from_defaults.failure_rows
    specs, topology = load_topology(path)
    tree = build_tree(topology, {n: s.manufacture() for n, s in specs.items()},
                      0, 512)
    repaired, _ = replace_chip(tree, "n3", own, 0)
    assert field_anywhere(result, "new_root") == repaired.root_hash.hex()[:16]


def test_ledger_rotate(topo_file):
    result = dispatch(["ledger", "rotate", "--topology", topo_file,
                       "--new-l", "2", "--modulus-bits", "512"])
    assert result.exit_code == 0
    assert field_anywhere(result, "keys_changed") == "4/4"
    assert field_anywhere(result, "verified") == "yes"


def test_ledger_replace_diverges_from_a_wrong_replacement_key(topo_file,
                                                             monkeypatch):
    """The from-scratch route derives the replacement's pair itself, so a
    repair that seats another chip's key is caught."""
    def wrong_chip(tree, node_id, replacement, state_index):
        other = new_chip(replacement.geometry, seed=12345)
        return replace_chip(tree, node_id, other, state_index)

    monkeypatch.setattr(cli, "replace_chip", wrong_chip)
    result = dispatch(["ledger", "replace", "--topology", topo_file,
                       "--old", "n3", "--new-seed", "99",
                       "--modulus-bits", "512"])
    assert result.exit_code == 1
    assert field_anywhere(result, "rebuild_match") == "no"
    assert "diverged" in result.diagnostics


def test_every_path_derives_each_response_once(topo_file, tmp_path,
                                               monkeypatch):
    """With the process-wide key cache bypassed, no path derives a
    response twice except where a check must: fig10 derives its 19
    (chip, state) pairs once each, `ledger build`, `mine` and `rotate`
    once per response, and `ledger replace` on n chips derives n + 2
    times, n + 1 distinct: the tree, the repair's replacement pair and
    the from-scratch check's own replacement pair."""
    derivations = []
    uncached = identity._derive_core.__wrapped__

    def counting(seed, modulus_bits):
        derivations.append((seed, modulus_bits))
        return uncached(seed, modulus_bits)

    monkeypatch.setattr(identity, "_derive_core", counting)

    def derived(argv) -> tuple[int, int]:
        derivations.clear()
        result = dispatch(argv)
        assert result.exit_code == 0, result.diagnostics
        return len(derivations), len(set(derivations))

    run_scenario(bundled_scenario("fig10-coexistence"), seed=0)
    assert (len(derivations), len(set(derivations))) == (19, 19)
    ledger = ["--topology", topo_file, "--modulus-bits", "512"]
    chain = str(tmp_path / "chain.bin")
    assert derived(["ledger", "build", *ledger]) == (4, 4)
    assert derived(["ledger", "mine", *ledger, "--difficulty", "4",
                    "--chain", chain]) == (4, 4)
    assert derived(["ledger", "rotate", *ledger, "--new-l", "1"]) == (8, 8)
    assert derived(["ledger", "replace", *ledger, "--old", "n3",
                    "--new-seed", "99"]) == (6, 5)


# ---------------------------------------------------------------- scenario

def test_scenario_run_bundled_records():
    result = dispatch(["scenario", "run", "fig10-coexistence",
                       "--output", "records"])
    assert result.exit_code == 0
    lines = lines_of(result)
    assert lines[0].startswith("tick=0 kind=Genesis")
    assert lines[-1] == (
        "chain_length=3 verified=yes members=9 evictions=0 rejections=1"
    )


def test_scenario_run_text_summary():
    result = dispatch(["scenario", "run", "fig10-coexistence"])
    assert result.exit_code == 0
    assert "3 blocks, verified" in result.stdout_payload


def test_scenario_run_from_path(tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        "[params]\ndifficulty = 4\nmodulus_bits = 512\ny = 256\n"
        "[chips]\nca seed=1\ncb seed=2\n"
        "[nodes]\nmgmt role=management\nsec role=security\n"
        "a role=device chip=ca\nb role=device chip=cb\n"
        "[topology]\nb -> a\n"
        "[schedule]\n1 enroll a\n2 enroll b\n3 build_tree\n4 mine\n"
    )
    result = dispatch(["scenario", "run", str(cfg), "--output", "records"])
    assert result.exit_code == 0
    assert "chain_length=1 verified=yes members=2" in lines_of(result)[-1]


@pytest.mark.parametrize("text, line, message", REFUSED)
def test_scenario_run_refusal_names_its_line(tmp_path, text, line, message):
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(text)
    result = dispatch(["scenario", "run", str(cfg)])
    assert result.exit_code == 1
    line_no = text.splitlines().index(line) + 1
    assert result.diagnostics == f"ConfigInvalid: line {line_no}: {message}"


def test_scenario_run_reenrolled_member_is_healthy(tmp_path):
    cfg = tmp_path / "reenroll.cfg"
    cfg.write_text(MINI.split("[schedule]")[0] + REENROLL_SCHEDULE)
    result = dispatch(["scenario", "run", str(cfg), "--output", "records"])
    assert (result.exit_code, result.diagnostics) == (0, "")
    assert lines_of(result)[-1] == (
        "chain_length=0 verified=yes members=2 evictions=1 rejections=0")


def test_scenario_run_unknown_name():
    result = dispatch(["scenario", "run", "does-not-exist"])
    assert result.exit_code == 1
    assert "does-not-exist" in result.diagnostics


def test_scenario_run_seed_determinism():
    argv = ["scenario", "run", "fig10-coexistence", "--seed", "3",
            "--output", "records"]
    assert dispatch(argv).stdout_payload == dispatch(argv).stdout_payload


# -------------------------------------------------------------------- main

def test_main_prints_and_returns(capsys):
    code = main(["version"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("chipchain")
    assert captured.err == ""


def test_main_routes_diagnostics_to_stderr(capsys, tmp_path):
    code = main(["chip", "prn", "--chip", str(tmp_path / "ghost.chip")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.strip()


def test_main_exits_quietly_when_the_reader_closes_the_pipe():
    """`chipchain ... | head` may close stdout before the payload is
    written: exit 1 with nothing on stderr, not a BrokenPipeError trace."""
    src = os.path.dirname(os.path.dirname(chipchain.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "chipchain.cli", "ledger", "mine", "--help"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path})
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b"", err.decode()
