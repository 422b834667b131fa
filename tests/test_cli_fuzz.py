"""Fuzz of the command line's numeric and hex flags.

Each case puts one value from a fixed list of boundary and malformed
values on one numeric or hex flag of LEAF_OPTIONS, on an otherwise
valid command line.  Every run must exit 0, 1 or 2, and when it says
why, its last line must name a ChipChainError subclass or be argparse's
usage error.  The values are a fixed list, not free integers:
`ledger mine --difficulty 32` is a valid command that mines for hours.
"""

import re

import pytest

import chipchain
from chipchain import ChipChainError
from chipchain.cli import dispatch

from test_cli import ANY_KEY, LEAF_OPTIONS, TOPOLOGY

VALUES = ["0", "-1", str(2**32), str(2**64), str(10**30), "nan", "abc",
          "zz", "00", ""]
# the flags that take a path, a name or a word, not a number or hex
NOT_NUMERIC = {"--output", "--chip-id", "--dir", "--chip", "--topology",
               "--chain", "--old", "--show-secret", "--generations", "target"}
FLAGS = sorted((command, flag) for command, options in LEAF_OPTIONS.items()
               for flag in options - NOT_NUMERIC)
_USAGE = re.compile(r"chipchain[\w ]*: error: ")


@pytest.fixture(scope="module")
def base_argv(tmp_path_factory):
    """A valid, quick command line for each command that has such flags."""
    tmp = tmp_path_factory.mktemp("cli-fuzz")
    topology = tmp / "net.cfg"
    topology.write_text(TOPOLOGY)
    chip = str(tmp / "chip-0.chip")
    chain = str(tmp / "chain.bin")
    assert dispatch(["chip", "new", "--dir", str(tmp)]).exit_code == 0
    ledger = ["--topology", str(topology), "--modulus-bits", "512"]
    mine = ["ledger", "mine", *ledger, "--difficulty", "0", "--chain", chain]
    assert dispatch(mine).exit_code == 0
    return {
        "chip new": ["chip", "new", "--dir", str(tmp / "made")],
        "chip prn": ["chip", "prn", "--chip", chip],
        "entropy": ["entropy"],
        "entropy table": ["entropy", "table"],
        "entropy collisions": ["entropy", "collisions"],
        "id keygen": ["id", "keygen", "--chip", chip, "--modulus-bits", "512"],
        "id audit": ["id", "audit", "--chip", chip, "--pk", ANY_KEY],
        "ledger build": ["ledger", "build", *ledger],
        "ledger mine": mine,
        "ledger verify": ["ledger", "verify", "--chain", chain,
                          "--difficulty", "0"],
        "ledger replace": ["ledger", "replace", *ledger, "--old", "n3",
                           "--new-seed", "99"],
        "ledger rotate": ["ledger", "rotate", *ledger, "--new-l", "1"],
        "scenario run": ["scenario", "run", "fig10-coexistence"],
    }


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("command, flag", FLAGS)
def test_cli_flag_fuzz(base_argv, command, flag, value):
    result = dispatch(base_argv[command] + [flag, value])
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert _USAGE.match(result.diagnostics.splitlines()[-1])
    elif result.diagnostics:
        last = result.diagnostics.splitlines()[-1]
        name = last.partition(":")[0]
        assert issubclass(getattr(chipchain, name, type), ChipChainError), last
