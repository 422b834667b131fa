"""Mutation fuzz of the one config parser, in both of its entry points.

Mutants of the scenario config (MINI) and of the ledger file (TOPOLOGY)
must either parse or fail with a ChipChainError, and every chip spec in
a config that parses must manufacture and yield its fingerprint.  A
scenario that parses must also run: to a log with no invariant
violations, or to a ChipChainError.
"""

import re

from hypothesis import given, settings, strategies as st

from chipchain import ChipChainError, extract_prn
from chipchain.config import parse_scenario, parse_topology
from chipchain.network_sim import check_invariants, run_scenario

from test_cli import TOPOLOGY
from test_network_sim import MINI

# boundary values of the chip checks, plus a few that are not numbers;
# hypothesis draws early entries more often, so the rarest go first
EDGES = ["99999999999999999999", "1e19", "-1", "nan", "4294967296", "0", "1",
         "20", "21", "0.5", "-inf", "1e18", "abc", "4294967295", "65536",
         "65537"]
OPTIONS = [f"{key}={value}" for value in EDGES
           for key in ("y", "lambda", "seed", "redundancy", "min_failures")]
TOKENS = ["->", "n0 -> n0", "=", "x=1", "[params]", "[chips]", "[nodes]",
          "[topology]", "[schedule]", "[]", "rotate", "0", "1", "n0", "a",
          "#", "role=device", "chip=ca", "offline=a,", "tamper a seed=5"]
# number and option edits hit the chip checks; the rest the grammar
KINDS = ["number"] * 3 + ["option"] * 3 + ["token", "drop", "duplicate",
                                           "swap", "junk"]
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


@st.composite
def mutants(draw, base: str) -> str:
    lines = base.splitlines()
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
        elif kind == "option":
            targets = [j for j, line in enumerate(lines)
                       if "seed=" in line or " = " in line] or [i]
            j = draw(st.sampled_from(targets))
            option = draw(st.sampled_from(OPTIONS))
            if " = " in lines[j]:
                option = option.replace("=", " = ", 1)
                lines.insert(j, option)
            else:
                lines[j] += " " + option
        elif kind == "token":
            words = lines[i].split()
            words.insert(draw(st.integers(0, len(words))),
                         draw(st.sampled_from(TOKENS)))
            if draw(st.booleans()) and len(words) > 1:
                del words[draw(st.integers(0, len(words) - 1))]
            lines[i] = " ".join(words)
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


def _manufacture_all(chips):
    for spec in chips.values():
        extract_prn(spec.manufacture())


@settings(max_examples=300)
@given(mutants(MINI))
def test_scenario_parser_fuzz(text):
    try:
        config = parse_scenario(text)
    except ChipChainError:
        return
    _manufacture_all(config.chips)


@settings(max_examples=300)
@given(mutants(TOPOLOGY))
def test_topology_parser_fuzz(text):
    try:
        chips, _ = parse_topology(text)
    except ChipChainError:
        return
    _manufacture_all(chips)


# after MINI's build_tree and mine: re-key, audit, swap a chip, audit again
RUN_TAIL = "6 rotate 1\n7 sweep\n8 tamper b seed=777\n9 sweep\n"


# a mutant may raise difficulty to 20 or 21, whose mine takes 1-2 s; most
# mutants do not parse, and 400 examples took 1.3-4.0 s on a 2-vCPU VM
@settings(max_examples=400)
@given(mutants(MINI + RUN_TAIL))
def test_scenario_run_fuzz(text):
    try:
        log = run_scenario(parse_scenario(text))
    except ChipChainError:
        return
    assert check_invariants(log) == []


# schedule actions a mutant inserts, and the words a token swap puts in;
# no number above 8, so a `mine D` stays below 2^8 expected attempts
SCHEDULE_ACTIONS = ["enroll a", "enroll b", "enroll c", "build_tree", "mine",
                    "mine 8", "rotate 0", "rotate 2", "rotate 3 offline=c",
                    "sweep", "tamper a seed=5", "tamper c seed=778",
                    "spoof a b"]
ACTION_TOKENS = ["enroll", "spoof", "build_tree", "mine", "rotate", "sweep",
                 "tamper", "a", "b", "c", "mgmt", "sec", "0", "1", "2", "4",
                 "8", "seed=5", "offline=a", "offline=b,c"]


@st.composite
def schedule_mutants(draw, base: str) -> str:
    """base with its [schedule] actions inserted, deleted, swapped or
    re-worded; ticks are dealt afterwards, non-decreasing from 1."""
    head, _, schedule = base.partition("[schedule]\n")
    actions = [line.split(None, 1)[1] for line in schedule.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "swap", "token"]))
        if kind == "insert" or not actions:
            actions.insert(draw(st.integers(0, len(actions))),
                           draw(st.sampled_from(SCHEDULE_ACTIONS)))
            continue
        i = draw(st.integers(0, len(actions) - 1))
        if kind == "delete":
            del actions[i]
        elif kind == "swap":
            j = draw(st.integers(0, len(actions) - 1))
            actions[i], actions[j] = actions[j], actions[i]
        else:
            words = actions[i].split()
            words[draw(st.integers(0, len(words) - 1))] = draw(
                st.sampled_from(ACTION_TOKENS))
            actions[i] = " ".join(words)
    tick, lines = 1, []
    for action in actions:
        tick += draw(st.integers(0, 1))
        lines.append(f"{tick} {action}")
    return head + "[schedule]\n" + "".join(line + "\n" for line in lines)


@settings(max_examples=200)
@given(schedule_mutants(MINI + RUN_TAIL))
def test_scenario_schedule_fuzz(text):
    try:
        log = run_scenario(parse_scenario(text))
    except ChipChainError:
        return
    assert check_invariants(log) == []
