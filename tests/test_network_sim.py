import hashlib
import re
import sys

import numpy as np
import pytest

import chipchain
from chipchain import (
    ChipGeometry,
    ConfigInvalid,
    FailureModel,
    keypair_for_chip,
    new_chip,
    sign,
    verify,
    verify_chain,
    verify_tree,
)
from chipchain import identity, network_sim
from chipchain.config import (
    ChipSpec,
    bundled_scenario,
    list_bundled_scenarios,
    load_scenario,
    load_topology,
    parse_scenario,
    parse_topology,
)
from chipchain.network_sim import Simulation, check_invariants, run_scenario

MINI = """
[params]
difficulty = 4
modulus_bits = 512
y = 256

[chips]
ca seed=1
cb seed=2
cc seed=3

[nodes]
mgmt role=management
sec role=security
a role=device chip=ca
b role=device chip=cb
c role=device chip=cc

[topology]
b -> a
c -> a

[schedule]
1 enroll a
2 enroll b
3 enroll c
4 build_tree
5 mine
"""


# a tamper evicts b at the sweep; the swapped chip then enrolls as b
REENROLL_SCHEDULE = """[schedule]
1 enroll a
2 enroll b
3 tamper b seed=777
4 sweep
5 enroll b
"""


def mini_config(extra_schedule="", **overrides):
    text = MINI
    if extra_schedule:
        text += extra_schedule.rstrip() + "\n"
    config = parse_scenario(text, name="mini")
    for key, value in overrides.items():
        object.__setattr__(config, key, value)
    return config


# ------------------------------------------------------------------ parsing

def test_parse_mini_config():
    config = parse_scenario(MINI, name="mini")
    assert config.name == "mini"
    assert config.difficulty == 4
    assert config.modulus_bits == 512
    assert config.management == "mgmt"
    assert config.security == "sec"
    assert set(config.chips) == {"ca", "cb", "cc"}
    assert config.chips["ca"].geometry.rows == 256
    assert config.topology == (("b", "a"), ("c", "a"))
    assert [item.action for item in config.schedule] == [
        "enroll", "enroll", "enroll", "build_tree", "mine"
    ]


def test_parse_defaults():
    config = parse_scenario(MINI)
    spec = config.chips["ca"]
    assert spec.failure_model == FailureModel(mean_failures=10.0,
                                              min_failures=1)
    assert spec.geometry == ChipGeometry(rows=256, redundancy_rows=20)


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        ("[chips]\nca seed=9", "duplicate chip"),
        ("[nodes]\nmgmt2 role=management", "exactly one management"),
        ("[nodes]\nx role=janitor", "role"),
        ("[nodes]\nx role=device chip=nope", "unknown chip"),
        ("[nodes]\nx role=device", "needs chip="),
        ("[chips]\ncd seed=4\n[nodes]\nx role=security chip=cd", "holds no device chip"),
        ("[nodes]\nx role=device chip=ca", "already held"),
        ("[topology]\na -> zz", "unknown node"),
        ("[topology]\na -> mgmt", "device"),
        ("[topology]\nb a", "look like"),
        ("[schedule]\n0 sweep", "tick"),
        ("[schedule]\n9 dance", "unknown action"),
        ("[schedule]\n9 enroll", "usage"),
        ("[schedule]\n9 enroll mgmt", "device"),
        ("[schedule]\n9 spoof a b", "attacker"),
        ("[schedule]\n9 rotate 1 offline=zz", "unknown"),
        ("[chips]\ncd seed=4 colour=red", "unknown option 'colour'"),
        ("[schedule]\n9 rotate 1 when=now", "unknown option 'when'"),
        ("[schedule]\n9 tamper a colour=red", "unknown option 'colour'"),
        ("[schedule]\n9 mine 40", "difficulty"),
        ("[schedule]\n9 mine 2",
         "mine difficulty 2 is below [params] difficulty 4"),
        ("[schedule]\n9 tamper a seed=-1", "seed must be >= 0"),
        ("[bogus]\nx = 1", "section"),
        ("[schedule]\n6 enroll a b", "usage: TICK enroll NODE"),
        ("[schedule]\n6 spoof eve a junk", "usage: TICK spoof ATTACKER VICTIM"),
        ("[schedule]\n6 mine 5 6", "usage: TICK mine [DIFFICULTY]"),
        ("[chips]\ncd seed=4\n[nodes]\nx role=device chip=cd strategy=replay",
         "only attackers take a strategy"),
        ("[nodes]\nsec2 role=security strategy=replay",
         "only attackers take a strategy"),
        ("[nodes]\nmgmt2 role=management blocked=yes",
         "management node never enrolls, so it takes no blocked="),
        ("[nodes]\nsec2 role=security blocked=no",
         "security node never enrolls, so it takes no blocked="),
        ("[chips]\ncd seed=4\n[nodes]\nx role=device chip=cd blocked=maybe",
         "expected yes/no, got 'maybe'"),
        ("[nodes]\neve role=attacker strategy=bribe",
         "strategy must be one of own_chip, replay"),
        ("[nodes]\neve role=attacker claims=ghost",
         "node 'eve' claims unknown node 'ghost'"),
        ("[schedule]\n9 sweep now", "sweep takes no arguments"),
        ("[schedule]\n9 build_tree x", "build_tree takes no arguments"),
    ],
)
def test_parse_rejections(mutation, message_part):
    with pytest.raises(ConfigInvalid, match=re.escape(message_part)):
        parse_scenario(MINI + "\n" + mutation)


def test_parse_makes_each_chip_once(monkeypatch):
    """The clone check's fingerprints also seed the tamper check's, so
    parsing fig10 manufactures each of its 10 chips once."""
    calls = []

    def counting_new_chip(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return new_chip(*args, **kwargs)

    monkeypatch.setattr(chipchain.config, "new_chip", counting_new_chip)
    config = bundled_scenario("fig10-coexistence")
    assert len(config.chips) == 10
    assert sorted(calls) == sorted(spec.seed for spec in config.chips.values())


def test_parse_rejects_rotate_beyond_eight_byte_state():
    bad = MINI + "\n[schedule]\n13 rotate 18446744073709551616\n"
    line_no = bad.splitlines().index("13 rotate 18446744073709551616") + 1
    with pytest.raises(ConfigInvalid, match=re.escape(
            f"line {line_no}: state index must be in [0, 2^64 - 1]")):
        parse_scenario(bad)
    parse_scenario(MINI + "\n[schedule]\n13 rotate 18446744073709551615\n")


@pytest.mark.parametrize("before, after, bad_line, message", [
    ("4 build_tree\n5 mine", "4 build_tree\n5 mine\n6 build_tree",
     "6 build_tree", "transfer tree already built"),
    ("4 build_tree\n5 mine", "5 mine", "5 mine", "no transfer tree to stamp"),
    ("b -> a\nc -> a", "", "4 build_tree", "build_tree needs a [topology]"),
])
def test_parse_rejects_schedule_order_with_its_line(before, after, bad_line,
                                                     message):
    bad = MINI.replace(before, after)
    line_no = bad.splitlines().index(bad_line) + 1
    with pytest.raises(ConfigInvalid,
                       match=re.escape(f"line {line_no}: {message}")):
        parse_scenario(bad)


# MINI's edges with a loop added, and with a second sink; the error names
# the first [topology] line
@pytest.mark.parametrize("before, after, message", [
    ("c -> a", "c -> a\na -> b", "every node sends onward; the topology loops"),
    ("c -> a", "b -> c", "must funnel into one chip, found sinks: a, c"),
])
def test_parse_rejects_topology_shape_with_its_line(before, after, message):
    bad = MINI.replace(before, after)
    line_no = bad.splitlines().index("b -> a") + 1
    with pytest.raises(ConfigInvalid, match=re.escape(f"line {line_no}: ")
                       + ".*" + re.escape(message)):
        parse_scenario(bad)


def test_parse_reports_line_numbers():
    bad = MINI + "\n[schedule]\n9 dance\n"
    line_no = bad.splitlines().index("9 dance") + 1
    with pytest.raises(ConfigInvalid, match=f"line {line_no}"):
        parse_scenario(bad)


# (chip options, the rule they break in config terms, the parser's text,
# which names the ChipGeometry or FailureModel field)
BAD_CHIP_OPTIONS = [
    ("lambda=nan", "lambda must be finite and positive",
     "mean_failures must be finite, got nan"),
    ("lambda=inf", "lambda must be finite and positive",
     "mean_failures must be finite, got inf"),
    ("lambda=-1", "lambda must be finite and positive",
     "mean_failures must be positive"),
    ("y=0", "y must be positive", "rows must be positive, got 0"),
    ("y=10 redundancy=11", "redundancy must be in [0, y=10]",
     "redundancy_rows=11 exceeds rows=10"),
    ("redundancy=3 min_failures=4", "min_failures must be in [0, redundancy=3]",
     "min_failures=4 exceeds redundancy_rows=3"),
    ("lambda=1e19", "lambda must be at most 9.22337e+18",
     "mean_failures must be at most 9.22337e+18"),
    ("y=4294967296", "y must be at most 4294967295",
     "rows must be at most 4294967295"),
    ("y=4294967295 redundancy=65537", "redundancy must be at most 65536",
     "redundancy_rows must be at most 65536"),
]


@pytest.mark.parametrize(
    "options, message_part",
    [(options, message) for options, _, message in BAD_CHIP_OPTIONS],
    ids=[f"{options}-{rule}" for options, rule, _ in BAD_CHIP_OPTIONS],
)
def test_parse_rejects_bad_chip_parameters(options, message_part):
    bad = MINI + f"\n[chips]\ncd seed=4 {options}\n"
    line_no = bad.splitlines().index(f"cd seed=4 {options}") + 1
    with pytest.raises(ConfigInvalid, match=re.escape(message_part)) as caught:
        parse_scenario(bad)
    assert str(caught.value).startswith(f"line {line_no}: chip 'cd'")


def test_parse_checks_chip_parameters_from_params_defaults():
    bad = MINI.replace("y = 256", "y = 256\nlambda = nan")
    line_no = bad.splitlines().index("ca seed=1") + 1
    with pytest.raises(ConfigInvalid,
                       match=f"line {line_no}: chip 'ca': mean_failures"):
        parse_scenario(bad)


def test_parse_rejects_negative_chip_seed():
    bad = MINI.replace("ca seed=1", "ca seed=-1")
    line_no = bad.splitlines().index("ca seed=-1") + 1
    with pytest.raises(ConfigInvalid,
                       match=f"line {line_no}: chip 'ca': seed must be >= 0"):
        parse_scenario(bad)


def test_parse_reports_params_line_numbers():
    bad = MINI.replace("y = 256", "y = abc")
    line_no = bad.splitlines().index("y = abc") + 1
    with pytest.raises(ConfigInvalid,
                       match=f"line {line_no}: params.y: expected integer"):
        parse_scenario(bad)


@pytest.mark.parametrize("before, after, message", [
    ("difficulty = 4", "difficulty = 33", "difficulty must be in [0, 32], got 33"),
    ("modulus_bits = 512", "modulus_bits = 768",
     "params.modulus_bits must be 512, 1024, or 2048"),
    ("y = 256", "column = 0", "unknown key 'column'"),
])
def test_parse_reports_params_range_line_numbers(before, after, message):
    bad = MINI.replace(before, after)
    line_no = bad.splitlines().index(after) + 1
    with pytest.raises(ConfigInvalid, match=re.escape(f"line {line_no}: {message}")):
        parse_scenario(bad)


@pytest.mark.parametrize("extra", ["6 rotate 0", "6 rotate 1\n7 rotate 1"])
def test_parse_rejects_rotate_to_current_state(extra):
    bad = MINI + extra + "\n"
    line_no = len(bad.splitlines())
    with pytest.raises(ConfigInvalid, match=f"line {line_no}: rotate to state "
                                            "[01] does not change"):
        parse_scenario(bad)


def test_parse_tracks_state_across_rotations():
    config = parse_scenario(MINI + "6 rotate 1\n7 rotate 0\n8 rotate 1\n")
    assert [item.args["state"] for item in config.schedule[-3:]] == [1, 0, 1]


def test_parse_ticks_must_not_decrease():
    with pytest.raises(ConfigInvalid, match="non-decreasing"):
        parse_scenario(MINI + "\n[schedule]\n1 sweep\n")


def test_claims_only_for_attackers():
    with pytest.raises(ConfigInvalid, match="only attackers claim"):
        parse_scenario(
            MINI + "\n[chips]\ncd seed=4\n[nodes]\nx role=device chip=cd claims=a\n"
        )


# One part is one chip.  Both configs below once ran: cd cloned ca, so
# eve's own-chip spoof of a was Accepted; and the tamper handed b the
# part a holds, so the sweep after a rotate retained both with one key.
CLONED_CHIP = MINI.replace("cc seed=3", "cc seed=3\ncd seed=1") + """
[nodes]
eve role=attacker chip=cd strategy=own_chip claims=a
[schedule]
6 spoof eve a
"""
CLONING_TAMPER = MINI + "6 tamper b seed=1\n7 rotate 1\n8 sweep\n"


def _line_of(text: str, line: str) -> int:
    return text.splitlines().index(line) + 1


# ca's order at seed 1 reads out 8 failure rows, so spare-row bounds that
# do not clip 8 make the same part; another y or lambda makes another
@pytest.mark.parametrize("options", ["", "redundancy=19", "min_failures=2"])
def test_parse_refuses_a_chip_line_that_clones_an_earlier_part(options):
    bad = CLONED_CHIP.replace("cd seed=1", f"cd seed=1 {options}".rstrip())
    line_no = _line_of(bad, f"cd seed=1 {options}".rstrip())
    with pytest.raises(ConfigInvalid, match=re.escape(
            f"line {line_no}: chip 'cd' clones 'ca': the same failure rows "
            "of the same row count")):
        parse_scenario(bad)


@pytest.mark.parametrize("options", ["y=257", "lambda=9"])
def test_parse_takes_another_part_at_the_same_seed(options):
    config = parse_scenario(CLONED_CHIP.replace("cd seed=1",
                                                f"cd seed=1 {options}"))
    log = run_scenario(config)
    assert check_invariants(log) == []
    assert log.rejections == 1


def test_parse_refuses_a_tamper_that_clones_a_held_part():
    line_no = _line_of(CLONING_TAMPER, "6 tamper b seed=1")
    with pytest.raises(ConfigInvalid, match=re.escape(
            f"line {line_no}: tamper gives 'b' a clone of the chip 'a' holds")):
        parse_scenario(CLONING_TAMPER)


def test_parse_lets_a_tamper_take_a_part_its_holder_gave_up():
    """Holding is per tick: once b's own part is swapped out, a's tamper
    may take it; b's tamper back to it while a holds it is refused."""
    moved = MINI + "6 tamper b seed=7\n7 tamper a seed=2\n8 sweep\n"
    log = run_scenario(parse_scenario(moved))
    assert log.evicted == ((8, "a"), (8, "b"))
    bad = moved + "9 tamper b seed=2\n"
    with pytest.raises(ConfigInvalid, match=re.escape(
            f"line {_line_of(bad, '9 tamper b seed=2')}: tamper gives 'b' a "
            "clone of the chip 'a' holds")):
        parse_scenario(bad)


def test_parse_topology_refuses_a_chip_line_that_clones_an_earlier_part():
    bad = LEDGER + "[chips]\nn3 seed=51 lambda=3 min_failures=2\n"
    with pytest.raises(ConfigInvalid, match=re.escape(
            f"line {len(bad.splitlines())}: chip 'n3' clones 'n1'")):
        parse_topology(bad)


def test_bundled_scenarios():
    names = list_bundled_scenarios()
    assert "fig10-coexistence" in names
    config = bundled_scenario("fig10-coexistence")
    assert config.difficulty == 8
    assert len(config.chips) == 10
    with pytest.raises(ConfigInvalid, match="fig10-coexistence"):
        bundled_scenario("no-such-scenario")


def test_adversary_tour_walks_each_adversary_path():
    """The tour's pinned records cover what fig10's do not: each entry
    denial, the replay and noise spoofs, a tamper caught by a sweep, a
    tamper re-bound by a rotate, an offline member and a re-enrollment."""
    config = bundled_scenario("adversary-tour")
    assert (config.modulus_bits, config.difficulty) == (512, 8)
    log = run_scenario(config, seed=0)
    verdicts = [dict(e.fields) for e in log.events if e.kind == "Verdict"]
    assert {v.get("reason") for v in verdicts} \
        >= {"blocklist", "no_chip", "audit_failed"}
    assert {dict(e.fields).get("method") for e in log.events
            if e.kind == "Response"} >= {"replay", "noise"}
    # d3 is swapped and evicted, then re-enrolls; d2 is swapped and
    # re-bound by the rotate that d1 misses
    assert log.evicted == ((13, "d3"), (18, "d1"))
    assert log.admitted.count("d3") == 2
    assert log.members == ("d0", "d2", "d3")
    assert check_invariants(log) == []


def test_load_scenario_from_path(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI)
    config = load_scenario(path)
    assert config.name.endswith("mini.cfg")
    assert config.difficulty == 4


# -------------------------------------------------------- ledger topology

LEDGER = """
[params]
y = 256
lambda = 8

[chips]
n0 seed=50
n1 seed=51 lambda=3 min_failures=2
n2 seed=52 y=300 redundancy=25

[topology]
n1 -> n0
n2 -> n0
"""


def test_parse_topology_specs_and_edges():
    chips, edges = parse_topology(LEDGER)
    assert list(chips) == ["n0", "n1", "n2"]
    assert chips["n0"] == ChipSpec("n0", 50, ChipGeometry(256, 8, 20),
                                   FailureModel(8.0, 1))
    assert chips["n1"] == ChipSpec("n1", 51, ChipGeometry(256, 8, 20),
                                   FailureModel(3.0, 2))
    assert chips["n2"] == ChipSpec("n2", 52, ChipGeometry(300, 8, 25),
                                   FailureModel(8.0, 1))
    assert edges == (("n1", "n0"), ("n2", "n0"))


def test_load_topology_from_path(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(LEDGER)
    assert load_topology(path) == parse_topology(LEDGER)


@pytest.mark.parametrize(
    "extra, message_part",
    [
        ("[schedule]", "unknown section [schedule]"),
        ("[params]\ndifficulty = 4", "unknown key 'difficulty'"),
        ("n0 n1", "look like"),
    ],
)
def test_parse_topology_rejections(extra, message_part):
    bad = LEDGER + extra + "\n"
    line_no = len(bad.splitlines())
    with pytest.raises(ConfigInvalid, match=re.escape(message_part)) as caught:
        parse_topology(bad)
    assert str(caught.value).startswith(f"line {line_no}: ")


# the same two shapes in a ledger file, plus a declared chip on no edge,
# which is a second sink there
@pytest.mark.parametrize("before, after, message", [
    ("n2 -> n0", "n2 -> n0\nn0 -> n1",
     "every node sends onward; the topology loops"),
    ("n2 -> n0", "n1 -> n2", "must funnel into one chip, found sinks: n0, n2"),
    ("n2 -> n0", "n2 -> n0\n[chips]\nn3 seed=53",
     "must funnel into one chip, found sinks: n0, n3"),
])
def test_parse_topology_rejects_shape_with_its_line(before, after, message):
    bad = LEDGER.replace(before, after)
    line_no = bad.splitlines().index("n1 -> n0") + 1
    with pytest.raises(ConfigInvalid, match=re.escape(f"line {line_no}: ")
                       + ".*" + re.escape(message)):
        parse_topology(bad)


@pytest.mark.parametrize("topology", ["", "[topology]\n"])
def test_parse_topology_without_edges_names_the_second_chip(topology):
    text = "[chips]\n# two sinks\nn0 seed=1\n\nn1 seed=2\nn2 seed=3\n" + topology
    with pytest.raises(ConfigInvalid, match=re.escape(
            "line 5: transfer topology must funnel into one chip, "
            "found sinks: n0, n1, n2; [topology] is empty")):
        parse_topology(text)


def test_parse_topology_takes_one_chip_without_edges():
    chips, edges = parse_topology("[chips]\nn0 seed=1\n")
    assert list(chips) == ["n0"]
    assert edges == ()


def test_parse_topology_checks_chip_parameters_from_params_defaults():
    bad = LEDGER.replace("lambda = 8", "lambda = nan")
    with pytest.raises(ConfigInvalid,
                       match="line 7: chip 'n0': mean_failures must be"):
        parse_topology(bad)


def test_chip_spec_manufacture():
    spec = parse_topology(LEDGER)[0]["n1"]
    model = FailureModel(mean_failures=3.0, min_failures=2)
    own = new_chip(ChipGeometry(rows=256), model, seed=51, chip_id="n1")
    made = spec.manufacture()
    assert (made.chip_id, made.failure_rows) == ("n1", own.failure_rows)
    other = new_chip(ChipGeometry(rows=256), model, seed=99, chip_id="n1-x")
    made = spec.manufacture(99, "n1-x")
    assert (made.chip_id, made.failure_rows) == ("n1-x", other.failure_rows)


# ---------------------------------------------------------------- enrolment

def test_mini_run_admits_all():
    log = run_scenario(mini_config(), seed=0)
    assert log.admitted == ("a", "b", "c")
    assert log.members == ("a", "b", "c")
    assert log.denied == ()
    assert log.rejections == 0
    assert len(log.chain) == 1
    assert log.chain_ok()
    assert check_invariants(log) == []


def test_event_stream_shape():
    log = run_scenario(mini_config(), seed=0)
    kinds = [event.kind for event in log.events]
    assert kinds[0] == "Genesis"
    assert kinds.count("EntryRequest") == 3
    assert kinds.count("Challenge") == 3
    assert kinds.count("Verdict") == 3
    assert kinds.count("Transfer") == 2
    assert kinds.count("Mine") == 1
    records = log.to_records()
    assert records[0].startswith("tick=0 kind=Genesis")
    assert all(record.startswith("tick=") for record in records)


def test_blocked_node_denied():
    text = MINI.replace("a role=device chip=ca", "a role=device chip=ca blocked=yes")
    text = text.replace("4 build_tree\n5 mine\n", "")
    config = parse_scenario(text)
    log = run_scenario(config, seed=0)
    assert "a" in log.denied
    assert "a" not in log.members
    reasons = [dict(e.fields).get("reason") for e in log.events if e.kind == "Verdict"]
    assert "blocklist" in reasons


def test_chipless_attacker_denied():
    text = MINI.replace(
        "c role=device chip=cc", "c role=attacker claims=a"
    ).replace("c -> a\n", "")
    config = parse_scenario(text)
    log = run_scenario(config, seed=0)
    assert "c" in log.denied
    reasons = [dict(e.fields).get("reason") for e in log.events if e.kind == "Verdict"]
    assert "audit_failed" in reasons


def test_attacker_with_genuine_chip_enrolls_as_itself():
    """Entry control audits hardware, so a real chip gets in under its
    own address; the impersonation only fails later, at spoof time."""
    text = MINI.replace(
        "c role=device chip=cc", "c role=attacker chip=cc claims=a strategy=own_chip"
    ).replace("c -> a\n", "").replace(
        "3 enroll c", "3 enroll c\n4 spoof c a"
    ).replace("4 build_tree\n5 mine\n", "")
    log = run_scenario(parse_scenario(text), seed=0)
    assert "c" in log.members
    assert log.rejections == 1
    assert check_invariants(log) == []


def test_double_enroll_rejected():
    config = mini_config()
    sim = Simulation(config, seed=0)
    sim.enroll("a")
    with pytest.raises(ValueError):
        sim.enroll("a")


# ------------------------------------------------------------ impersonation

def rejected_verdicts(sim):
    return [e for e in sim.events
            if e.kind == "Verdict" and dict(e.fields)["verdict"] == "Rejected"]


def spoof_config(method):
    # "noise" is not a config strategy: it is what a chipless attacker
    # with no transcript to replay ends up sending
    node_line = {
        "own_chip": "mal role=attacker chip=cc claims=a strategy=own_chip",
        "replay": "mal role=attacker chip=cc claims=a strategy=replay",
        "noise": "mal role=attacker claims=a strategy=own_chip",
    }[method]
    text = MINI.replace("c role=device chip=cc", node_line)
    text = text.replace("c -> a\n", "").replace("3 enroll c", "3 spoof mal a")
    if method == "noise":
        text = text.replace("[chips]\nca seed=1\ncb seed=2\ncc seed=3",
                            "[chips]\nca seed=1\ncb seed=2")
    return parse_scenario(text)


@pytest.mark.parametrize("method", ["own_chip", "replay", "noise"])
def test_spoof_rejected(method):
    log = run_scenario(spoof_config(method), seed=0)
    assert log.rejections == 1
    verdicts = [dict(e.fields) for e in log.events if e.kind == "Verdict"]
    spoof_verdicts = [v for v in verdicts if v.get("target") == "a"]
    assert spoof_verdicts == [
        {"actor": "mgmt", "node": "mal", "verdict": "Rejected", "target": "a"}
    ]
    methods = [dict(e.fields).get("method") for e in log.events if e.kind == "Response"]
    assert method in methods
    assert check_invariants(log) == []


def test_spoof_replay_blind_without_transcript():
    sim = Simulation(spoof_config("replay"), seed=0)
    sim.enroll("a")
    sim.transcripts.pop("a")
    assert sim.spoof("mal", "a")
    methods = [dict(e.fields).get("method") for e in sim.events if e.kind == "Response"]
    assert "replay_blind" in methods


def test_spoof_unregistered_victim():
    sim = Simulation(spoof_config("own_chip"), seed=0)
    with pytest.raises(ValueError):
        sim.spoof("mal", "a")


def test_replayed_signature_is_the_old_transcript():
    """The replayed bytes are exactly the victim's enrollment signature."""
    sim = Simulation(spoof_config("replay"), seed=0)
    sim.enroll("a")
    old_signature = sim.transcripts["a"][1]
    sim.spoof("mal", "a")
    # a fresh nonce makes the stale signature fail verification
    assert len(rejected_verdicts(sim)) == 1
    assert sim.transcripts["a"][1] == old_signature


def test_replay_after_sweep_replays_the_sweep_signature(monkeypatch):
    """A sweep renews the transcript, so a later replay sends the new bytes."""
    sim = Simulation(spoof_config("replay"), seed=0)
    sim.enroll("a")
    enrolled = sim.transcripts["a"]
    sim.sweep()
    swept = sim.transcripts["a"]
    assert swept != enrolled
    sent = []

    def recording_verify(public_key, message, signature):
        sent.append(signature)
        return verify(public_key, message, signature)

    monkeypatch.setattr(network_sim, "verify", recording_verify)
    assert sim.spoof("mal", "a")
    assert sent == [swept[1]]
    assert len(rejected_verdicts(sim)) == 1


# -------------------------------------------------------------- transcripts

def assert_transcript_is_the_audit_signature(sim, name):
    """The stored transcript is the chip's signature over the audit nonce."""
    nonce, signature = sim.transcripts[name]
    challenges = [dict(e.fields) for e in sim.events
                  if e.kind == "Challenge" and dict(e.fields)["node"] == name]
    assert challenges[-1]["nonce"] == nonce.hex()[:16]
    pair = keypair_for_chip(sim.chips[name], sim.state_index,
                            sim.config.modulus_bits)
    assert signature == sign(pair.secret_key, nonce)
    assert verify(sim.registry[name], nonce, signature)


def test_enroll_transcript_is_the_audit_signature():
    sim = Simulation(mini_config(), seed=0)
    for name in ("a", "b", "c"):
        assert sim.enroll(name)
        assert_transcript_is_the_audit_signature(sim, name)


def test_sweep_transcript_is_the_audit_signature():
    sim = Simulation(mini_config(), seed=0)
    sim.run()
    enrolled = dict(sim.transcripts)
    sim.rotate(1)
    assert sim.sweep() == ()
    for name in ("a", "b", "c"):
        assert sim.transcripts[name] != enrolled[name]
        assert_transcript_is_the_audit_signature(sim, name)


def _count_calls_everywhere(monkeypatch, original, on_call):
    """Wrap original in every chipchain namespace that binds it."""

    def counting(*args, **kwargs):
        on_call(*args, **kwargs)
        return original(*args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if name == "chipchain" or name.startswith("chipchain."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)


def test_fig10_signs_each_nonce_once(monkeypatch):
    """One fig10 run: 35 signatures and 19 derivations of 19 responses,
    one per (chip, state): 10 at state 0 and 9 where the rotate
    reproduces the tree.  The 9 enroll and 9 sweep audits use the pair
    the run holds, which their chip's fresh response seeded."""
    signatures = []
    responses = []
    _count_calls_everywhere(monkeypatch, chipchain.sign,
                            lambda key, message: signatures.append(message))
    _count_calls_everywhere(
        monkeypatch, chipchain.derive_keypair,
        lambda response, *args, **kwargs: responses.append(response.data))
    log = run_scenario(bundled_scenario("fig10-coexistence"), seed=0)
    assert log.chain_ok()
    assert len(signatures) == 35
    assert len(responses) == 19
    assert len(set(responses)) == 19


def test_fig10_reads_each_chip_once_and_keys_each_chip_state_once(monkeypatch):
    """Ten chips build ten Prns; the run asks keypair_for_chip once per
    (chip, state): ten at state 0 (nine devices and the spoofer's own
    chip), nine when the rotate reproduces the tree, which re-keys the
    members."""
    built, keyed = [], []
    build = chipchain.Prn.__post_init__

    def counting_build(prn):
        built.append(prn.chip_id)
        build(prn)

    monkeypatch.setattr(chipchain.Prn, "__post_init__", counting_build)
    _count_calls_everywhere(
        monkeypatch, chipchain.keypair_for_chip,
        lambda chip, state_index, *args, **kwargs: keyed.append(
            (chip.chip_id, state_index)))
    log = run_scenario(bundled_scenario("fig10-coexistence"), seed=0)
    assert log.chain_ok() and log.state_index == 1
    assert sorted(built) == sorted(f"c{k}" for k in range(10))
    assert sorted(keyed) == sorted([(f"c{k}", 0) for k in range(10)]
                                   + [(f"c{k}", 1) for k in range(9)])


# ------------------------------------------------------------------- sweeps

def test_sweep_keeps_honest_members():
    config = mini_config(extra_schedule="6 sweep")
    log = run_scenario(config, seed=0)
    assert log.members == ("a", "b", "c")
    assert log.evicted == ()
    verdicts = [dict(e.fields).get("verdict") for e in log.events if e.kind == "Verdict"]
    assert verdicts.count("Retained") == 3


def test_sweep_evicts_swapped_chip():
    config = mini_config(extra_schedule="6 tamper b seed=777\n7 sweep")
    log = run_scenario(config, seed=0)
    assert log.members == ("a", "c")
    assert [name for _, name in log.evicted] == ["b"]
    assert check_invariants(log) == []


def test_evicted_member_may_enroll_again():
    """An eviction is not a ban: a swapped chip evicted by a sweep enrolls
    under its own key, and the replayed admissions agree."""
    text = MINI.split("[schedule]")[0] + REENROLL_SCHEDULE
    log = run_scenario(parse_scenario(text), seed=0)
    assert log.admitted == ("a", "b", "b")
    assert log.evicted == ((4, "b"),)
    assert log.members == ("a", "b")
    assert check_invariants(log) == []


def test_reenroll_derives_once_per_response(monkeypatch):
    """The sweep keeps the pair its audit derived for the swapped chip,
    so the re-enroll uses it: three derivations (a, b and the swapped
    b, all at state 0) for three distinct responses."""
    seeds = []
    uncached = identity._derive_core.__wrapped__

    def counting_derive(seed, modulus_bits):
        seeds.append(seed)
        return uncached(seed, modulus_bits)

    monkeypatch.setattr(identity, "_derive_core", counting_derive)
    text = MINI.split("[schedule]")[0] + REENROLL_SCHEDULE
    log = run_scenario(parse_scenario(text), seed=0)
    assert log.admitted == ("a", "b", "b")
    assert len(seeds) == 3
    assert len(set(seeds)) == 3


def test_sweep_evicts_offline_member_after_rotation():
    config = mini_config(extra_schedule="6 rotate 1 offline=c\n7 sweep")
    log = run_scenario(config, seed=0)
    assert log.members == ("a", "b")
    assert [name for _, name in log.evicted] == ["c"]
    assert log.state_index == 1


# ----------------------------------------------------------------- rotation

def test_rotate_after_tamper_rekeys_the_swapped_chip_in_the_tree():
    """The tree seats the chip the device holds, so a rotate derives the
    tree key and the registry address from the same swapped chip."""
    sim = Simulation(mini_config("6 tamper b seed=777\n7 rotate 1"), seed=0)
    sim.run()
    assert sim.tree.nodes["b"].public_key == sim.registry["b"]
    assert verify_tree(sim.tree)
    assert sim.sweep() == ()
    assert sim.tree.nodes["b"].keypair == keypair_for_chip(sim.chips["b"], 1, 512)


def test_tamper_after_build_tree_leaves_the_tree_as_it_was():
    """The tree holds keys and records, not chips: a tamper swaps only the
    device's chip, and every seat keeps its pair and its records."""
    sim = Simulation(mini_config(), seed=0)
    sim.run()
    before = {name: (node.keypair, list(node.incoming))
              for name, node in sim.tree.nodes.items()}
    root = sim.tree.root_hash
    sim.tamper("b", 777)
    assert {name: (node.keypair, node.incoming)
            for name, node in sim.tree.nodes.items()} == before
    assert sim.tree.root_hash == root
    assert sim.tree.nodes["b"].keypair.chip_id == "cb"
    assert verify_tree(sim.tree)


def test_tamper_before_build_tree_seats_the_swapped_chip():
    """A tamper drops the node's held pair: the tree seats the swapped
    chip's keys, which no longer match the registry, and a sweep evicts
    the node."""
    text = MINI.replace("4 build_tree\n5 mine\n",
                        "4 tamper b seed=777\n5 build_tree\n")
    sim = Simulation(parse_scenario(text), seed=0)
    sim.run()
    swapped = keypair_for_chip(sim.chips["b"], 0, 512)
    assert sim.tree.nodes["b"].keypair.chip_id == "cb-swapped"
    assert sim.tree.nodes["b"].keypair == swapped
    assert sim.registry["b"] != swapped.public_key
    assert verify_tree(sim.tree)
    assert chipchain.extract_prn(sim.chips["b"]).chip_id == "cb-swapped"
    assert sim.sweep() == ("b",)


def test_rotate_rekeys_members_in_and_outside_the_tree():
    """Tree members re-bind to the reproduced tree's keys; a member
    outside the tree derives its own; every address is the pair its chip
    derives afresh at the new state."""
    text = MINI.replace("cc seed=3\n", "cc seed=3\ncd seed=4\n").replace(
        "c role=device chip=cc\n", "c role=device chip=cc\nd role=device chip=cd\n"
    ).replace("3 enroll c\n", "3 enroll c\n3 enroll d\n")
    sim = Simulation(parse_scenario(text + "6 rotate 1\n"), seed=0)
    sim.run()
    assert set(sim.registry) == {"a", "b", "c", "d"}
    for name in ("a", "b", "c"):
        assert sim.registry[name] == sim.tree.nodes[name].public_key
    for name, chip in sim.chips.items():
        assert sim.registry[name] == keypair_for_chip(chip, 1, 512).public_key
    assert sim.sweep() == ()


def test_rotate_rebinds_keys_and_reproduces_tree():
    sim = Simulation(mini_config(), seed=0)
    sim.run()
    before = dict(sim.registry)
    root_before = sim.tree.root_hash
    sim.rotate(1)
    assert all(sim.registry[n] != before[n] for n in before)
    assert sim.tree.root_hash != root_before
    assert sim.tree.state_index == 1


def test_rotate_same_index_rejected():
    sim = Simulation(mini_config(), seed=0)
    sim.run()
    with pytest.raises(ValueError):
        sim.rotate(0)


def test_members_survive_rotation():
    config = mini_config(extra_schedule="6 rotate 1\n7 sweep\n8 mine")
    log = run_scenario(config, seed=0)
    assert log.members == ("a", "b", "c")
    assert log.evicted == ()
    assert len(log.chain) == 2
    assert log.chain_ok()
    # the two blocks seal different states of the same topology
    assert log.chain[0].stamp.state_index == 0
    assert log.chain[1].stamp.state_index == 1


def test_every_schedule_action_is_the_simulation_method_of_its_name():
    assert all(callable(getattr(Simulation, action, None))
               for action in chipchain.config._ACTIONS)
    text = MINI.replace("c role=device chip=cc\n",
                        "c role=device chip=cc\neve role=attacker\n")
    config = parse_scenario(text + "6 spoof eve a\n7 mine 5\n"
                            "8 rotate 1 offline=c\n9 tamper b seed=777\n"
                            "10 sweep\n", name="every-action")
    assert ({item.action for item in config.schedule}
            == set(chipchain.config._ACTIONS))
    log = run_scenario(config, seed=0)
    assert log.rejections == 1
    assert [block.stamp.state_index for block in log.chain] == [0, 0]
    assert log.evicted == ((10, "b"), (10, "c"))
    assert log.members == ("a",)
    assert log.state_index == 1
    assert check_invariants(log) == []


# ------------------------------------------------------------------- errors

# (config, the schedule line its run refuses, why): each config parses
REFUSED = [
    pytest.param(MINI + "6 enroll a\n", "6 enroll a",
                 "a is already a member", id="enroll-member"),
    pytest.param(MINI.replace("[topology]", "eve role=attacker\n[topology]")
                 .replace("1 enroll a", "1 spoof eve a\n1 enroll a"),
                 "1 spoof eve a", "a holds no registered address",
                 id="spoof-unregistered"),
    pytest.param(MINI.replace("3 enroll c\n", ""), "4 build_tree",
                 "transfer participants not admitted: c",
                 id="build-tree-outsider"),
]


@pytest.mark.parametrize("text, line, message", REFUSED)
def test_refused_schedule_action_names_its_line(text, line, message):
    line_no = text.splitlines().index(line) + 1
    with pytest.raises(ConfigInvalid) as caught:
        run_scenario(parse_scenario(text), seed=0)
    assert str(caught.value) == f"line {line_no}: {message}"


def test_build_tree_requires_admitted_participants():
    config = mini_config()
    sim = Simulation(config, seed=0)
    sim.enroll("a")
    with pytest.raises(ValueError, match="not admitted"):
        sim.build_tree()


def test_build_tree_only_once():
    sim = Simulation(mini_config(), seed=0)
    sim.run()
    with pytest.raises(ValueError, match="rotate"):
        sim.build_tree()


def test_mine_requires_tree():
    sim = Simulation(mini_config(), seed=0)
    with pytest.raises(ValueError, match="tree"):
        sim.mine()


# ------------------------------------------------------------ fig10 scenario

@pytest.fixture(scope="module")
def fig10_log():
    return run_scenario(bundled_scenario("fig10-coexistence"), seed=0)


def test_fig10_outcome(fig10_log):
    log = fig10_log
    assert log.admitted == tuple(f"n{i}" for i in range(9))
    assert log.members == log.admitted
    assert log.rejections == 1
    assert log.evicted == ()
    assert len(log.chain) == 3
    assert log.chain_ok()
    assert log.state_index == 1
    assert check_invariants(log) == []


def test_fig10_attacker_never_accepted(fig10_log):
    for event in fig10_log.events:
        fields = dict(event.fields)
        if event.kind == "Verdict" and fields.get("node") == "mallory":
            assert fields["verdict"] == "Rejected"


def test_fig10_chain_states(fig10_log):
    # mined at ticks 12, 14, 16; the rotation at tick 13 splits them
    states = [block.stamp.state_index for block in fig10_log.chain]
    assert states == [0, 1, 1]
    roots = {block.stamp.root_hash for block in fig10_log.chain}
    assert len(roots) == 2  # rotation changed the root stamp


def test_fig10_final_line(fig10_log):
    assert fig10_log.final_line() == (
        "chain_length=3 verified=yes members=9 evictions=0 rejections=1"
    )


def test_fig10_summary_mentions_chain(fig10_log):
    text = fig10_log.summary()
    assert "3 blocks, verified" in text
    assert "rejections: 1" in text


# -------------------------------------------------------------- determinism

def test_replay_is_byte_identical():
    config = bundled_scenario("fig10-coexistence")
    a = run_scenario(config, seed=5)
    b = run_scenario(config, seed=5)
    assert a.to_records() == b.to_records()
    assert a.chain == b.chain


FIG10_GOLDEN = {
    0: "13450f2bf8e0e5d67657be2fe66c970aefa3fc64bcc5aa0b4cfa31135530aa2d",
    1: "db586ca592dcdba3584423ae1d1003f46ae16fffb8904dac03b8e8852c6fb1b2",
}


@pytest.mark.parametrize("seed", sorted(FIG10_GOLDEN))
def test_fig10_golden_bytes(seed):
    """Event records and block hashes of a fig10 run, pinned by SHA-256."""
    log = run_scenario(bundled_scenario("fig10-coexistence"), seed=seed)
    digest = hashlib.sha256("\n".join(log.to_records()).encode())
    for block in log.chain:
        digest.update(block.block_hash)
    assert digest.hexdigest() == FIG10_GOLDEN[seed]


def test_seed_changes_only_nonces():
    """Event streams differ across seeds only in nonce material."""
    config = bundled_scenario("fig10-coexistence")
    a = run_scenario(config, seed=1)
    b = run_scenario(config, seed=2)
    strip = lambda line: re.sub(r" (nonce|seed)=[0-9a-f]+", r" \1=_", line)
    assert [strip(line) for line in a.to_records()] == [
        strip(line) for line in b.to_records()
    ]
    assert a.chain == b.chain  # mining never touches the nonce rng


@pytest.mark.parametrize("seed", [0, 3, 7919, (7919 << 32) | 5])
def test_nonces_are_the_seeds_generator_bytes(seed):
    """Each challenge's nonce is the next 32 bytes that
    np.random.default_rng(seed).bytes gives, in order."""
    sim = Simulation(mini_config(), seed=seed)
    expected = np.random.default_rng(seed)
    for _ in range(40):
        assert sim._challenge("a") == expected.bytes(32)


def test_many_seeds_same_outcome():
    config = bundled_scenario("fig10-coexistence")
    for seed in (0, 7, 123):
        log = run_scenario(config, seed=seed)
        assert log.rejections == 1
        assert len(log.members) == 9
        assert log.chain_ok()


# --------------------------------------------------------------- invariants

def test_invariants_flag_tick_regression(fig10_log):
    import dataclasses
    events = list(fig10_log.events)
    events[3], events[10] = events[10], events[3]
    bad = dataclasses.replace(fig10_log, events=tuple(events))
    assert any("backward" in p for p in check_invariants(bad))


def test_invariants_flag_wrong_actor(fig10_log):
    import dataclasses
    events = []
    for event in fig10_log.events:
        if event.kind == "Rotate":
            fields = tuple(
                (k, "mallory" if k == "actor" else v) for k, v in event.fields
            )
            event = dataclasses.replace(event, fields=fields)
        events.append(event)
    bad = dataclasses.replace(fig10_log, events=tuple(events))
    assert any("non-security" in p for p in check_invariants(bad))


def test_invariants_flag_a_verdict_from_another_actor(fig10_log):
    import dataclasses
    events = list(fig10_log.events)
    at = next(i for i, e in enumerate(events) if e.kind == "Verdict")
    events[at] = dataclasses.replace(events[at], fields=tuple(
        (k, "sec" if k == "actor" else v) for k, v in events[at].fields))
    bad = dataclasses.replace(fig10_log, events=tuple(events))
    assert check_invariants(bad) == [
        "Verdict issued by non-management actor 'sec'"]


def test_invariants_flag_accepted_impersonation(fig10_log):
    import dataclasses
    events = []
    for event in fig10_log.events:
        fields = dict(event.fields)
        if event.kind == "Verdict" and fields.get("target"):
            fields["verdict"] = "Accepted"
            event = dataclasses.replace(event, fields=tuple(fields.items()))
        events.append(event)
    bad = dataclasses.replace(fig10_log, events=tuple(events))
    assert any("impersonation" in p for p in check_invariants(bad))


def test_invariants_flag_broken_chain(fig10_log):
    import dataclasses
    bad = dataclasses.replace(fig10_log, chain=fig10_log.chain[::-1])
    assert any("chain" in p for p in check_invariants(bad))
    assert not verify_chain(list(bad.chain), bad.config.difficulty)


def test_tallies_are_read_from_the_events(fig10_log):
    import dataclasses
    assert [f.name for f in dataclasses.fields(network_sim.EventLog)] == [
        "config", "seed", "events", "chain", "members", "state_index",
        "root_hash"]
    verdicts = [dict(e.fields) for e in fig10_log.events if e.kind == "Verdict"]
    assert fig10_log.admitted == tuple(
        v["node"] for v in verdicts if v["verdict"] == "Admitted")
    assert fig10_log.rejections == sum(v["verdict"] == "Rejected"
                                       for v in verdicts)
    evicting = dataclasses.replace(fig10_log, events=fig10_log.events + (
        network_sim.Event(99, "Evict", (("actor", "mgmt"), ("node", "n3"))),))
    assert evicting.evicted == ((99, "n3"),)
    assert any("replayed" in p for p in check_invariants(evicting))


def test_empty_schedule_yields_bare_log():
    text = MINI.split("[schedule]")[0] + "[schedule]\n"
    log = run_scenario(parse_scenario(text), seed=0)
    assert [e.kind for e in log.events] == ["Genesis"]
    assert log.members == ()
    assert log.final_line().startswith("chain_length=0 verified=yes")
