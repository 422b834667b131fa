"""End-to-end byte goldens: a fixed seed gives these exact outputs.

Each value was computed once and is pinned here, so any change that
shifts an event record, a summary, a ledger record, a chain byte or a
benchmark op's output fails below, naming what moved.
"""

import hashlib
from pathlib import Path

import pytest

from chipchain import bundled_scenario, run_scenario
from chipchain.cli import dispatch

from test_bench_contract import workloads

LEDGER = str(Path(__file__).resolve().parent / "golden-ledger.cfg")


def sha256(data) -> str:
    return hashlib.sha256(
        data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


# seed -> SHA-256 of the records joined by newlines, and of the summary
FIG10 = {
    0: ("ef679a79588f72a361a85b1712583a7878dcd46254f008c7aac97531d292aff2",
        "8192e7b191b3b9978298b46f6013209d1ac946d06ebafe5a147e372119208037"),
    3: ("10c0e9cf8e634bf18a90fde3cabd3b72f4dd299881612fb2997f056363773f19",
        "843f894dee2263e020734d556debc5c1fe2b0a2bce5cd94b615a91018c2d04bb"),
    7919: ("982e38cc2f290773ce73b214935ea69fed0026ab6d17ee793029e32e36901f6f",
           "332a57524d526bebe4388d4bc1bcc5631e4dd1a3237e0d2518eb70575004710c"),
}


@pytest.mark.parametrize("seed", sorted(FIG10))
def test_fig10_records_and_summary(seed):
    log = run_scenario(bundled_scenario("fig10-coexistence"), seed)
    records = log.to_records()
    assert len(records) == 79
    assert (sha256("\n".join(records)), sha256(log.summary())) == FIG10[seed]


# The adversary tour walks the paths fig10 leaves out: a blocklisted and a
# chipless entry, replay and noise spoofs, a tamper caught by a sweep and
# a tamper re-bound by a rotate, a rotate with offline=, a re-enrollment
ADVERSARY_TOUR = {
    0: ("ac8675a5c5a21495035f5b2c8de7399be0e283cd89e9606f9ac7d146712ddfa1",
        "32a28c16d431fb01523eb5f5bbc83dee885382b993c1ffd242c8fa139b4b07bb"),
    3: ("29cee7ea6d433a82cfdfb7e0db587f498f0ac6c95a9f3006e5516189c3ad707d",
        "672f525f06a622bcb88b702861252d8b355f26e615d801708b31e3545853852c"),
    7919: ("78816d9e7491f5592f863f39b638f51243f0fcd8bdce84492cfb73837573b931",
           "dfcaac40a93821a92c0a338e062a2e84e1a9b3b3a083515db66ab8296187a7d8"),
}


@pytest.mark.parametrize("seed", sorted(ADVERSARY_TOUR))
def test_adversary_tour_records_and_summary(seed):
    log = run_scenario(bundled_scenario("adversary-tour"), seed)
    records = log.to_records()
    assert len(records) == 65
    assert (sha256("\n".join(records)), sha256(log.summary())) \
        == ADVERSARY_TOUR[seed]


BITS = ["--topology", LEDGER, "--modulus-bits", "512"]

LEDGER_OUTPUT = {
    ("build",): """\
node=a key=f9486dfc3ede0348 incoming=2 latest=705d2855e198543d
node=b key=5667f9382c5eb908 incoming=0 latest=c1f6b6a962c3e680
node=c key=7137e2450d34ca1f incoming=0 latest=d73248230189791e
node=d key=4d3cafb5e458ac59 incoming=0 latest=2776bb0609fe3f5d
node=r key=6a779689944204b5 incoming=2 latest=58954994833c749a
root=r root_hash=58954994833c749a l=0 schedule=b>r,c>a,d>a,a>r""",
    ("replace", "--old", "c", "--new-seed", "700"): """\
replaced=c new_seed=700 recomputed=c,a,r untouched=2
old_root=58954994833c749a new_root=70aed543adad4001 rebuild_match=yes""",
    ("rotate", "--new-l", "1"): """\
from_l=0 new_l=1 keys_changed=5/5 verified=yes
old_root=58954994833c749a new_root=471cdf305d667cc2""",
}


@pytest.mark.parametrize("command", sorted(LEDGER_OUTPUT),
                         ids=lambda command: command[0])
def test_ledger_command_output(command):
    result = dispatch(["ledger", command[0], *BITS, *command[1:]])
    assert (result.exit_code, result.diagnostics) == (0, "")
    assert result.stdout_payload == LEDGER_OUTPUT[command]


def test_ledger_mine_output_and_chain_bytes(tmp_path):
    chain = str(tmp_path / "golden.chain")
    mine = ["ledger", "mine", *BITS, "--difficulty", "8", "--chain", chain]
    outputs = [dispatch(mine), dispatch([*mine, "--l", "1"])]
    assert [(r.exit_code, r.diagnostics) for r in outputs] == [(0, "")] * 2
    assert [r.stdout_payload for r in outputs] == [
        "height=0 difficulty=8 nonce=18 attempts=19 "
        "block_hash=003c2f6dfa2591b0 root=58954994833c749a chain_length=1 "
        f"chain={chain}",
        "height=1 difficulty=8 nonce=839 attempts=840 "
        "block_hash=00347078f3238189 root=471cdf305d667cc2 chain_length=2 "
        f"chain={chain}",
    ]
    data = Path(chain).read_bytes()
    assert len(data) == 398
    assert sha256(data) == (
        "7af7fa02c23ab1822a49eda3736142d8dd0a650848d18bb6bb28c8efcd6ca119")


# workload -> SHA-256 over the check digests of its first trace_ops ops at
# seed 7919, as perfbench/run.py reports it
PERFBENCH_7919 = {
    "fig10-sweep":
        "9630091a947ab9c35ab7227517bfae83b5bdb783f8f3b83637f1e5adbe962306",
    "fig10-fresh":
        "a50e310a438283f299eba519d075b19d5db4a12e9fcf15705f17d14633006ca7",
    "population":
        "3a9c2e9ee181e698e9e2a9b8d56a460a3c2960cf681c31c6779d9535c8ddef5b",
    "chain-repair":
        "32670299b4def2e93b6ca4fa5f991d30e26d8f433051b69b93bacba587802735",
}


@pytest.mark.parametrize("name", sorted(PERFBENCH_7919))
def test_perfbench_digest_at_seed_7919(name):
    workload = workloads.WORKLOADS[name](7919)
    run = hashlib.sha256()
    for i in range(workload.trace_ops):
        args = workload.prepare(i)
        run.update(workload.check(i, args, workload.op(args)))
    assert run.hexdigest() == PERFBENCH_7919[name]
