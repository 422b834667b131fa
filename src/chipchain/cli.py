"""Command-line front end.

One executable, `chipchain`, with subcommands per module: chip fixtures
(chip new/prn), exact randomness tables (entropy), key operations
(id keygen/audit), transfer-tree and chain operations (ledger ...),
scripted network runs (scenario run), and the version.

Each subcommand takes only the flags its handler reads; --seed defaults
to 0 wherever it is taken, and nothing ever falls back to wall-clock
randomness.  Exit codes: 0 success, 1 failed operation or failed check,
2 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from . import __version__
from ._pow import _difficulty, _nonce_start, active_kernel
from .chip_model import (
    HMAC_BACKEND,
    ChipGeometry,
    FailureModel,
    _seed,
    extract_prn,
    format_chip_fixture,
    load_chip_fixture,
    new_chip,
)
from .entropy_analysis import (
    collision_report,
    entropy_report,
    format_scientific,
    generation_table,
)
from .errors import ChipChainError, UnknownChip
from .identity import (
    POWMOD_BACKEND,
    PRIME_BACKEND,
    SUPPORTED_MODULUS_BITS,
    AuditVerdict,
    PublicKey,
    _state_index,
    crp_audit,
    key_fingerprint,
    keypair_for_chip,
)
from .ledger import (
    ZERO_HASH,
    _mining_difficulty,
    build_tree,
    load_chain,
    mine_block,
    replace_chip,
    rotate_state_reproduce,
    save_chain,
    seat_tree,
    verify_chain,
    verify_tree,
)
from .config import bundled_scenario, load_scenario, load_topology
from .network_sim import check_invariants, run_scenario


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout_payload: str
    diagnostics: str


def _load_ledger(path):
    """Chip specs, their manufactured chips and the edges of a ledger file."""
    specs, topology = load_topology(path)
    chips = {name: spec.manufacture() for name, spec in specs.items()}
    return specs, chips, topology


# -- handlers (each returns payload lines, exit code, diagnostic lines) ----


def _cmd_chip_new(args):
    geometry = ChipGeometry(rows=args.y, redundancy_rows=args.redundancy)
    model = FailureModel(mean_failures=args.mean_failures,
                         min_failures=args.min_failures)
    chip = new_chip(geometry, model, seed=args.seed, chip_id=args.chip_id)
    record = format_chip_fixture(chip)  # refuses a bad chip id before any write
    os.makedirs(args.dir, exist_ok=True)
    path = os.path.join(args.dir, f"{chip.chip_id}.chip")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record)
    if args.output == "records":
        rows = ",".join(str(r) for r in chip.failure_rows)
        return ([f"chip_id={chip.chip_id} rows={geometry.rows} "
                 f"failures={len(chip.failure_rows)} failure_rows={rows} "
                 f"path={path}"], 0, [])
    return record.rstrip("\n").splitlines() + [f"# saved to {path}"], 0, []


def _cmd_chip_prn(args):
    chip = load_chip_fixture(args.chip)
    prn = extract_prn(chip, args.column)
    rows = ",".join(str(r) for r in prn.rows)
    if args.output == "records":
        return ([f"chip_id={prn.chip_id} column={prn.column} "
                 f"count={len(prn.rows)} rows={rows} "
                 f"canonical={prn.canonical_bytes.hex()}"], 0, [])
    return ([f"chip {prn.chip_id}, column {prn.column}",
             f"  failure rows ({len(prn.rows)}): {rows}",
             f"  canonical bytes: {prn.canonical_bytes.hex()}"], 0, [])


def _entropy_lines(report, output):
    if output == "records":
        line = (f"y={report.rows} l={report.block_side} "
                f"m={report.failure_count} combinations={report.combinations} "
                f"entropy_nats={report.entropy_nats!r} "
                f"entropy_bits={report.entropy_bits!r}")
        if report.generation:
            line = f"generation={report.generation.replace(' ', '')} " + line
        return [line]
    label = f" ({report.generation})" if report.generation else ""
    return [
        f"rows (Y){label}: {report.rows}, block side (L): "
        f"{report.block_side}, failures (m): {report.failure_count}",
        f"  combinations: {report.combinations}",
        f"  entropy:      {report.entropy_nats:.6f} nats "
        f"({report.entropy_bits:.6f} bits)",
    ]


def _cmd_entropy(args):
    return _entropy_lines(entropy_report(args.y, args.l, args.m),
                          args.output), 0, []


def _cmd_entropy_table(args):
    names = (None if not args.generations
             else [g.strip() for g in args.generations.split(",")])
    return [line for report in generation_table(args.m, names, args.l)
            for line in _entropy_lines(report, args.output)], 0, []


def _cmd_entropy_collisions(args):
    report = collision_report(args.y, args.l, args.m, args.n)
    if args.output == "records":
        return ([f"y={report.rows} l={report.block_side} "
                 f"m={report.failure_count} population={report.population} "
                 f"per_pair={format_scientific(report.per_pair)} "
                 f"per_chip={format_scientific(report.per_chip)} "
                 f"expected_pairs={format_scientific(report.expected_pairs)}"],
                0, [])
    return ([f"population: {report.population}",
             f"  same-fingerprint chance, one given pair:  "
             f"{format_scientific(report.per_pair)}",
             f"  chance a given chip collides with any:    "
             f"{format_scientific(report.per_chip)}",
             f"  expected colliding pairs populationwide:  "
             f"{format_scientific(report.expected_pairs)}"], 0, [])


def _cmd_id_keygen(args):
    chip = load_chip_fixture(args.chip)
    pair = keypair_for_chip(chip, args.l, args.modulus_bits)
    pk_hex = pair.public_key.to_bytes().hex()
    fingerprint = key_fingerprint(pair.public_key)
    if args.output == "records":
        lines = [f"chip_id={pair.chip_id} l={pair.state_index} "
                 f"modulus_bits={pair.modulus_bits} fingerprint={fingerprint} "
                 f"pk={pk_hex}"]
        if args.show_secret:
            lines.append(f"sk_exponent={pair.secret_key.exponent:x}")
        return lines, 0, []
    lines = [
        f"chip {pair.chip_id} at state {pair.state_index} "
        f"({pair.modulus_bits}-bit)",
        f"  fingerprint: {fingerprint}",
        f"  public key:  {pk_hex}",
    ]
    if args.show_secret:
        lines.append(f"  secret exp:  {pair.secret_key.exponent:x}")
    return lines, 0, []


def _cmd_id_audit(args):
    chip = load_chip_fixture(args.chip)
    verdict = crp_audit(chip, args.pk, args.l, args.nonce).verdict
    genuine = verdict is AuditVerdict.GENUINE
    if args.output == "records":
        lines = [f"chip_id={chip.chip_id} l={args.l} "
                 f"verdict={verdict.value} nonce={args.nonce.hex()[:16]}"]
    else:
        lines = [f"verdict: {verdict.value}"]
    return lines, 0 if genuine else 1, []


def _cmd_ledger_build(args):
    _, chips, topology = _load_ledger(args.topology)
    tree = build_tree(topology, chips, args.l, args.modulus_bits)
    lines = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        lines.append(f"node={node_id} key={key_fingerprint(node.public_key)} "
                     f"incoming={len(node.incoming)} "
                     f"latest={node.latest_hash.hex()[:16]}")
    schedule = ",".join(f"{a}>{b}" for a, b in tree.schedule)
    lines.append(f"root={tree.root_id} root_hash={tree.root_hash.hex()[:16]} "
                 f"l={tree.state_index} schedule={schedule}")
    return lines, 0, []


def _cmd_ledger_mine(args):
    _, chips, topology = _load_ledger(args.topology)
    tree = build_tree(topology, chips, args.l, args.modulus_bits)
    chain = load_chain(args.chain) if os.path.exists(args.chain) else []
    stamp = tree.root_stamp()
    prev = chain[-1].block_hash if chain else ZERO_HASH
    block = mine_block(stamp, prev, args.difficulty,
                       nonce_start=args.nonce_start, height=len(chain))
    chain.append(block)
    save_chain(chain, args.chain)
    attempts = block.nonce - args.nonce_start + 1
    return ([f"height={block.height} difficulty={args.difficulty} "
             f"nonce={block.nonce} attempts={attempts} "
             f"block_hash={block.block_hash.hex()[:16]} "
             f"root={stamp.root_hash.hex()[:16]} "
             f"chain_length={len(chain)} chain={args.chain}"], 0, [])


def _cmd_ledger_verify(args):
    chain = load_chain(args.chain)
    ok = verify_chain(chain, args.difficulty)
    lines = [f"chain_length={len(chain)} difficulty={args.difficulty} "
             f"verified={'yes' if ok else 'no'}"]
    return lines, 0 if ok else 1, []


def _cmd_ledger_replace(args):
    specs, chips, topology = _load_ledger(args.topology)
    if args.old not in specs:
        raise UnknownChip(f"no chip {args.old!r} in {args.topology}")
    tree = build_tree(topology, chips, args.l, args.modulus_bits)
    replacement = specs[args.old].manufacture(
        args.new_seed, f"{args.old}-replacement")
    repaired, recomputed = replace_chip(tree, args.old, replacement, args.l)

    # independent route: re-run every transfer from genesis, seating the
    # tree's pairs and a replacement pair derived here, not by replace_chip
    keypairs = {node_id: node.keypair for node_id, node in tree.nodes.items()}
    keypairs[args.old] = keypair_for_chip(replacement, args.l,
                                          args.modulus_bits)
    rebuilt = seat_tree(topology, keypairs)
    match = (repaired.root_hash == rebuilt.root_hash
             and all(repaired.nodes[n].latest_hash == rebuilt.nodes[n].latest_hash
                     for n in repaired.nodes))
    lines = [
        f"replaced={args.old} new_seed={args.new_seed} "
        f"recomputed={','.join(recomputed)} "
        f"untouched={len(tree.nodes) - len(recomputed)}",
        f"old_root={tree.root_hash.hex()[:16]} "
        f"new_root={repaired.root_hash.hex()[:16]} "
        f"rebuild_match={'yes' if match else 'no'}",
    ]
    return lines, 0 if match else 1, [] if match else [
        "incremental repair diverged from the from-scratch rebuild"]


def _cmd_ledger_rotate(args):
    _, chips, topology = _load_ledger(args.topology)
    tree = build_tree(topology, chips, args.from_l, args.modulus_bits)
    rotated = rotate_state_reproduce(tree, chips, args.new_l)
    changed = sum(
        1 for n in tree.nodes
        if tree.nodes[n].public_key != rotated.nodes[n].public_key)
    ok = verify_tree(rotated)
    lines = [
        f"from_l={args.from_l} new_l={args.new_l} "
        f"keys_changed={changed}/{len(tree.nodes)} "
        f"verified={'yes' if ok else 'no'}",
        f"old_root={tree.root_hash.hex()[:16]} "
        f"new_root={rotated.root_hash.hex()[:16]}",
    ]
    return lines, 0 if ok else 1, []


def _cmd_scenario_run(args):
    if os.path.exists(args.target):
        config = load_scenario(args.target)
    else:
        config = bundled_scenario(args.target)
    log = run_scenario(config, args.seed)
    problems = check_invariants(log)
    if args.output == "records":
        lines = log.to_records() + [log.final_line()]
    else:
        lines = log.summary().splitlines()
    return lines, 0 if not problems else 1, problems


def _cmd_version(args):
    return [f"chipchain {__version__} (pow kernel: {active_kernel()}, "
            f"hmac: {HMAC_BACKEND}, powmod: {POWMOD_BACKEND}, "
            f"primality: {PRIME_BACKEND})"], 0, []


# -- parser ----------------------------------------------------------------


def _int_at_least(what: str, low: int):
    """argparse type for an integer `what` of at least low."""

    def check(value) -> int:
        if not isinstance(value, int):
            raise ValueError(f"invalid {what} {value!r}")
        if value < low:
            raise ValueError(f"{what} must be >= {low}, got {value}")
        return value

    return _checked_by(check)


def _checked_by(check):
    """argparse type for an integer flag: its text, as an int where it
    reads as one, through check, whose refusal argparse prints after the
    flag.  A seed, state index, difficulty or nonce start is checked by
    its module."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text  # check refuses it as not an integer
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_AUDIT_NONCE = hashlib.sha256(b"chipchain/cli-audit-nonce" + bytes(8)).digest()
_MAX_POPULATION = 10 ** 100


def _population(text: str) -> int:
    """argparse type for `entropy collisions --n`: an integer in
    [1, 1e100], plain or in scientific notation (1e14)."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(
            f"invalid population {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(
            f"population must be an integer, got {text!r}")
    if not 1 <= value <= _MAX_POPULATION:
        raise argparse.ArgumentTypeError(
            f"population must be in [1, 1e100], got {text}")
    return int(value)


def _nonce(text: str) -> bytes:
    """argparse type for `id audit --nonce`: non-empty hex."""
    try:
        nonce = bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"nonce must be hex, got {text!r}") from None
    if not nonce:
        raise argparse.ArgumentTypeError("nonce must be non-empty")
    return nonce


def _public_key(text: str) -> PublicKey:
    """argparse type for a public key, hex as `id keygen` prints it."""
    try:
        return PublicKey.from_bytes(bytes.fromhex(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid public key {text!r}: {exc}") from None


# flags of the bare `entropy` command; its modes take the subsets they read
_ENTROPY_FLAGS = {
    "--output": dict(choices=("text", "records"), default="text",
                     help="human text or one key=value record per line"),
    "--y": dict(type=_int_at_least("y", 1), default=2000, help="rows"),
    "--l": dict(type=_int_at_least("l", 1), default=1, help="block side"),
    "--m": dict(type=_int_at_least("m", 0), default=10, help="failure count"),
}
# the flags each mode reads; given before the mode word, another is refused
_ENTROPY_MODE_FLAGS = {"table": ("--output", "--l", "--m"),
                       "collisions": ("--output", "--y", "--l", "--m")}


class _NoteEntropyFlag(argparse.Action):
    """Store a bare `entropy` flag and note that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.entropy_flags = (*getattr(namespace, "entropy_flags", ()),
                                   self.option_strings[0])


def _build_parser() -> argparse.ArgumentParser:
    # one parent parser per shared flag; each subcommand takes those it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_checked_by(_seed), default=0,
                      help="deterministic seed (default 0, never wall clock)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", **_ENTROPY_FLAGS["--output"])
    bits = argparse.ArgumentParser(add_help=False)
    bits.add_argument("--modulus-bits", type=int, default=1024,
                      choices=SUPPORTED_MODULUS_BITS,
                      help="RSA modulus size for derived keys")
    chip_path = argparse.ArgumentParser(add_help=False)
    chip_path.add_argument("--chip", required=True, help="chip fixture path")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--l", type=_checked_by(_state_index), default=0,
                       help="state index")
    topology = argparse.ArgumentParser(add_help=False)
    topology.add_argument("--topology", required=True,
                          help="config file with [chips] and [topology]")

    parser = argparse.ArgumentParser(
        prog="chipchain",
        description="Desk-scale simulation of memory-chip-rooted identity, "
                    "attestation, and a chip-stamped proof-of-work ledger.")
    sub = parser.add_subparsers(dest="command", required=True)

    chip = sub.add_parser("chip", help="manufacture and read chip fixtures")
    chip_sub = chip.add_subparsers(dest="subcommand", required=True)
    chip_new = chip_sub.add_parser("new", parents=[seed, output],
                                   help="manufacture a chip fixture")
    chip_new.add_argument("--y", type=int, default=2000,
                          help="regular-array rows")
    chip_new.add_argument("--lambda", dest="mean_failures", type=float,
                          default=10.0, help="mean failure-row count")
    chip_new.add_argument("--redundancy", type=int, default=20,
                          help="spare rows")
    chip_new.add_argument("--min-failures", type=int, default=1)
    chip_new.add_argument("--chip-id", default=None,
                          help="default: chip-<seed>")
    chip_new.add_argument("--dir", default=".",
                          help="directory for the .chip fixture file")
    chip_new.set_defaults(handler=_cmd_chip_new)

    chip_prn = chip_sub.add_parser("prn", parents=[chip_path, output],
                                   help="extract a fixture's fingerprint")
    chip_prn.add_argument("--column", type=int, default=0)
    chip_prn.set_defaults(handler=_cmd_chip_prn)

    entropy = sub.add_parser("entropy",
                             help="exact fingerprint-space combinatorics")
    for flag, spec in _ENTROPY_FLAGS.items():
        entropy.add_argument(flag, action=_NoteEntropyFlag, **spec)
    entropy.set_defaults(handler=_cmd_entropy)
    modes = entropy.add_subparsers(dest="mode", metavar="mode",
                                   help="omit for one configuration")
    table = modes.add_parser("table", help="the generation ladder")
    table.add_argument("--generations", help="comma-separated subset")
    table.set_defaults(handler=_cmd_entropy_table)
    collisions = modes.add_parser("collisions", help="population odds")
    collisions.add_argument("--n", type=_population, default="1e14",
                            help="population size")
    collisions.set_defaults(handler=_cmd_entropy_collisions)
    # a mode's copy of a flag stays unset unless given, so a flag given
    # before the mode word keeps its value in the mode
    for mode, flags in _ENTROPY_MODE_FLAGS.items():
        for flag in flags:
            modes.choices[mode].add_argument(
                flag, **{**_ENTROPY_FLAGS[flag], "default": argparse.SUPPRESS})

    ident = sub.add_parser("id", help="chip-bound keys and audits")
    ident_sub = ident.add_subparsers(dest="subcommand", required=True)
    keygen = ident_sub.add_parser("keygen",
                                  parents=[chip_path, state, output, bits],
                                  help="derive the keypair of a chip fixture")
    keygen.add_argument("--show-secret", action="store_true")
    keygen.set_defaults(handler=_cmd_id_keygen)

    audit = ident_sub.add_parser("audit", parents=[chip_path, state, output],
                                 help="challenge a chip against a claimed key")
    audit.add_argument("--pk", type=_public_key, required=True,
                       help="claimed public key, hex as printed by keygen")
    audit.add_argument("--nonce", type=_nonce, default=_AUDIT_NONCE,
                       help="hex nonce; default: a fixed nonce")
    audit.set_defaults(handler=_cmd_id_audit)

    ledger = sub.add_parser("ledger", help="transfer trees and the mined chain")
    ledger_sub = ledger.add_subparsers(dest="subcommand", required=True)

    build = ledger_sub.add_parser("build", parents=[topology, state, bits],
                                  help="execute a transfer topology")
    build.set_defaults(handler=_cmd_ledger_build)

    mine = ledger_sub.add_parser("mine", parents=[topology, state, bits],
                                 help="mine the tree's root stamp onto a chain")
    mine.add_argument("--difficulty", required=True,
                      type=_checked_by(_mining_difficulty),
                      help="leading zero bits")
    mine.add_argument("--chain", required=True,
                      help="chain file; created if missing, else appended")
    mine.add_argument("--nonce-start", default=0,
                      type=_checked_by(_nonce_start))
    mine.set_defaults(handler=_cmd_ledger_mine)

    verify_cmd = ledger_sub.add_parser("verify", help="check a chain file")
    verify_cmd.add_argument("--chain", required=True)
    verify_cmd.add_argument("--difficulty", type=_checked_by(_difficulty),
                            required=True)
    verify_cmd.set_defaults(handler=_cmd_ledger_verify)

    replace = ledger_sub.add_parser(
        "replace", parents=[topology, state, bits],
        help="swap one chip and repair only the dirtied path")
    replace.add_argument("--old", required=True, help="node id to replace")
    replace.add_argument("--new-seed", type=_checked_by(_seed), required=True,
                         help="manufacture seed of the replacement chip")
    replace.set_defaults(handler=_cmd_ledger_replace)

    rotate = ledger_sub.add_parser("rotate", parents=[topology, bits],
                                   help="reproduce the tree at a new state")
    rotate.add_argument("--from-l", type=_checked_by(_state_index), default=0)
    rotate.add_argument("--new-l", type=_checked_by(_state_index),
                        required=True)
    rotate.set_defaults(handler=_cmd_ledger_rotate)

    scenario = sub.add_parser("scenario", help="scripted network runs")
    scenario_sub = scenario.add_subparsers(dest="subcommand", required=True)
    run = scenario_sub.add_parser("run", parents=[seed, output],
                                  help="run a scenario config or bundled name")
    run.add_argument("target",
                     help="path to a .cfg file, or a bundled scenario name "
                          "(e.g. fig10-coexistence)")
    run.set_defaults(handler=_cmd_scenario_run)

    version = sub.add_parser("version", help="print version and active kernels")
    version.set_defaults(handler=_cmd_version)

    return parser


def dispatch(argv) -> CommandResult:
    """Parse and execute one command line, capturing all output."""
    parser = _build_parser()
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(list(argv))
            unread = [flag for flag in getattr(args, "entropy_flags", ())
                      if flag not in _ENTROPY_MODE_FLAGS.get(args.mode,
                                                             _ENTROPY_FLAGS)]
            if unread:
                parser.error(f"entropy {args.mode} does not read {unread[0]}")
            if args.handler is _cmd_ledger_rotate and args.new_l == args.from_l:
                parser.error(f"argument --new-l: new state index must differ "
                             f"from --from-l, got {args.new_l}")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, out.getvalue().rstrip("\n"),
                             err.getvalue().rstrip("\n"))
    try:
        lines, code, problems = args.handler(args)
    except (ChipChainError, ValueError, ArithmeticError, OSError) as exc:
        return CommandResult(1, "", f"{type(exc).__name__}: {exc}")
    return CommandResult(code, "\n".join(lines), "\n".join(problems))


def main(argv=None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    try:
        if result.stdout_payload:
            print(result.stdout_payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull, so that
        # the interpreter's own flush at exit has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
