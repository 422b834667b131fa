"""Scripted network simulation: central management over chip-rooted devices.

One management node admits devices into the trusted membership, one
security node owns the rotation state, device nodes hold chips, and
attacker nodes probe the boundary.  Entry and periodic sweeps both run
the physical chip audit; the transfer tree and its mined chain run
inside the membership.  A run follows a ScenarioConfig parsed by
chipchain.config, tick by tick through its schedule, and is fully
deterministic for a given (config, seed): replaying yields
byte-identical event records except that audit nonces follow the seed.
Each challenge takes its 32-byte nonce from the PCG64 stream the seed
selects, the bytes np.random.default_rng(seed).bytes(32) would give in
the same order.

An action the run refuses (a second enroll, a spoof of an unregistered
victim, a build_tree before its devices are admitted) raises a
ConfigInvalid that names its schedule line.  An EventLog reads its
tallies from the events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import ROLE_MANAGEMENT, ScenarioConfig
from .errors import ConfigInvalid, NumberInvalid, SignatureMalformed
from .identity import (
    AuditVerdict,
    ChipKeyPair,
    PublicKey,
    crp_audit,
    key_fingerprint,
    keypair_for_chip,
    sign,
    verify,
)
from .ledger import (
    Block,
    ZERO_HASH,
    _new_state,
    mine_block,
    rotate_state_reproduce,
    seat_tree,
    verify_chain,
)


@dataclass(frozen=True)
class Event:
    tick: int
    kind: str
    fields: tuple[tuple[str, str], ...]

    def to_record(self) -> str:
        parts = [f"tick={self.tick}", f"kind={self.kind}"]
        parts.extend(f"{key}={value}" for key, value in self.fields)
        return " ".join(parts)


@dataclass(frozen=True)
class EventLog:
    """Immutable outcome of one scenario run; its tallies are read from
    the events, in event order, and kept nowhere else."""

    config: ScenarioConfig
    seed: int
    events: tuple[Event, ...]
    chain: tuple[Block, ...]
    members: tuple[str, ...]
    state_index: int
    root_hash: bytes | None

    def _verdicts(self, verdict: str) -> tuple[str, ...]:
        return tuple(fields["node"] for event in self.events
                     if event.kind == "Verdict"
                     and (fields := dict(event.fields))["verdict"] == verdict)

    @property
    def admitted(self) -> tuple[str, ...]:
        return self._verdicts("Admitted")

    @property
    def denied(self) -> tuple[str, ...]:
        return self._verdicts("Denied")

    @property
    def rejections(self) -> int:
        return len(self._verdicts("Rejected"))

    @property
    def evicted(self) -> tuple[tuple[int, str], ...]:
        return tuple((event.tick, dict(event.fields)["node"])
                     for event in self.events if event.kind == "Evict")

    def to_records(self) -> list[str]:
        return [event.to_record() for event in self.events]

    def chain_ok(self) -> bool:
        return verify_chain(self.chain, self.config.difficulty)

    def final_line(self) -> str:
        return (f"chain_length={len(self.chain)} "
                f"verified={'yes' if self.chain_ok() else 'no'} "
                f"members={len(self.members)} "
                f"evictions={len(self.evicted)} "
                f"rejections={self.rejections}")

    def summary(self) -> str:
        lines = [
            f"scenario {self.config.name} (seed {self.seed})",
            f"  events:     {len(self.events)}",
            f"  admitted:   {', '.join(self.admitted) or '-'}",
            f"  denied:     {', '.join(self.denied) or '-'}",
            f"  members:    {', '.join(self.members) or '-'}",
            f"  evicted:    "
            f"{', '.join(f'{n}@{t}' for t, n in self.evicted) or '-'}",
            f"  rejections: {self.rejections}",
            f"  state:      {self.state_index}",
            f"  chain:      {len(self.chain)} blocks, "
            f"{'verified' if self.chain_ok() else 'BROKEN'} "
            f"at difficulty {self.config.difficulty}",
        ]
        if self.root_hash is not None:
            lines.append(f"  tree root:  {self.root_hash.hex()[:16]}")
        lines.append(f"  {self.final_line()}")
        return "\n".join(lines)


def check_invariants(log: EventLog) -> list[str]:
    """Structural violations in a finished run; empty means healthy.
    The members must be the Admitted and Evict events replayed in order.
    """
    problems, config = [], log.config
    if not log.chain_ok():
        problems.append("chain failed verification")
    last_tick = 0
    replayed: set[str] = set()
    for event in log.events:
        if event.tick < last_tick:
            problems.append(f"event ticks go backward at {event.to_record()}")
        last_tick = event.tick
        fields = dict(event.fields)
        if event.kind in ("Verdict", "Evict") \
                and fields.get("actor") != config.management:
            problems.append(f"{event.kind} issued by non-management actor "
                            f"{fields.get('actor')!r}")
        if event.kind == "Rotate" and fields.get("actor") != config.security:
            problems.append(f"Rotate issued by non-security actor "
                            f"{fields.get('actor')!r}")
        if event.kind == "Verdict" and fields.get("verdict") == "Accepted":
            problems.append(f"impersonation accepted: {event.to_record()}")
        if event.kind == "Verdict" and fields.get("verdict") == "Admitted":
            replayed.add(fields["node"])
        elif event.kind == "Evict":
            replayed.discard(fields["node"])
    if replayed != set(log.members):
        problems.append(f"members {log.members} are not the replayed "
                        f"admissions less evictions {tuple(sorted(replayed))}")
    return problems


class Simulation:
    """Deterministic event-driven run of one scenario: its config, the
    chip each node carries (`chips`; chipless nodes are absent) and its
    events.  A refused action raises ConfigInvalid; `run` adds the line.

    The run derives each (chip, state) key pair once: `_keypairs` holds
    the pair of each node's chip at the current state index, as first
    derived or as the reproduced tree seated it, until a rotate or a
    tamper drops it.  Every audit is handed the node's held pair, which
    it uses when the chip's fresh response seeded it, and hands back the
    pair that signed; a sweep keeps that pair, so a node whose chip was
    swapped is derived once, at its audit, and not again when it
    re-enrolls.  A fig10 run derives 19 pairs for its 19 (chip, state)
    responses.
    """

    def __init__(self, config: ScenarioConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self._nonces = np.random.PCG64(seed)
        self.clock = 0
        self.events: list[Event] = []
        self.state_index = 0
        self.chips = {spec.name: config.chips[spec.chip].manufacture()
                      for spec in config.nodes.values() if spec.chip}
        self.registry: dict[str, PublicKey] = {}  # member -> its address
        self._keypairs: dict[str, ChipKeyPair] = {}  # node -> pair at state
        self.transcripts: dict[str, tuple[bytes, bytes]] = {}
        self.tree = None
        self.chain: list[Block] = []
        self._emit("Genesis", scenario=config.name, seed=seed,
                   state=self.state_index)

    def _emit(self, kind: str, **fields):
        self.events.append(Event(
            self.clock, kind,
            tuple(zip(fields, map(str, fields.values())))))

    def _challenge(self, node: str) -> bytes:
        """A fresh audit nonce for node, recorded as its Challenge.

        The nonce is four raw 64-bit words of the PCG64 stream the seed
        selects, each little-endian.  These are the bytes
        np.random.default_rng(seed).bytes(32) gives: Generator.bytes
        draws the same words and hands out the low 32 bits of each before
        the high, and since a run draws only whole 32-byte nonces no
        half-used word is ever pending.
        """
        nonce = self._nonces.random_raw(4).astype("<u8", copy=False).tobytes()
        self._emit("Challenge", actor=self.config.management, node=node,
                   issuer=ROLE_MANAGEMENT, state=self.state_index,
                   nonce=nonce.hex()[:16])
        return nonce

    def _deny(self, node: str, reason: str) -> bool:
        self._emit("Verdict", actor=self.config.management, node=node,
                   verdict="Denied", reason=reason)
        return False

    def _device_keypair(self, node: str) -> ChipKeyPair:
        """The pair node's chip derives at the current state index."""
        pair = self._keypairs.get(node)
        if pair is None:
            pair = self._keypairs[node] = keypair_for_chip(
                self.chips[node], self.state_index, self.config.modulus_bits)
        return pair

    # -- schedule actions -------------------------------------------------

    def enroll(self, node: str) -> bool:
        """Entry request: blocklist gate, then the physical chip audit."""
        spec = self.config.nodes[node]
        if node in self.registry:
            raise ConfigInvalid(f"{node} is already a member")
        self._emit("EntryRequest", node=node, role=spec.role)
        if spec.blocked:
            return self._deny(node, "blocklist")
        nonce = self._challenge(node)
        chip = self.chips.get(node)
        if chip is None:
            claimed = self.registry.get(spec.claims)
            self._emit("Response", node=node,
                       key="none" if claimed is None else key_fingerprint(claimed))
            return self._deny(node, "no_chip" if claimed is None
                              else "audit_failed")
        pair = self._device_keypair(node)
        claimed_key = pair.public_key
        self._emit("Response", node=node, key=key_fingerprint(claimed_key))
        audit = crp_audit(chip, claimed_key, self.state_index, nonce, pair)
        if audit.verdict is AuditVerdict.GENUINE:
            self.registry[node] = claimed_key
            self.transcripts[node] = (nonce, audit.signature)
            self._emit("Verdict", actor=self.config.management, node=node,
                       verdict="Admitted")
            return True
        return self._deny(node, "audit_failed")

    def spoof(self, attacker: str, victim: str) -> bool:
        """Impersonation attempt against a registered address.

        Returns True when the attempt was (correctly) rejected.
        """
        victim_key = self.registry.get(victim)
        if victim_key is None:
            raise ConfigInvalid(f"{victim} holds no registered address")
        self._emit("EntryRequest", node=attacker, claims=victim)
        nonce = self._challenge(attacker)
        if self.config.nodes[attacker].strategy == "replay":
            transcript = self.transcripts.get(victim)
            if transcript is None:
                signature = bytes(victim_key.byte_size)
                method = "replay_blind"
            else:
                signature = transcript[1]
                method = "replay"
        elif attacker in self.chips:
            signature = sign(self._device_keypair(attacker).secret_key, nonce)
            method = "own_chip"
        else:
            signature = bytes(victim_key.byte_size)
            method = "noise"
        self._emit("Response", node=attacker, method=method)
        try:
            accepted = verify(victim_key, nonce, signature)
        except SignatureMalformed:
            accepted = False
        self._emit("Verdict", actor=self.config.management, node=attacker,
                   verdict="Accepted" if accepted else "Rejected",
                   target=victim)
        return not accepted

    def sweep(self) -> tuple[str, ...]:
        """Re-audit every member against its registered address.

        Each audit is handed the node's held pair and hands back the pair
        that signed, which the run keeps whatever the verdict: it is the
        pair of the chip the node holds now, at the current state.
        """
        failed = []
        for name in sorted(self.registry):
            nonce = self._challenge(name)
            audit = crp_audit(self.chips[name], self.registry[name],
                              self.state_index, nonce,
                              self._keypairs.get(name))
            self._keypairs[name] = audit.keypair
            retained = audit.verdict is AuditVerdict.GENUINE
            self._emit("Verdict", actor=self.config.management, node=name,
                       verdict="Retained" if retained else "AuditFailed")
            if retained:
                self.transcripts[name] = (nonce, audit.signature)
            else:
                failed.append(name)
        for name in failed:
            del self.registry[name]
            self._emit("Evict", actor=self.config.management, node=name)
        return tuple(failed)

    def rotate(self, state: int, offline: Iterable[str] = ()):
        """Security node advances the state; members re-bind their keys.

        Every held key pair belongs to the old state and is dropped.  The
        tree is reproduced at the new state from the chips the devices
        hold now, so a member seated in the tree re-binds to its tree key
        and only a member outside the tree derives.  Members listed
        offline miss the re-binding, so their registry entries go stale
        and the next sweep removes them.
        """
        try:
            state = _new_state(self.state_index, state)
        except NumberInvalid as exc:
            raise ConfigInvalid(str(exc)) from None  # run adds the line
        self.state_index = state
        self._keypairs.clear()
        self._emit("Rotate", actor=self.config.security, state=state)
        if self.tree is not None:
            self.tree = rotate_state_reproduce(
                self.tree, {name: self.chips[name] for name in self.tree.nodes},
                state)
            self._keypairs.update((name, node.keypair)
                                  for name, node in self.tree.nodes.items())
            for src, dst in self.tree.schedule:
                self._emit("Transfer", src=src, dst=dst, state=state)
        for name in sorted(self.registry):
            if name not in offline:
                self.registry[name] = self._device_keypair(name).public_key

    def build_tree(self):
        """Execute the configured topology among admitted members."""
        if self.tree is not None:
            raise ConfigInvalid("transfer tree already built; rotate reproduces it")
        participants = sorted({n for edge in self.config.topology
                               for n in edge})
        outsiders = [n for n in participants if n not in self.registry]
        if outsiders:
            raise ConfigInvalid("transfer participants not admitted: "
                                + ", ".join(outsiders))
        self.tree = seat_tree(
            self.config.topology,
            {name: self._device_keypair(name) for name in participants})
        for src, dst in self.tree.schedule:
            self._emit("Transfer", src=src, dst=dst, state=self.state_index)

    def mine(self, difficulty: int | None = None):
        """Seal the current root stamp into the next block."""
        if self.tree is None:
            raise ConfigInvalid("no transfer tree to stamp")
        bits = self.config.difficulty if difficulty is None else difficulty
        stamp = self.tree.root_stamp()
        prev = self.chain[-1].block_hash if self.chain else ZERO_HASH
        block = mine_block(stamp, prev, bits, nonce_start=0,
                           height=len(self.chain))
        self.chain.append(block)
        self._emit("Mine", height=block.height, difficulty=bits,
                   nonce=block.nonce, attempts=block.nonce + 1,
                   hash=block.block_hash.hex()[:16],
                   root=stamp.root_hash.hex()[:16])
        return block

    def tamper(self, node: str, seed: int):
        """Silently swap a device's physical chip (a scripted fault).

        No event fires; the network only notices at the next audit.  The
        node's held key pair belonged to the old chip and is dropped; the
        swapped chip is a new part with its own PRN.  The tree is left as
        it is, its seat keeping the old chip's keys and records; a rotate
        re-derives the seats from the chips the devices hold, so a rotate
        between tamper and sweep re-binds the swapped chip, and that sweep
        retains it.
        """
        spec = self.config.chips[self.config.nodes[node].chip]
        self.chips[node] = spec.manufacture(seed, f"{spec.name}-swapped")
        self._keypairs.pop(node, None)

    # ----------------------------------------------------------------------

    def run(self) -> EventLog:
        for item in self.config.schedule:
            self.clock = item.tick
            try:
                getattr(self, item.action)(**item.args)
            except ConfigInvalid as exc:
                raise ConfigInvalid(f"line {item.line_no}: {exc}") from None
        return EventLog(self.config, self.seed, tuple(self.events),
                        tuple(self.chain), tuple(sorted(self.registry)),
                        self.state_index,
                        self.tree.root_hash if self.tree else None)


def run_scenario(config: ScenarioConfig, seed: int = 0) -> EventLog:
    """Run one scenario to completion; see Simulation for the verbs."""
    return Simulation(config, seed).run()
