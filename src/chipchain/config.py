"""Scenario configs and ledger files: the text grammar of a network run.

Scenario config format (sections in any order):

    [params]
    difficulty = 8          # mining difficulty in leading zero bits
    modulus_bits = 512      # key size for every derived pair
    y = 2000                # default chip rows
    lambda = 10             # default mean failure-row count
    redundancy = 20         # default spare rows

    [chips]
    c0 seed=100             # one manufactured chip per line
    c1 seed=101 y=4096      # per-chip overrides allowed

    [nodes]
    mgmt role=management
    sec role=security
    n0 role=device chip=c0
    eve role=attacker chip=c1 strategy=own_chip claims=n0

    [topology]
    n1 -> n0                # transfer edges between device nodes

    [schedule]
    1 enroll n0             # tick, action, arguments
    5 spoof eve n0
    7 build_tree
    8 mine
    9 rotate 1
    10 sweep

Node options are refused where nothing reads them: only attackers take
claims= or strategy=, and management and security nodes, which never
enroll, take no blocked=.

Schedule actions: enroll NODE, spoof ATTACKER VICTIM, build_tree,
mine [DIFFICULTY], rotate NEW_STATE [offline=a,b], sweep, and
tamper NODE seed=N (silent physical chip swap, caught by the next
sweep).  One part is one chip: a [chips] line whose part has the
fingerprint (row count and failure rows) of an earlier line's, or a
tamper that gives a node the fingerprint another node holds at that
tick, is refused, since the two parts would share every key.  An
action given more words than its usage shows is refused with that
usage.  build_tree needs a [topology] and runs once, before
any mine.  A mine DIFFICULTY may not fall below [params] difficulty,
the difficulty the run verifies its whole chain at.

Ledger files, read by the `chipchain ledger` commands, are the
[params]/[chips]/[topology] part of this grammar: [params] holds only
the chip defaults (y, lambda, redundancy, min_failures) and edges run
between declared chips.  parse_topology reads them with the same steps
as parse_scenario.  The edges must funnel into one sink without a loop,
over their endpoints in a scenario and over every declared chip in a
ledger file; a [topology] that does not is a ConfigInvalid naming its
first line, so no run reaches build_tree with it.  Both formats and
the chip fixture share one line reader: `#` starts a comment anywhere
on a line; errors name `line N`.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ._lines import (
    _parse_number,
    _read_fields,
    _read_sections,
    _read_text,
    _split_options,
)
from .chip_model import ChipGeometry, FailureModel, SimulatedChip, new_chip
from .errors import (ConfigInvalid, CycleDetected, GeometryInvalid,
                     MultipleSinks, NumberInvalid)
from .identity import SUPPORTED_MODULUS_BITS, _state_index
from .ledger import _mining_difficulty, _topological_schedule

ROLE_MANAGEMENT = "management"
ROLE_SECURITY = "security"
ROLE_DEVICE = "device"
ROLE_ATTACKER = "attacker"
_ROLES = (ROLE_MANAGEMENT, ROLE_SECURITY, ROLE_DEVICE, ROLE_ATTACKER)

_STRATEGIES = ("own_chip", "replay")

# Simulation.run calls the method of each name, the parsed args as keywords
_ACTIONS = ("enroll", "spoof", "build_tree", "mine", "rotate", "sweep",
            "tamper")


@dataclass(frozen=True)
class ChipSpec:
    """Manufacturing order for one chip, checked as new_chip makes it."""

    name: str
    seed: int
    geometry: ChipGeometry
    failure_model: FailureModel

    def manufacture(self, seed: int | None = None,
                    chip_id: str | None = None) -> SimulatedChip:
        """The ordered part; another seed makes another part of this design."""
        return new_chip(self.geometry, self.failure_model,
                        seed=self.seed if seed is None else seed,
                        chip_id=chip_id or self.name)

    def fingerprint(self,
                    seed: int | None = None) -> tuple[int, tuple[int, ...]]:
        """(rows, failure rows) of manufacture(seed): what its PRN packs,
        so two parts with one fingerprint are one chip and share keys."""
        return self.geometry.rows, self.manufacture(seed).failure_rows


@dataclass(frozen=True)
class NodeSpec:
    name: str
    role: str
    chip: str | None = None
    claims: str | None = None
    strategy: str = "own_chip"
    blocked: bool = False


@dataclass(frozen=True)
class ScheduleItem:
    tick: int
    action: str
    args: Mapping[str, object]
    line_no: int


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    difficulty: int
    modulus_bits: int
    chips: Mapping[str, ChipSpec]
    nodes: Mapping[str, NodeSpec]
    topology: tuple[tuple[str, str], ...]
    schedule: tuple[ScheduleItem, ...]
    management: str
    security: str


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.lower()
    if lowered in ("yes", "true", "1"):
        return True
    if lowered in ("no", "false", "0"):
        return False
    raise ConfigInvalid(f"{where}: expected yes/no, got {raw!r}")


_Lines = list[tuple[int, str]]
_Edges = tuple[tuple[str, str], ...]

# chip options other than seed; [params] sets their defaults by the same keys
_CHIP_DEFAULTS = {"y": 2000, "lambda": 10.0, "redundancy": 20,
                  "min_failures": 1}
_SCENARIO_DEFAULTS = {"difficulty": 8, "modulus_bits": 512, **_CHIP_DEFAULTS}


def _owned(where: str, check, *args):
    """check(*args), whose refusal of a value it owns reads after `where`."""
    try:
        return check(*args)
    except (GeometryInvalid, NumberInvalid) as exc:
        raise ConfigInvalid(f"{where}: {exc}") from None


def _parse_params(lines: _Lines, defaults: Mapping[str, object]) -> dict:
    """`key = value` lines over defaults; each value takes its default's type."""
    params = dict(defaults)
    for key, (line_no, value) in _read_fields(lines, defaults).items():
        where = f"line {line_no}"
        number = _parse_number(value, f"{where}: params.{key}",
                               type(defaults[key]))
        if key == "difficulty":
            number = _owned(where, _mining_difficulty, number)
        elif key == "modulus_bits" and number not in SUPPORTED_MODULUS_BITS:
            raise ConfigInvalid(f"{where}: params.modulus_bits must be 512, "
                                f"1024, or 2048, got {number}")
        params[key] = number
    return params


def _parse_chips(lines: _Lines, params: Mapping[str, object]
                 ) -> tuple[dict[str, ChipSpec], dict[str, tuple]]:
    """`name seed=N [y= lambda= redundancy= min_failures=]` lines, and each
    one's fingerprint by name; a line whose part has the fingerprint of
    an earlier line's is a clone."""
    chips: dict[str, ChipSpec] = {}
    ordered: dict[tuple, str] = {}  # fingerprint -> the chip ordering it
    for line_no, line in lines:
        where = f"line {line_no}"
        chip_name, *parts = line.split()
        if chip_name in chips:
            raise ConfigInvalid(f"{where}: duplicate chip {chip_name!r}")
        options = _split_options(parts, where, ("seed", *_CHIP_DEFAULTS))
        if "seed" not in options:
            raise ConfigInvalid(f"{where}: chip {chip_name!r} needs seed=")
        values = {key: params[key] for key in _CHIP_DEFAULTS}
        for key, raw in options.items():
            values[key] = _parse_number(raw, where, type(values.get(key, 0)))
        try:
            geometry = ChipGeometry(values["y"],
                                    redundancy_rows=values["redundancy"])
            model = FailureModel(values["lambda"], values["min_failures"])
            spec = ChipSpec(chip_name, values["seed"], geometry, model)
            fingerprint = spec.fingerprint()  # new_chip checks seed and model
        except GeometryInvalid as exc:
            raise ConfigInvalid(f"{where}: chip {chip_name!r}: {exc}") from None
        earlier = ordered.setdefault(fingerprint, chip_name)
        if earlier != chip_name:
            raise ConfigInvalid(f"{where}: chip {chip_name!r} clones "
                                f"{earlier!r}: the same failure rows of "
                                f"the same row count")
        chips[chip_name] = spec
    return chips, {name: fingerprint for fingerprint, name in ordered.items()}


def _parse_edges(lines: _Lines, check_endpoint,
                 nodes: Iterable[str] = ()) -> _Edges:
    """`a -> b` lines; check_endpoint(name, where) vets each endpoint.

    The edges over their endpoints and nodes must funnel into one sink
    without a loop; a topology that does not names its first line.
    """
    edges: list[tuple[str, str]] = []
    for line_no, line in lines:
        where = f"line {line_no}"
        src, arrow, dst = line.partition("->")
        if not arrow:
            raise ConfigInvalid(f"{where}: topology lines look like 'a -> b'")
        src, dst = src.strip(), dst.strip()
        for endpoint in (src, dst):
            check_endpoint(endpoint, where)
        if src == dst:
            raise ConfigInvalid(f"{where}: self transfer {src!r}")
        if (src, dst) in edges:
            raise ConfigInvalid(f"{where}: duplicate edge {src} -> {dst}")
        edges.append((src, dst))
    if edges:
        try:
            _topological_schedule({*nodes, *(n for e in edges for n in e)},
                                  edges)
        except (CycleDetected, MultipleSinks) as exc:
            raise ConfigInvalid(f"line {lines[0][0]}: {exc}") from None
    return tuple(edges)


def parse_topology(text: str) -> tuple[dict[str, ChipSpec], _Edges]:
    """Parse a ledger file into (chip specs, edges); errors carry line numbers."""
    sections = _read_sections(text, ("params", "chips", "topology"))
    chips, _ = _parse_chips(sections["chips"],
                            _parse_params(sections["params"], _CHIP_DEFAULTS))

    def declared(endpoint: str, where: str):
        if endpoint not in chips:
            raise ConfigInvalid(f"{where}: unknown chip {endpoint!r}")

    edges = _parse_edges(sections["topology"], declared, chips)
    if not edges and len(chips) > 1:
        # no [topology] line to name: the second chip is the second sink
        raise ConfigInvalid(
            f"line {sections['chips'][1][0]}: transfer topology must funnel "
            f"into one chip, found sinks: {', '.join(chips)}; "
            f"[topology] is empty")
    return chips, edges


def load_topology(path) -> tuple[dict[str, ChipSpec], _Edges]:
    return parse_topology(_read_text(path))


def parse_scenario(text: str, name: str = "<config>") -> ScenarioConfig:
    """Parse and validate a scenario config; errors carry line numbers."""
    sections = _read_sections(
        text, ("params", "chips", "nodes", "topology", "schedule"))
    params = _parse_params(sections["params"], _SCENARIO_DEFAULTS)
    chips, fingerprints = _parse_chips(sections["chips"], params)

    nodes: dict[str, NodeSpec] = {}
    chip_owner: dict[str, str] = {}
    for line_no, line in sections["nodes"]:
        parts = line.split()
        where = f"line {line_no}"
        node_name = parts[0]
        if node_name in nodes:
            raise ConfigInvalid(f"{where}: duplicate node {node_name!r}")
        options = _split_options(parts[1:], where, ("role", "chip", "claims",
                                                    "strategy", "blocked"))
        role = options.get("role")
        if role not in _ROLES:
            raise ConfigInvalid(f"{where}: node {node_name!r} needs "
                                f"role= one of {', '.join(_ROLES)}")
        chip_ref = options.get("chip")
        if chip_ref is not None:
            if chip_ref not in chips:
                raise ConfigInvalid(f"{where}: unknown chip {chip_ref!r}")
            if chip_ref in chip_owner:
                raise ConfigInvalid(
                    f"{where}: chip {chip_ref!r} already held by "
                    f"{chip_owner[chip_ref]!r}")
            chip_owner[chip_ref] = node_name
        if role == ROLE_DEVICE and chip_ref is None:
            raise ConfigInvalid(f"{where}: device {node_name!r} needs chip=")
        if role in (ROLE_MANAGEMENT, ROLE_SECURITY) and chip_ref is not None:
            raise ConfigInvalid(f"{where}: {role} node holds no device chip")
        if role in (ROLE_MANAGEMENT, ROLE_SECURITY) and "blocked" in options:
            raise ConfigInvalid(f"{where}: {role} node never enrolls, so it "
                                "takes no blocked=")
        if "strategy" in options and role != ROLE_ATTACKER:
            raise ConfigInvalid(f"{where}: only attackers take a strategy")
        strategy = options.get("strategy", "own_chip")
        if strategy not in _STRATEGIES:
            raise ConfigInvalid(f"{where}: strategy must be one of "
                                f"{', '.join(_STRATEGIES)}")
        claims = options.get("claims")
        if claims is not None and role != ROLE_ATTACKER:
            raise ConfigInvalid(f"{where}: only attackers claim other nodes")
        nodes[node_name] = NodeSpec(
            name=node_name, role=role, chip=chip_ref, claims=claims,
            strategy=strategy,
            blocked=_parse_bool(options.get("blocked", "no"), where),
        )

    only: dict[str, str] = {}
    for role in (ROLE_MANAGEMENT, ROLE_SECURITY):
        holders = [n.name for n in nodes.values() if n.role == role]
        if len(holders) != 1:
            raise ConfigInvalid(f"config needs exactly one {role} node, "
                                f"found {len(holders)}")
        only[role] = holders[0]
    for spec in nodes.values():
        if spec.claims is not None and spec.claims not in nodes:
            raise ConfigInvalid(f"node {spec.name!r} claims unknown node "
                                f"{spec.claims!r}")

    def device(endpoint: str, where: str):
        if endpoint not in nodes:
            raise ConfigInvalid(f"{where}: unknown node {endpoint!r}")
        if nodes[endpoint].role != ROLE_DEVICE:
            raise ConfigInvalid(f"{where}: transfer endpoints must be "
                                f"devices, {endpoint!r} is "
                                f"{nodes[endpoint].role}")

    topology = _parse_edges(sections["topology"], device)

    schedule: list[ScheduleItem] = []
    # node -> the fingerprint it holds; a tamper may not clone another's
    held = {spec.name: fingerprints[spec.chip]
            for spec in nodes.values() if spec.chip}
    last_tick = 0
    state = 0
    tree_built = False
    for line_no, line in sections["schedule"]:
        where = f"line {line_no}"
        parts = line.split()
        if len(parts) < 2:
            raise ConfigInvalid(f"{where}: schedule lines are 'TICK ACTION ...'")
        tick = _parse_number(parts[0], where)
        if tick < 1:
            raise ConfigInvalid(f"{where}: ticks start at 1")
        if tick < last_tick:
            raise ConfigInvalid(f"{where}: ticks must be non-decreasing")
        last_tick = tick
        action, rest = parts[1], parts[2:]
        if action not in _ACTIONS:
            raise ConfigInvalid(f"{where}: unknown action {action!r}")
        args = _parse_action_args(action, rest, nodes, params["difficulty"],
                                  where)
        if action == "rotate":
            if args["state"] == state:
                raise ConfigInvalid(f"{where}: rotate to state {state} "
                                    f"does not change the state index")
            state = args["state"]
        elif action == "build_tree":
            if tree_built:
                raise ConfigInvalid(f"{where}: transfer tree already built; "
                                    "rotate reproduces it")
            if not topology:
                raise ConfigInvalid(f"{where}: build_tree needs a [topology]")
            tree_built = True
        elif action == "mine" and not tree_built:
            raise ConfigInvalid(f"{where}: no transfer tree to stamp; "
                                "mine needs an earlier build_tree")
        elif action == "tamper":
            node = args["node"]
            fingerprint = _owned(where, chips[nodes[node].chip].fingerprint,
                                 args["seed"])
            holder = next((other for other, theirs in held.items()
                           if theirs == fingerprint and other != node), None)
            if holder is not None:
                raise ConfigInvalid(f"{where}: tamper gives {node!r} a clone "
                                    f"of the chip {holder!r} holds")
            held[node] = fingerprint
        schedule.append(ScheduleItem(tick, action, args, line_no))

    return ScenarioConfig(
        name=name, difficulty=params["difficulty"],
        modulus_bits=params["modulus_bits"],
        chips=chips, nodes=nodes, topology=topology,
        schedule=tuple(schedule),
        management=only[ROLE_MANAGEMENT], security=only[ROLE_SECURITY],
    )


def _parse_action_args(action: str, rest: Sequence[str],
                       nodes: Mapping[str, NodeSpec], min_difficulty: int,
                       where: str):
    def need(count: int, usage: str, most: float = float("inf")):
        if not count <= len(rest) <= most:
            raise ConfigInvalid(f"{where}: usage: {usage}")

    def node_of_role(name: str, *roles: str) -> str:
        if name not in nodes:
            raise ConfigInvalid(f"{where}: unknown node {name!r}")
        if nodes[name].role not in roles:
            raise ConfigInvalid(f"{where}: {name!r} must be "
                                f"{' or '.join(roles)}, is {nodes[name].role}")
        return name

    if action == "enroll":
        need(1, "TICK enroll NODE", 1)
        return {"node": node_of_role(rest[0], ROLE_DEVICE, ROLE_ATTACKER)}
    if action == "spoof":
        need(2, "TICK spoof ATTACKER VICTIM", 2)
        return {"attacker": node_of_role(rest[0], ROLE_ATTACKER),
                "victim": node_of_role(rest[1], ROLE_DEVICE)}
    if action == "mine":
        need(0, "TICK mine [DIFFICULTY]", 1)
        if rest:
            difficulty = _owned(where, _mining_difficulty,
                                _parse_number(rest[0], where))
            if difficulty < min_difficulty:
                raise ConfigInvalid(
                    f"{where}: mine difficulty {difficulty} is below "
                    f"[params] difficulty {min_difficulty}, at which the run "
                    f"verifies its whole chain")
            return {"difficulty": difficulty}
        return {}
    if action == "rotate":
        need(1, "TICK rotate NEW_STATE [offline=a,b]")
        args: dict[str, object] = {
            "state": _owned(where, _state_index, _parse_number(rest[0], where))}
        if len(rest) > 1:
            options = _split_options(rest[1:], where, ("offline",))
            offline = tuple(
                node_of_role(n.strip(), ROLE_DEVICE, ROLE_ATTACKER)
                for n in options["offline"].split(",") if n.strip())
            args["offline"] = offline
        return args
    if action == "tamper":
        need(2, "TICK tamper NODE seed=N")
        options = _split_options(rest[1:], where, ("seed",))
        # parse_scenario's clone check makes the part, which checks the seed
        return {"node": node_of_role(rest[0], ROLE_DEVICE),
                "seed": _parse_number(options["seed"], where)}
    # build_tree and sweep take no arguments
    if rest:
        raise ConfigInvalid(f"{where}: {action} takes no arguments")
    return {}


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(_read_text(path), name=str(path))


_BUNDLED = importlib.resources.files("chipchain") / "scenarios"


def bundled_scenario(name: str) -> ScenarioConfig:
    """Load a scenario shipped inside the package."""
    resource = _BUNDLED / f"{name}.cfg"
    if not resource.is_file():
        raise ConfigInvalid(f"no bundled scenario {name!r}; "
                            f"available: {', '.join(list_bundled_scenarios())}")
    return parse_scenario(resource.read_text(encoding="utf-8"), name=name)


def list_bundled_scenarios() -> list[str]:
    return sorted(p.name[:-4] for p in _BUNDLED.iterdir()
                  if p.name.endswith(".cfg"))
