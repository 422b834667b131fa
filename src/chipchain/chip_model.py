"""Simulated memory chip with a spare-row redundancy array.

Mass-produced memory parts ship with a few failed rows in the regular
cell array.  A row decoder hides them: each failure row is permanently
swapped to a spare row in a small redundancy array, and the swap map is
burned into the part at test time.  Those failure-row addresses are
random per part and fixed for its lifetime, which makes them usable as
a per-chip fingerprint.

The fingerprint is read out with two writes and one read on a column:

1. normal-mode write of 0: lands on regular cells, except that failure
   rows are rerouted to their spare rows;
2. special-mode write of 1: addresses the redundancy array directly,
   setting every spare cell;
3. normal-mode read: non-failure rows return the regular cell (0),
   failure rows return their spare cell (1).

The positions that read 1 are exactly the failure rows.  Running the
writes in the other order leaves the spares rewritten to 0 and the
readout is all zero, so the order is part of the protocol.  The row
set, packed in a canonical byte form, is the chip's physical random
number (PRN).
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from ._lines import _numbered_lines, _parse_number, _read_fields, _read_text
from .errors import (
    CapacityExceeded,
    ColumnOutOfRange,
    ConfigInvalid,
    FixtureInvalid,
    GeometryInvalid,
    PreprocessMissing,
    UnknownGeneration,
    _integer,
    _shown,
)

# Largest mean numpy's Poisson sampler accepts (its POISSON_LAM_MAX).
MAX_MEAN_FAILURES = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
# PRN canonical bytes encode the row count in one 4-byte word.
MAX_ROWS = (1 << 32) - 1
# Spare rows cap the failure-row count.  numpy's choice(y, count,
# replace=False) permutes all y rows once count > y // 50; with count
# <= 2^16 that needs y < 50 * 2^16, a permutation of at most ~26 MB.
MAX_REDUNDANCY_ROWS = 1 << 16

ACCESS_NORMAL = "normal"
ACCESS_SPECIAL = "special"

# RFC 2104 pads for HMAC-SHA256: key bytes XOR 0x36 and XOR 0x5c, by
# table, as CPython's hmac module builds them.
_HMAC_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))

# The pad states are copied four times per response, and CPython's
# builtin SHA-256 copies and finishes a state with a memcpy where
# OpenSSL's copies an EVP context.  hashlib falls back to the same
# builtin module, so when neither imports hashlib.sha256 is OpenSSL's.
try:
    from _sha2 import sha256 as _PAD_SHA256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _PAD_SHA256  # CPython 3.10, 3.11
    except ImportError:
        _PAD_SHA256 = hashlib.sha256
HMAC_BACKEND = "openssl" if _PAD_SHA256 is hashlib.sha256 else "builtin"

_MBIT = 1 << 20
_GBIT = 1 << 30

# Capacity ladder with row counts anchored at 2000 rows for a 4 Mb part
# and 100000 rows for a 16 Gb part; intermediate generations are placed
# geometrically between the anchors.
_GENERATION_CAPACITY: tuple[tuple[str, int], ...] = (
    ("4 Mb", 4 * _MBIT),
    ("16 Mb", 16 * _MBIT),
    ("64 Mb", 64 * _MBIT),
    ("128 Mb", 128 * _MBIT),
    ("256 Mb", 256 * _MBIT),
    ("512 Mb", 512 * _MBIT),
    ("1 Gb", 1 * _GBIT),
    ("2 Gb", 2 * _GBIT),
    ("4 Gb", 4 * _GBIT),
    ("8 Gb", 8 * _GBIT),
    ("16 Gb", 16 * _GBIT),
)

_ROWS_SMALLEST = 2_000
_ROWS_LARGEST = 100_000


def _interpolated_rows(capacity_bits: int) -> int:
    low = 4 * _MBIT
    high = 16 * _GBIT
    exponent = math.log(_ROWS_LARGEST / _ROWS_SMALLEST) / math.log(high / low)
    return round(_ROWS_SMALLEST * (capacity_bits / low) ** exponent)


GENERATION_ROWS: Mapping[str, int] = MappingProxyType(
    {name: _interpolated_rows(cap) for name, cap in _GENERATION_CAPACITY}
)
GENERATION_CAPACITY: Mapping[str, int] = MappingProxyType(dict(_GENERATION_CAPACITY))
GENERATIONS: tuple[str, ...] = tuple(name for name, _ in _GENERATION_CAPACITY)


def _chip_number(what: str, value) -> int:
    """`what`'s chip number, an integer in its range (rows, total_rows in
    [1, MAX_ROWS]; cols >= 1; redundancy_rows in [0, MAX_REDUNDANCY_ROWS];
    min_failures, seed >= 0); every reader of one calls this check."""
    number = _integer(value, what, GeometryInvalid)
    low = 1 if what in ("rows", "total_rows", "cols") else 0
    high = MAX_ROWS if what in ("rows", "total_rows") else (
        MAX_REDUNDANCY_ROWS if what == "redundancy_rows" else None)
    if number < low:
        raise GeometryInvalid(f"{what} must be {'positive' if low else '>= 0'}"
                              f", got {_shown(number)}")
    if high is not None and number > high:
        raise GeometryInvalid(f"{what} must be at most {high}, "
                              f"got {_shown(number)}")
    return number


def _row_set(values, bound: int, what: str, array: str) -> tuple[int, ...]:
    """values as distinct integers in [0, bound), sorted.  A refusal names
    the value; `what` names one value, `array` the array `bound` sizes."""
    values = tuple(values)  # walked again when one is refused
    try:
        rows = sorted(map(operator.index, values))
    except TypeError:
        for value in values:  # name the value that is not an integer
            _integer(value, what, GeometryInvalid)
        raise
    if len(set(rows)) != len(rows):
        twice = next(a for a, b in zip(rows, rows[1:]) if a == b)
        raise GeometryInvalid(f"{what}s must be distinct, got {_shown(twice)} twice")
    if rows and (rows[0] < 0 or rows[-1] >= bound):
        row = rows[0] if rows[0] < 0 else rows[-1]
        raise GeometryInvalid(f"{what} outside the {array} array: "
                              f"{_shown(row)} not in [0, {bound})")
    return tuple(rows)


@dataclass(frozen=True)
class ChipGeometry:
    """Static layout of one simulated part.

    rows is the regular-array row count of a column block, cols the
    number of independent columns, and redundancy_rows the size of the
    spare array that absorbs failure rows.
    """

    rows: int
    cols: int = 8
    redundancy_rows: int = 20

    def __post_init__(self):
        for field in ("rows", "cols", "redundancy_rows"):
            object.__setattr__(self, field, _chip_number(field, getattr(self, field)))
        if self.redundancy_rows > self.rows:
            raise GeometryInvalid(
                f"redundancy_rows={self.redundancy_rows} exceeds rows={self.rows}")


def generation_geometry(name: str) -> ChipGeometry:
    """Geometry preset for a named capacity generation."""
    if name not in GENERATION_ROWS:
        raise UnknownGeneration(f"unknown generation {name!r}; "
                                f"known: {', '.join(GENERATIONS)}")
    return ChipGeometry(rows=GENERATION_ROWS[name])


@dataclass(frozen=True)
class FailureModel:
    """Manufacturing defect model.

    The failure-row count of a part is Poisson(mean_failures) clipped
    to [min_failures, redundancy_rows].  Every spare row is usable.
    """

    mean_failures: float = 10.0
    min_failures: int = 1

    def __post_init__(self):
        mean = self.mean_failures
        if not isinstance(mean, (int, float, np.integer, np.floating)):
            raise GeometryInvalid(f"mean_failures must be an int or a float, got {mean!r}")
        # compared, as math.isfinite overflows on a huge int
        if not -math.inf < mean < math.inf:
            raise GeometryInvalid(f"mean_failures must be finite, got {mean}")
        if mean <= 0:
            raise GeometryInvalid("mean_failures must be positive")
        if mean > MAX_MEAN_FAILURES:
            raise GeometryInvalid(f"mean_failures must be at most "
                                  f"{MAX_MEAN_FAILURES:.6g}, got {_shown(mean)}")
        object.__setattr__(self, "min_failures",
                           _chip_number("min_failures", self.min_failures))


@dataclass(frozen=True)
class Prn:
    """A chip's physical random number: its failure-row set.

    rows is stored sorted, so two Prns with the same row set compare and
    hash equal; rows must be distinct and in [0, total_rows), and
    total_rows must fit the 4-byte word of the canonical bytes.  The
    chip it was read from keeps it (see extract_prn), so its canonical
    bytes and pad states are computed once per chip column.
    """

    chip_id: str
    column: int
    rows: tuple[int, ...]
    total_rows: int

    def __post_init__(self):
        total = _chip_number("total_rows", self.total_rows)
        object.__setattr__(self, "column", _integer(self.column, "column", GeometryInvalid))
        object.__setattr__(self, "rows", _row_set(self.rows, total, "PRN row", "regular"))
        object.__setattr__(self, "total_rows", total)

    @cached_property
    def canonical_bytes(self) -> bytes:
        """Canonical packed form: total row count, row count, then the
        failure rows in ascending order (__post_init__ sorted and checked
        them), each as a 4-byte big-endian word."""
        rows = self.rows
        return struct.pack(f">II{len(rows)}I", self.total_rows, len(rows),
                           *rows)

    @cached_property
    def hmac_states(self):
        """(inner, outer) SHA-256 states keyed by canonical_bytes.

        They have absorbed key XOR ipad and key XOR opad, the per-key
        precomputation of RFC 2104 section 4; a key longer than the
        64-byte block is hashed first.  Callers copy them, never update
        them.  Both states come from CPython's builtin SHA-256 where it
        imports (HMAC_BACKEND "builtin"), whose copy and digest are a
        memcpy; the one-shot key hash stays on hashlib's OpenSSL, which
        is faster for a single digest.
        """
        key = self.canonical_bytes
        if len(key) > _HMAC_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_HMAC_BLOCK, b"\0")
        return (_PAD_SHA256(key.translate(_IPAD)),
                _PAD_SHA256(key.translate(_OPAD)))

    def __reduce__(self):
        # the cached hash states cannot be pickled; the fields rebuild them
        return type(self), (self.chip_id, self.column, self.rows,
                            self.total_rows)


class SimulatedChip:
    """One manufactured part: geometry, hidden failure map, cell state.

    A column is (regular fill, spare fill, failure-row fill), each None
    until a write in a mode that sets it: normal mode sets the regular
    fill, special mode the spare fill, and both the spares the failure
    rows are swapped to.  Regular cells at failure rows are never read,
    so a chip costs O(failure rows), not O(rows).  The failure rows and the
    swap map are fixed at construction, the way a real part fixes them
    at production test, so each column has one PRN: the chip keeps the
    Prn its first extraction built (`_prns`, by column) and hands the
    same object to every later one.  A tampered, replaced or loaded
    part is a new SimulatedChip with its own.
    """

    def __init__(self, chip_id: str, geometry: ChipGeometry,
                 failure_rows: Iterable[int],
                 swap_map: Mapping[int, int] | None = None,
                 seed: int | None = None):
        rows = _row_set(failure_rows, geometry.rows, "failure row", "regular")
        if len(rows) > geometry.redundancy_rows:
            raise CapacityExceeded(f"{len(rows)} failure rows exceed "
                                   f"{geometry.redundancy_rows} spare rows")
        if swap_map is None:
            swap_map = {r: i for i, r in enumerate(rows)}
        else:
            swap_map = {_integer(row, "swap map key", GeometryInvalid):
                        _integer(spare, "swap map target", GeometryInvalid)
                        for row, spare in swap_map.items()}
            if set(swap_map) != set(rows):
                keys = ", ".join(map(_shown, sorted(swap_map)))
                raise GeometryInvalid(f"swap map keys must equal the failure rows "
                                      f"{list(rows)}, got [{keys}]")
            _row_set(swap_map.values(), geometry.redundancy_rows, "swap map target",
                     "redundancy")

        self.chip_id = chip_id
        self.geometry = geometry
        self.seed = None if seed is None else _chip_number("seed", seed)
        self._failure_rows = rows
        self._swap_map = swap_map
        self._columns: dict[int, tuple[int | None, int | None, int]] = {}
        self._prns: dict[int, Prn] = {}

    @property
    def failure_rows(self) -> tuple[int, ...]:
        return self._failure_rows

    @property
    def swap_map(self) -> Mapping[int, int]:
        return MappingProxyType(self._swap_map)

    def _check_column(self, column: int):
        if not 0 <= _integer(column, "column", GeometryInvalid) < self.geometry.cols:
            raise ColumnOutOfRange(
                f"column {_shown(column)} outside 0..{self.geometry.cols - 1}")

    def __repr__(self):
        return (f"SimulatedChip(chip_id={self.chip_id!r}, "
                f"rows={self.geometry.rows}, "
                f"failures={len(self._failure_rows)})")


def new_chip(geometry: ChipGeometry, failure_model: FailureModel | None = None,
             seed: int = 0, chip_id: str | None = None) -> SimulatedChip:
    """Manufacture one part deterministically from a seed.

    Draws the failure-row count from the clipped Poisson of the model,
    places the rows uniformly without replacement, then swaps them in
    order to the first spare rows.  The same (geometry, model, seed)
    triple always yields the identical part.
    """
    seed = _chip_number("seed", seed)
    model = failure_model or FailureModel()
    if model.min_failures > geometry.redundancy_rows:
        raise GeometryInvalid(f"min_failures={_shown(model.min_failures)} exceeds "
                              f"redundancy_rows={geometry.redundancy_rows}")
    rng = np.random.default_rng(seed)

    count = rng.poisson(model.mean_failures)
    count = max(model.min_failures, min(count, geometry.redundancy_rows))
    rows = rng.choice(geometry.rows, size=count, replace=False)
    return SimulatedChip(chip_id or f"chip-{seed}", geometry,
                         rows.tolist(), seed=seed)


def write_column(chip: SimulatedChip, mode: str, column: int,
                 value: int) -> SimulatedChip:
    """Write one bit value to a whole column in the given access mode.

    Normal mode addresses the regular array with the decoder active:
    failure rows are rerouted to their spare rows, so the dead regular
    cells stay untouched.  Special mode addresses the redundancy array
    directly and sets every spare cell of the column.
    """
    if mode not in (ACCESS_NORMAL, ACCESS_SPECIAL):
        raise GeometryInvalid(
            f"mode must be {ACCESS_NORMAL!r} or {ACCESS_SPECIAL!r}, got {mode!r}")
    value = _integer(value, "cell value", GeometryInvalid)
    if value not in (0, 1):
        raise GeometryInvalid(f"cell value must be 0 or 1, got {_shown(value)}")
    chip._check_column(column)
    regular_fill, spare_fill, _ = chip._columns.get(column, (None, None, None))
    if mode == ACCESS_NORMAL:
        chip._columns[column] = (value, spare_fill, value)
    else:
        chip._columns[column] = (regular_fill, value, value)
    return chip


def read_column_normal(chip: SimulatedChip, column: int) -> np.ndarray:
    """Read a column through the normal (decoder-active) path.

    Requires both preprocessing writes on the column first; the write
    order decides what comes back, it is not checked here.
    """
    chip._check_column(column)
    regular_fill, spare_fill, failure_fill = chip._columns.get(
        column, (None, None, None))
    if regular_fill is None or spare_fill is None:
        raise PreprocessMissing(
            f"column {column} needs a normal-mode and a special-mode write "
            "before it can be read")
    out = np.full(chip.geometry.rows, regular_fill, dtype=np.uint8)
    out[list(chip._failure_rows)] = failure_fill
    return out


def extract_prn(chip: SimulatedChip, column: int = 0) -> Prn:
    """Run the two-write preprocess on a column and read the PRN out.

    Overwrites the column's contents.  The readout is a function of the
    chip's fixed failure rows, so the first extraction of a column
    builds its Prn and the chip keeps it: every later extraction makes
    the same two writes and returns that same object, its pad states
    already computed.
    """
    write_column(chip, ACCESS_NORMAL, column, 0)
    write_column(chip, ACCESS_SPECIAL, column, 1)
    prn = chip._prns.get(column)
    if prn is None:
        # The normal write left the regular cells 0 and the special write
        # set to 1 the spares that the failure rows are swapped to, so a
        # read gives 1 on the failure rows alone.
        prn = chip._prns[column] = Prn(chip.chip_id, column,
                                       chip._failure_rows, chip.geometry.rows)
    return prn


# a chip id names its fixture file: one path component, no comment mark
_CHIP_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _check_chip_id(chip_id: str) -> str:
    if not _CHIP_ID.fullmatch(chip_id):
        raise FixtureInvalid(f"chip_id must match {_CHIP_ID.pattern}, got {chip_id!r}")
    return chip_id


def format_chip_fixture(chip: SimulatedChip) -> str:
    """Plain-text record of a part's identity-relevant state."""
    targets = ", ".join(str(chip._swap_map[r]) for r in chip.failure_rows)
    lines = [
        f"chip_id = {_check_chip_id(chip.chip_id)}",
        f"rows = {chip.geometry.rows}",
        f"cols = {chip.geometry.cols}",
        f"redundancy_rows = {chip.geometry.redundancy_rows}",
        f"seed = {'' if chip.seed is None else chip.seed}",
        f"failure_rows = {', '.join(str(r) for r in chip.failure_rows)}",
        f"swap_targets = {targets}",
    ]
    return "\n".join(lines) + "\n"


_FIXTURE_FIELDS = ("chip_id", "rows", "cols", "redundancy_rows", "seed",
                   "failure_rows", "swap_targets")
_FIXTURE_REQUIRED = ("chip_id", "rows", "redundancy_rows", "failure_rows")


def parse_chip_fixture(text: str) -> SimulatedChip:
    """Rebuild a part from its fixture record.

    The recorded failure rows are authoritative; nothing is re-sampled.
    The lines are read as a config's are, each number is checked on its
    own line by its owner, and a malformed record raises FixtureInvalid
    naming a line.
    """
    try:
        fields = _read_fields(_numbered_lines(text), _FIXTURE_FIELDS)
    except ConfigInvalid as exc:
        raise FixtureInvalid(f"fixture {exc}") from None
    for key in _FIXTURE_REQUIRED:
        if key not in fields:
            raise FixtureInvalid(f"fixture missing field {key!r}")

    def on_line(key: str, make, *args, **kwargs):
        """make(*args, **kwargs), whose refusal reads after key's line."""
        try:
            return make(*args, **kwargs)
        except (ConfigInvalid, GeometryInvalid, CapacityExceeded, FixtureInvalid) as exc:
            raise FixtureInvalid(f"fixture line {fields[key][0]}: {exc}") from None

    def integer(key: str) -> int:
        return on_line(key, _chip_number, key,
                       on_line(key, _parse_number, fields[key][1], key))

    def integers(key: str) -> list[int]:
        raw = fields[key][1] if key in fields else ""
        return [on_line(key, _parse_number, part, key)
                for part in map(str.strip, raw.split(",")) if part]

    chip_id = on_line("chip_id", _check_chip_id, fields["chip_id"][1])
    sizes = {key: integer(key) for key in ("rows", "cols", "redundancy_rows")
             if key in fields}
    # each size is checked; ChipGeometry adds only redundancy_rows <= rows
    geometry = on_line("redundancy_rows", ChipGeometry, **sizes)
    seed = integer("seed") if fields.get("seed", (0, ""))[1] else None
    # the targets follow the failure rows in ascending order, as written
    rows, targets = sorted(integers("failure_rows")), integers("swap_targets")
    chip = on_line("failure_rows", SimulatedChip, chip_id, geometry, rows, seed=seed)
    if not targets:
        return chip
    if len(targets) != len(rows):
        raise FixtureInvalid(f"fixture line {fields['swap_targets'][0]}: "
                             "swap_targets: length must match failure_rows")
    return on_line("swap_targets", SimulatedChip, chip_id, geometry, rows,
                   dict(zip(rows, targets)), seed=seed)


def load_chip_fixture(path) -> SimulatedChip:
    try:
        text = _read_text(path)
    except ConfigInvalid as exc:
        raise FixtureInvalid(f"fixture {exc}") from None
    return parse_chip_fixture(text)
