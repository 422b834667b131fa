"""Exact combinatorics for chip-fingerprint randomness.

A part with block_side * rows addressable rows and failure_count
failure rows can express "rows-total choose failures" distinct
fingerprints.  Everything here stays in exact big-integer or rational
arithmetic; entropy is the natural log of the exact count, reported in
nats (and bits for convenience).  Collision probabilities for a device
population are exact fractions, formatted without a float round trip.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .chip_model import (GENERATION_CAPACITY, GENERATION_ROWS, GENERATIONS,
                         generation_geometry)
from .errors import CountTooLarge, KExceedsN, _number_from, _shown

# the least value of each count this module takes
_LEAST = {"rows": 1, "block side": 1, "failure count": 0, "population": 1,
          "n": 0, "k": 0}


def _count(what: str, value) -> int:
    """The count named `what`, an integer of at least its _LEAST; every
    parser of one calls this check."""
    return _number_from(value, what, _LEAST[what])


def combinations(n: int, k: int) -> int:
    """Exact binomial coefficient n choose k, for integers n, k >= 0.

    A count with more decimal digits than Python converts to text
    (sys.get_int_max_str_digits) raises CountTooLarge.  The lower bound
    (n/k)**k refuses the far ones before math.comb builds them.
    """
    n, k = _count("n", n), _count("k", k)
    if k > n:
        raise KExceedsN(f"k={_shown(k)} exceeds n={_shown(n)}")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    too_large = CountTooLarge(f"n choose k has more than {limit} decimal "
                              f"digits, the most Python converts to text")
    low = min(k, n - k)
    if low and low * (math.log10(n) - math.log10(low)) > limit:
        raise too_large
    count = math.comb(n, low)
    if count >= 10 ** limit:
        raise too_large
    return count


@dataclass(frozen=True)
class EntropyReport:
    """Fingerprint space size of one chip configuration.

    block_side is the linear block count of an isotropic layout (the
    chip carries block_side**2 blocks); the addressable row space for
    fingerprint purposes scales as block_side * rows.
    """

    rows: int
    block_side: int
    failure_count: int
    combinations: int
    entropy_nats: float
    entropy_bits: float
    generation: str | None = None


def entropy_report(rows: int, block_side: int = 1, failure_count: int = 10,
                   generation: str | None = None) -> EntropyReport:
    """Exact pattern count and its entropy for one configuration."""
    rows, block_side = _count("rows", rows), _count("block side", block_side)
    failure_count = _count("failure count", failure_count)
    count = combinations(block_side * rows, failure_count)
    return EntropyReport(
        rows=rows,
        block_side=block_side,
        failure_count=failure_count,
        combinations=count,
        entropy_nats=math.log(count),
        entropy_bits=math.log2(count),
        generation=generation,
    )


@dataclass(frozen=True)
class CollisionReport:
    """Exact fingerprint-collision odds for a deployed population.

    per_pair: chance one given pair of chips shares a fingerprint.
    per_chip: chance a given chip collides with any of the others.
    expected_pairs: expected number of colliding pairs populationwide.
    """

    rows: int
    block_side: int
    failure_count: int
    population: int
    per_pair: Fraction
    per_chip: Fraction
    expected_pairs: Fraction


def collision_report(rows: int, block_side: int = 1, failure_count: int = 10,
                     population: int = 10**14) -> CollisionReport:
    """Collision odds under uniform independent fingerprints.

    All three figures are exact rationals; callers compare them against
    thresholds without ever rounding through floats.
    """
    n = _count("population", population)
    rows, block_side = _count("rows", rows), _count("block side", block_side)
    failure_count = _count("failure count", failure_count)
    count = combinations(block_side * rows, failure_count)
    return CollisionReport(
        rows=rows,
        block_side=block_side,
        failure_count=failure_count,
        population=n,
        per_pair=Fraction(1, count),
        per_chip=Fraction(n - 1, count),
        expected_pairs=Fraction(n * (n - 1) // 2, count),
    )


def generation_table(failure_count: int = 10,
                     generations: Iterable[str] | None = None,
                     block_side: int = 1) -> list[EntropyReport]:
    """Entropy reports across capacity generations, smallest first."""
    names = list(GENERATIONS) if generations is None else list(generations)
    for name in names:
        generation_geometry(name)  # refuses an unknown name
    names.sort(key=lambda name: GENERATION_CAPACITY[name])
    return [
        entropy_report(GENERATION_ROWS[name], block_side, failure_count,
                       generation=name)
        for name in names
    ]


def format_scientific(value, sig_digits: int = 12) -> str:
    """Exact scientific notation for a Fraction or int.

    One decimal division of the numerator by the denominator, correctly
    rounded half up to sig_digits digits, so the digits are right even
    when the value is far outside float range, and no operand passes
    through Python's int-to-text conversion and its digit limit.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    value = Fraction(value)
    if value == 0:
        return "0e+0"
    quotient = decimal.Context(
        prec=sig_digits, rounding=decimal.ROUND_HALF_UP,
        Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    ).divide(value.numerator, value.denominator)
    return f"{quotient:.{sig_digits - 1}e}"
