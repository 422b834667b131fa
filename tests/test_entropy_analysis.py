import math
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chipchain import (
    CountTooLarge,
    GENERATIONS,
    KExceedsN,
    UnknownGeneration,
    collision_report,
    combinations,
    entropy_report,
    format_scientific,
    generation_table,
)

from oracles import binom_pascal, binom_product

# [DERIVED] frozen outputs of the multiplicative oracle in oracles.py
C_2000_10 = 275898785946005613288829800
C_100000_10 = 27544920827561470257469913571105409574990000
LN_C_2000_10 = 60.88207631272997
LN_C_100000_10 = 100.0243920623761


# ------------------------------------------------------------ combinations

def test_combinations_small_values():
    assert combinations(6, 3) == 20
    assert combinations(0, 0) == 1
    assert combinations(5, 0) == 1
    assert combinations(5, 5) == 1
    assert combinations(1, 1) == 1


def test_combinations_rejects_bad_input():
    with pytest.raises(KExceedsN):
        combinations(5, 6)
    with pytest.raises(ValueError):
        combinations(-1, 0)
    with pytest.raises(ValueError):
        combinations(5, -1)


def test_oracles_agree_with_each_other():
    # guards the oracles themselves before they are used to pin anything
    for n in range(0, 40):
        for k in range(0, n + 1):
            assert binom_product(n, k) == binom_pascal(n, k)


def test_combinations_against_oracle():
    for n in (1, 2, 7, 50, 200, 2000, 100000):
        for k in (0, 1, 2, 5, 10):
            if k <= n:
                assert combinations(n, k) == binom_product(n, k)


def test_anchor_2000_10():
    value = combinations(2000, 10)
    assert value == C_2000_10
    assert value == binom_product(2000, 10)
    assert value > 10**25


def test_anchor_100000_10():
    value = combinations(100000, 10)
    assert value == C_100000_10
    assert value == binom_product(100000, 10)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_symmetry_property(n, k):
    if k <= n:
        assert combinations(n, k) == combinations(n, n - k)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_pascal_property(n, k):
    if k <= n - 1:
        assert combinations(n, k) == combinations(n - 1, k - 1) + combinations(n - 1, k)


def test_symmetry_at_scale():
    assert combinations(100000, 99990) == combinations(100000, 10)


def test_combinations_refuses_a_count_longer_than_python_prints():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert len(str(combinations(10**limit - 1, 1))) == limit
    with pytest.raises(CountTooLarge):
        combinations(10**limit, 1)
    # refused before math.comb spends seconds building it
    start = time.perf_counter()
    with pytest.raises(CountTooLarge):
        combinations(4294967295, 200000)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------- entropy report

def test_entropy_report_anchor():
    report = entropy_report(2000, block_side=1, failure_count=10)
    assert report.combinations == C_2000_10
    assert report.entropy_nats == pytest.approx(LN_C_2000_10, rel=1e-14)
    assert report.entropy_bits == pytest.approx(LN_C_2000_10 / math.log(2), rel=1e-13)
    assert report.rows == 2000
    assert report.generation is None


def test_entropy_report_largest_generation():
    report = entropy_report(100000, failure_count=10, generation="16 Gb")
    assert report.entropy_nats == pytest.approx(LN_C_100000_10, rel=1e-14)
    assert report.generation == "16 Gb"


def test_block_side_scales_address_space():
    # two blocks along a side double the address pool
    assert entropy_report(1000, block_side=2, failure_count=10).combinations == combinations(2000, 10)
    assert entropy_report(2000, block_side=3, failure_count=4).combinations == combinations(6000, 4)


def test_zero_failures_zero_entropy():
    report = entropy_report(2000, failure_count=0)
    assert report.combinations == 1
    assert report.entropy_nats == 0.0
    assert report.entropy_bits == 0.0


def test_entropy_monotone_in_rows():
    grid = [100, 500, 2000, 10000, 100000]
    values = [entropy_report(y, failure_count=10).entropy_nats for y in grid]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_entropy_monotone_in_failures_below_half():
    values = [entropy_report(100, failure_count=m).combinations for m in range(51)]
    assert all(a < b for a, b in zip(values, values[1:]))


# -------------------------------------------------------------- collisions

def test_collision_report_exact_fractions():
    report = collision_report(2000, failure_count=10, population=10**14)
    c = C_2000_10
    assert report.per_pair == Fraction(1, c)
    assert report.per_chip == Fraction(10**14 - 1, c)
    assert report.expected_pairs == Fraction(10**14 * (10**14 - 1), 2 * c)
    assert isinstance(report.per_chip, Fraction)


def test_collision_anchor_bound():
    """Desk-scale pair-collision odds stay under one in 10^11 per chip."""
    report = collision_report(2000, failure_count=10, population=10**14)
    assert report.per_chip < Fraction(1, 10**11)


def test_collision_largest_generation():
    report = collision_report(100000, failure_count=10, population=10**14)
    assert report.per_chip < Fraction(1, 10**29)
    assert report.expected_pairs < Fraction(1, 10**15)


def test_collision_expected_pairs_float_view():
    report = collision_report(2000, failure_count=10, population=10**14)
    assert float(report.expected_pairs) == pytest.approx(18.1225879, rel=1e-8)


def test_collision_tiny_population():
    report = collision_report(2000, failure_count=10, population=1)
    assert report.per_chip == 0
    assert report.expected_pairs == 0


def test_collision_population_validation():
    with pytest.raises(ValueError):
        collision_report(2000, failure_count=10, population=0)


# -------------------------------------------------------- generation table

def test_generation_table_full_ladder():
    table = generation_table(failure_count=10)
    assert [r.generation for r in table] == list(GENERATIONS)
    nats = [r.entropy_nats for r in table]
    assert all(a < b for a, b in zip(nats, nats[1:]))
    assert nats[0] == pytest.approx(LN_C_2000_10, rel=1e-14)
    assert nats[-1] == pytest.approx(LN_C_100000_10, rel=1e-14)


def test_generation_table_subset_sorted_by_capacity():
    table = generation_table(failure_count=10, generations=["16 Gb", "4 Mb"])
    assert [r.generation for r in table] == ["4 Mb", "16 Gb"]


def test_generation_table_unknown_name():
    with pytest.raises(UnknownGeneration):
        generation_table(generations=["12 Pb"])


def test_generation_table_zero_failures():
    assert all(r.entropy_nats == 0.0 for r in generation_table(failure_count=0))


# --------------------------------------------------------- number printing

def test_format_scientific_known_values():
    assert format_scientific(Fraction(1, 3), 4) == "3.333e-1"
    assert format_scientific(C_2000_10) == "2.75898785946e+26"
    assert format_scientific(Fraction(1, 10**30)) == "1.00000000000e-30"
    assert format_scientific(0) == "0e+0"


def test_format_scientific_collision_fields():
    report = collision_report(2000, failure_count=10, population=10**14)
    assert format_scientific(report.per_chip) == "3.62451758014e-13"
    assert format_scientific(report.per_pair) == "3.62451758014e-27"
    assert format_scientific(report.expected_pairs) == "1.81225879007e+1"


def test_format_scientific_negative_and_carry():
    assert format_scientific(Fraction(-1, 3), 3) == "-3.33e-1"
    assert format_scientific(999999, 3) == "1.00e+6"
    assert format_scientific(Fraction(9999, 10000), 2) == "1.0e+0"


def test_format_scientific_single_digit():
    assert format_scientific(7, 1) == "7e+0"
    assert format_scientific(Fraction(2, 100), 1) == "2e-2"


def test_format_scientific_validation():
    with pytest.raises(ValueError):
        format_scientific(1, 0)


def test_format_scientific_beyond_the_int_text_limit():
    """Operands longer than the 4300 digits Python turns into text."""
    assert format_scientific(Fraction(1, 10**5000)) == "1.00000000000e-5000"
    assert format_scientific(10**5000) == "1.00000000000e+5000"
    assert format_scientific(Fraction(3, 7 * 10**4400)) == "4.28571428571e-4401"


@st.composite
def _scientific_cases(draw):
    """A nonzero Fraction of either sign and a digit count; half of the
    values are exact ties at that digit count (its digits, then a 5)."""
    sig_digits = draw(st.integers(1, 20))
    scale = Fraction(10) ** draw(st.integers(-60, 60))
    if draw(st.booleans()):
        digits = draw(st.integers(10 ** (sig_digits - 1), 10 ** sig_digits - 1))
        value = Fraction(10 * digits + 5) * scale
    else:
        value = Fraction(draw(st.integers(1, 10**40)),
                         draw(st.integers(1, 10**40))) * scale
    return (-value if draw(st.booleans()) else value), sig_digits


@given(_scientific_cases())
def test_format_scientific_matches_exact_rounding(case):
    """Against exact Fraction arithmetic: sig_digits digits with the
    first nonzero, within half a unit in the last place of the value,
    and a tie rounded away from zero."""
    value, sig_digits = case
    text = format_scientific(value, sig_digits)
    assert re.fullmatch(r"-?\d(\.\d+)?e[+-]\d+", text), text
    mantissa, _, exponent = text.partition("e")
    assert mantissa.startswith("-") == (value < 0)
    digits = int(mantissa.lstrip("-").replace(".", ""))
    assert 10 ** (sig_digits - 1) <= digits < 10 ** sig_digits
    ulp = Fraction(10) ** (int(exponent) - sig_digits + 1)
    excess = digits * ulp - abs(value)
    assert abs(excess) <= ulp / 2
    if abs(excess) == ulp / 2:
        assert excess > 0


@given(st.integers(min_value=1, max_value=10**40), st.integers(min_value=1, max_value=10**40))
def test_format_scientific_roundtrips_to_float(num, den):
    """Parsing the formatted string back recovers the value to float accuracy."""
    value = Fraction(num, den)
    text = format_scientific(value, 15)
    assert float(text) == pytest.approx(float(value), rel=1e-12)
