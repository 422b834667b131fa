import copy
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chipchain import (
    ACCESS_NORMAL,
    ACCESS_SPECIAL,
    GENERATIONS,
    GENERATION_CAPACITY,
    GENERATION_ROWS,
    CapacityExceeded,
    ChipChainError,
    ChipGeometry,
    ColumnOutOfRange,
    FailureModel,
    FixtureInvalid,
    GeometryInvalid,
    PreprocessMissing,
    Prn,
    SimulatedChip,
    UnknownGeneration,
    extract_prn,
    format_chip_fixture,
    generation_geometry,
    load_chip_fixture,
    make_challenge,
    new_chip,
    parse_chip_fixture,
    read_column_normal,
    respond,
    write_column,
)
from chipchain.chip_model import MAX_MEAN_FAILURES, MAX_REDUNDANCY_ROWS, MAX_ROWS

from oracles import DenseChipOracle


# ---------------------------------------------------------------- geometry

def test_geometry_defaults():
    g = ChipGeometry(rows=2000)
    assert g.cols == 8
    assert g.redundancy_rows == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rows=0),
        dict(rows=-5),
        dict(rows=100, cols=0),
        dict(rows=100, redundancy_rows=-1),
        dict(rows=10, redundancy_rows=11),
        dict(rows=MAX_ROWS + 1, redundancy_rows=0),
        dict(rows=MAX_ROWS, redundancy_rows=MAX_REDUNDANCY_ROWS + 1),
    ],
)
def test_geometry_rejects_bad_shapes(kwargs):
    with pytest.raises(GeometryInvalid):
        ChipGeometry(**kwargs)


def test_failure_model_validation():
    with pytest.raises(GeometryInvalid):
        FailureModel(mean_failures=0)
    with pytest.raises(GeometryInvalid):
        FailureModel(min_failures=-1)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_failure_model_rejects_non_finite_mean(mean):
    with pytest.raises(ValueError, match="mean_failures must be finite"):
        FailureModel(mean_failures=mean)


def test_failure_model_mean_bound_matches_numpy():
    with pytest.raises(ValueError, match="mean_failures must be at most"):
        FailureModel(mean_failures=1e19)
    too_large = math.nextafter(MAX_MEAN_FAILURES, math.inf)
    with pytest.raises(ValueError, match="mean_failures must be at most"):
        FailureModel(mean_failures=too_large)
    with pytest.raises(ValueError, match="too large"):
        np.random.default_rng(0).poisson(too_large)
    model = FailureModel(mean_failures=MAX_MEAN_FAILURES)
    chip = new_chip(ChipGeometry(rows=64), model, seed=1)
    assert len(chip.failure_rows) == 20  # clipped to the spare rows


# ------------------------------------------------------------- generations

def test_generation_anchors():
    assert GENERATION_ROWS["4 Mb"] == 2000
    assert GENERATION_ROWS["16 Gb"] == 100000
    assert GENERATION_CAPACITY["4 Mb"] == 4 * 2**20
    assert GENERATION_CAPACITY["16 Gb"] == 16 * 2**30


def test_generation_ladder_frozen():
    # [DERIVED] geometric interpolation between the two anchors,
    # recomputed at 60-digit precision with mpmath before freezing.
    expected = [2000, 3839, 7368, 10208, 14142, 19593, 27144, 37606, 52100, 72180, 100000]
    assert [GENERATION_ROWS[g] for g in GENERATIONS] == expected
    assert len(GENERATIONS) == 11


def test_generation_ladder_matches_formula():
    # rows(c) = 2000 * (c / 4Mb) ** (log(50)/log(4096)), rounded
    lo_cap, hi_cap = 4 * 2**20, 16 * 2**30
    exponent = math.log(100000 / 2000) / math.log(hi_cap / lo_cap)
    for name in GENERATIONS:
        cap = GENERATION_CAPACITY[name]
        want = round(2000 * (cap / lo_cap) ** exponent)
        assert GENERATION_ROWS[name] == want


def test_generation_geometry_lookup():
    g = generation_geometry("64 Mb")
    assert g.rows == GENERATION_ROWS["64 Mb"]
    with pytest.raises(UnknownGeneration):
        generation_geometry("3 Tb")


def test_generation_capacity_steps():
    # historical sequence: two quadruplings, then doublings up to 16 Gb
    caps = [GENERATION_CAPACITY[g] for g in GENERATIONS]
    ratios = [b // a for a, b in zip(caps, caps[1:])]
    assert ratios == [4, 4, 2, 2, 2, 2, 2, 2, 2, 2]
    assert caps == sorted(caps)


# ------------------------------------------------------------ manufacture

def test_new_chip_deterministic():
    a = new_chip(ChipGeometry(rows=2000), FailureModel(), seed=7)
    b = new_chip(ChipGeometry(rows=2000), FailureModel(), seed=7)
    assert a.failure_rows == b.failure_rows
    assert a.swap_map == b.swap_map
    assert a.chip_id == b.chip_id == "chip-7"


def test_new_chip_seed_sensitivity():
    rows = {new_chip(ChipGeometry(rows=2000), seed=s).failure_rows for s in range(50)}
    assert len(rows) == 50


def test_desk_chip_golden(desk_chip):
    # determinism pin for the default rng stream at seed 42
    assert desk_chip.failure_rows == (
        171, 187, 401, 860, 1026, 1049, 1388, 1433, 1468, 1519, 1571, 1707, 1946
    )


def test_failure_rows_sorted_distinct_in_range():
    for seed in range(30):
        chip = new_chip(ChipGeometry(rows=512), seed=seed)
        rows = chip.failure_rows
        assert list(rows) == sorted(set(rows))
        assert all(0 <= r < 512 for r in rows)
        assert 1 <= len(rows) <= 20


def test_clipped_poisson_mean():
    """Average failure count over many chips sits near the Poisson mean."""
    geometry = ChipGeometry(rows=2000)
    counts = [len(new_chip(geometry, seed=s).failure_rows) for s in range(10_000)]
    mean = sum(counts) / len(counts)
    assert 9.5 < mean < 10.5
    assert min(counts) >= 1
    assert max(counts) <= 20


def test_min_failures_clip():
    model = FailureModel(mean_failures=0.01, min_failures=3)
    for seed in range(20):
        chip = new_chip(ChipGeometry(rows=64), model, seed=seed)
        assert len(chip.failure_rows) >= 3


@pytest.mark.parametrize("rows", [10, 64])
def test_min_failures_must_fit_the_spare_rows(rows):
    # refused before any row is drawn, even where rows < min_failures
    model = FailureModel(min_failures=11)
    with pytest.raises(GeometryInvalid,
                       match="min_failures=11 exceeds redundancy_rows=5"):
        new_chip(ChipGeometry(rows=rows, redundancy_rows=5), model)


def test_capacity_exceeded():
    with pytest.raises(CapacityExceeded):
        SimulatedChip("x", ChipGeometry(rows=100, redundancy_rows=5), range(6))


def test_explicit_chip_validation():
    geometry = ChipGeometry(rows=100, redundancy_rows=5)
    with pytest.raises(ValueError):
        SimulatedChip("x", geometry, [1, 1])
    with pytest.raises(ValueError):
        SimulatedChip("x", geometry, [100])
    with pytest.raises(ValueError):
        SimulatedChip("x", geometry, [3], swap_map={4: 0})
    with pytest.raises(ValueError):
        SimulatedChip("x", geometry, [3], swap_map={3: 5})
    with pytest.raises(ValueError):
        SimulatedChip("x", geometry, [3, 4], swap_map={3: 0, 4: 0})


@pytest.mark.parametrize("make, what", [
    (lambda rows: SimulatedChip("x", ChipGeometry(rows=64), rows), "failure row"),
    (lambda rows: Prn("x", 0, rows, 64), "PRN row"),
], ids=["chip", "prn"])
@pytest.mark.parametrize("row", [3.7, "5", None])
def test_non_integer_rows_are_refused_by_name(make, what, row):
    """A chip's failure rows and a PRN's rows pass one integer check: a
    row that is not an integer is neither truncated nor parsed."""
    with pytest.raises(GeometryInvalid,
                       match=re.escape(f"{what} must be an integer, got {row!r}")):
        make([1, row])


SMALL = ChipGeometry(rows=64, redundancy_rows=4)


@pytest.mark.parametrize("build, message", [
    (lambda: new_chip(ChipGeometry(rows=2000.5)),
     "rows must be an integer, got 2000.5"),
    (lambda: new_chip(ChipGeometry(rows=64, redundancy_rows=4.0)),
     "redundancy_rows must be an integer, got 4.0"),
    (lambda: ChipGeometry(rows=64, cols=2.5),
     "cols must be an integer, got 2.5"),
    (lambda: new_chip(SMALL, FailureModel(mean_failures=0.5, min_failures=1.5)),
     "min_failures must be an integer, got 1.5"),
    (lambda: FailureModel(mean_failures="5"),
     "mean_failures must be an int or a float, got '5'"),
    (lambda: FailureModel(mean_failures=10**400),
     f"mean_failures must be at most 9.22337e+18, got {10**400}"),
    (lambda: extract_prn(new_chip(SMALL), 1.5),
     "column must be an integer, got 1.5"),
    (lambda: read_column_normal(new_chip(SMALL), "0"),
     "column must be an integer, got '0'"),
    (lambda: Prn("x", 2.5, [1], 16),
     "column must be an integer, got 2.5"),
    (lambda: Prn("x", 0, [1], 16.0),
     "total_rows must be an integer, got 16.0"),
    (lambda: SimulatedChip("x", SMALL, [3], swap_map={3: 0.9}),
     "swap map target must be an integer, got 0.9"),
    (lambda: SimulatedChip("x", SMALL, [3], swap_map={3.0: 0}),
     "swap map key must be an integer, got 3.0"),
    (lambda: SimulatedChip("x", SMALL, [3, 3]),
     "failure rows must be distinct, got 3 twice"),
    (lambda: SimulatedChip("x", SMALL, [3, 64]),
     "failure row outside the regular array: 64 not in [0, 64)"),
    (lambda: new_chip(SMALL, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: new_chip(SMALL, seed=-1), "seed must be >= 0, got -1"),
    (lambda: new_chip(SMALL, seed=None), "seed must be an integer, got None"),
    (lambda: SimulatedChip("x", SMALL, [3], seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: SimulatedChip("x", SMALL, [3], seed=-1), "seed must be >= 0, got -1"),
    (lambda: write_column(new_chip(SMALL), "sideways", 0, 1),
     "mode must be 'normal' or 'special', got 'sideways'"),
    (lambda: write_column(new_chip(SMALL), ACCESS_NORMAL, 0, 1.0),
     "cell value must be an integer, got 1.0"),
    (lambda: write_column(new_chip(SMALL), ACCESS_SPECIAL, 0, 2),
     "cell value must be 0 or 1, got 2"),
], ids=["rows", "redundancy_rows", "cols", "min_failures", "mean_failures",
        "huge_mean", "extract_column", "read_column", "prn_column", "total_rows",
        "swap_target", "swap_key", "twice", "row_range", "new_chip_seed",
        "new_chip_negative_seed", "new_chip_no_seed", "chip_seed",
        "chip_negative_seed", "write_mode", "write_float_value",
        "write_value_range"])
def test_each_chip_number_is_refused_by_name(build, message):
    """Every row, count and column a chip takes passes one integer rule,
    and every row set one check: a bad value is a ChipChainError that
    names it, never a numpy message, a bare TypeError or a truncation."""
    with pytest.raises(ChipChainError, match=re.escape(message)):
        build()


def test_chip_seeds_are_kept_as_ints():
    """A seed passes the integer rule as its value, None stays None, and
    the fixture a chip writes parses back to the same seed."""
    assert new_chip(SMALL, seed=np.int64(5)).seed == 5
    assert type(new_chip(SMALL, seed=np.uint8(5)).seed) is int
    assert (new_chip(SMALL, seed=True).failure_rows
            == new_chip(SMALL, seed=1).failure_rows)
    assert SimulatedChip("x", SMALL, [3]).seed is None
    chip = SimulatedChip("x", SMALL, [3], seed=np.int32(7))
    assert chip.seed == 7 and type(chip.seed) is int
    assert parse_chip_fixture(format_chip_fixture(chip)).seed == 7


def test_write_column_takes_a_bool_as_its_int():
    chip = fresh()
    write_column(chip, ACCESS_NORMAL, 0, False)
    write_column(chip, ACCESS_SPECIAL, 0, True)
    assert chip._columns[0] == (0, 1, 1)
    assert {type(fill) for fill in chip._columns[0]} == {int}
    assert read_column_normal(chip, 0).tolist() == [
        1 if r in (3, 7) else 0 for r in range(16)]


def test_integer_like_rows_are_taken():
    chip = SimulatedChip("x", ChipGeometry(rows=64), [np.int64(9), 3])
    assert chip.failure_rows == (3, 9)
    assert Prn("x", 0, [np.int64(9), 3], 64).rows == (3, 9)


def test_integer_like_numbers_are_kept_as_ints():
    """A numpy integer or a bool passes the integer rule as its value."""
    geometry = ChipGeometry(np.int64(64), np.uint8(2), np.int16(4))
    model = FailureModel(np.int64(3), True)
    chip = SimulatedChip("x", geometry, [np.int32(9)], {np.int64(9): np.uint8(1)})
    prn = extract_prn(chip, np.int64(1))
    numbers = (geometry.rows, geometry.cols, geometry.redundancy_rows,
               model.min_failures, *next(iter(chip.swap_map.items())), prn.column)
    assert numbers == (64, 2, 4, 1, 9, 1, 1)
    assert {type(n) for n in numbers} == {int}
    assert new_chip(geometry, model, seed=3).failure_rows


def test_extraction_through_an_out_of_order_swap_map():
    """Failure rows routed to spares out of order still read out exactly."""
    swap_map = {40: 3, 120: 0, 333: 7, 499: 1}
    chip = SimulatedChip("x", ChipGeometry(rows=500, redundancy_rows=8),
                         swap_map, swap_map)
    assert dict(chip.swap_map) == swap_map
    for _ in range(3):
        assert extract_prn(chip).rows == (40, 120, 333, 499)


def test_new_chip_swaps_failure_rows_in_order():
    for seed in range(25):
        chip = new_chip(ChipGeometry(rows=500), FailureModel(5.0), seed=seed)
        assert list(chip.swap_map.items()) == [
            (row, spare) for spare, row in enumerate(chip.failure_rows)]


# ------------------------------------------------------- access mechanics

def fresh(rows=(3, 7), total=16):
    return SimulatedChip("t", ChipGeometry(rows=total, redundancy_rows=4), rows)


def test_readout_marks_failure_rows():
    chip = fresh()
    write_column(chip, ACCESS_NORMAL, 0, 0)
    write_column(chip, ACCESS_SPECIAL, 0, 1)
    out = read_column_normal(chip, 0)
    assert out.tolist() == [1 if r in (3, 7) else 0 for r in range(16)]


def test_inverted_polarity():
    chip = fresh()
    write_column(chip, ACCESS_NORMAL, 0, 1)
    write_column(chip, ACCESS_SPECIAL, 0, 0)
    out = read_column_normal(chip, 0)
    assert out.tolist() == [0 if r in (3, 7) else 1 for r in range(16)]


def test_wrong_order_reads_all_zero():
    # special-then-normal overwrites the marks; a degenerate readout, not an error
    chip = fresh()
    write_column(chip, ACCESS_SPECIAL, 0, 1)
    write_column(chip, ACCESS_NORMAL, 0, 0)
    out = read_column_normal(chip, 0)
    assert not out.any()


def test_read_requires_both_writes():
    chip = fresh()
    with pytest.raises(PreprocessMissing):
        read_column_normal(chip, 0)
    write_column(chip, ACCESS_NORMAL, 0, 0)
    with pytest.raises(PreprocessMissing):
        read_column_normal(chip, 0)
    write_column(chip, ACCESS_SPECIAL, 0, 1)
    assert read_column_normal(chip, 0).any()


def test_column_bounds():
    chip = fresh()
    with pytest.raises(ColumnOutOfRange):
        write_column(chip, ACCESS_NORMAL, 8, 0)
    with pytest.raises(ColumnOutOfRange):
        read_column_normal(chip, -1)
    with pytest.raises(ValueError):
        write_column(chip, "sideways", 0, 0)
    with pytest.raises(ValueError):
        write_column(chip, ACCESS_NORMAL, 0, 2)
    with pytest.raises(ValueError):
        write_column(chip, ACCESS_NORMAL, 0, 1.0)


def test_columns_independent():
    chip = fresh()
    write_column(chip, ACCESS_NORMAL, 2, 0)
    write_column(chip, ACCESS_SPECIAL, 2, 1)
    out = read_column_normal(chip, 2)
    assert out.tolist() == [1 if r in (3, 7) else 0 for r in range(16)]
    with pytest.raises(PreprocessMissing):
        read_column_normal(chip, 3)


@st.composite
def swapped_layouts(draw):
    """(rows, spare rows, swap map), failure rows and spares drawn freely."""
    rows = draw(st.integers(1, 24))
    spares = draw(st.integers(0, rows))
    failures = draw(st.lists(st.integers(0, rows - 1), unique=True,
                             max_size=spares))
    targets = draw(st.permutations(range(spares)))
    return rows, spares, dict(zip(failures, targets))


WRITES = st.tuples(st.sampled_from([ACCESS_NORMAL, ACCESS_SPECIAL]),
                   st.integers(0, 2), st.integers(0, 1))


@given(swapped_layouts(), st.lists(WRITES, max_size=10))
def test_sparse_cells_match_the_dense_oracle(layout, writes):
    rows, spares, swap_map = layout
    chip = SimulatedChip("dense", ChipGeometry(rows=rows, cols=3,
                                               redundancy_rows=spares),
                         list(swap_map), swap_map)
    oracle = DenseChipOracle(rows, spares, swap_map)
    for step in [None] + writes:
        if step is not None:
            write_column(chip, *step)
            oracle.write(*step)
        for column in range(3):
            expected = oracle.read_normal(column)
            if expected is None:
                with pytest.raises(PreprocessMissing):
                    read_column_normal(chip, column)
            else:
                assert read_column_normal(chip, column).tolist() == expected
    oracle.write(ACCESS_NORMAL, 1, 0)
    oracle.write(ACCESS_SPECIAL, 1, 1)
    lit = tuple(row for row, bit in enumerate(oracle.read_normal(1)) if bit)
    assert extract_prn(chip, 1).rows == lit == tuple(sorted(swap_map))


# -------------------------------------------------------------- extraction

def test_extract_prn_matches_failure_rows(desk_chip):
    prn = extract_prn(desk_chip)
    assert prn.rows == desk_chip.failure_rows
    assert prn.total_rows == 2000
    assert prn.chip_id == desk_chip.chip_id
    assert prn.column == 0


def test_a_chip_yields_one_prn_per_column():
    """The first extraction of a column builds its Prn; every later one,
    after writes to any column, returns that same object with its pad
    states already computed, and makes the protocol's two writes."""
    chip = fresh()
    prn = extract_prn(chip)
    states = prn.hmac_states
    write_column(chip, ACCESS_SPECIAL, 0, 0)
    write_column(chip, ACCESS_NORMAL, 1, 1)
    write_column(chip, ACCESS_SPECIAL, 2, 1)
    again = extract_prn(chip)
    assert again is prn
    assert again.hmac_states is states
    assert read_column_normal(chip, 0).tolist() == [
        1 if r in (3, 7) else 0 for r in range(16)]
    assert extract_prn(chip, 0) is prn


def test_each_column_has_its_own_prn():
    chip = fresh()
    prns = [extract_prn(chip, column) for column in range(chip.geometry.cols)]
    assert [prn.column for prn in prns] == list(range(chip.geometry.cols))
    assert len({id(prn) for prn in prns}) == chip.geometry.cols
    assert all(prn.rows == (3, 7) for prn in prns)
    assert [extract_prn(chip, column) for column in range(chip.geometry.cols)] == prns
    assert all(extract_prn(chip, column) is prns[column]
               for column in range(chip.geometry.cols))


def test_held_prn_keeps_column_checks():
    """A bad column still raises and holds nothing; an unread column
    still needs its writes before a plain read."""
    chip = fresh()
    prn = extract_prn(chip)
    for column in (-1, chip.geometry.cols):
        with pytest.raises(ColumnOutOfRange):
            extract_prn(chip, column)
    with pytest.raises(PreprocessMissing):
        read_column_normal(chip, 1)
    assert list(chip._prns) == [0]
    assert extract_prn(chip) is prn


def test_a_loaded_or_replaced_chip_reads_its_own_prn(desk_chip):
    prn = extract_prn(desk_chip)
    loaded = parse_chip_fixture(format_chip_fixture(desk_chip))
    assert extract_prn(loaded) == prn
    assert extract_prn(loaded) is not prn
    replacement = new_chip(desk_chip.geometry, seed=43)
    assert extract_prn(replacement).rows != prn.rows
    assert extract_prn(desk_chip) is prn


@pytest.mark.parametrize("clone", [
    lambda chip: pickle.loads(pickle.dumps(chip)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_an_extracted_chip_survives_copying(clone):
    chip = fresh()
    prn = extract_prn(chip)
    prn.hmac_states  # computed before the copy, rebuilt after it
    twin = clone(chip)
    again = extract_prn(twin)
    assert again == prn
    assert again is not prn
    assert extract_prn(twin) is again
    challenge = make_challenge(5)
    assert respond(again, challenge) == respond(prn, challenge)
    assert extract_prn(chip) is prn


CAPPED_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from chipchain import (ChipGeometry, FailureModel, extract_prn,
                       keypair_for_chip, new_chip)
chip = new_chip(ChipGeometry(rows=(1 << 32) - 1, redundancy_rows=1 << 16),
                FailureModel(mean_failures=1e9), seed=3)
assert len(chip.failure_rows) == 1 << 16
assert extract_prn(chip).rows == chip.failure_rows
assert keypair_for_chip(chip, 0, modulus_bits=512).modulus_bits == 512
"""


def test_largest_chip_fits_in_one_gib():
    # a chip costs O(failure rows): y = 2^32 - 1 with 2^16 failure rows
    # is made, read out and keyed under a 1 GiB address-space cap
    pytest.importorskip("resource")
    import chipchain
    src = os.path.dirname(os.path.dirname(chipchain.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", CAPPED_CHILD],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


def test_extract_prn_repeatable(desk_chip):
    """A thousand consecutive extractions give byte-identical fingerprints."""
    first = extract_prn(desk_chip).canonical_bytes
    for _ in range(1000):
        assert extract_prn(desk_chip).canonical_bytes == first


def test_extract_prn_column_choice(desk_chip):
    assert extract_prn(desk_chip, column=5).rows == desk_chip.failure_rows
    with pytest.raises(ColumnOutOfRange):
        extract_prn(desk_chip, column=8)


def test_extract_prn_column_independence(desk_chip):
    """Every column reads out the same rows, so the PRN and its response
    are the same whichever column is read."""
    challenge = make_challenge(0)
    prns = [extract_prn(desk_chip, column) for column in range(8)]
    assert len({prn.canonical_bytes for prn in prns}) == 1
    assert len({respond(prn, challenge).data for prn in prns}) == 1


def test_extract_prn_empty_rows():
    chip = SimulatedChip("bare", ChipGeometry(rows=32, redundancy_rows=4), [])
    prn = extract_prn(chip)
    assert prn.rows == ()
    assert prn.canonical_bytes == bytes([0, 0, 0, 32, 0, 0, 0, 0])


@given(st.data())
def test_extract_prn_fidelity_fuzz(data):
    total = data.draw(st.integers(min_value=8, max_value=4096))
    spares = data.draw(st.integers(min_value=1, max_value=min(20, total)))
    count = data.draw(st.integers(min_value=0, max_value=spares))
    rows = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=count, max_size=count, unique=True,
        )
    )
    chip = SimulatedChip("f", ChipGeometry(rows=total, redundancy_rows=spares), rows)
    assert extract_prn(chip).rows == tuple(sorted(rows))


# ---------------------------------------------------------- canonical form

def test_canonical_bytes_golden():
    assert Prn("a", 0, (3, 7), 16).canonical_bytes == bytes(
        [0, 0, 0, 16, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 7]
    )


def test_canonical_bytes_sorts_input():
    """Prn sorts its rows, so the order they come in does not reach the
    packed bytes."""
    assert Prn("a", 0, (7, 3), 16).canonical_bytes == bytes(
        [0, 0, 0, 16, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 7]
    )
    assert (Prn("a", 0, (9, 1, 5), 16).canonical_bytes
            == Prn("a", 0, (1, 5, 9), 16).canonical_bytes)


def test_canonical_ignores_chip_identity():
    a = Prn("a", 0, (3, 7), 16)
    b = Prn("b", 4, (3, 7), 16)
    assert a.canonical_bytes == b.canonical_bytes


def test_canonical_distinguishes_total_rows():
    assert (Prn("a", 0, (3,), 16).canonical_bytes
            != Prn("a", 0, (3,), 32).canonical_bytes)


def test_prn_stores_rows_sorted():
    a = Prn("a", 0, (7, 3), 16)
    b = Prn("a", 0, (3, 7), 16)
    assert a.rows == (3, 7)
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_bytes == b.canonical_bytes
    numpy_rows = Prn("a", 0, [np.int64(5), np.uint32(1)], np.int64(16))
    assert numpy_rows.rows == (1, 5)
    assert numpy_rows.canonical_bytes == Prn("a", 0, (1, 5), 16).canonical_bytes


def test_normalised_prn_pickles():
    prn = Prn("a", 0, (9, 2, 5), 16)
    clone = pickle.loads(pickle.dumps(prn))
    assert clone == Prn("a", 0, (2, 5, 9), 16)
    assert clone.rows == (2, 5, 9)
    assert clone.hmac_states[0].digest() == prn.hmac_states[0].digest()


@pytest.mark.parametrize("rows, total_rows, message", [
    ((3, 3), 16, "distinct"),
    ((1, 7, 1), 16, "distinct"),
    ((20,), 16, r"in \[0, 16\)"),
    ((16,), 16, r"in \[0, 16\)"),
    ((-1, 4), 16, r"in \[0, 16\)"),
    ((1,), 2**32, "total_rows"),
    ((), 0, "total_rows"),
    ((), -3, "total_rows"),
])
def test_prn_rejects_invalid_rows(rows, total_rows, message):
    """Rejected at construction, before canonical_bytes packs a 4-byte
    word that cannot hold total_rows or a response keys on a row set
    that no chip of that size has."""
    with pytest.raises(GeometryInvalid, match=message):
        Prn("a", 0, rows, total_rows)


def test_prn_accepts_its_bounds():
    prn = Prn("a", 0, (0, MAX_ROWS - 1), MAX_ROWS)
    assert prn.canonical_bytes[:4] == b"\xff\xff\xff\xff"
    assert Prn("a", 0, (), 1).rows == ()


# ----------------------------------------------------------------- fixtures

def test_fixture_roundtrip(tmp_path, desk_chip):
    path = tmp_path / "chip.chip"
    path.write_text(format_chip_fixture(desk_chip))
    loaded = load_chip_fixture(path)
    assert loaded.chip_id == desk_chip.chip_id
    assert loaded.geometry == desk_chip.geometry
    assert loaded.failure_rows == desk_chip.failure_rows
    assert loaded.swap_map == desk_chip.swap_map
    assert extract_prn(loaded).canonical_bytes == extract_prn(desk_chip).canonical_bytes


def test_fixture_comments_and_blanks(tmp_path, desk_chip):
    path = tmp_path / "chip.chip"
    path.write_text(format_chip_fixture(desk_chip))
    text = "# banner\n\n" + path.read_text().replace("\n", "  # note\n", 1)
    assert parse_chip_fixture(text).chip_id == desk_chip.chip_id


@pytest.mark.parametrize(
    "text",
    [
        "rows = 16",                                   # missing fields
        "chip_id = x\nrows = 16\ncols = 8\nredundancy_rows = 4\nfailure_rows = 3\nswap_targets = 0 1",
        "chip_id = x\nrows = banana\ncols = 8\nredundancy_rows = 4\nfailure_rows =\nswap_targets =",
        "chip_id = x\nrows = 16\nbogus line without equals",
    ],
)
def test_fixture_parse_errors(text):
    with pytest.raises(ValueError):
        parse_chip_fixture(text)


FIXTURE = ("chip_id = x\nrows = 16\ncols = 8\nredundancy_rows = 4\nseed = 7\n"
           "failure_rows = 3, 9\nswap_targets = 1, 0\n")


@pytest.mark.parametrize(
    "before, after, message",
    [
        ("rows = 16", "rows = abc", "rows: expected integer, got 'abc'"),
        ("rows = 16", "rows = 0", "rows must be positive, got 0"),
        ("rows = 16", "rows = 0  # no rows", "rows must be positive, got 0"),
        ("cols = 8", "cols = 0", "cols must be positive, got 0"),
        ("redundancy_rows = 4", "redundancy_rows = 17",
         "redundancy_rows=17 exceeds rows=16"),
        ("seed = 7", "seed = -1", "seed must be >= 0, got -1"),
        ("failure_rows = 3, 9", "failure_rows = 3, x",
         "failure_rows: expected integer, got 'x'"),
        ("failure_rows = 3, 9", "failure_rows = 3, 16",
         "failure row outside the regular array: "
         "16 not in [0, 16)"),
        ("failure_rows = 3, 9", "failure_rows = 3, 3", "failure rows must be distinct"),
        ("failure_rows = 3, 9", "failure_rows = 1, 2, 3, 4, 5",
         "5 failure rows exceed 4 spare rows"),
        ("swap_targets = 1, 0", "swap_targets = 1", "length must match"),
        ("swap_targets = 1, 0", "swap_targets = 1, 1", "targets must be distinct"),
        ("swap_targets = 1, 0", "swap_targets = 1, 4",
         "swap map target outside the redundancy array"),
        ("seed = 7", "seed = 7\nrows = 32",
         "duplicate key 'rows' (first on line 2)"),
        ("cols = 8", "col = 2", "unknown key 'col'"),
        ("rows = 16\ncols = 8\nredundancy_rows = 4",
         "rows = 4294967295\ncols = 8\nredundancy_rows = 65537",
         "redundancy_rows must be at most 65536, got 65537"),
    ],
)
def test_fixture_errors_name_their_line(before, after, message):
    text = FIXTURE.replace(before, after)
    line_no = text.splitlines().index(after.splitlines()[-1]) + 1
    with pytest.raises(FixtureInvalid, match=re.escape(message)) as caught:
        parse_chip_fixture(text)
    assert str(caught.value).startswith(f"fixture line {line_no}: ")
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("chip_id", ["../up", "x/y", "a b", "-x", ".x", "",
                                     " pad ", "a#b"])
def test_fixture_chip_id_is_one_plain_name(chip_id):
    """The writer refuses every id its parser would refuse, or change."""
    message = f"chip_id must match [A-Za-z0-9][A-Za-z0-9._-]*, got {chip_id!r}"
    chip = SimulatedChip(chip_id, ChipGeometry(rows=16, redundancy_rows=4), [3])
    with pytest.raises(FixtureInvalid, match=re.escape(message)):
        format_chip_fixture(chip)
    if chip_id == chip_id.strip() and "#" not in chip_id:
        with pytest.raises(FixtureInvalid,
                           match=re.escape(f"fixture line 1: {message}")):
            parse_chip_fixture(FIXTURE.replace("chip_id = x",
                                               f"chip_id = {chip_id}"))


def test_fixture_parses_the_reference_record():
    chip = parse_chip_fixture(FIXTURE)
    assert chip.failure_rows == (3, 9)
    assert dict(chip.swap_map) == {3: 1, 9: 0}
    assert chip.seed == 7
    assert parse_chip_fixture(FIXTURE.replace("seed = 7", "seed =")).seed is None


def test_fixture_numpy_free_types(tmp_path):
    """Fixture loading yields plain ints even though manufacture uses numpy."""
    chip = new_chip(ChipGeometry(rows=64), seed=3)
    path = tmp_path / "c.chip"
    path.write_text(format_chip_fixture(chip))
    loaded = load_chip_fixture(path)
    assert all(type(r) is int for r in loaded.failure_rows)
    assert not isinstance(loaded.failure_rows[0], np.integer)
