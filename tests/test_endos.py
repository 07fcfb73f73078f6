import random
from itertools import product
from operator import or_, xor

import pytest
from hypothesis import given, strategies as st

from incalg import (
    ClassificationError,
    GateError,
    PartitionEndo,
    SubsetMapTable,
    XorEndo,
    enumerate_endos,
    format_endo,
    is_boolean_endo,
    is_separating,
    parse_endo_line,
    to_partition,
    to_xor_endo,
)
from incalg.endos import _span_table, mask_of

from boxed_reference import boxed_is_boolean_endo, boxed_is_separating, boxed_span_table
from conftest import random_partition_endo, random_xor_endo

XY = ("1", "2")
XYZ = ("x", "y", "z")

IDENTITY_2 = PartitionEndo(XY, (0b01, 0b10))
COLLAPSE_2 = PartitionEndo(XY, (0b11, 0b00))  # both elements owned by "1"

# the non-separating map: singletons {x} -> {x}, {y} -> {x,y}, {z} -> {x,z}
NONSEP_XOR = XorEndo(XYZ, (0b001, 0b011, 0b101))


def masks(n):
    return range(1 << n)


def test_partition_validation():
    with pytest.raises(Exception, match="disjoint"):
        PartitionEndo(XY, (0b11, 0b10))
    with pytest.raises(Exception, match="cover"):
        PartitionEndo(XY, (0b01, 0b00))


def test_xor_validation():
    with pytest.raises(Exception, match="XOR"):
        XorEndo(XY, (0b01, 0b01))


def test_identity_partition_apply():
    for m in masks(2):
        assert IDENTITY_2.apply_mask(m) == m


def test_block_readoff_apply():
    assert COLLAPSE_2.apply(["1"]) == frozenset({"1", "2"})
    assert COLLAPSE_2.apply(["2"]) == frozenset()


def test_xor_apply_is_column_xor():
    # frozen from XORing the columns {x,y} and {x,z}
    assert NONSEP_XOR.apply(["y", "z"]) == frozenset({"y", "z"})
    assert NONSEP_XOR.apply(["x", "y", "z"]) == frozenset({"x", "y", "z"})


def test_partition_tables_are_separating():
    for endo in enumerate_endos(XYZ, "boolean"):
        assert is_separating(endo.table())


def test_nonseparating_table():
    assert not is_separating(NONSEP_XOR.table())


def test_constant_empty_map_is_separating():
    full = 0b111
    table = SubsetMapTable(XYZ, tuple(full if m == full else 0 for m in masks(3)))
    assert is_separating(table)


def test_boolean_endo_recognizer():
    for endo in enumerate_endos(XY, "boolean"):
        assert is_boolean_endo(endo.table())
    assert not is_boolean_endo(NONSEP_XOR.table())
    complement = SubsetMapTable(XY, tuple(0b11 & ~m for m in masks(2)))
    assert not is_boolean_endo(complement)


def test_to_partition_identity():
    table = IDENTITY_2.table()
    assert to_partition(table) == IDENTITY_2


def test_to_partition_block_readoff():
    # the map A -> X if 1 in A else {} on X = {1, 2}
    table = SubsetMapTable(XY, (0b00, 0b11, 0b00, 0b11))
    endo = to_partition(table)
    assert endo == PartitionEndo(XY, (0b11, 0b00))


def test_to_partition_rejects_non_endomorphism():
    with pytest.raises(ClassificationError, match="lb-preserves-diff-and-cap"):
        to_partition(NONSEP_XOR.table())


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_tables_match_apply_mask(n, seed):
    rng = random.Random(seed)
    elements = tuple(f"x{i}" for i in range(n))
    for endo in (random_partition_endo(elements, rng), random_xor_endo(elements, rng)):
        assert endo.table().table == tuple(endo.apply_mask(m) for m in masks(n))


def test_to_xor_endo_round_trip():
    assert to_xor_endo(NONSEP_XOR.table()) == NONSEP_XOR


def test_to_xor_endo_rejects_non_additive():
    identity = SubsetMapTable(XY, (0b00, 0b01, 0b10, 0b11))
    assert to_xor_endo(identity).columns == (0b01, 0b10)
    nonadd = SubsetMapTable(XY, (0b00, 0b01, 0b11, 0b11))
    with pytest.raises(ClassificationError, match="lb-prese-symm-diff"):
        to_xor_endo(nonadd)


def test_injectivity():
    assert IDENTITY_2.is_injective()
    assert not COLLAPSE_2.is_injective()
    assert NONSEP_XOR.is_injective()  # full rank over GF(2)


def test_xor_injectivity_matches_table_injectivity():
    # independent oracle: a map on P(X) is injective iff its table has no
    # repeated images
    for endo in enumerate_endos(XYZ, "xor"):
        table = endo.table().table
        assert endo.is_injective() == (len(set(table)) == len(table))


def test_partition_injectivity_matches_table_injectivity():
    for endo in enumerate_endos(XYZ, "boolean"):
        table = endo.table().table
        assert endo.is_injective() == (len(set(table)) == len(table))


def test_automorphism_of_partition():
    assert IDENTITY_2.automorphism() == {"1": "1", "2": "2"}
    swap = PartitionEndo(XY, (0b10, 0b01))
    assert swap.automorphism() == {"1": "2", "2": "1"}
    assert COLLAPSE_2.automorphism() is None


def test_automorphism_of_xor_endo_returns_inverse():
    inv = NONSEP_XOR.automorphism()
    assert inv is not None
    for m in masks(3):
        assert inv.apply_mask(NONSEP_XOR.apply_mask(m)) == m
    singular = XorEndo(XYZ, (0b111, 0b000, 0b000))
    assert singular.automorphism() is None


def test_automorphism_iff_table_bijective():
    for regime in ("boolean", "xor"):
        for endo in enumerate_endos(XYZ, regime):
            table = endo.table().table
            bijective = len(set(table)) == len(table)
            assert (endo.automorphism() is not None) == bijective
            if regime == "boolean":
                singleton_blocks = all(bin(b).count("1") == 1 for b in endo.blocks)
                assert (endo.automorphism() is not None) == (
                    endo.is_injective() and singleton_blocks)


def check_partition_preservation(endo, parts) -> bool:
    """True iff the images of the parts of a partition of X still cover X."""
    elements = endo.elements
    full = (1 << len(elements)) - 1
    masks = [mask_of(elements, part) for part in parts]
    union = 0
    for m in masks:
        if union & m:
            raise ValueError("parts are not pairwise disjoint")
        union |= m
    if union != full:
        raise ValueError("parts do not cover the ambient set")
    image = 0
    for m in masks:
        image |= endo.apply_mask(m)
    return image == full


def test_partition_preservation():
    parts = [["x"], ["y"], ["z"]]
    for endo in enumerate_endos(XYZ, "boolean"):
        assert check_partition_preservation(endo, parts)
    # frozen by direct table evaluation: {x} | {x,y} | {x,z} covers X
    assert check_partition_preservation(NONSEP_XOR, parts)
    full = 0b111
    lazy = SubsetMapTable(XYZ, tuple(full if m == full else 0 for m in masks(3)))
    assert not check_partition_preservation(lazy, parts)
    assert check_partition_preservation(lazy, [["x", "y", "z"]])


def test_partition_preservation_validates_input():
    with pytest.raises(ValueError, match="disjoint"):
        check_partition_preservation(IDENTITY_2, [["1"], ["1", "2"]])
    with pytest.raises(ValueError, match="cover"):
        check_partition_preservation(IDENTITY_2, [["1"]])


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_endos(XY, "boolean")) == 4
    assert sum(1 for _ in enumerate_endos(XY, "xor")) == 4
    assert sum(1 for _ in enumerate_endos(("a",), "boolean")) == 1
    assert sum(1 for _ in enumerate_endos(("a",), "xor")) == 1


def test_boolean_endos_are_exactly_the_partition_tables():
    # filter all (2^2)^(2^2) = 256 tables on a 2-element set
    partition_tables = {endo.table().table for endo in enumerate_endos(XY, "boolean")}
    assert len(partition_tables) == 4
    survivors = {
        images
        for images in product(masks(2), repeat=4)
        if is_boolean_endo(SubsetMapTable(XY, images))
    }
    assert survivors == partition_tables


def _random_partition(rng, n):
    blocks = [0] * n
    for y in range(n):
        blocks[rng.randrange(n)] |= 1 << y
    return PartitionEndo(tuple(f"x{i}" for i in range(n)), tuple(blocks))


def test_partition_endo_laws_exhaustive_small_and_sampled_large():
    small = list(enumerate_endos(XYZ, "boolean"))
    rng = random.Random(7)
    large = [_random_partition(rng, 6) for _ in range(12)]
    for endo in small + large:
        n = endo.n
        full = (1 << n) - 1
        assert endo.apply_mask(0) == 0
        assert endo.apply_mask(full) == full
        for a in masks(n):
            assert endo.apply_mask(full & ~a) == full & ~endo.apply_mask(a)
            for b in masks(n):
                assert endo.apply_mask(a & b) == endo.apply_mask(a) & endo.apply_mask(b)


def _random_xor_endo(rng, n):
    full = (1 << n) - 1
    cols = [rng.randrange(1 << n) for _ in range(n - 1)]
    last = full
    for c in cols:
        last ^= c
    return XorEndo(tuple(f"x{i}" for i in range(n)), tuple(cols) + (last,))


def test_xor_endo_laws_exhaustive_small_and_sampled_large():
    small = list(enumerate_endos(XYZ, "xor"))
    rng = random.Random(11)
    large = [_random_xor_endo(rng, 6) for _ in range(12)]
    for endo in small + large:
        n = endo.n
        full = (1 << n) - 1
        assert endo.apply_mask(full) == full
        for a in masks(n):
            for b in masks(n):
                assert endo.apply_mask(a ^ b) == endo.apply_mask(a) ^ endo.apply_mask(b)


def test_gates():
    labels13 = tuple(f"x{i}" for i in range(13))
    with pytest.raises(GateError):
        SubsetMapTable(labels13, tuple([0] * (1 << 13)))
    labels9 = tuple(f"x{i}" for i in range(9))
    assert is_separating(SubsetMapTable(labels9, tuple(masks(9))))
    with pytest.raises(GateError):
        next(enumerate_endos(tuple(f"x{i}" for i in range(5)), "boolean"))


def test_span_table_matches_boxed_reference():
    """Doubling and the lowest-bit recurrence give the same table for every
    n <= 8, under OR and XOR, on random images and on the identity."""
    rng = random.Random(0)
    for n in range(9):
        cases = [tuple(1 << i for i in range(n))] + [
            tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(10)]
        for images in cases:
            for combine in (or_, xor):
                assert _span_table(images, combine) == boxed_span_table(images, combine)


def test_endo_line_round_trip():
    line = format_endo(NONSEP_XOR)
    assert line == "xor-lambda: x->{x} y->{x,y} z->{x,z}"
    assert parse_endo_line(line, XYZ) == NONSEP_XOR
    pline = format_endo(COLLAPSE_2)
    assert pline == "lambda: 1->{1,2} 2->{}"
    assert parse_endo_line(pline, XY) == COLLAPSE_2
    with pytest.raises(Exception, match="misses"):
        parse_endo_line("lambda: 1->{1,2}", XY)


TABLE_KINDS = ["partition", "xor", "flipped", "shrunk", "random"]


def random_table(n: int, kind: str, rng: random.Random) -> SubsetMapTable:
    """A partition or XOR table, one with a few entries' bits flipped or
    cleared, or a random table."""
    elements = tuple(f"x{i}" for i in range(n))
    if kind == "random" or n == 0:
        return SubsetMapTable(elements, tuple(rng.randrange(1 << n) for _ in masks(n)))
    endo = (random_xor_endo(elements, rng) if kind == "xor" or rng.random() < 0.3
            else random_partition_endo(elements, rng))
    images = list(endo.table().table)
    for _ in range(rng.randint(1, 3) if kind in ("flipped", "shrunk") else 0):
        m = rng.randrange(1 << n)
        if kind == "flipped":
            images[m] ^= 1 << rng.randrange(n)
        else:
            images[m] &= rng.randrange(1 << n)
    return SubsetMapTable(elements, tuple(images))


def test_table_laws_match_boxed_reference_on_every_small_table():
    """All 1 + 4 + 256 tables with n <= 2."""
    for n in range(3):
        elements = tuple(f"x{i}" for i in range(n))
        for images in product(masks(n), repeat=1 << n):
            table = SubsetMapTable(elements, images)
            assert is_separating(table) == boxed_is_separating(table)
            assert is_boolean_endo(table) == boxed_is_boolean_endo(table)


@given(st.integers(0, 7), st.sampled_from(TABLE_KINDS), st.integers(0, 2**32 - 1))
def test_table_laws_match_boxed_reference(n, kind, seed):
    table = random_table(n, kind, random.Random(seed))
    assert is_separating(table) == boxed_is_separating(table)
    assert is_boolean_endo(table) == boxed_is_boolean_endo(table)


def test_table_kinds_reach_every_verdict():
    rng = random.Random(0)
    seen = set()
    for n in range(1, 8):
        for kind in TABLE_KINDS:
            for _ in range(10):
                table = random_table(n, kind, rng)
                seen.add((kind, is_separating(table), is_boolean_endo(table)))
    assert {("partition", True, True), ("xor", False, False), ("flipped", False, False),
            ("shrunk", True, False), ("random", False, False)} <= seen
    assert all(separating for _, separating, boolean in seen if boolean)
