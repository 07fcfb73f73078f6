import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from incalg import (
    ClassificationError,
    FIElement,
    FieldMismatchError,
    GateError,
    InfiniteFieldError,
    LinearMap,
    MismatchError,
    ParseError,
    PartitionEndo,
    PosetError,
    PreserverSpec,
    PrimeField,
    Scalar,
    ScalarError,
    XorEndo,
    basis_element,
    build_preserver,
    builtin_poset,
    classify,
    enumerate_preservers,
    extract_radical_map,
    extract_subset_map,
    format_linear_map,
    format_poset,
    format_preserver_spec,
    is_jordan_endo,
    is_strong,
    parse_element,
    parse_linear_map,
    parse_preserver_spec,
    preserves_idempotents,
    preserves_inverses,
    preserves_invertibility,
    random_preserver_spec,
    resolve_poset,
)
from incalg.algebra import format_element
from incalg.preservers import (
    _first_full_pattern,
    find_jordan_counterexample,
    find_nonpreserved_unit,
    find_strongness_counterexample,
    iter_idempotents,
)

from conftest import F2, F3, F5, POSET_POOL, Q, RING_FIELDS, random_rational, scalars

CHAIN2 = builtin_poset("chain:2")
CHAIN3 = builtin_poset("chain:3")
ANTI2 = builtin_poset("antichain:2")
ANTI3 = builtin_poset("antichain:3")


def zero_psi(poset, field):
    return LinearMap.zero(poset, field)


def radical_projection(poset, field):
    n, d = poset.n, poset.dimension
    rows = [[1 if (i == j and i >= n) else 0 for j in range(d)] for i in range(d)]
    return LinearMap.from_rows(poset, field, rows)


def char2_counterexample_map():
    """The inverse-preserving, non-Jordan map on the 3-chain over F_2."""
    e = {pair: basis_element(CHAIN3, F2, *pair) for pair in CHAIN3.basis_pairs}
    return LinearMap.from_basis_images(CHAIN3, F2, {
        ("1", "1"): e[("1", "1")],
        ("2", "2"): e[("1", "1")] + e[("2", "2")],
        ("3", "3"): e[("1", "1")] + e[("3", "3")],
        ("1", "2"): e[("1", "2")],
        ("1", "3"): FIElement.zero(CHAIN3, F2),
        ("2", "3"): FIElement.zero(CHAIN3, F2),
    })


def test_from_basis_images_rejects_a_non_basis_pair():
    with pytest.raises(PosetError, match="not a basis pair: '2' <= '1' fails"):
        LinearMap.from_basis_images(CHAIN2, F3, {("2", "1"): FIElement.zero(CHAIN2, F3)})


@pytest.mark.parametrize("other", [CHAIN3, ANTI3], ids=["other-dimension", "same-dimension"])
def test_from_basis_images_rejects_an_image_over_another_poset(other):
    with pytest.raises(MismatchError, match="image of e\\[1,1\\] lives over a different poset"):
        LinearMap.from_basis_images(CHAIN2, F3, {("1", "1"): FIElement.delta(other, F3)})


def test_from_basis_images_names_a_strict_pair_whose_image_is_over_another_poset():
    """The message names both ends of the pair, in order."""
    with pytest.raises(MismatchError) as info:
        LinearMap.from_basis_images(CHAIN2, F3, {("1", "2"): FIElement.delta(ANTI3, F3)})
    assert str(info.value) == "image of e[1,2] lives over a different poset"


def test_apply_identity_and_zero():
    a = parse_element("1*e[1] + 2*e[2] + 1*e[1,2]", CHAIN2, F3)
    assert LinearMap.identity(CHAIN2, F3).apply(a) == a
    assert LinearMap.zero(CHAIN2, F3).apply(a) == FIElement.zero(CHAIN2, F3)


def test_char2_map_diagonal_images():
    phi = char2_counterexample_map()
    e_2 = basis_element(CHAIN3, F2, "2", "2")
    assert phi.apply(e_2) == parse_element("e[1] + e[2]", CHAIN3, F2)
    assert phi.is_unital()
    e_12 = basis_element(CHAIN3, F2, "1", "2")
    assert phi.apply(e_12) == e_12


def test_build_identity_spec_gives_identity_map():
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    spec = PreserverSpec(CHAIN2, F3, endo, radical_projection(CHAIN2, F3))
    assert build_preserver(spec) == LinearMap.identity(CHAIN2, F3)


def test_build_diagonal_truncation():
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    spec = PreserverSpec(CHAIN2, F3, endo, zero_psi(CHAIN2, F3))
    phi = build_preserver(spec)
    a = parse_element("1*e[1] + 2*e[2] + 1*e[1,2]", CHAIN2, F3)
    assert phi.apply(a) == a.decompose()[0]
    assert is_strong(phi)


def test_build_z2_antichain_example():
    # diagonal action alpha -> (a_xx + a_yy + a_zz) e_x + a_yy e_y + a_zz e_z
    endo = XorEndo(ANTI3.elements, (0b001, 0b011, 0b101))
    spec = PreserverSpec(ANTI3, F2, endo, zero_psi(ANTI3, F2))
    phi = build_preserver(spec)
    assert phi.apply(basis_element(ANTI3, F2, "1", "1")) == parse_element("e[1]", ANTI3, F2)
    assert phi.apply(basis_element(ANTI3, F2, "2", "2")) == parse_element(
        "e[1] + e[2]", ANTI3, F2)
    assert phi.apply(basis_element(ANTI3, F2, "3", "3")) == parse_element(
        "e[1] + e[3]", ANTI3, F2)
    assert phi.is_unital()
    assert is_strong(phi)


def test_spec_validation():
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    with pytest.raises(Exception, match="annihilate delta"):
        PreserverSpec(CHAIN2, F3, endo, LinearMap.from_rows(
            CHAIN2, F3, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    with pytest.raises(Exception, match="diagonal-output rows"):
        PreserverSpec(CHAIN2, F3, endo, LinearMap.identity(CHAIN2, F3))
    with pytest.raises(Exception, match="GF\\(2\\)-matrix form"):
        PreserverSpec(CHAIN2, F2, endo, zero_psi(CHAIN2, F2))
    xor = XorEndo(CHAIN2.elements, (0b01, 0b10))
    with pytest.raises(Exception, match="partition form"):
        PreserverSpec(CHAIN2, F3, xor, zero_psi(CHAIN2, F3))


def test_extract_subset_map_identity():
    table = extract_subset_map(LinearMap.identity(CHAIN2, F3))
    assert table.table == (0b00, 0b01, 0b10, 0b11)


def test_extract_subset_map_rejects_scaling():
    phi = LinearMap.identity(CHAIN2, F3).scale(F3.scalar(2))
    with pytest.raises(ClassificationError, match="from-vf-to-lb") as err:
        extract_subset_map(phi)
    assert "diagonal value 2" in str(err.value)


def test_extract_radical_map():
    assert extract_radical_map(LinearMap.identity(CHAIN2, F3)) == radical_projection(CHAIN2, F3)
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    truncation = build_preserver(PreserverSpec(CHAIN2, F3, endo, zero_psi(CHAIN2, F3)))
    assert extract_radical_map(truncation) == zero_psi(CHAIN2, F3)
    phi = char2_counterexample_map()
    psi = extract_radical_map(phi)
    e_12 = basis_element(CHAIN3, F2, "1", "2")
    assert psi.apply(e_12) == e_12
    assert psi.apply(basis_element(CHAIN3, F2, "1", "3")).is_zero()
    assert psi.apply(basis_element(CHAIN3, F2, "2", "3")).is_zero()
    for x in CHAIN3.elements:
        assert psi.apply(basis_element(CHAIN3, F2, x, x)).is_zero()


def test_is_unital():
    assert LinearMap.identity(CHAIN2, F3).is_unital()
    assert not LinearMap.identity(CHAIN2, F5).scale(F5.scalar(2)).is_unital()
    assert char2_counterexample_map().is_unital()


def test_preserves_invertibility_basic():
    assert preserves_invertibility(LinearMap.identity(CHAIN2, F3))
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    truncation = build_preserver(PreserverSpec(CHAIN2, F3, endo, zero_psi(CHAIN2, F3)))
    assert preserves_invertibility(truncation)


def test_swap_of_diagonal_and_radical_coordinates_is_not_a_preserver():
    # e_1 <-> e_12, identity elsewhere: a diagonal row reads a radical input
    phi = LinearMap.from_rows(CHAIN2, F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    witness = find_nonpreserved_unit(phi)
    assert witness is not None
    assert witness.is_unit()
    assert not phi.apply(witness).is_unit()


def test_nonpreserved_unit_witness_from_diagonal_scan():
    # diagonal row (2, 2) kills the unit diag(1, 2) over F_3
    phi = LinearMap.from_rows(ANTI2, F3, [[2, 2], [0, 1]])
    witness = find_nonpreserved_unit(phi)
    assert witness is not None
    assert witness.is_unit() and not phi.apply(witness).is_unit()


def test_pattern_witnesses_hold_canonical_values():
    """The strongness witness that ``check`` reports is built from canonical
    values: over Q its coefficients are all ``Fraction``s, as in every other
    element over Q."""
    witness = _first_full_pattern(CHAIN2, Q, (3, 0))
    assert format_element(witness) == "1/1*e[1]"
    assert all(type(c.value) is Fraction for c in witness.coeffs)


def _holds_canonical_values(a: FIElement) -> bool:
    field = a.field
    if field == Q:
        return all(type(c.value) is Fraction for c in a.coeffs)
    return all(type(c.value) is int and 0 <= c.value < field.p for c in a.coeffs)


@pytest.mark.parametrize("field", [F2, F3, F5, Q], ids=str)
def test_unchecked_elements_hold_canonical_values(field):
    """``apply``, ``delta``, products, inverses and every pattern witness
    box values that the library computed, without the constructor's check:
    each coefficient is still a ``Fraction`` over Q and an int in range(p)
    over Fp. So is every output of the kernels that is an empty sum: a
    product of elements on disjoint supports, and the image of an element
    under a map that is zero on its support."""
    rng = random.Random(5)
    d = CHAIN3.dimension
    kind = Fraction if field == Q else int

    def value():
        return random_rational(rng) if field == Q else rng.randrange(field.p)

    delta = FIElement.delta(CHAIN3, field)
    assert _holds_canonical_values(delta)
    e00, e11 = ([field.canonical(int(k == x)) for k in range(d)] for x in (0, 1))
    for a, b in ((e11, e00), (e00, e11)):
        product_values = field.convolve(CHAIN3.convolution_plan, a, b)
        assert not any(product_values) and all(type(v) is kind for v in product_values)
    rows = [[0] + [field.canonical(value()) for _ in range(d - 1)] for _ in range(d)]
    image_values = field.matvec(rows, [(0, field.canonical(1))])
    assert not any(image_values) and all(type(v) is kind for v in image_values)
    for _ in range(20):
        phi = LinearMap.from_rows(CHAIN3, field, [[value() for _ in range(d)] for _ in range(d)])
        a = FIElement.from_vector(CHAIN3, field, [value() for _ in range(d)])
        assert _holds_canonical_values(phi.apply(a))
        assert _holds_canonical_values(phi.apply(delta))
        b = FIElement.from_vector(CHAIN3, field, [value() for _ in range(d)])
        assert _holds_canonical_values(a * b) and _holds_canonical_values(a * a)
        unit = FIElement.from_vector(
            CHAIN3, field, [value() or 1 if k < CHAIN3.n else value() for k in range(d)])
        assert _holds_canonical_values(unit.inverse())
    images = [(0b011, 0b100, 0b000), (0b001, 0b010, 0b100), (0b111, 0b000, 0b000)]
    witnesses = [_first_full_pattern(CHAIN3, field, im) for im in images]
    if field != Q:
        endo = XorEndo if field == F2 else PartitionEndo
        collapse = endo(CHAIN2.elements, (0b11, 0b00))
        phi = build_preserver(PreserverSpec(CHAIN2, field, collapse, zero_psi(CHAIN2, field)))
        witnesses.append(find_strongness_counterexample(phi))
        killer = LinearMap.from_rows(CHAIN2, field, [[1, field.p - 1, 0], [0, 1, 0], [0, 0, 1]])
        witnesses.append(find_nonpreserved_unit(killer))
    assert sum(w is not None for w in witnesses) == len(witnesses) - 1
    assert all(_holds_canonical_values(w) for w in witnesses if w is not None)


def test_equal_values_over_different_fields_stay_unequal():
    """Elements compare their values only once poset and field agree."""
    assert FIElement.delta(CHAIN2, F3) != FIElement.delta(CHAIN2, F5)
    identity3, identity5 = LinearMap.identity(CHAIN2, F3), LinearMap.identity(CHAIN2, F5)
    assert identity3.apply(FIElement.delta(CHAIN2, F3)) != identity5.apply(
        FIElement.delta(CHAIN2, F5))
    assert FIElement.delta(CHAIN2, F3) != FIElement.delta(ANTI3, F3)
    assert FIElement.delta(CHAIN2, F3) == identity3.apply(FIElement.delta(CHAIN2, F3))


def test_refuting_block_raises_again_on_the_next_read():
    """A refuting diagonal block keeps no column masks, so the second
    extraction refutes with the same law, message and witness."""
    phi = LinearMap.from_rows(ANTI2, F3, [[1, 1], [0, 1]])
    errors = []
    for _ in range(2):
        with pytest.raises(ClassificationError) as info:
            extract_subset_map(phi)
        errors.append((info.value.law, str(info.value), info.value.witness))
    assert errors[0] == errors[1]
    assert errors[0][2] == "A = {1, 2}"


def test_column_masks_change_neither_equality_nor_hash():
    """The diagonal block's column masks, kept after the first read, are
    not part of a map's value."""
    for field in (F2, F3, Q):
        phi = LinearMap.identity(CHAIN3, field)
        twin = LinearMap.identity(CHAIN3, field)
        before = hash(phi)
        table = extract_subset_map(phi)
        assert extract_subset_map(phi) == table
        assert phi == twin and twin == phi
        assert hash(phi) == before == hash(twin)
        assert len({phi, twin}) == 1


def test_preserves_invertibility_rejects_rationals():
    with pytest.raises(InfiniteFieldError):
        preserves_invertibility(LinearMap.identity(CHAIN2, Q))


def test_strongness_examples():
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    truncation = build_preserver(PreserverSpec(CHAIN2, F3, endo, zero_psi(CHAIN2, F3)))
    assert is_strong(truncation)

    collapse = PartitionEndo(ANTI2.elements, (0b11, 0b00))
    phi = build_preserver(PreserverSpec(ANTI2, F3, collapse, zero_psi(ANTI2, F3)))
    counterexample = find_strongness_counterexample(phi)
    assert counterexample is not None
    assert not counterexample.is_unit()
    assert phi.apply(counterexample).is_unit()
    # phi(e_1) = delta: the non-unit e_1 hits a unit
    assert phi.apply(basis_element(ANTI2, F3, "1", "1")) == FIElement.delta(ANTI2, F3)


def test_is_strong_requires_a_unital_preserver():
    with pytest.raises(ValueError):
        is_strong(LinearMap.zero(CHAIN2, F3))


def test_preserves_inverses_examples():
    assert preserves_inverses(LinearMap.identity(CHAIN2, F3))
    assert preserves_inverses(char2_counterexample_map())
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    truncation = build_preserver(PreserverSpec(CHAIN2, F3, endo, zero_psi(CHAIN2, F3)))
    assert preserves_inverses(truncation)


def test_jordan_examples():
    assert is_jordan_endo(LinearMap.identity(CHAIN2, F3))
    # reversal onto the dual chain: an anti-automorphism, hence Jordan
    reversal = LinearMap.from_rows(CHAIN2, F3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert is_jordan_endo(reversal)
    phi = char2_counterexample_map()
    assert not is_jordan_endo(phi)
    a, b = find_jordan_counterexample(phi)
    assert a == basis_element(CHAIN3, F2, "2", "2")
    assert b == basis_element(CHAIN3, F2, "1", "2")


def test_reversal_map_is_an_anti_endomorphism():
    reversal = LinearMap.from_rows(CHAIN2, F3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    for vals_a in product(range(3), repeat=3):
        for vals_b in product(range(3), repeat=3):
            a = FIElement.from_vector(CHAIN2, F3, vals_a)
            b = FIElement.from_vector(CHAIN2, F3, vals_b)
            assert reversal.apply(a * b) == reversal.apply(b) * reversal.apply(a)


def test_preserves_idempotents():
    assert preserves_idempotents(LinearMap.identity(CHAIN2, F3))
    endo = PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    truncation = build_preserver(PreserverSpec(CHAIN2, F3, endo, zero_psi(CHAIN2, F3)))
    e = basis_element(CHAIN2, F3, "1", "1") + basis_element(CHAIN2, F3, "1", "2")
    assert truncation.apply(e) == basis_element(CHAIN2, F3, "1", "1")
    assert preserves_idempotents(truncation)
    with pytest.raises(InfiniteFieldError):
        preserves_idempotents(LinearMap.identity(CHAIN2, Q))


def test_idempotent_scan_refuses_beyond_its_gate():
    """chain:3 over Fp 11 has 11^6 = 1,771,561 elements, over the scan gate:
    the verdict is refused, not settled on a subfamily, and the stream of
    idempotents refuses on its own."""
    phi = LinearMap.identity(CHAIN3, PrimeField(11))
    with pytest.raises(GateError) as info:
        preserves_idempotents(phi)
    assert info.value.size == 11**6
    assert "1771561 cases" in str(info.value)
    with pytest.raises(GateError):
        next(iter_idempotents(CHAIN3, PrimeField(11)))


def test_round_trip_exhaustive_tiny_and_randomized():
    from incalg import enumerate_specs

    for poset, field in ((CHAIN2, F2), (CHAIN2, F3), (ANTI2, F2), (ANTI2, F3)):
        for spec in enumerate_specs(poset, field):
            assert classify(build_preserver(spec)) == spec
    rng = random.Random(2024)
    for _ in range(25):
        poset = random.Random(rng.random()).choice([CHAIN2, CHAIN3, ANTI3])
        field = random.Random(rng.random()).choice([F2, F3, F5, Q])
        spec = random_preserver_spec(poset, field, rng)
        assert classify(build_preserver(spec)) == spec


@pytest.mark.parametrize("name", ["antichain:12", "antichain:16", "chain:16"])
def test_classify_over_q_reaches_the_algebra_cap(name):
    """The subset table has no gate below the algebra's n <= 16 cap: the
    identity and a seeded random normal form classify without override."""
    poset = builtin_poset(name)
    identity = PreserverSpec(poset, Q, PartitionEndo(poset.elements,
                                                     tuple(1 << i for i in range(poset.n))),
                             radical_projection(poset, Q))
    assert classify(LinearMap.identity(poset, Q)) == identity
    spec = random_preserver_spec(poset, Q, random.Random(16))
    assert classify(build_preserver(spec)) == spec


def test_built_preservers_pass_the_oracle_and_laws():
    rng = random.Random(99)
    delta3 = FIElement.delta(CHAIN2, F3)
    for _ in range(20):
        spec = random_preserver_spec(CHAIN2, F3, rng)
        phi = build_preserver(spec)
        assert phi.is_unital()
        assert preserves_invertibility(phi)
        # radical maps into the radical, diagonals only feed diagonals
        assert phi.apply(basis_element(CHAIN2, F3, "1", "2")).decompose()[0].is_zero()
        for vals in product(range(3), repeat=3):
            a = FIElement.from_vector(CHAIN2, F3, vals)
            assert phi.apply(a).diagonal() == phi.apply(a.decompose()[0]).diagonal()
    del delta3


def test_extracted_endo_structure_matches_field_regime():
    rng = random.Random(5)
    for _ in range(10):
        spec = random_preserver_spec(CHAIN2, F3, rng)
        table = extract_subset_map(build_preserver(spec))
        from incalg import is_boolean_endo, is_separating

        assert is_separating(table)
        assert is_boolean_endo(table)
    for _ in range(10):
        spec = random_preserver_spec(CHAIN2, F2, rng)
        table = extract_subset_map(build_preserver(spec))
        full = 0b11
        assert table.table[full] == full
        for a in range(4):
            for b in range(4):
                assert table.table[a ^ b] == table.table[a] ^ table.table[b]


def test_gate_errors():
    """The pattern scans gate on their own counts: chain:7 over Fp 11 has
    10^7 nonzero diagonal patterns."""
    big = builtin_poset("chain:7")
    with pytest.raises(GateError) as info:
        preserves_invertibility(LinearMap.identity(big, PrimeField(11)))
    assert info.value.size == 10**7
    five = builtin_poset("chain:5")
    with pytest.raises(GateError):
        preserves_inverses(LinearMap.identity(five, F3))


def test_strongness_gate_comes_before_its_precondition_scan(monkeypatch):
    """antichain:3 over Fp 101: 101^3 strongness patterns are over the gate,
    so the 100^3-pattern preserver scan of the precondition never runs."""
    from incalg import preservers

    def refuse(*args, **kwargs):
        raise AssertionError("preserver scan run before the strongness gate")

    monkeypatch.setattr(preservers, "find_nonpreserved_unit", refuse)
    with pytest.raises(GateError) as info:
        is_strong(LinearMap.identity(ANTI3, PrimeField(101)))
    assert info.value.size == 101**3


def test_diagonal_scans_gate_before_listing_the_field(monkeypatch):
    big = PrimeField(1_000_003)
    phi = LinearMap.identity(builtin_poset("chain:1"), big)

    def refuse(self):
        raise AssertionError("field elements listed before the gate")

    monkeypatch.setattr(PrimeField, "elements", refuse)
    with pytest.raises(GateError):
        find_nonpreserved_unit(phi)
    with pytest.raises(GateError):
        find_strongness_counterexample(phi)


def test_linear_map_file_round_trip(tmp_path):
    phi = char2_counterexample_map()
    text = format_linear_map(phi)
    assert parse_linear_map(text) == phi
    # cross-checks against explicit poset/field
    assert parse_linear_map(text, poset=CHAIN3, field=F2) == phi
    with pytest.raises(ParseError, match="different field"):
        parse_linear_map(text, field=F3)
    with pytest.raises(ParseError, match="different poset"):
        parse_linear_map(text, poset=CHAIN2)


def test_linear_map_file_errors():
    bad_rows = "map\nfield: Fp 3\nposet: chain:2\n1 0\n0 1\n"
    with pytest.raises(ParseError, match="expected 3 entries"):
        parse_linear_map(bad_rows)
    missing = "map\nfield: Fp 3\nposet: chain:2\n1 0 0\n0 1 0\n"
    with pytest.raises(ParseError, match="expected 3 matrix rows"):
        parse_linear_map(missing)


DUPLICATE_HEADERS = [
    ("field", "field: Fp 3\nfield: Fp 5\nposet: chain:2\n"),
    ("poset", "poset: chain:2\nposet: antichain:3\nfield: Fp 3\n"),
]


@pytest.mark.parametrize("line,header", DUPLICATE_HEADERS, ids=["field", "poset"])
def test_duplicate_header_lines_are_rejected(line, header):
    """A second 'field:' or 'poset:' line before the other header line is
    an error, not a silent overwrite, in map and spec files alike."""
    match = rf"line 3: duplicate '{line}:' line"
    with pytest.raises(ParseError, match=match):
        parse_linear_map("map\n" + header + "1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ParseError, match=match):
        parse_preserver_spec("preserver-spec\n" + header + "lambda: 1->{1} 2->{2}\npsi:\n0 0 0\n")


LATE_HEADER_AND_BAD_SCALARS = [
    ("map\nfield: Fp 3\nposet: chain:2\nfield: Fp 5\n1 0 0\n0 1 0\n0 0 1\n",
     "line 4: duplicate 'field:' line"),
    ("map\nfield: Fp 3\nposet: chain:2\n1 0 0\n0 1 0\nposet: chain:2\n",
     "line 6: duplicate 'poset:' line"),
    ("map\nfield: Fp 3\nposet: chain:2\n1 0 0\n0 x 0\n0 0 1\n",
     "line 5: bad Fp 3 scalar literal: 'x'"),
    ("map\nfield: Q\nposet: chain:2\n1 0 0\n0 1 0\n0 0 1/0\n",
     "line 6: bad rational scalar literal: '1/0'"),
    ("preserver-spec\nfield: Fp 3\nposet: chain:2\nlambda: 1->{1} 2->{2}\npsi:\n"
     "poset: chain:2\n", "line 6: duplicate 'poset:' line"),
    ("preserver-spec\nfield: Fp 3\nposet: chain:2\nfield: Fp 5\n"
     "lambda: 1->{1} 2->{2}\npsi:\n0 0 0\n", "line 4: duplicate 'field:' line"),
    ("preserver-spec\nfield: Fp 3\nposet: chain:2\nlambda: 1->{1} 2->{2}\npsi:\n0 0 zz\n",
     "line 6: bad Fp 3 scalar literal: 'zz'"),
]


@pytest.mark.parametrize("text,message", LATE_HEADER_AND_BAD_SCALARS, ids=[
    "map-late-field", "map-late-poset", "map-bad-fp", "map-bad-q",
    "spec-late-poset", "spec-late-field", "spec-bad-psi"])
def test_late_header_lines_and_bad_scalars_name_their_line(text, message):
    """A 'field:' or 'poset:' line after both header lines is a duplicate at
    its own line, not a row of bad scalars, and a bad scalar in a matrix or
    psi row names its line."""
    parse = parse_preserver_spec if text.startswith("preserver-spec") else parse_linear_map
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_spec_file_round_trip():
    endo = PartitionEndo(CHAIN2.elements, (0b10, 0b01))
    psi = LinearMap.from_rows(CHAIN2, F3, [[0, 0, 0], [0, 0, 0], [1, 2, 2]])
    spec = PreserverSpec(CHAIN2, F3, endo, psi)
    text = format_preserver_spec(spec)
    assert parse_preserver_spec(text) == spec
    xspec = PreserverSpec(CHAIN2, F2, XorEndo(CHAIN2.elements, (0b11, 0b00)),
                          LinearMap.from_rows(CHAIN2, F2, [[0] * 3, [0] * 3, [1, 1, 1]]))
    assert parse_preserver_spec(format_preserver_spec(xspec)) == xspec


def test_map_and_spec_files_round_trip_over_a_dual_poset(tmp_path, monkeypatch):
    """``Poset.dual`` names the dual of ``v`` as ``dual(v)``, and of a poset
    file as ``dual(<path>)``; map and spec files that write those names
    parse back to the same poset, map and normal form."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed.txt").write_text(format_poset(POSET_POOL[-1]))
    rng = random.Random(3)
    for dual, name in ((builtin_poset("v").dual(), "dual(v)"),
                       (resolve_poset("mixed.txt").dual(), "dual(mixed.txt)")):
        assert dual.name == name and resolve_poset(name) == dual
        for field in (F2, F3, Q):
            spec = random_preserver_spec(dual, field, rng)
            phi = build_preserver(spec)
            text = format_linear_map(phi)
            assert f"poset: {name}\n" in text
            assert parse_linear_map(text) == phi
            assert format_linear_map(parse_linear_map(text)) == text
            text = format_preserver_spec(spec)
            assert parse_preserver_spec(text) == spec
            assert format_preserver_spec(parse_preserver_spec(text)) == text
    assert resolve_poset("dual(dual(v))") == builtin_poset("v")
    with pytest.raises(PosetError, match="'nowhere.txt'"):
        resolve_poset("dual(nowhere.txt)")


def test_spec_file_round_trip_with_empty_psi_block():
    endo = PartitionEndo(ANTI2.elements, (0b10, 0b01))
    spec = PreserverSpec(ANTI2, F3, endo, LinearMap.zero(ANTI2, F3))
    text = format_preserver_spec(spec)
    assert text.endswith("psi:\n")
    assert parse_preserver_spec(text) == spec


def test_unital_inverse_preservers_over_f5_preserve_idempotents():
    reversal = LinearMap.from_rows(CHAIN2, F5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    truncation = LinearMap.from_rows(CHAIN2, F5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for phi in (LinearMap.identity(CHAIN2, F5), reversal, truncation):
        assert preserves_inverses(phi)
        assert preserves_idempotents(phi)


def test_spec_file_ending_at_its_lambda_line_lacks_the_psi_block():
    text = "preserver-spec\nfield: Fp 3\nposet: chain:2\nlambda: 1->{1} 2->{2}\n"
    with pytest.raises(ParseError) as info:
        parse_preserver_spec(text)
    assert str(info.value) == "missing 'psi:' block"


def test_spec_file_rejects_psi_not_annihilating_delta():
    text = ("preserver-spec\nfield: Fp 3\nposet: chain:2\n"
            "lambda: 1->{1} 2->{2}\npsi:\n1 0 0\n")
    with pytest.raises(ParseError, match="annihilate delta"):
        parse_preserver_spec(text)


def test_element_construction_checks_coefficients():
    o, z = F3.one, F3.zero
    with pytest.raises(ScalarError):
        FIElement(CHAIN2, F3, [1, 0, 0])
    with pytest.raises(ScalarError):
        FIElement(CHAIN2, F3, [o, z, 0.5])
    with pytest.raises(FieldMismatchError):
        FIElement(CHAIN2, F3, [o, F5.one, z])
    with pytest.raises(FieldMismatchError):
        FIElement(CHAIN2, F3, [o, Q.one, z])
    # an equal field object is the same field
    assert FIElement(CHAIN2, PrimeField(3), [o, o, z]) == FIElement.delta(CHAIN2, F3)


def test_map_construction_checks_entries():
    o, z = F3.one, F3.zero
    with pytest.raises(ScalarError):
        LinearMap(CHAIN2, F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(FieldMismatchError):
        LinearMap(CHAIN2, F3, [[o, z, z], [z, F5.one, z], [z, z, o]])
    with pytest.raises(FieldMismatchError):
        LinearMap(CHAIN2, F3, [[o, z, z], [z, o, z], [z, z, Q.one]])
    with pytest.raises(FieldMismatchError):
        LinearMap.from_rows(CHAIN2, F3, [[1, 0, 0], [0, F5.one, 0], [0, 0, 1]])
    with pytest.raises(MismatchError, match="3x3"):
        LinearMap(CHAIN2, F3, [[o, z, z], [z, o, z]])
    with pytest.raises(MismatchError, match="3x3"):
        LinearMap(CHAIN2, F3, [[o, z, z], [z, o], [z, z, o]])


@pytest.mark.parametrize("field", RING_FIELDS)
def test_map_rows_box_the_stored_values(field):
    rng = random.Random(3)
    denominators = (1, 7) if field is Q else (1,)
    rows = [[field.scalar(Fraction(rng.randint(-9, 9), rng.choice(denominators)))
             for _ in range(6)] for _ in range(6)]
    phi = LinearMap(CHAIN3, field, rows)
    assert phi.rows == tuple(map(tuple, rows))
    assert all(type(c) is Scalar and c.field == field for row in phi.rows for c in row)
    assert phi.values == tuple(tuple(c.value for c in row) for row in rows)


def test_built_maps_equal_checked_maps():
    """The normal form of every census survivor rebuilds, through the
    unchecked constructor, a map equal to the survivor's matrix built
    through the checked one, with the same hash; likewise for random normal
    forms over Q, against a checked map assembled from the owners."""
    census = enumerate_preservers(CHAIN2, F3)
    assert census.oracle_count == 36
    for rec in census.records:
        checked = LinearMap.from_rows(CHAIN2, F3, rec.matrix)
        built = build_preserver(rec.spec)
        assert built == checked and hash(built) == hash(checked)
    rng = random.Random(5)
    for poset in POSET_POOL:
        n = poset.n
        for _ in range(5):
            spec = random_preserver_spec(poset, Q, rng)
            owner = spec.endo.owners()
            rows = [[int(x == owner[y]) for x in range(poset.dimension)] for y in range(n)]
            rows += [[c.value for c in row] for row in spec.radical_map.rows[n:]]
            checked = LinearMap.from_rows(poset, Q, rows)
            built = build_preserver(spec)
            assert built == checked and hash(built) == hash(checked)


@pytest.fixture(scope="module")
def named_pool(tmp_path_factory):
    """POSET_POOL, with each poset that is not a builtin saved to a poset file
    and resolved from it, so that map and spec files can name it."""
    pool = []
    for poset in POSET_POOL:
        try:
            pool.append(builtin_poset(poset.name))
        except PosetError:
            path = tmp_path_factory.mktemp("posets") / "poset.txt"
            path.write_text(format_poset(poset))
            pool.append(resolve_poset(str(path)))
    return pool


@given(data=st.data())
def test_map_file_round_trip_property(named_pool, data):
    poset = data.draw(st.sampled_from(named_pool))
    field = data.draw(st.sampled_from(RING_FIELDS))
    d = poset.dimension
    rows = data.draw(st.lists(st.lists(scalars(field), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    phi = LinearMap(poset, field, rows)
    text = format_linear_map(phi)
    parsed = parse_linear_map(text)
    assert parsed == phi and hash(parsed) == hash(phi)
    assert format_linear_map(parsed) == text


@given(data=st.data())
def test_spec_file_round_trip_property(named_pool, data):
    """Random normal forms, including an antichain's, whose psi block is
    empty."""
    poset = data.draw(st.sampled_from(named_pool))
    field = data.draw(st.sampled_from(RING_FIELDS))
    spec = random_preserver_spec(poset, field, random.Random(data.draw(st.integers(0, 2**32))))
    text = format_preserver_spec(spec)
    parsed = parse_preserver_spec(text)
    assert parsed == spec
    assert format_preserver_spec(parsed) == text


def test_element_of_another_field_refused_by_apply_and_convolution():
    phi = LinearMap.identity(CHAIN2, F3)
    a = FIElement.from_vector(CHAIN2, F5, [1, 2, 3])
    b = FIElement.from_vector(CHAIN2, F3, [1, 2, 0])
    with pytest.raises(FieldMismatchError):
        phi.apply(a)
    with pytest.raises(FieldMismatchError):
        a * b
    with pytest.raises(FieldMismatchError):
        b * a
    # the same element of the map's field goes through both
    assert phi.apply(b) == b
    assert phi.apply(b * b) == b * b
