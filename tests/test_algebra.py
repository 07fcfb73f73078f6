from itertools import product

import pytest
from hypothesis import given

from incalg import (
    FIElement,
    NotAUnitError,
    ParseError,
    PosetError,
    basis_element,
    builtin_poset,
    format_element,
    indicator,
    jordan_product,
    parse_element,
)

from conftest import F2, F3, F5, Q, poset_field_elements

CHAIN2 = builtin_poset("chain:2")
CHAIN3 = builtin_poset("chain:3")


def dict_convolve(poset, field, a, b):
    """Independent convolution oracle: direct double sum over interval maps."""
    out = {}
    for (x, y) in poset.basis_pairs:
        acc = field.zero
        for z in poset.elements:
            if poset.less_equal(x, z) and poset.less_equal(z, y):
                acc = acc + a.coeff(x, z) * b.coeff(z, y)
        out[(x, y)] = acc
    return FIElement.from_dict(poset, field, out)


def test_basis_composition_on_chain():
    e_12 = basis_element(CHAIN3, F3, "1", "2")
    e_23 = basis_element(CHAIN3, F3, "2", "3")
    assert e_12 * e_23 == basis_element(CHAIN3, F3, "1", "3")
    assert e_23 * e_12 == FIElement.zero(CHAIN3, F3)


@given(data=poset_field_elements(count=1))
def test_delta_is_identity(data):
    poset, field, (a,) = data
    delta = FIElement.delta(poset, field)
    assert delta * a == a
    assert a * delta == a


def test_hand_convolution_on_two_chain():
    a = parse_element("1*e[1] + 2*e[2] + 1*e[1,2]", CHAIN2, F3)
    b = parse_element("2*e[1] + 1*e[2] + 0*e[1,2]", CHAIN2, F3)
    # frozen expectation, re-derived by the independent dict oracle
    expected = FIElement.from_dict(CHAIN2, F3, {("1", "1"): 2, ("2", "2"): 2, ("1", "2"): 1})
    assert dict_convolve(CHAIN2, F3, a, b) == expected
    assert a * b == expected


@given(data=poset_field_elements(count=2))
def test_convolution_matches_dict_oracle(data):
    poset, field, (a, b) = data
    assert a * b == dict_convolve(poset, field, a, b)


@given(data=poset_field_elements(count=3))
def test_ring_axioms(data):
    poset, field, (a, b, c) = data
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_decompose_examples():
    delta = FIElement.delta(CHAIN2, F3)
    assert delta.decompose() == (delta, FIElement.zero(CHAIN2, F3))
    e_12 = basis_element(CHAIN2, F3, "1", "2")
    assert e_12.decompose() == (FIElement.zero(CHAIN2, F3), e_12)
    a = parse_element("1*e[1] + 2*e[2] + 1*e[1,2]", CHAIN2, F3)
    diag, rad = a.decompose()
    assert diag == parse_element("1*e[1] + 2*e[2]", CHAIN2, F3)
    assert rad == parse_element("1*e[1,2]", CHAIN2, F3)
    assert diag + rad == a


@given(data=poset_field_elements(count=2))
def test_decompose_is_linear_and_radical_is_radical(data):
    poset, field, (a, b) = data
    assert (a + b).decompose()[0] == a.decompose()[0] + b.decompose()[0]
    _, rad = a.decompose()
    assert not any(rad.diagonal())


def test_unit_criterion_examples():
    delta = FIElement.delta(CHAIN2, F3)
    assert delta.is_unit()
    assert (delta + basis_element(CHAIN2, F3, "1", "2")).is_unit()
    assert not basis_element(CHAIN2, F3, "1", "1").is_unit()


@pytest.mark.parametrize("field", [F2, F3])
def test_unit_iff_diagonal_part_unit_exhaustive(field):
    for values in product([s.value for s in field.elements()], repeat=3):
        a = FIElement.from_vector(CHAIN2, field, values)
        assert a.is_unit() == a.decompose()[0].is_unit()


def test_invert_nilpotent_example():
    delta = FIElement.delta(CHAIN2, F3)
    e_12 = basis_element(CHAIN2, F3, "1", "2")
    assert (delta + e_12).inverse() == delta - e_12


def exhaustive_inverse(a, field):
    """Independent inversion oracle: scan all q^d candidates for a two-sided
    inverse."""
    poset = a.poset
    delta = FIElement.delta(poset, field)
    found = [
        b
        for values in product([s.value for s in field.elements()], repeat=poset.dimension)
        if (b := FIElement.from_vector(poset, field, values)) * a == delta
        and a * b == delta
    ]
    assert len(found) == 1
    return found[0]


def test_invert_self_inverse_example():
    a = parse_element("2*e[1] + 1*e[2] + 1*e[1,2]", CHAIN2, F3)
    expected = exhaustive_inverse(a, F3)
    assert expected == a  # the element is its own inverse
    assert a.inverse() == expected


def test_invert_delta():
    delta = FIElement.delta(CHAIN2, F5)
    assert delta.inverse() == delta


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_invert_all_units_of_two_chain(field):
    delta = FIElement.delta(CHAIN2, field)
    count = 0
    for values in product([s.value for s in field.elements()], repeat=3):
        a = FIElement.from_vector(CHAIN2, field, values)
        if not a.is_unit():
            with pytest.raises(NotAUnitError):
                a.inverse()
            continue
        count += 1
        inv = a.inverse()
        assert a * inv == delta
        assert inv * a == delta
    assert count == (field.p - 1) ** 2 * field.p


def test_inverse_series_stops_at_the_chain_bound(monkeypatch):
    """On chain:4 the unit delta + (all strict pairs) has nu^3 != 0, so its
    series needs the powers nu, nu^2 and nu^3: three convolutions, and none
    to learn that nu^4 = 0, which the longest chain of 4 already says."""
    chain = builtin_poset("chain:4")
    a = FIElement.from_vector(chain, Q, [1] * chain.dimension)
    calls = []
    convolve = type(Q).convolve
    monkeypatch.setattr(type(Q), "convolve",
                        lambda self, *args: calls.append(1) or convolve(self, *args))
    inverse = a.inverse()
    assert len(calls) == chain.longest_chain - 1 == 3
    monkeypatch.undo()
    assert a * inverse == FIElement.delta(chain, Q) == inverse * a


def level_set(a, k) -> frozenset[str]:
    """The elements x with diagonal coefficient of ``a`` equal to k."""
    k = a.field.scalar(k)
    return frozenset(x for x, c in zip(a.poset.elements, a.diagonal()) if c == k)


def test_level_sets():
    delta = FIElement.delta(CHAIN3, F3)
    assert level_set(delta, F3.one) == frozenset({"1", "2", "3"})
    e_a = indicator(CHAIN3, F3, ["1", "3"])
    assert level_set(e_a, F3.zero) == frozenset({"2"})
    anti = builtin_poset("antichain:3")
    a = parse_element("1*e[1] + 2*e[2] + 0*e[3]", anti, F3)
    assert level_set(a, F3.scalar(2)) == frozenset({"2"})


@given(data=poset_field_elements(count=1, fields=[F2, F3, F5]))
def test_level_sets_partition_the_poset(data):
    poset, field, (a,) = data
    seen = set()
    for k in field.elements():
        level = level_set(a, k)
        assert not (level & seen)
        seen |= level
    assert seen == set(poset.elements)


def test_indicator_and_basis():
    assert indicator(CHAIN2, F3, ["1", "2"]) == FIElement.delta(CHAIN2, F3)
    assert indicator(CHAIN2, F3, []) == FIElement.zero(CHAIN2, F3)
    with pytest.raises(PosetError):
        basis_element(CHAIN2, F3, "2", "1")


def test_jordan_product_examples():
    e_1 = basis_element(CHAIN2, F3, "1", "1")
    e_12 = basis_element(CHAIN2, F3, "1", "2")
    assert jordan_product(e_1, e_12) == e_12
    e_1_f2 = basis_element(CHAIN2, F2, "1", "1")
    e_12_f2 = basis_element(CHAIN2, F2, "1", "2")
    assert jordan_product(e_1_f2, e_12_f2) == e_12_f2
    a = parse_element("1*e[1] + 2*e[2] + 1*e[1,2]", CHAIN2, F3)
    assert jordan_product(a, a) == (a * a).scale(F3.scalar(2))
    delta = FIElement.delta(CHAIN2, F3)
    assert jordan_product(delta, a) == a.scale(F3.scalar(2))


def test_idempotents():
    for labels in ([], ["1"], ["2"], ["1", "2"]):
        assert indicator(CHAIN2, F3, labels).is_idempotent()
    e_x_plus_e_xy = basis_element(CHAIN2, F3, "1", "1") + basis_element(CHAIN2, F3, "1", "2")
    assert e_x_plus_e_xy.is_idempotent()
    delta = FIElement.delta(CHAIN2, F3)
    assert not (delta + basis_element(CHAIN2, F3, "1", "2")).is_idempotent()


def test_central_examples():
    delta = FIElement.delta(CHAIN2, F3)
    assert delta.scale(F3.scalar(2)).is_central()
    assert not basis_element(CHAIN2, F3, "1", "1").is_central()


@pytest.mark.parametrize("poset", [CHAIN2, builtin_poset("v")])
@pytest.mark.parametrize("field", [F2, F3])
def test_central_iff_scalar_multiple_of_delta_on_connected(poset, field):
    assert poset.is_connected()
    delta = FIElement.delta(poset, field)
    multiples = {delta.scale(k) for k in field.elements()}
    for values in product([s.value for s in field.elements()], repeat=poset.dimension):
        a = FIElement.from_vector(poset, field, values)
        assert a.is_central() == (a in multiples)


@given(data=poset_field_elements(count=1))
def test_radical_nilpotency_bound(data):
    poset, field, (a,) = data
    _, rad = a.decompose()
    power = FIElement.delta(poset, field)
    for _ in range(poset.longest_chain):
        power = power * rad
    assert power.is_zero()


@given(data=poset_field_elements(count=1))
def test_element_literal_round_trip(data):
    poset, field, (a,) = data
    assert parse_element(format_element(a), poset, field) == a


def test_element_literal_errors():
    with pytest.raises(ParseError):
        parse_element("1*e[2,1]", CHAIN2, F3)
    with pytest.raises(ParseError):
        parse_element("e(1)", CHAIN2, F3)
    assert parse_element("e[1] + 2*e[1]", CHAIN2, F3) == parse_element("0*e[1]", CHAIN2, F3)
    # terms split only at a + after a term's closing ]: a scalar keeps its
    # sign and the + of its exponent
    assert parse_element("1e+3*e[1] + 1*e[1,2]", CHAIN2, Q) == FIElement.from_dict(
        CHAIN2, Q, {("1", "1"): 1000, ("1", "2"): 1})
    assert parse_element("+2*e[1]", CHAIN2, F3) == FIElement.from_dict(
        CHAIN2, F3, {("1", "1"): 2})
    for text in ("1*e[1] +", "+", "1*e[1] 2*e[2]"):
        with pytest.raises(ParseError):
            parse_element(text, CHAIN2, F3)


def test_rational_coefficients_format():
    a = parse_element("1/2*e[1] + -3/2*e[2]", CHAIN2, Q)
    assert format_element(a) == "1/2*e[1] + -3/2*e[2]"
    assert a.coeff("1", "1") == Q.scalar("1/2")
