from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from incalg import (
    FieldMismatchError,
    IncalgError,
    InfiniteFieldError,
    ParseError,
    PrimeField,
    ScalarError,
    format_field,
    parse_field,
    parse_linear_map,
)

from conftest import F2, F3, F5, PRIME_FIELDS, Q, scalars


def test_modular_addition():
    assert F3.scalar(2) + F3.scalar(2) == F3.scalar(1)


def test_rational_addition():
    assert Q.scalar(Fraction(1, 2)) + Q.scalar(Fraction(1, 3)) == Q.scalar(Fraction(5, 6))


def test_additive_identity():
    for field in (F2, F3, Q):
        a = field.scalar(1)
        assert a + field.zero == a


def test_zero_and_one_are_built_once_per_field():
    for field, zero, one in ((F2, 0, 1), (F5, 0, 1), (Q, Fraction(0), Fraction(1))):
        assert field.zero is field.zero and field.one is field.one
        assert field.zero == field.scalar(0) and field.one == field.scalar(1)
        assert (field.zero.value, field.one.value) == (zero, one)
        assert type(field.zero.value) is type(zero)


def test_modular_multiplication():
    assert F5.scalar(3) * F5.scalar(4) == F5.scalar(2)


def test_multiplicative_identity_and_annihilator():
    for field in (F3, F5, Q):
        a = field.scalar(2)
        assert a * field.one == a
        assert a * field.zero == field.zero


def test_inverses():
    assert F3.scalar(2).inverse() == F3.scalar(2)
    assert F5.scalar(3).inverse() == F5.scalar(2)
    assert Q.scalar(Fraction(-2, 3)).inverse() == Q.scalar(Fraction(-3, 2))


def test_inverse_of_zero_is_a_distinct_error():
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        Q.zero.inverse()


def test_enumerate_prime_fields():
    assert [s.value for s in F2.elements()] == [0, 1]
    assert [s.value for s in F3.elements()] == [0, 1, 2]


def test_enumerate_rationals_rejected():
    with pytest.raises(InfiniteFieldError):
        Q.elements()


def test_primality_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31)  # above the cap
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # largest allowed prime


def test_cardinality_regimes():
    assert F2.cardinality == 2
    assert F3.cardinality == 3
    assert Q.cardinality is None
    assert F2.characteristic == 2 and Q.characteristic == 0


def test_cross_field_operations_rejected():
    with pytest.raises(FieldMismatchError):
        F2.scalar(1) + F3.scalar(1)
    with pytest.raises(FieldMismatchError):
        Q.scalar(1) * F3.scalar(1)


def test_scalar_canonical_representation():
    assert F3.scalar(5).value == 2
    assert F3.scalar(-1).value == 2
    assert Q.scalar(Fraction(2, 4)).value == Fraction(1, 2)


def test_field_literals():
    assert parse_field("Fp 3") == F3
    assert parse_field("Q") == Q
    assert format_field(F5) == "Fp 5"
    assert format_field(Q) == "Q"
    with pytest.raises(ParseError):
        parse_field("Fp 4")
    with pytest.raises(ParseError):
        parse_field("GF 9")


def test_scalar_serialization_round_trip():
    assert F3.format_scalar(F3.scalar(2)) == "2"
    assert F3.parse_scalar("2") == F3.scalar(2)
    s = Q.scalar(Fraction(-3, 2))
    assert Q.format_scalar(s) == "-3/2"
    assert Q.parse_scalar("-3/2") == s
    assert Q.format_scalar(Q.scalar(2)) == "2/1"
    assert Q.parse_scalar("2") == Q.scalar(2)


@pytest.mark.parametrize("field,text", [
    (F3, "1_0"), (F3, "\u0663"), (F3, " 1"), (F3, "1/2"),
    (Q, "1_0"), (Q, "1/1_0"), (Q, "\u0663/2"), (Q, "1/\u0662"), (Q, "0.\u0665"),
    (Q, "1e1_0"), (Q, " 1"), (Q, "1/0"), (Q, "inf")])
def test_scalar_literals_are_ascii_decimal(field, text):
    """``int`` and ``Fraction`` also read ``_`` separators, other scripts'
    digits and padding; the literal grammar does not."""
    with pytest.raises(ParseError, match="bad .* scalar literal"):
        field.parse_scalar(text)
    with pytest.raises(ScalarError):
        field.scalar(text)


def test_rational_literals_take_exact_decimals():
    assert Q.parse_scalar("0.5") == Q.scalar(Fraction(1, 2))
    assert Q.parse_scalar("1e-3") == Q.scalar(Fraction(1, 1000))
    assert Q.parse_scalar("-.25E2") == Q.scalar(-25)
    assert F5.parse_scalar("-1") == F5.scalar(4)
    assert parse_field("Fp 11") == PrimeField(11)


@pytest.mark.parametrize("text", ["Fp 1_1", "Fp \u0661\u0661", "Fp 11.0"])
def test_field_literal_modulus_is_ascii_decimal(text):
    with pytest.raises(ParseError, match="bad field literal"):
        parse_field(text)


@pytest.mark.parametrize("header,row,message", [
    ("Fp 1_1", "1 0 0", "line 2: bad field literal: 'Fp 1_1'"),
    ("Fp 11", "1_0 0 0", "line 4: bad Fp 11 scalar literal: '1_0'"),
    ("Fp 11", "\u0663 0 0", "line 4: bad Fp 11 scalar literal: '\u0663'"),
])
def test_map_file_literals_name_their_line(header, row, message):
    text = f"map\nfield: {header}\nposet: chain:2\n{row}\n0 1 0\n0 0 1\n"
    with pytest.raises(ParseError) as exc:
        parse_linear_map(text)
    assert str(exc.value) == message


@given(data=st.data(), field=st.sampled_from(PRIME_FIELDS + [Q]))
def test_field_axioms(data, field):
    a = data.draw(scalars(field))
    b = data.draw(scalars(field))
    c = data.draw(scalars(field))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == field.zero
    if b:
        assert b * b.inverse() == field.one


def test_inverse_involution_exhaustive():
    for field in PRIME_FIELDS:  # p in {2, 3, 5, 7}
        for a in field.elements()[1:]:
            assert a.inverse().inverse() == a


@pytest.mark.parametrize("field", [F3, Q])
@pytest.mark.parametrize("value", [2.7, 2.0, 0.1, float("nan")])
def test_scalar_rejects_floats(field, value):
    with pytest.raises(ScalarError):
        field.scalar(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), "1/2", "2.7"])
def test_prime_scalar_rejects_non_integral_values(value):
    with pytest.raises(ScalarError):
        F5.scalar(value)


@pytest.mark.parametrize("field,value", [
    (F5, None), (F5, "x"), (Q, None), (Q, "x"), (Q, "1/0"), (Q, [1])])
def test_scalar_rejects_other_inputs(field, value):
    with pytest.raises(ScalarError):
        field.scalar(value)
    assert issubclass(ScalarError, IncalgError)


def test_scalar_accepts_exact_inputs():
    assert F5.scalar(7).value == 2
    assert F5.scalar(-1).value == 4
    assert F5.scalar(Fraction(10, 2)).value == 0
    assert F5.scalar("3").value == 3
    assert F5.scalar(F5.scalar(3)) == F5.scalar(3)
    assert F5.scalar(PrimeField(5).scalar(3)) == F5.scalar(3)
    assert Q.scalar(3).value == Fraction(3)
    assert Q.scalar(Fraction(1, 3)).value == Fraction(1, 3)
    assert Q.scalar("-3/2").value == Fraction(-3, 2)
    assert Q.scalar("0.1").value == Fraction(1, 10)
    assert Q.scalar(Q.one) == Q.one
    with pytest.raises(FieldMismatchError):
        F5.scalar(F3.one)
    with pytest.raises(FieldMismatchError):
        Q.scalar(F3.one)


def test_reduce_gives_canonical_scalars():
    assert F5.reduce(12) == F5.scalar(2)
    assert F5.reduce(-1).value == 4
    assert Q.reduce(0).value == Fraction(0) and type(Q.reduce(0).value) is Fraction
    assert Q.reduce(Fraction(2, 4)) == Q.scalar("1/2")
