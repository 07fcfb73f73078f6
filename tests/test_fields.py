import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from incalg import (
    FieldMismatchError,
    FIElement,
    IncalgError,
    InfiniteFieldError,
    LinearMap,
    ParseError,
    PrimeField,
    ScalarError,
    builtin_poset,
    format_field,
    format_linear_map,
    parse_field,
    parse_linear_map,
)
from incalg import fields
from incalg.fields import MAX_PRIME

from conftest import BIG, F2, F3, F5, POSET_POOL, PRIME_FIELDS, Q, scalars


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


LIMIT = sys.get_int_max_str_digits()


def short(value) -> str | None:
    """A test id for a long literal or value: its head and its length."""
    text = str(value)
    return f"{text[:8]}...{len(text)}chars" if len(text) > 24 else None


@pytest.mark.parametrize("field,text", [
    (F3, "7" * (LIMIT + 1)), (F3, "-" + "0" * (LIMIT + 1)),
    (Q, "7" * (LIMIT + 1)), (Q, "1/" + "7" * (LIMIT + 1)), (Q, "7" * (LIMIT + 1) + "/3"),
    (Q, "1e999999"), (Q, "1e1000000"), (Q, "1E-999999"), (Q, f"1e{LIMIT}"),
    (Q, f".5e-{LIMIT - 1}"), (Q, "1." + "0" * LIMIT), (Q, "1e" + "9" * (LIMIT + 1)),
    (Q, "1e+" + "0" * LIMIT + "5")], ids=short)
def test_oversized_literals_are_refused_from_their_text(field, text):
    """A literal whose digits plus exponent exceed Python's integer-string
    limit is refused before any number is built: ``int`` would raise
    ``ValueError`` on it, and ``1e999999`` would parse and then fail to
    print."""
    with pytest.raises(ParseError, match=f"literal .* needs more than {LIMIT} digits"):
        field.parse_scalar(text)
    with pytest.raises(ScalarError, match=f"needs more than {LIMIT} digits"):
        field.scalar(text)


@pytest.mark.parametrize("text,value", [
    ("7" * LIMIT, int("7" * LIMIT)), ("-" + "7" * LIMIT, -int("7" * LIMIT)),
    (f"1e{LIMIT - 1}", 10 ** (LIMIT - 1)), (f"1e-{LIMIT - 1}", Fraction(1, 10 ** (LIMIT - 1))),
    ("1/" + "7" * LIMIT, Fraction(1, int("7" * LIMIT))), ("1e+" + "0" * (LIMIT - 1) + "5", 10**5)], ids=short)
def test_literals_at_the_size_limit_parse_and_print(text, value):
    assert Q.parse_scalar(text) == Q.scalar(value)
    assert Q.format_scalar(Q.parse_scalar(text))
    assert F3.parse_scalar("7" * LIMIT) == F3.scalar(int("7" * LIMIT))


def test_oversized_field_modulus_is_refused():
    with pytest.raises(ParseError, match=f"field literal .* needs more than {LIMIT} digits"):
        parse_field("Fp " + "7" * (LIMIT + 1))


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


# the value kernels against a plain reference: the terms summed with Fraction
# arithmetic (exact ints over F_p) and reduced once by ``canonical``, which is
# ``% p`` over F_p

KERNEL_FIELDS = [F2, F3, PrimeField(MAX_PRIME), Q]


def kernel_values(field):
    """Values a kernel is given: canonical values, zeros, and over F_p the
    unreduced integer sums that the inverse scan passes; over Q also plain
    ints, and fractions with equal, mixed and large denominators."""
    big = st.integers(-BIG, BIG)
    if isinstance(field, PrimeField):
        return st.one_of(st.integers(0, field.p - 1), big)
    denominators = st.one_of(st.sampled_from([1, 2, 3, 6, BIG]), st.integers(1, BIG))
    return st.one_of(st.just(0), st.just(Fraction(0)), big,
                     st.builds(Fraction, big, denominators))


def assert_canonical(field, got, expected):
    """Equal values, canonical; over Q every output worth 0 is the shared
    zero, whether it had no terms or its terms cancel."""
    assert got == expected
    if isinstance(field, PrimeField):
        assert all(type(v) is int and 0 <= v < field.p for v in got)
    else:
        assert all(type(v) is Fraction for v in got)
        assert all(v is fields._ZERO for v in got if not v)


def reference(field, terms) -> object:
    return field.canonical(sum(terms, 0))


@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_row_sums_match_the_reference(field, data):
    width = data.draw(st.integers(0, 6))
    rows = data.draw(st.lists(
        st.lists(kernel_values(field), min_size=width, max_size=width), max_size=5))
    n = data.draw(st.integers(0, width))
    assert_canonical(field, field.row_sums(rows, n), [reference(field, row[:n]) for row in rows])


@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_matvec_matches_the_reference(field, data):
    width = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(
        st.lists(kernel_values(field), min_size=width, max_size=width), max_size=5))
    support = data.draw(st.lists(
        st.tuples(st.integers(0, width - 1), kernel_values(field)), max_size=width))
    assert_canonical(field, field.matvec(rows, support),
                     [reference(field, [row[j] * v for j, v in support]) for row in rows])


@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_convolve_matches_the_reference(field, data):
    """Over a random plan, empty term lists included, and over the plan of
    a poset from the pool."""
    size = data.draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    plans = [data.draw(st.lists(st.lists(pair, max_size=5), max_size=5))]
    poset = data.draw(st.sampled_from(POSET_POOL))
    if poset.dimension <= size:
        plans.append(poset.convolution_plan)
    vector = st.lists(kernel_values(field), min_size=size, max_size=size)
    a, b = data.draw(vector), data.draw(vector)
    for plan in plans:
        assert_canonical(field, field.convolve(plan, a, b),
                         [reference(field, [a[i] * b[j] for i, j in terms]) for terms in plan])


def test_rational_kernels_keep_one_running_denominator():
    """Equal denominators add their numerators, a new one multiplies its
    new part into the running denominator, and the result is reduced once."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert Q.row_sums([[half, half, third], [third, -third, half], [0, 0, half]], 2) == [
        1, 0, 0]
    assert Q.matvec([[half, 0, third]], [(0, half), (2, Fraction(-3, 4))]) == [0]
    assert Q.convolve([[(0, 0), (1, 1)], []], [half, third], [half, 3]) == [
        Fraction(5, 4), 0]
    big = Fraction(BIG + 1, BIG)
    assert Q.row_sums([[big, -big, big]], 3) == [big]


def test_a_rational_sum_worth_zero_is_the_shared_zero():
    """A sum with no terms and sums whose terms cancel, over one denominator
    or several, all return the one module-level ``Fraction(0)``."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    for products in ([], [(1, 2), (-1, 2)], [(1, 2), (-2, 3), (1, 6)], [(0, 5)]):
        assert fields._lcm_sum(products) is fields._ZERO
    assert fields._lcm_sum([(1, 2), (-1, 3)]) == Fraction(1, 6)
    assert Q.row_sums([[half, -half, third]], 2)[0] is fields._ZERO
    assert Q.matvec([[half, third]], [(0, 2), (1, -3)])[0] is fields._ZERO
    assert Q.convolve([[(0, 1), (1, 0)]], [half, third], [-half, third])[0] is fields._ZERO


def test_every_rational_zero_is_the_shared_zero():
    """``Q.canonical`` returns the shared zero for the int 0 and for every
    ``Fraction`` worth 0, so Q's zero, a scalar difference that cancels, and
    the zeros of the identity map, of a map read from rows and of a parsed
    map are one object, and tuples of values compare them by identity."""
    for value in (0, Fraction(0), Fraction(0, 7), -Fraction(0), 5 - 5):
        assert Q.canonical(value) is fields._ZERO
    assert Q.zero.value is fields._ZERO
    assert (Q.scalar(Fraction(1, 2)) - Q.scalar(Fraction(2, 4))).value is fields._ZERO
    assert Q.parse_scalar("0/3").value is fields._ZERO
    assert Q.canonical(Fraction(3, 2)) == Fraction(3, 2) and Q.canonical(2) == Fraction(2)
    chain = builtin_poset("chain:2")
    identity = LinearMap.identity(chain, Q)
    half = Fraction(1, 2)
    maps = [identity, LinearMap.from_rows(chain, Q, [[half, half, 0], [0, 1, 0], [0, 0, 0]]),
            parse_linear_map(format_linear_map(identity))]
    for phi in maps:
        assert {id(v) for row in phi.values for v in row if not v} == {id(fields._ZERO)}


def test_rational_kernels_keep_the_lcm_of_the_term_denominators(monkeypatch):
    """A term whose denominator differs from the running one multiplies in
    only its new part: twelve terms over 2, 3, 5, 2, 3, 5, ... hand
    ``Fraction`` a denominator dividing their lcm 30, not 30^4. The element
    product runs on the same kernel: on chain:12, a's first row times b's
    last column is one coordinate with these twelve terms."""
    seen = []

    class Recording(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            seen.append(denominator or 1)
            return Fraction(numerator, denominator)

    parts = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)] * 4
    total = Fraction(62, 15)
    chain = builtin_poset("chain:12")
    first, last = chain.elements[0], chain.elements[-1]
    a = FIElement.from_dict(chain, Q, dict(zip([(first, x) for x in chain.elements], parts)))
    b = FIElement.from_dict(chain, Q, {(x, last): 1 for x in chain.elements})
    monkeypatch.setattr(fields, "Fraction", Recording)
    assert Q.matvec([parts], [(j, 1) for j in range(12)]) == [total]
    assert Q.convolve([[(j, j) for j in range(12)]], parts, [1] * 12) == [total]
    # term denominators 6, 15, 10, ...: their lcm is 30 too
    assert Q.convolve([[(j, j) for j in range(12)]], parts, parts[1:] + parts[:1]) == [
        4 * (Fraction(1, 6) + Fraction(1, 15) + Fraction(1, 10))]
    # a zero factor adds no term, so its partner's denominator 7 never enters
    assert Q.matvec([[0, 1]], [(0, Fraction(1, 7)), (1, 1)]) == [1]
    assert Q.convolve([[(0, 0), (1, 1)]], [0, 1], [Fraction(1, 7), 1]) == [1]
    assert seen and all(30 % den == 0 for den in seen)
    seen.clear()
    assert (a * b).coeff(first, last).value == total
    assert 30 in seen and all(30 % den == 0 for den in seen)
