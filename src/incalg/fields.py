"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

Scalars are immutable canonical values (an integer in ``[0, p)`` for prime
fields, a reduced ``Fraction`` for the rationals) tagged with their field.
No floating point is used anywhere: ``Field.scalar`` refuses floats.

``Scalar`` is the type at every API boundary, and its operators serve the
code that is not hot. A ``LinearMap`` holds canonical values; its ``rows``
box them on read. The hot code (``LinearMap.apply``, the element product,
``FIElement.inverse``, ``LinearMap.rank``, the subset table and the pattern
scans) accumulates a plain ``int`` (a ``Fraction`` over Q) and reduces it
once by ``Field.canonical``, or by ``Field.reduce`` to a ``Scalar``. Three
sums recur, and each field owns them as value kernels that reduce each
output coordinate once: ``Field.row_sums`` (each row over the diagonal
columns: ``is_unital`` and the ``PreserverSpec`` check), ``Field.matvec``
(a matrix times a sparse vector: ``LinearMap.apply``) and
``Field.convolve`` (two value vectors over ``convolution_plan``: every
``FIElement`` product, so the Jordan scan's and the suites' products, the
nilpotent series of ``FIElement.inverse``, the inverse scan and the
reduction phi(delta)^-1 phi of ``analyze_map``). Over F_p a kernel is the
plain ``sum(...) % p``. Over Q it lists an output's terms as (numerator,
denominator) pairs and sums them by ``_lcm_sum``, the one rational sum
rule: an integer numerator over a running denominator, the lcm of the term
denominators, and one ``Fraction`` per output; every output worth 0 is one
shared ``Fraction(0)``. It pays one gcd per coordinate and one per change
of denominator, where ``Fraction`` arithmetic pays one per add and per
multiply. Over Q the row sums are ``matvec`` against delta; F_p keeps
its one-line sum, which the census measures per survivor. Over F_2 the
subset table, the strongness scan and the rank need no reduction at all: they read the diagonal block's columns (the matrix's
rows, for the rank) as bitmasks and combine them by XOR. Over any other
field a block has a subset table only when it is 0/1 with at most one 1 per
row; its columns are then pairwise disjoint, and the table is their XOR
span too.
``Field.canonical`` is the one reduction rule of each field: the ``Scalar``
operators reduce through it too, by ``Field.reduce``. Checks run in two
places. Each binary ``Scalar`` operator checks that its operand is a
``Scalar`` of the same field (``Scalar._coerce``). The hot kernels check
nothing per operation on their plain values: ``Field.check_scalars``
checks field membership once, when an element or a map is constructed
from scalars.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import FieldMismatchError, InfiniteFieldError, ParseError, ScalarError

MAX_PRIME = 2**31 - 1

# Scalar literals in ASCII digits only: ``int`` and ``Fraction`` would also
# take ``_`` separators, other scripts' digits and surrounding whitespace.
# A rational is num/den with a nonzero den, or an exact decimal.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(
    r"[+-]?(?:[0-9]+/0*[1-9][0-9]*|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")

# every rational value worth 0, as ``Rationals.canonical`` and every sum
# return it; a Fraction is immutable, so one serves
_ZERO = Fraction(0)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface of the two supported coefficient fields.

    ``cardinality`` is the number of elements, or ``None`` for an infinite
    field; the theorems downstream branch on the three regimes |K| = 2,
    2 < |K| < infinity and |K| = infinity.
    """

    cardinality: int | None
    characteristic: int

    def scalar(self, value) -> "Scalar":
        """The scalar of an int, a ``Fraction``, a string (over Q) or a
        scalar of this field. Floats and, over F_p, non-integral values
        raise :class:`ScalarError`."""
        raise NotImplementedError

    def canonical(self, value):
        """The canonical form of a trusted value computed on ``.value``s."""
        raise NotImplementedError

    # value kernels: trusted canonical values in, a list of canonical values
    # out, each output coordinate reduced once

    def row_sums(self, rows, n: int) -> list:
        """The sum of each row over its first ``n`` columns, the diagonal
        columns of a map's matrix: the matrix times delta."""
        return self.matvec(rows, [(j, 1) for j in range(n)])

    def matvec(self, rows, support) -> list:
        """Each row times a sparse vector given by its nonzero coordinates,
        the pairs ``(j, v)``."""
        raise NotImplementedError

    def convolve(self, plan, a, b) -> list:
        """The convolution of two value vectors over a poset's
        ``convolution_plan``."""
        raise NotImplementedError

    def reduce(self, value) -> "Scalar":
        """:meth:`canonical`, wrapped as a scalar."""
        return Scalar(self, self.canonical(value))

    def check_scalars(self, values) -> None:
        """Raise unless every value is a :class:`Scalar` of this field."""
        for v in values:
            if not isinstance(v, Scalar):
                raise ScalarError(
                    f"expected a scalar of {self}, got {type(v).__name__} {v!r}")
            if v.field is not self and v.field != self:
                raise FieldMismatchError(f"scalar from {v.field} used in {self}")

    @cached_property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @cached_property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self) -> list["Scalar"]:
        """All field elements in canonical order (prime fields only)."""
        raise NotImplementedError

    def parse_scalar(self, text: str) -> "Scalar":
        raise NotImplementedError

    def format_scalar(self, s: "Scalar") -> str:
        return self.format_value(s.value)

    def format_value(self, value) -> str:
        """The text of a canonical value of this field."""
        raise NotImplementedError


class PrimeField(Field):
    """The field of integers modulo a prime p, 2 <= p <= 2^31 - 1."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p <= MAX_PRIME:
            raise ValueError(f"prime field modulus out of range: {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def cardinality(self) -> int:
        return self.p

    @property
    def characteristic(self) -> int:
        return self.p

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError(f"scalar from {value.field} used in {self}")
            return value
        value = _exact(value, self)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ScalarError(f"non-integral value {value} for {self}")
            value = value.numerator
        return self.reduce(value)

    def canonical(self, value: int) -> int:
        return value % self.p

    def row_sums(self, rows, n: int) -> list[int]:
        p = self.p
        return [sum(row[:n]) % p for row in rows]

    def matvec(self, rows, support) -> list[int]:
        p = self.p
        return [sum([c * v for j, v in support if (c := row[j])]) % p for row in rows]

    def convolve(self, plan, a, b) -> list[int]:
        p = self.p
        return [sum([a[i] * b[j] for i, j in terms if a[i] and b[j]]) % p for terms in plan]

    def elements(self) -> list["Scalar"]:
        return [Scalar(self, v) for v in range(self.p)]

    def parse_scalar(self, text: str) -> "Scalar":
        """A decimal integer, reduced mod p."""
        if not _INTEGER.fullmatch(text):
            raise ParseError(f"bad {self} scalar literal: {text!r}")
        try:
            _check_literal_size(text, f"{self} scalar")
        except ScalarError as exc:
            raise ParseError(str(exc)) from None
        return self.scalar(int(text))

    def format_value(self, value: int) -> str:
        return str(value)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"Fp {self.p}"


class Rationals(Field):
    """The field of arbitrary-precision rationals."""

    __slots__ = ()

    cardinality = None
    characteristic = 0

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatchError(f"scalar from {value.field} used in {self}")
            return value
        return self.reduce(_exact(value, self))

    def canonical(self, value) -> Fraction:
        # every zero is the shared one, so tuples of values compare their
        # zeros by identity; Fraction(Fraction) would be slow
        if not value:
            return _ZERO
        return value if type(value) is Fraction else Fraction(value)

    # Each kernel lists an output's nonzero terms as (numerator, denominator)
    # pairs for ``_lcm_sum``; ``int`` values have both attributes too.

    def matvec(self, rows, support) -> list[Fraction]:
        terms = [(j, v.numerator, v.denominator) for j, v in support]
        out = []
        for row in rows:
            products = []
            for j, vn, vd in terms:
                c = row[j]
                if c:
                    products.append((c.numerator * vn, c.denominator * vd))
            out.append(_lcm_sum(products))
        return out

    def convolve(self, plan, a, b) -> list[Fraction]:
        an, ad = [v.numerator for v in a], [v.denominator for v in a]
        bn, bd = [v.numerator for v in b], [v.denominator for v in b]
        return [_lcm_sum([(an[i] * bn[j], ad[i] * bd[j]) for i, j in terms if an[i] and bn[j]])
                for terms in plan]

    def elements(self) -> list["Scalar"]:
        raise InfiniteFieldError("cannot enumerate an infinite field")

    def parse_scalar(self, text: str) -> "Scalar":
        """``num/den``, an integer, or an exact decimal such as ``0.5`` or
        ``1e-3``."""
        if not _RATIONAL.fullmatch(text):
            raise ParseError(f"bad rational scalar literal: {text!r}")
        try:
            return self.scalar(text)
        except ScalarError as exc:
            raise ParseError(str(exc)) from None

    def format_value(self, value: Fraction) -> str:
        return f"{value.numerator}/{value.denominator}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "Q"


def _lcm_sum(products) -> Fraction:
    """The sum of the pairs ``(num, den)``, ``den > 0``, as one ``Fraction``:
    a term whose den differs from the running denominator multiplies in only
    the new part, so that denominator is the lcm of the dens. A sum worth 0,
    empty or not, is the shared zero."""
    num, den = 0, 1
    for n, t in products:
        if t == den:
            num += n
        else:
            g = gcd(den, t)
            num = num * (t // g) + n * (den // g)
            den *= t // g
    if not num:
        return _ZERO
    return Fraction(num) if den == 1 else Fraction(num, den)


def _exact(value, field: Field) -> int | Fraction:
    """An int or ``Fraction`` input as is, a string as an exact ``Fraction``;
    anything else (a float above all) raises :class:`ScalarError`."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ScalarError(f"bad {field} scalar: {value!r}")
        _check_literal_size(value, f"{field} scalar")
        return Fraction(value)
    raise ScalarError(f"{type(value).__name__} {value!r} is not an exact scalar of {field}")


def _check_literal_size(text: str, what: str) -> None:
    """Refuse, from its text alone, a literal whose value would need more
    than ``sys.get_int_max_str_digits()`` decimal digits: ``int`` refuses to
    read such a number and ``str`` to write it, and an exponent costs time
    and memory as large as its value. The size of ``num/den`` is its longer
    part; that of a decimal is its mantissa digits (an empty integer part
    counts one) plus the absolute value of its exponent, which bounds the
    digits of the numerator and of the denominator it builds. ``text``
    matches ``_RATIONAL``."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    mantissa, _, exponent = text.lstrip("+-").lower().partition("e")
    if "/" in mantissa:
        size = max(map(len, mantissa.split("/")))
    else:
        whole, _, fraction = mantissa.partition(".")
        digits = exponent.lstrip("+-")
        value = digits.lstrip("0")
        # a value with more digits than the limit's exceeds it on its own;
        # ``int`` refuses an exponent written with too many digits, zeros too
        power = int(value or 0) if len(value) <= len(str(limit)) else limit
        size = max(max(len(whole), 1) + len(fraction) + power, len(digits))
    if size > limit:
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise ScalarError(f"{what} literal {shown!r} needs more than {limit} digits")


def parse_field(text: str) -> Field:
    """Parse a field literal: ``Fp 3``, ``Fp 2`` or ``Q``."""
    tokens = text.split()
    if tokens == ["Q"]:
        return Rationals()
    if len(tokens) == 2 and tokens[0] == "Fp":
        if not _INTEGER.fullmatch(tokens[1]):
            raise ParseError(f"bad field literal: {text!r}")
        try:
            _check_literal_size(tokens[1], "field")
            return PrimeField(int(tokens[1]))
        except (ScalarError, ValueError) as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"bad field literal: {text!r} (expected 'Fp <prime>' or 'Q')")


def format_field(field: Field) -> str:
    return repr(field)


class Scalar:
    """A canonical element of a coefficient field.

    Arithmetic is closed within the declared field; mixing fields raises
    :class:`FieldMismatchError`. Inverting zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _coerce(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"cannot mix {self.field} and {other.field}")
        return other.value

    def __add__(self, other: "Scalar") -> "Scalar":
        return self.field.reduce(self.value + self._coerce(other))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self.field.reduce(self.value - self._coerce(other))

    def __mul__(self, other: "Scalar") -> "Scalar":
        return self.field.reduce(self.value * self._coerce(other))

    def __neg__(self) -> "Scalar":
        return self.field.reduce(-self.value)

    def inverse(self) -> "Scalar":
        if not self.value:
            raise ZeroDivisionError(f"inverse of zero in {self.field}")
        if isinstance(self.field, PrimeField):
            return Scalar(self.field, pow(self.value, -1, self.field.p))
        return Scalar(self.field, 1 / self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and other.field == self.field
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return self.field.format_scalar(self)
