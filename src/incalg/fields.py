"""Exact coefficient fields: prime fields F_p and arbitrary-precision rationals.

Scalars are immutable canonical values (an integer in ``[0, p)`` for prime
fields, a reduced ``Fraction`` for the rationals) tagged with their field.
No floating point is used anywhere: ``Field.scalar`` refuses floats.

``Scalar`` is the type at every API boundary, and its operators serve the
code that is not hot. A ``LinearMap`` holds canonical values; its ``rows``
box them on read. The hot kernels (``LinearMap.apply``, convolution,
``FIElement.inverse``, ``LinearMap.rank``, the subset table and the pattern
scans) accumulate a plain ``int`` (a ``Fraction`` over Q) and reduce it once
by ``Field.canonical``, or by ``Field.reduce`` to a ``Scalar``. Over F_2 the
subset table, the strongness scan and the rank need no reduction at all:
they read the diagonal block's columns (the matrix's rows, for the rank) as
bitmasks and combine them by XOR. Over any other field a block has a subset
table only when it is 0/1 with at most one 1 per row; its columns are then
pairwise disjoint, and the table is their XOR span too.
``Field.canonical`` is the one reduction rule of each field: the ``Scalar``
operators reduce through it too, by ``Field.reduce``. Checks run in two
places. Each binary ``Scalar`` operator checks that its operand is a
``Scalar`` of the same field (``Scalar._coerce``). The hot kernels check
nothing per operation on their plain values: ``Field.check_scalars``
checks field membership once, when an element or a map is constructed
from scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import FieldMismatchError, InfiniteFieldError, ParseError, ScalarError

MAX_PRIME = 2**31 - 1


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

    def elements(self) -> list["Scalar"]:
        return [Scalar(self, v) for v in range(self.p)]

    def parse_scalar(self, text: str) -> "Scalar":
        try:
            return self.scalar(int(text))
        except ValueError:
            raise ParseError(f"bad {self} scalar literal: {text!r}") from None

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
        # a sum over no terms is the int 0; Fraction(Fraction) would be slow
        return value if type(value) is Fraction else Fraction(value)

    def elements(self) -> list["Scalar"]:
        raise InfiniteFieldError("cannot enumerate an infinite field")

    def parse_scalar(self, text: str) -> "Scalar":
        try:
            return Scalar(self, Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational scalar literal: {text!r}") from None

    def format_value(self, value: Fraction) -> str:
        return f"{value.numerator}/{value.denominator}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "Q"


def _exact(value, field: Field) -> int | Fraction:
    """An int or ``Fraction`` input as is, a string as an exact ``Fraction``;
    anything else (a float above all) raises :class:`ScalarError`."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScalarError(f"bad {field} scalar: {value!r}") from None
    raise ScalarError(f"{type(value).__name__} {value!r} is not an exact scalar of {field}")


def parse_field(text: str) -> Field:
    """Parse a field literal: ``Fp 3``, ``Fp 2`` or ``Q``."""
    tokens = text.split()
    if tokens == ["Q"]:
        return Rationals()
    if len(tokens) == 2 and tokens[0] == "Fp":
        try:
            p = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad field literal: {text!r}") from None
        try:
            return PrimeField(p)
        except ValueError as exc:
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
