"""The incidence algebra I(X,K) of a finite poset X over an exact field K.

Elements are dense coefficient vectors over the canonical basis (diagonal
pairs first, then strict pairs); the product is convolution, by the
field's kernel ``Field.convolve``. Coefficients are ``Scalar``s of the
element's field, checked by the public constructors; products, inverses
and every other element the library computes run on plain values, reduce
each output coordinate once, and are boxed unchecked by ``_of_values``.
A sum or difference makes a new ``Scalar`` only where both coefficients
are nonzero.
Inversion uses the nilpotency of the strict-triangular part instead of
elimination: with ``a = d(1 + nu)``, ``d`` the diagonal part and
``nu = d^{-1} a_J``, the inverse is ``(sum_{k<c} (-nu)^k) d^{-1}`` where
``c`` bounds chain length; only the n diagonal entries are inverted as
``Scalar``s.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import (
    FieldMismatchError,
    MismatchError,
    NotAUnitError,
    ParseError,
    PosetError,
)
from .fields import Field, Scalar
from .posets import Poset


class FIElement:
    """An element of I(X,K): a total coefficient map over pairs x <= y."""

    __slots__ = ("poset", "field", "coeffs")

    def __init__(self, poset: Poset, field: Field, coeffs: Iterable[Scalar]):
        self.poset = poset
        self.field = field
        self.coeffs: tuple[Scalar, ...] = tuple(coeffs)
        if len(self.coeffs) != poset.dimension:
            raise MismatchError(
                f"expected {poset.dimension} coefficients, got {len(self.coeffs)}")
        field.check_scalars(self.coeffs)

    @classmethod
    def _of_values(cls, poset: Poset, field: Field, values: Iterable) -> "FIElement":
        """An element on canonical values of ``field``, boxed unchecked: for
        values the library computed itself. Zeros share the field's zero."""
        zero = field.zero
        a = object.__new__(cls)
        a.poset, a.field = poset, field
        a.coeffs = tuple([Scalar(field, v) if v else zero for v in values])
        return a

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, poset: Poset, field: Field) -> "FIElement":
        z = field.zero
        return cls(poset, field, [z] * poset.dimension)

    @classmethod
    def delta(cls, poset: Poset, field: Field) -> "FIElement":
        """The identity element: coefficient 1 on every diagonal pair."""
        z, o = field.zero, field.one
        return cls(poset, field, [o] * poset.n + [z] * (poset.dimension - poset.n))

    @classmethod
    def from_dict(cls, poset: Poset, field: Field,
                  entries: Mapping[tuple[str, str], object]) -> "FIElement":
        coeffs = [field.zero] * poset.dimension
        for (x, y), v in entries.items():
            if (x, y) not in poset.pair_index:
                raise PosetError(f"not a basis pair: {x!r} <= {y!r} fails")
            coeffs[poset.pair_index[(x, y)]] = field.scalar(v)
        return cls(poset, field, coeffs)

    @classmethod
    def from_vector(cls, poset: Poset, field: Field, values: Iterable[object]) -> "FIElement":
        return cls(poset, field, [field.scalar(v) for v in values])

    # basic queries -----------------------------------------------------

    def coeff(self, x: str, y: str) -> Scalar:
        try:
            return self.coeffs[self.poset.pair_index[(x, y)]]
        except KeyError:
            raise PosetError(f"not a basis pair: {x!r} <= {y!r} fails") from None

    def diagonal(self) -> tuple[Scalar, ...]:
        """The diagonal coefficients in element order."""
        return self.coeffs[: self.poset.n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # linear structure ----------------------------------------------------

    def _check_compat(self, other: "FIElement"):
        if other.poset != self.poset:
            raise MismatchError("elements live over different posets")
        if other.field != self.field:
            raise FieldMismatchError("elements live over different fields")

    def __add__(self, other: "FIElement") -> "FIElement":
        self._check_compat(other)
        return FIElement(self.poset, self.field,
                         [a + b if a and b else a or b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "FIElement") -> "FIElement":
        self._check_compat(other)
        return FIElement(self.poset, self.field,
                         [a - b if a and b else -b if b else a
                          for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "FIElement":
        return FIElement(self.poset, self.field, [-a for a in self.coeffs])

    def scale(self, k: Scalar) -> "FIElement":
        k = self.field.scalar(k)
        return FIElement(self.poset, self.field, [k * a for a in self.coeffs])

    # multiplicative structure ---------------------------------------------

    def __mul__(self, other: "FIElement") -> "FIElement":
        """Convolution: (ab)_{xy} = sum over x <= z <= y of a_{xz} b_{zy}."""
        self._check_compat(other)
        poset, field = self.poset, self.field
        return FIElement._of_values(poset, field, field.convolve(
            poset.convolution_plan, [c.value for c in self.coeffs],
            [c.value for c in other.coeffs]))

    def decompose(self) -> tuple["FIElement", "FIElement"]:
        """Split into (diagonal part, radical part); their sum is self."""
        n = self.poset.n
        zero = self.field.zero
        diag = FIElement(self.poset, self.field,
                         self.coeffs[:n] + (zero,) * (self.poset.dimension - n))
        rad = FIElement(self.poset, self.field,
                        (zero,) * n + self.coeffs[n:])
        return diag, rad

    def is_unit(self) -> bool:
        """Invertible iff every diagonal coefficient is nonzero."""
        return all(self.diagonal())

    def inverse(self) -> "FIElement":
        """The two-sided inverse, by the nilpotent series on plain values.

        With ``d`` the diagonal part and ``nu = d^{-1} a_J``, the inverse is
        ``(sum_{k<c} (-nu)^k) d^{-1}``, ``c`` the longest chain. Since
        ``d^{-1}`` is diagonal, ``(d^{-1} a_J)_xy = d^{-1}_x a_xy`` and
        ``(s d^{-1})_xy = s_xy d^{-1}_y`` are single products; the powers of
        ``-nu`` are convolved over ``convolution_plan`` by ``Field.convolve``,
        which reduces each coordinate once, and each output coordinate is
        reduced once.
        """
        if not self.is_unit():
            raise NotAUnitError("element has a zero diagonal coefficient")
        poset = self.poset
        n = poset.n
        field = self.field
        plan = poset.convolution_plan
        ends = [(poset.index(x), poset.index(y)) for x, y in poset.basis_pairs]
        d_inv = [c.inverse().value for c in self.coeffs[:n]]
        a = [c.value for c in self.coeffs]
        nilpotent = [0 if x == y else -d_inv[x] * v for (x, y), v in zip(ends, a)]
        acc = [1] * n + [0] * (len(a) - n)
        term = acc
        for _ in range(poset.longest_chain - 1):
            term = field.convolve(plan, term, nilpotent)
            if not any(term):
                break
            acc = [s + t for s, t in zip(acc, term)]
        return FIElement._of_values(poset, field, [
            field.canonical(s * d_inv[y]) for s, (_, y) in zip(acc, ends)])

    def is_idempotent(self) -> bool:
        return self * self == self

    def is_central(self) -> bool:
        """Commutes with everything; checking the canonical basis suffices."""
        for x, y in self.poset.basis_pairs:
            b = basis_element(self.poset, self.field, x, y)
            if self * b != b * self:
                return False
        return True

    # comparison -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        # once the fields agree, equal values mean equal scalars
        return (
            isinstance(other, FIElement)
            and other.poset == self.poset
            and other.field == self.field
            and [c.value for c in other.coeffs] == [c.value for c in self.coeffs]
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.field, self.coeffs))

    def __repr__(self) -> str:
        return format_element(self)


def basis_element(poset: Poset, field: Field, x: str, y: str) -> FIElement:
    """The basis element supported on the single pair x <= y."""
    return FIElement.from_dict(poset, field, {(x, y): 1})


def indicator(poset: Poset, field: Field, subset: Iterable[str]) -> FIElement:
    """The diagonal idempotent of a subset of X (the whole of X gives delta)."""
    return FIElement.from_dict(poset, field, {(x, x): 1 for x in subset})


def jordan_product(a: FIElement, b: FIElement) -> FIElement:
    """ab + ba; the square a^2 + a^2 when ``a is b``, from one product."""
    if a is b:
        square = a * a
        return square + square
    return a * b + b * a


_TERM_RE = re.compile(r"^(?:(?P<scalar>[^*\s]+)\s*\*\s*)?e\[(?P<pair>[^\]]*)\]$")
# terms end in e[...]: a + after a ] separates two, a sign or 1e+3 does not
_TERM_SEP = re.compile(r"(?<=\])\s*\+")


def parse_element(text: str, poset: Poset, field: Field) -> FIElement:
    """Parse an element literal like ``1*e[a] + 2*e[b] + 1*e[a,b]``."""
    text = text.strip()
    if text == "0":
        return FIElement.zero(poset, field)
    coeffs = [field.zero] * poset.dimension
    for raw_term in _TERM_SEP.split(text):
        term = raw_term.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad element term: {term!r}")
        scalar_text = m.group("scalar")
        scalar = field.one if scalar_text is None else field.parse_scalar(scalar_text)
        labels = [t.strip() for t in m.group("pair").split(",")]
        if len(labels) == 1:
            pair = (labels[0], labels[0])
        elif len(labels) == 2:
            pair = (labels[0], labels[1])
        else:
            raise ParseError(f"bad basis pair in term: {term!r}")
        if pair not in poset.pair_index:
            raise ParseError(f"not a basis pair: e[{m.group('pair')}]")
        k = poset.pair_index[pair]
        coeffs[k] = coeffs[k] + scalar
    return FIElement(poset, field, coeffs)


def format_element(a: FIElement) -> str:
    terms = []
    for (x, y), c in zip(a.poset.basis_pairs, a.coeffs):
        if not c:
            continue
        pair = x if x == y else f"{x},{y}"
        terms.append(f"{a.field.format_scalar(c)}*e[{pair}]")
    return " + ".join(terms) if terms else "0"
