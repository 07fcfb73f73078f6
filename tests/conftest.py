"""Shared pools and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import HealthCheck, settings, strategies as st

from incalg import (
    FIElement,
    PartitionEndo,
    Poset,
    PrimeField,
    Rationals,
    XorEndo,
    builtin_poset,
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
Q = Rationals()

PRIME_FIELDS = [F2, F3, F5, F7]
RING_FIELDS = [F2, F3, F5, Q]


def mixed_poset() -> Poset:
    # six elements, two comparable components and an isolated point
    return Poset.from_relations(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")],
        name="mixed:6",
    )


POSET_POOL = [
    builtin_poset("chain:2"),
    builtin_poset("chain:3"),
    builtin_poset("antichain:3"),
    builtin_poset("v"),
    builtin_poset("diamond"),
    mixed_poset(),
]


BIG = 10**40


def scalars(field):
    """Scalars of ``field``. Over Q, small fractions mixed with numerators
    and denominators up to 10^40, so that sums over Q meet equal, mixed and
    large denominators."""
    if isinstance(field, PrimeField):
        return st.integers(min_value=0, max_value=field.p - 1).map(field.scalar)
    fractions = st.one_of(
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12),
        st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
    return fractions.map(field.scalar)


def random_rational(rng: random.Random) -> Fraction:
    """A seeded rational: three times in four with a numerator and a
    denominator below 10, else up to 10^40."""
    if rng.random() < 0.75:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def holds_canonical_values(a: FIElement) -> bool:
    """Every coefficient is a ``Fraction`` over Q and an int in range(p)
    over Fp."""
    if a.field == Q:
        return all(type(c.value) is Fraction for c in a.coeffs)
    return all(type(c.value) is int and 0 <= c.value < a.field.p for c in a.coeffs)


def elements_of(poset, field):
    return st.lists(
        scalars(field),
        min_size=poset.dimension, max_size=poset.dimension,
    ).map(lambda vals: FIElement(poset, field, vals))


@st.composite
def poset_field_elements(draw, count: int = 3, fields=None):
    poset = draw(st.sampled_from(POSET_POOL))
    field = draw(st.sampled_from(fields or RING_FIELDS))
    items = [draw(elements_of(poset, field)) for _ in range(count)]
    return poset, field, items


def random_partition_endo(elements, rng: random.Random) -> PartitionEndo:
    n = len(elements)
    return PartitionEndo.from_owners(elements, [rng.randrange(n) for _ in range(n)])


def random_xor_endo(elements, rng: random.Random) -> XorEndo:
    """A GF(2) matrix fixing X: random columns, the last one completing the
    XOR to the full set."""
    n = len(elements)
    return XorEndo.from_head(elements, [rng.randrange(1 << n) for _ in range(n - 1)])
