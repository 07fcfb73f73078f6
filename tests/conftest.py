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


def scalars(field):
    if isinstance(field, PrimeField):
        return st.integers(min_value=0, max_value=field.p - 1).map(field.scalar)
    fractions = st.fractions(
        min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)
    return fractions.map(field.scalar)


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
