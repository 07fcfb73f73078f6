"""Differential tests of the value-coded kernels (``LinearMap.apply``,
convolution, ``extract_subset_map`` and the two diagonal-pattern scans)
against the boxed-``Scalar`` reference in ``boxed_reference.py``."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from incalg import (
    ClassificationError,
    FIElement,
    LinearMap,
    PrimeField,
    build_preserver,
    extract_subset_map,
    random_preserver_spec,
)
from incalg.preservers import find_nonpreserved_unit, find_strongness_counterexample

from boxed_reference import (
    boxed_apply,
    boxed_convolve,
    boxed_extract_subset_map,
    boxed_find_nonpreserved_unit,
    boxed_find_strongness_counterexample,
)
from conftest import POSET_POOL, PRIME_FIELDS, RING_FIELDS

MAP_KINDS = ["sparse", "unital", "stage-ii", "preserver", "perturbed"]
SCAN_CAP = 700  # p^n bound for the exhaustive scans, to keep the boxed side fast


def _value(field, rng, zero_share=0.5):
    if rng.random() < zero_share:
        return 0
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_map(poset, field, kind: str, rng: random.Random) -> LinearMap:
    """A map of the given kind: ``sparse`` (about half the entries zero),
    ``unital`` (fixes the identity), ``stage-ii`` (unital, and its diagonal
    rows are zero on the radical columns), ``preserver`` (a random normal
    form) or ``perturbed`` (a preserver with one diagonal row changed, still
    unital and still zero on the radical columns)."""
    n, d = poset.n, poset.dimension
    if kind in ("preserver", "perturbed"):
        rows = [list(r) for r in build_preserver(
            random_preserver_spec(poset, field, rng)).rows]
        if kind == "perturbed":
            y, x = rng.randrange(n), rng.randrange(n)
            c = field.scalar(_value(field, rng, zero_share=0))
            rows[y][x] = rows[y][x] + c
            rows[y][(x + 1) % n] = rows[y][(x + 1) % n] - c
        return LinearMap(poset, field, rows)
    rows = [[_value(field, rng) for _ in range(d)] for _ in range(d)]
    if kind in ("unital", "stage-ii"):
        for i, row in enumerate(rows):
            if kind == "stage-ii" and i < n:
                row[n:] = [0] * (d - n)
            row[n - 1] = (1 if i < n else 0) - sum(row[:n - 1])
    return LinearMap.from_rows(poset, field, rows)


def random_element(poset, field, rng: random.Random) -> FIElement:
    zero_share = rng.choice([0.0, 0.5, 0.9, 1.0])
    return FIElement.from_vector(
        poset, field, [_value(field, rng, zero_share) for _ in range(poset.dimension)])


@st.composite
def instances(draw, fields, scan_cap=None):
    poset = draw(st.sampled_from(POSET_POOL))
    fit = [f for f in fields if scan_cap is None or f.p ** poset.n <= scan_cap]
    field = draw(st.sampled_from(fit))
    kind = draw(st.sampled_from(MAP_KINDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return poset, field, kind, rng


def outcome(fn, *args):
    """The result of fn, or the exception it raised as comparable data."""
    try:
        return "result", fn(*args)
    except ClassificationError as exc:
        return "refuted", exc.law, str(exc), exc.witness
    except ValueError as exc:
        return "error", str(exc)


@given(instances(RING_FIELDS))
def test_apply_matches_boxed_reference(instance):
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    for a in [FIElement.zero(poset, field), FIElement.delta(poset, field)] + [
            random_element(poset, field, rng) for _ in range(3)]:
        assert phi.apply(a) == boxed_apply(phi, a)


@given(instances(RING_FIELDS))
def test_convolution_matches_boxed_reference(instance):
    poset, field, _, rng = instance
    elements = [FIElement.zero(poset, field), FIElement.delta(poset, field)] + [
        random_element(poset, field, rng) for _ in range(3)]
    for a in elements:
        for b in elements:
            assert a * b == boxed_convolve(a, b)


@given(instances(RING_FIELDS))
def test_extract_subset_map_matches_boxed_reference(instance):
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    assert outcome(extract_subset_map, phi) == outcome(boxed_extract_subset_map, phi)


@given(instances(PRIME_FIELDS, scan_cap=SCAN_CAP))
def test_nonpreserved_unit_scan_matches_boxed_reference(instance):
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    assert outcome(find_nonpreserved_unit, phi) == outcome(boxed_find_nonpreserved_unit, phi)


@given(instances(PRIME_FIELDS, scan_cap=SCAN_CAP))
def test_strongness_scan_matches_boxed_reference(instance):
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    assert (outcome(find_strongness_counterexample, phi)
            == outcome(boxed_find_strongness_counterexample, phi))


def test_map_kinds_reach_every_branch():
    """The generators produce preservers, stage (i) refutations, stage (ii)
    refutations, subset tables and from-vf-to-lb refutations."""
    rng = random.Random(0)
    seen = set()
    for field in PRIME_FIELDS[:2]:
        for poset in POSET_POOL[:5]:
            for kind in MAP_KINDS:
                for _ in range(4):
                    phi = random_map(poset, field, kind, rng)
                    u = find_nonpreserved_unit(phi)
                    if u is None:
                        seen.add("preserver")
                    elif any(u.coeffs[poset.n:]):
                        seen.add("stage (i)")
                    else:
                        seen.add("stage (ii)")
                    seen.add(outcome(extract_subset_map, phi)[0])
    assert seen == {"preserver", "stage (i)", "stage (ii)", "result", "refuted"}
