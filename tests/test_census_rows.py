"""Differential tests of the row-factored census iterator against the
matrix-at-a-time odometer, which visits every index of the q^(d^2) space
and applies the whole unital/preserver filter to each matrix."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, strategies as st

from incalg import builtin_poset
from incalg.verify import _iter_preserver_matrices

from conftest import F2, F3, F5

# every instance with q^(d^2) <= 10^6
INSTANCES = [
    ("chain:1", F3), ("chain:2", F2), ("chain:2", F3),
    ("antichain:2", F2), ("antichain:2", F3), ("antichain:2", F5),
    ("antichain:3", F3), ("antichain:4", F2),
]
CASES = [(poset, field, unital) for poset, field in INSTANCES for unital in (True, False)]
CASE_IDS = [f"{poset}/F{field.p}/{'unital' if unital else 'any'}"
            for poset, field, unital in CASES]


# the reference odometer ----------------------------------------------------------

def _matrix_digits_at(index: int, cells: int, q: int) -> list[int]:
    digits = [0] * cells
    for k in range(cells - 1, -1, -1):
        index, digits[k] = divmod(index, q)
    return digits


def _raw_filter(digits: list[int], n: int, d: int, q: int,
                nonzero_diags: list[tuple[int, ...]], unital: bool) -> bool:
    """Unital (optional) + invertibility-preserving filter on raw digits."""
    for i in range(n):
        row = digits[i * d:(i + 1) * d]
        for j in range(n, d):
            if row[j]:
                return False
        if unital and sum(row[:n]) % q != 1:
            return False
        for v in nonzero_diags:
            s = 0
            for j in range(n):
                s += row[j] * v[j]
            if s % q == 0:
                return False
    if unital:
        for i in range(n, d):
            if sum(digits[i * d:i * d + n]) % q != 0:
                return False
    return True


def odometer_preserver_matrices(poset, field, start, stop, unital=True):
    """Yield (index, rows) for every matrix in [start, stop) passing the
    unital/preserver filter. Matrices are visited in row-major scalar order."""
    n, d = poset.n, poset.dimension
    q = field.p
    cells = d * d
    nonzero_diags = list(product(range(1, q), repeat=n))
    digits = _matrix_digits_at(start, cells, q)
    for index in range(start, stop):
        if _raw_filter(digits, n, d, q, nonzero_diags, unital):
            rows = tuple(tuple(digits[i * d:(i + 1) * d]) for i in range(d))
            yield index, rows
        for k in range(cells - 1, -1, -1):  # odometer increment
            digits[k] += 1
            if digits[k] < q:
                break
            digits[k] = 0


# ------------------------------------------------------------------------------

def _space(poset, field):
    return field.p ** (poset.dimension ** 2)


@lru_cache(maxsize=None)
def _full_odometer(name, field, unital):
    poset = builtin_poset(name)
    return tuple(odometer_preserver_matrices(poset, field, 0, _space(poset, field), unital))


@pytest.mark.parametrize("name,field,unital", CASES, ids=CASE_IDS)
def test_full_range_matches_odometer(name, field, unital):
    poset = builtin_poset(name)
    new = list(_iter_preserver_matrices(poset, field, 0, _space(poset, field), unital=unital))
    assert new == list(_full_odometer(name, field, unital))
    assert new  # the identity always survives


@pytest.mark.parametrize("name,field,unital", CASES, ids=CASE_IDS)
def test_edge_ranges_match_odometer(name, field, unital):
    poset = builtin_poset(name)
    space = _space(poset, field)
    survivors = [index for index, _ in _full_odometer(name, field, unital)]
    first, middle, last = survivors[0], survivors[len(survivors) // 2], survivors[-1]
    ranges = [
        (0, 0), (space, space), (first, first), (middle, middle),
        (first, first + 1), (first + 1, last), (first, last), (first, last + 1),
        (middle, last + 1), (middle, space), (last, space), (last + 1, space),
        (0, first), (0, first + 1), (middle - 1 if middle else 0, middle + 1),
    ]
    for start, stop in ranges:
        new = list(_iter_preserver_matrices(poset, field, start, stop, unital=unital))
        old = list(odometer_preserver_matrices(poset, field, start, stop, unital=unital))
        assert new == old, (start, stop)


@pytest.mark.parametrize("name,field,unital", CASES, ids=CASE_IDS)
@given(data=st.data())
def test_drawn_ranges_match_odometer(name, field, unital, data):
    poset = builtin_poset(name)
    space = _space(poset, field)
    start = data.draw(st.integers(min_value=0, max_value=space))
    stop = data.draw(st.integers(min_value=start, max_value=space))
    new = list(_iter_preserver_matrices(poset, field, start, stop, unital=unital))
    expected = [(i, rows) for i, rows in _full_odometer(name, field, unital)
                if start <= i < stop]
    assert new == expected
