"""Differential tests of the value-coded kernels (``LinearMap.apply``,
``LinearMap.scale``, convolution, element sums, the Jordan square,
``FIElement.inverse``, the rank routine
``_rank_of_values``, ``extract_subset_map``, ``to_xor_endo``, the two
diagonal-pattern scans, the Jordan scan read off the matrix columns, the
lemma laws read off the matrix and the sample's coefficient tuples, and the
row-sum checks of ``is_unital`` and ``PreserverSpec``, and the reduction
psi = phi(delta)^-1 phi of a non-unital map) against the boxed-``Scalar``
reference in ``boxed_reference.py``, and of the verdicts that
``analyze_map`` reads off the normal form against the brute-force scans.
The reports of a seeded batch over Q, and of a seeded non-unital batch
over F2, F3, F5 and Q, are pinned by their digests."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from incalg import (
    ClassificationError,
    FieldMismatchError,
    FIElement,
    InfiniteFieldError,
    LinearMap,
    MismatchError,
    NotAUnitError,
    PreserverSpec,
    PrimeField,
    SubsetMapTable,
    analyze_map,
    build_preserver,
    builtin_poset,
    classify,
    enumerate_preservers,
    extract_subset_map,
    random_preserver_spec,
    to_xor_endo,
)
from incalg.algebra import basis_element, format_element, jordan_product
from incalg.preservers import (
    _rank_of_values,
    find_inverse_counterexample,
    find_jordan_counterexample,
    find_nonpreserved_unit,
    find_strongness_counterexample,
    is_jordan_endo,
    is_strong,
    iter_units,
    preserves_inverses,
    preserves_invertibility,
)
from incalg import verify
from incalg.verify import _lemma_checks, _psi_radical_block_invertible, _sample_values

from boxed_reference import (
    boxed_add,
    boxed_apply,
    boxed_convolve,
    boxed_extract_subset_map,
    boxed_find_inverse_counterexample,
    boxed_find_jordan_counterexample,
    boxed_find_nonpreserved_unit,
    boxed_find_strongness_counterexample,
    boxed_inverse,
    boxed_is_unital,
    boxed_lemma_checks,
    boxed_matrix_rank,
    boxed_scale,
    boxed_spec_checks,
    boxed_sub,
    boxed_to_xor_endo,
    boxed_unital_reduction,
)
from conftest import (
    F2, F3, F5, POSET_POOL, PRIME_FIELDS, Q, RING_FIELDS, holds_canonical_values,
    random_rational, random_xor_endo)

MAP_KINDS = ["sparse", "zero-one", "unital", "stage-ii", "preserver", "perturbed"]
SCAN_CAP = 700  # p^n bound for the exhaustive scans, to keep the boxed side fast


def _value(field, rng, zero_share=0.5):
    if rng.random() < zero_share:
        return 0
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return random_rational(rng)


def random_map(poset, field, kind: str, rng: random.Random) -> LinearMap:
    """A map of the given kind: ``sparse`` (about half the entries zero),
    ``zero-one`` (every entry 0 or 1, a third of them 1, so over F3 and Q
    some diagonal blocks are 0/1 with two 1s in a row and some with at most
    one), ``unital`` (fixes the identity), ``stage-ii`` (unital, and its diagonal
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
    if kind == "zero-one":
        return LinearMap.from_rows(
            poset, field, [[int(rng.random() < 1 / 3) for _ in range(d)] for _ in range(d)])
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


def random_unit(poset, field, rng: random.Random) -> FIElement:
    diagonal = [field.scalar(_value(field, rng, zero_share=0) or 1) for _ in range(poset.n)]
    radical = random_element(poset, field, rng).coeffs[poset.n:]
    return FIElement(poset, field, diagonal + list(radical))


def perturbed_maps(phi: LinearMap, rng: random.Random) -> list[LinearMap]:
    """phi and three copies with one diagonal-output row changed: inside the
    diagonal block with the row sum kept, at a radical column (any column
    on an antichain), and at any column."""
    poset, field = phi.poset, phi.field
    n, d = poset.n, poset.dimension
    maps = [phi]
    for kind in ("block", "radical", "any"):
        rows = [list(r) for r in phi.rows]
        y = rng.randrange(n)
        c = field.scalar(_value(field, rng, zero_share=0) or 1)
        if kind == "block":
            x = rng.randrange(n)
            rows[y][x] = rows[y][x] + c
            rows[y][(x + 1) % n] = rows[y][(x + 1) % n] - c
        else:
            j = rng.randrange(n, d) if kind == "radical" and d > n else rng.randrange(d)
            rows[y][j] = rows[y][j] + c
        maps.append(LinearMap(poset, field, rows))
    return maps


def changed_entry(phi: LinearMap, i: int, j: int, rng: random.Random) -> LinearMap:
    """phi with a nonzero value added to entry (i, j)."""
    rows = [list(r) for r in phi.rows]
    rows[i][j] = rows[i][j] + phi.field.scalar(_value(phi.field, rng, zero_share=0) or 1)
    return LinearMap(phi.poset, phi.field, rows)


def radical_maps(spec, rng: random.Random) -> list[LinearMap]:
    """A normal form's radical map and variants of it: a radical entry of a
    radical-output row changed (it still annihilates delta), a diagonal
    entry of one changed (it no longer does), a diagonal-output row made
    nonzero, and random radical-output rows."""
    poset, field, psi = spec.poset, spec.field, spec.radical_map
    n, d = poset.n, poset.dimension
    maps = [psi, changed_entry(psi, rng.randrange(n), rng.randrange(d), rng)]
    if d > n:
        maps.append(changed_entry(psi, rng.randrange(n, d), rng.randrange(n, d), rng))
        maps.append(changed_entry(psi, rng.randrange(n, d), rng.randrange(n), rng))
    maps.append(LinearMap.from_rows(poset, field, [[0] * d] * n + [
        [_value(field, rng) for _ in range(d)] for _ in range(d - n)]))
    return maps


def mismatch(fn, *args):
    """The message of the ``MismatchError`` fn raised, or None."""
    try:
        fn(*args)
    except MismatchError as exc:
        return str(exc)
    return None


def lemma_instance(poset, field, rng: random.Random):
    """A random preserver's subset table, the coefficient tuples of a small
    seeded element sample, and the preserver with its perturbed copies."""
    phi = build_preserver(random_preserver_spec(poset, field, rng))
    sample = _sample_values(poset, field, cap=256, trials=40, seed=rng.randrange(1000))
    return extract_subset_map(phi), sample, perturbed_maps(phi, rng)


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
def test_element_sums_match_boxed_reference(instance):
    """``+`` and ``-`` box a new scalar only where both coefficients are
    nonzero and otherwise keep the nonzero side, negated for ``-``: the
    results equal the boxed sums on pairs with one, both or no zero
    coefficients and on sums that cancel, and hold canonical values."""
    poset, field, _, rng = instance
    elements = [FIElement.zero(poset, field), FIElement.delta(poset, field)] + [
        random_element(poset, field, rng) for _ in range(3)]
    elements += [-a for a in elements]
    for a in elements:
        for b in elements:
            for got, expected in ((a + b, boxed_add(a, b)), (a - b, boxed_sub(a, b))):
                assert got == expected and holds_canonical_values(got)


@given(instances(RING_FIELDS))
def test_jordan_square_matches_boxed_reference(instance):
    """``jordan_product(a, a)`` forms a^2 once and doubles it; it equals the
    boxed a^2 + a^2, and so does the product of a with an equal copy."""
    poset, field, _, rng = instance
    for a in [FIElement.delta(poset, field)] + [
            random_element(poset, field, rng) for _ in range(3)]:
        square = boxed_convolve(a, a)
        got = jordan_product(a, a)
        assert got == boxed_add(square, square) and holds_canonical_values(got)
        assert jordan_product(a, FIElement(poset, field, a.coeffs)) == got


@given(instances(RING_FIELDS))
def test_extract_subset_map_matches_boxed_reference(instance):
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    assert outcome(extract_subset_map, phi) == outcome(boxed_extract_subset_map, phi)


@given(instances(PRIME_FIELDS, scan_cap=SCAN_CAP))
def test_nonpreserved_unit_scan_matches_boxed_reference(instance):
    """Each map kind and its perturbed copies, unital or not; a diagonal
    row perturbed at a radical column gives a stage (i) witness."""
    poset, field, kind, rng = instance
    for phi in perturbed_maps(random_map(poset, field, kind, rng), rng):
        assert outcome(find_nonpreserved_unit, phi) == outcome(boxed_find_nonpreserved_unit, phi)


@given(instances(PRIME_FIELDS, scan_cap=SCAN_CAP))
def test_strongness_scan_matches_boxed_reference(instance):
    """``is_strong`` agrees with the boxed reference on every drawn map, its
    precondition ``ValueError`` included; the scan, which trusts its caller,
    gives the boxed witness on every drawn preserver."""
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    boxed = outcome(boxed_find_strongness_counterexample, phi)
    assert outcome(is_strong, phi) == (
        boxed if boxed[0] == "error" else ("result", boxed[1] is None))
    if boxed[0] != "error":
        assert outcome(find_strongness_counterexample, phi) == boxed


@given(instances([F2, F3, F5]))
def test_classify_agrees_with_the_preserver_oracle(instance):
    """``classify`` decides by the normal form alone, on every field: it
    accepts exactly the maps that are unital and pass the brute-force
    preserver scan, and an accepted map is its own rebuild."""
    poset, field, kind, rng = instance
    for phi in perturbed_maps(random_map(poset, field, kind, rng), rng):
        result = outcome(classify, phi)
        assert (result[0] == "result") == (phi.is_unital() and preserves_invertibility(phi))
        if result[0] == "result":
            assert build_preserver(result[1]) == phi


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


def test_mask_paths_reach_every_branch():
    """The map kinds reach every path of the mask kernels: the XOR-span
    extraction over F2; over F3 and Q the OR-span extraction of a 0/1
    block with at most one 1 per row, a 0/1 block with two 1s in a row,
    refuted at its first overlapping pair of columns with the boxed
    witness, and a block with a value outside {0, 1}, refuted at its first
    such column with the boxed witness; both outcomes of the F2 stage (ii) and strongness scans; and
    full and deficient F2 ranks of maps with radical rows, equal to the
    boxed rank."""
    rng = random.Random(0)
    seen = set()
    for field in (F2, F3, Q):
        for poset in POSET_POOL:
            n, d = poset.n, poset.dimension
            for kind in MAP_KINDS:
                for _ in range(3):
                    phi = random_map(poset, field, kind, rng)
                    block = [row[:n] for row in phi.values[:n]]
                    columns = [sum(1 << i for i, row in enumerate(block) if row[j])
                               for j in range(n)]
                    result = outcome(extract_subset_map, phi)
                    if field == F2:
                        path = "xor span"
                    elif any(v not in (0, 1) for row in block for v in row):
                        path = "non-0/1 column"
                        assert result == outcome(boxed_extract_subset_map, phi)
                    elif sum(map(int.bit_count, columns)) == functools.reduce(
                            or_, columns).bit_count():
                        path = "or span"
                    else:
                        path = "0/1 pair"
                        assert result == outcome(boxed_extract_subset_map, phi)
                    seen.add((path, result[0]))
                    if field != F2:
                        continue
                    if not any(any(row[n:]) for row in phi.values[:n]):
                        seen.add(("unit scan", find_nonpreserved_unit(phi) is None))
                    if phi.is_unital() and find_nonpreserved_unit(phi) is None:
                        seen.add(("strong scan", find_strongness_counterexample(phi) is None))
                    if d > n:
                        rank = phi.rank()
                        assert rank == boxed_matrix_rank(phi.rows)
                        seen.add(("rank", rank == d))
    assert {("xor span", "result"), ("or span", "result"), ("0/1 pair", "refuted"),
            ("non-0/1 column", "refuted"),
            ("unit scan", True), ("unit scan", False), ("strong scan", True),
            ("strong scan", False), ("rank", True), ("rank", False)} <= seen
    assert ("0/1 pair", "result") not in seen
    assert ("non-0/1 column", "result") not in seen


@given(instances(RING_FIELDS))
def test_is_unital_matches_boxed_reference(instance):
    """Every map kind, and a copy with one diagonal-column entry changed, so
    one row sum over the diagonal columns no longer matches delta."""
    poset, field, kind, rng = instance
    phi = random_map(poset, field, kind, rng)
    non_unital = changed_entry(phi, rng.randrange(poset.dimension), rng.randrange(poset.n), rng)
    for psi in (phi, non_unital):
        assert psi.is_unital() == boxed_is_unital(psi)


@given(instances(RING_FIELDS))
def test_spec_checks_match_boxed_reference(instance):
    poset, field, _, rng = instance
    spec = random_preserver_spec(poset, field, rng)
    for psi in radical_maps(spec, rng):
        assert (mismatch(PreserverSpec, poset, field, spec.endo, psi)
                == mismatch(boxed_spec_checks, poset, field, spec.endo, psi))


@given(instances(RING_FIELDS))
def test_classified_specs_pass_the_spec_checks(instance):
    """``classify`` boxes the normal form it derives without the
    constructor's checks; each spec it accepts still passes all of them."""
    poset, field, kind, rng = instance
    for phi in perturbed_maps(random_map(poset, field, kind, rng), rng):
        try:
            spec = classify(phi)
        except ClassificationError:
            continue
        assert boxed_spec_checks(poset, field, spec.endo, spec.radical_map) is None
        assert spec == PreserverSpec(poset, field, spec.endo, spec.radical_map)


@pytest.mark.parametrize("name, field", [("chain:2", F3), ("antichain:3", F3), ("v", F2)])
def test_census_specs_pass_the_spec_checks(name, field):
    """The census boxes each survivor's spec unchecked, from rows its unital
    filter admitted; every one passes the constructor's checks."""
    poset = builtin_poset(name)
    for record in enumerate_preservers(poset, field).records:
        spec = record.spec
        assert boxed_spec_checks(poset, field, spec.endo, spec.radical_map) is None


def test_unital_and_spec_cases_reach_every_branch():
    """The generators produce unital and non-unital maps, and radical maps
    passing each check and failing each of the two radical-map checks."""
    rng = random.Random(0)
    seen = set()
    for field in RING_FIELDS:
        for poset in POSET_POOL[:5]:
            for kind in MAP_KINDS:
                phi = random_map(poset, field, kind, rng)
                seen.add(phi.is_unital())
                seen.add(changed_entry(phi, 0, 0, rng).is_unital())
            spec = random_preserver_spec(poset, field, rng)
            seen.update(mismatch(PreserverSpec, poset, field, spec.endo, psi)
                        for psi in radical_maps(spec, rng))
    assert seen == {True, False, None, "psi must annihilate delta",
                    "radical map must have zero diagonal-output rows"}


@given(instances(RING_FIELDS))
def test_inverse_matches_boxed_reference(instance):
    poset, field, _, rng = instance
    delta = FIElement.delta(poset, field)
    for _ in range(3):
        a = random_unit(poset, field, rng)
        inv = a.inverse()
        assert inv == boxed_inverse(a)
        assert a * inv == inv * a == delta
        coeffs = list(a.coeffs)
        coeffs[rng.randrange(poset.n)] = field.zero
        singular = FIElement(poset, field, coeffs)
        with pytest.raises(NotAUnitError):
            singular.inverse()
        with pytest.raises(NotAUnitError):
            boxed_inverse(singular)


def repeated_heads(sample, n):
    """A sample whose diagonal heads repeat: the first six heads, each with
    the tails of the first three samples, then the first six samples again,
    so some tuples repeat whole."""
    return ([vals[:n] + other[n:] for vals in sample[:6] for other in sample[:3]]
            + sample[:6])


def radical_columns_zero(phi) -> bool:
    """The diagonal-output rows are zero on every radical column."""
    n = phi.poset.n
    return not any(any(row[n:]) for row in phi.values[:n])


@given(instances([F2, F3, F5]))
def test_lemma_checks_match_boxed_reference(instance):
    """On the seeded sample and on one whose diagonal heads repeat, so that
    the per-head reading of the level-set law meets heads shared by several
    samples."""
    poset, field, _, rng = instance
    table, sample, maps = lemma_instance(poset, field, rng)
    for phi in maps:
        for values in (sample, repeated_heads(sample, poset.n)):
            assert (list(_lemma_checks(phi, table, values).items())
                    == list(boxed_lemma_checks(phi, table, values).items()))


def test_lemma_instances_fail_both_element_laws():
    """The perturbed maps reach a failing witness of the level-set law both
    on maps whose diagonal-output rows are zero on the radical columns (read
    once per diagonal head) and on maps where they are not (read sample by
    sample), and a failing witness of ``vf(f)_D-is-vf(f_D)_D``, which can
    fail only where they are not. Every witness is the boxed loops' one."""
    rng = random.Random(0)
    failed = set()
    for field in (F3, F5):
        for poset in POSET_POOL[:5]:
            table, sample, maps = lemma_instance(poset, field, rng)
            for phi in maps:
                for values in (sample, repeated_heads(sample, poset.n)):
                    out = _lemma_checks(phi, table, values)
                    assert out == boxed_lemma_checks(phi, table, values)
                    failed.update((law, radical_columns_zero(phi)) for law in (
                        "vf(f)_D-is-vf(f_D)_D", "vf(f)_D=sum-k-e_lb(L_k)")
                        if out[law] is not None)
    assert failed == {("vf(f)_D-is-vf(f_D)_D", False),
                      ("vf(f)_D=sum-k-e_lb(L_k)", True),
                      ("vf(f)_D=sum-k-e_lb(L_k)", False)}


def test_lemma_instances_fail_j_to_j():
    """A perturbed radical column of a diagonal-output row fails
    ``vf-maps-J-to-J``, with the witness of the boxed loop over basis
    elements."""
    rng = random.Random(1)
    witnesses = []
    for field in (F2, F3):
        for poset in POSET_POOL:
            table, sample, maps = lemma_instance(poset, field, rng)
            for phi in maps:
                out = _lemma_checks(phi, table, sample)
                assert out["vf-maps-J-to-J"] == boxed_lemma_checks(
                    phi, table, sample)["vf-maps-J-to-J"]
                witnesses.append(out["vf-maps-J-to-J"])
    assert None in witnesses
    assert any(w is not None for w in witnesses)


@given(st.sampled_from(RING_FIELDS), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from(["random", "low-rank", "repeated", "zero"]),
       st.integers(0, 2**32 - 1))
def test_matrix_rank_matches_boxed_reference(field, height, width, shape, seed):
    """Square and non-square matrices, dense and sparse. The rank falls
    short when every row is a combination of fewer rows (``low-rank``), or
    when a multiple of a row (``repeated``) or a zero row is added."""
    rng = random.Random(seed)
    zero_share = rng.choice([0.0, 0.5, 0.9])
    rows = [[field.scalar(_value(field, rng, zero_share)) for _ in range(width)]
            for _ in range(height)]
    if shape == "low-rank":
        basis = rows[:rng.randrange(min(height, width))] if min(height, width) else []
        rows = []
        for _ in range(height):
            row = [field.zero] * width
            for b in basis:
                c = field.scalar(_value(field, rng, zero_share=0.3))
                row = [v + c * w for v, w in zip(row, b)]
            rows.append(row)
    elif shape == "repeated" and rows:
        c = field.scalar(_value(field, rng, zero_share=0) or 1)
        rows.insert(rng.randrange(height + 1), [c * v for v in rng.choice(rows)])
    elif shape == "zero":
        rows.insert(rng.randrange(height + 1), [field.zero] * width)
    values = [[c.value for c in row] for row in rows]
    assert _rank_of_values(field, values) == boxed_matrix_rank(rows)


def test_matrix_rank_of_an_empty_matrix():
    """The empty matrix has rank 0; an antichain has no radical coordinates,
    so its psi block is the empty 0 x 0 matrix, which counts as invertible."""
    assert _rank_of_values(F3, []) == boxed_matrix_rank([]) == 0
    antichain = builtin_poset("antichain:3")
    rng = random.Random(0)
    for field in (F2, F3, Q):
        spec = random_preserver_spec(antichain, field, rng)
        assert spec.radical_map.rows[antichain.n:] == ()
        assert _psi_radical_block_invertible(spec)


@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_to_xor_endo_matches_boxed_reference(n, perturbed, seed):
    """Additive tables, and tables with one or more entries changed: the
    result, or the law, message and first witness mask of the refutation,
    agree."""
    rng = random.Random(seed)
    endo = random_xor_endo(tuple(f"x{i}" for i in range(n)), rng)
    table = [endo.apply_mask(m) for m in range(1 << n)]
    for _ in range(perturbed):
        table[rng.randrange(1 << n)] ^= rng.randrange(1, 1 << n)
    table = SubsetMapTable(endo.elements, tuple(table))
    assert outcome(to_xor_endo, table) == outcome(boxed_to_xor_endo, table)


@given(st.sampled_from(RING_FIELDS), st.integers(0, 2**32 - 1))
def test_scale_matches_boxed_reference(field, seed):
    """Same map, and the same error, for int, ``Fraction``, ``Scalar`` and
    zero factors and a scalar of another field."""
    rng = random.Random(seed)
    poset = rng.choice(POSET_POOL)
    phi = random_map(poset, field, rng.choice(MAP_KINDS), rng)
    factors = [0, 1, -1, 7, _value(field, rng, zero_share=0), field.zero, field.one,
               field.scalar(_value(field, rng, zero_share=0))]
    for k in factors:
        scaled = phi.scale(k)
        assert scaled == boxed_scale(phi, k)
        assert hash(scaled) == hash(boxed_scale(phi, k))
    other = F3 if field == Q else Q
    for scale in (phi.scale, functools.partial(boxed_scale, phi)):
        with pytest.raises(FieldMismatchError):
            scale(other.one)


@functools.cache
def poset_symmetries(poset) -> list[tuple[dict, bool]]:
    """(relabelling, reverses the order) for every automorphism and every
    anti-automorphism of the poset, in ``itertools.permutations`` order. A
    partial relabelling is extended only while it keeps the order, or its
    reverse, on the elements placed so far, so a chain costs 2^n steps,
    not n!."""
    elements, leq = poset.elements, poset.less_equal
    out = []

    def keeps(image, reverse):
        x, t = elements[len(image) - 1], image[-1]
        return all((leq(x, y), leq(y, x)) == ((leq(u, t), leq(t, u)) if reverse
                                              else (leq(t, u), leq(u, t)))
                   for y, u in zip(elements, image))

    def extend(image, flags):
        if len(image) == len(elements):
            s = dict(zip(elements, image))
            out.extend((s, reverse) for reverse in flags)
            return
        for t in elements:
            if t not in image:
                kept = [reverse for reverse in flags if keeps(image + [t], reverse)]
                if kept:
                    extend(image + [t], kept)

    extend([], [False, True])
    return out


def jordan_map(poset, field, rng: random.Random) -> LinearMap:
    """a -> u s(a) u^-1, with s a random automorphism or anti-automorphism
    of the poset and u a random unit: a Jordan automorphism."""
    s, reverse = rng.choice(poset_symmetries(poset))
    unit = random_unit(poset, field, rng)
    inv = unit.inverse()
    images = {}
    for x, y in poset.basis_pairs:
        pair = (s[y], s[x]) if reverse else (s[x], s[y])
        images[(x, y)] = unit * basis_element(poset, field, *pair) * inv
    return LinearMap.from_basis_images(poset, field, images)


JORDAN_KINDS = ["preserver", "perturbed", "non-unital", "jordan", "jordan-changed"]


def jordan_cases(poset, field, kind: str, rng: random.Random) -> list[LinearMap]:
    """Preservers, their three perturbed copies, non-unital maps (a
    preserver with a diagonal-block entry changed, and a sparse random
    map), Jordan automorphisms, and Jordan automorphisms with one entry
    changed."""
    n, d = poset.n, poset.dimension
    if kind == "jordan":
        return [jordan_map(poset, field, rng)]
    if kind == "jordan-changed":
        return [changed_entry(jordan_map(poset, field, rng),
                              rng.randrange(d), rng.randrange(d), rng)]
    phi = random_map(poset, field, "preserver", rng)
    if kind == "preserver":
        return [phi]
    if kind == "perturbed":
        return perturbed_maps(phi, rng)[1:]
    return [changed_entry(phi, rng.randrange(n), rng.randrange(n), rng),
            random_map(poset, field, "sparse", rng)]


@given(instances(RING_FIELDS), st.sampled_from(JORDAN_KINDS))
def test_jordan_scan_matches_boxed_reference(instance, kind):
    """The same first witness pair, or None."""
    poset, field, _, rng = instance
    for phi in jordan_cases(poset, field, kind, rng):
        assert find_jordan_counterexample(phi) == boxed_find_jordan_counterexample(phi)


def images_compose(phi: LinearMap, a: FIElement, b: FIElement) -> bool:
    """Whether a support pair (x, y) of phi(a) meets a support pair (y, z)
    of phi(b), or the other way round; if not, both products are zero."""
    def support(c):
        return [pair for pair, v in zip(phi.poset.basis_pairs, phi.apply(c).coeffs) if v]

    sa, sb = support(a), support(b)
    return (any(y == s for _, y in sa for s, _ in sb)
            or any(y == s for _, y in sb for s, _ in sa))


def test_jordan_cases_reach_every_outcome():
    """Jordan automorphisms pass; changed ones, perturbed preservers and
    non-unital maps fail, some at a pair of distinct basis elements, and,
    on a prime field and on Q, some at a pair whose images do not compose
    (the right side is zero unmultiplied), some at a multiplied pair, and
    some at a = b diagonal, where the left side is one column doubled."""
    rng = random.Random(0)
    seen = set()
    for field in RING_FIELDS:
        for poset in POSET_POOL:
            for kind in JORDAN_KINDS:
                for phi in jordan_cases(poset, field, kind, rng):
                    pair = find_jordan_counterexample(phi)
                    seen.add((kind, pair is None))
                    if pair is not None:
                        seen.add((field == Q, images_compose(phi, *pair)))
                        if pair[0] != pair[1]:
                            seen.add("distinct pair")
                        elif any(pair[0].coeffs[:poset.n]):
                            seen.add((field == Q, "diagonal pair"))
    assert {("jordan", True), ("jordan-changed", False), ("preserver", True),
            ("preserver", False), ("perturbed", False), ("non-unital", False),
            "distinct pair"} <= seen
    assert {(False, False), (False, True), (True, False), (True, True)} <= seen
    assert {(False, "diagonal pair"), (True, "diagonal pair")} <= seen
    assert ("jordan", False) not in seen


def test_jordan_scan_at_the_algebra_cap():
    """On chain:12 over Q (d = 78), where the boxed reference is too slow, a
    Jordan automorphism passes the scan and ``check``, and the same map
    with one entry changed is refuted at a real counterexample pair."""
    poset, rng = builtin_poset("chain:12"), random.Random(0)
    phi = jordan_map(poset, Q, rng)
    assert find_jordan_counterexample(phi) is None
    verdicts = analyze_map(phi)["verdicts"]
    assert verdicts["jordan"] is True and verdicts["inverse_preserving"] is True
    d = poset.dimension
    changed = changed_entry(phi, rng.randrange(d), rng.randrange(d), rng)
    a, b = find_jordan_counterexample(changed)
    assert (changed.apply(jordan_product(a, b))
            != jordan_product(changed.apply(a), changed.apply(b)))


def large_rational(rng: random.Random) -> Fraction:
    """A nonzero rational other than -1, with a numerator and a denominator
    of up to twelve digits."""
    while True:
        v = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        if v and v != -1:
            return v


def q_report_batch() -> list[LinearMap]:
    """Seeded maps over Q. On each poset: a preserver whose radical map is
    scaled by a large rational; a late refutation (one radical entry of a
    diagonal-output row set, where the poset has radical coordinates), which
    keeps the map unital and every subset-table law; and an early one (a
    diagonal-block row that still sums to 1, with phi(e_x) worth 1 + c on
    it). Then a non-unital preserver and a Jordan automorphism."""
    rng = random.Random(23)
    maps = []
    for name in ("chain:4", "diamond", "chain:5", "antichain:6"):
        poset = builtin_poset(name)
        n, d = poset.n, poset.dimension
        spec = random_preserver_spec(poset, Q, rng)
        spec = PreserverSpec(poset, Q, spec.endo, spec.radical_map.scale(large_rational(rng)))
        phi = build_preserver(spec)
        maps.append(phi)
        if d > n:
            rows = [list(r) for r in phi.rows]
            rows[rng.randrange(n)][rng.randrange(n, d)] = Q.scalar(large_rational(rng))
            maps.append(LinearMap(poset, Q, rows))
        rows = [list(r) for r in phi.rows]
        y = rng.randrange(n)
        x = spec.endo.owners()[y]
        c = large_rational(rng)
        rows[y][x] = Q.scalar(1 + c)
        rows[y][(x + 1 + rng.randrange(n - 1)) % n] = Q.scalar(-c)
        maps.append(LinearMap(poset, Q, rows))
    maps.append(maps[0].scale(Fraction(-3, 7)))
    maps.append(jordan_map(builtin_poset("chain:4"), Q, rng))
    return maps


def test_q_reports_are_pinned():
    """The ``analyze_map`` reports of a seeded batch over Q, witnesses
    included, hashed as JSON, so that no change in how the rational sums are
    computed moves a verdict, a normal form or a witness."""
    reports = [analyze_map(phi) for phi in q_report_batch()]
    preserver = [r["verdicts"]["preserver"] for r in reports]
    assert preserver == [True, False, False] * 3 + [True, False, True, True]
    assert [r["verdicts"]["unital"] for r in reports][-2:] == [False, True]
    assert reports[-1]["verdicts"]["jordan"] is True
    text = json.dumps(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ecdb17f88a75b229e4e2c6cd4a21f99a42a167c1b2616b084ae666f4923ceac3")


UNIT_CAP = 1000  # units for the inverse scan, to keep the property fast


def unit_count(poset, field) -> int:
    return (field.p - 1) ** poset.n * field.p ** (poset.dimension - poset.n)


def scan_verdicts(phi: LinearMap) -> dict:
    """The verdicts of ``analyze_map`` as the brute-force scans reach them:
    the preserver scan, the q^n strongness scan on a preserver, unital or
    not, with its witness text, and the unit scan on a preserver where it fits
    UNIT_CAP (None beyond it). A non-preserver sends some unit to a
    non-unit, so it preserves no inverses."""
    poset, field = phi.poset, phi.field
    preserver = preserves_invertibility(phi)
    out = {"preserver": preserver, "strong": None, "strong witness": None,
           "inverse_preserving": False if not preserver else None}
    if preserver:
        counter = find_strongness_counterexample(phi)
        out["strong"] = counter is None
        if counter is not None:
            out["strong witness"] = f"non-unit {format_element(counter)} maps to a unit"
    if preserver and unit_count(poset, field) <= UNIT_CAP:
        out["inverse_preserving"] = preserves_inverses(phi)
    return out


def analysis_cases(poset, field, kind: str, jordan_kind: str, rng: random.Random):
    """A map of each kernel kind with its perturbed copies, and the Jordan
    cases of one kind."""
    return (perturbed_maps(random_map(poset, field, kind, rng), rng)
            + jordan_cases(poset, field, jordan_kind, rng))


@given(instances([F2, F3, F5], scan_cap=SCAN_CAP), st.sampled_from(JORDAN_KINDS))
def test_analyze_map_matches_the_brute_force_scans(instance, jordan_kind):
    """``analyze_map`` decides by the normal form; wherever the scans fit,
    its preserver, strong and inverse-preserving verdicts and its strongness
    witness are the ones the scans reach."""
    poset, field, kind, rng = instance
    for phi in analysis_cases(poset, field, kind, jordan_kind, rng):
        report = analyze_map(phi)
        expected = scan_verdicts(phi)
        verdicts = report["verdicts"]
        assert verdicts["preserver"] == expected["preserver"]
        assert verdicts["strong"] == expected["strong"]
        assert report["witnesses"].get("strong") == expected["strong witness"]
        if expected["inverse_preserving"] is not None:
            assert verdicts["inverse_preserving"] == expected["inverse_preserving"]


def test_analysis_cases_reach_every_verdict():
    """The cases reach strong and non-strong preservers, unital and not,
    preservers that preserve inverses and ones that do not in odd
    characteristic and in characteristic 2, and in characteristic 2 also
    unital ones where the Jordan verdict differs from the unit scan's."""
    rng = random.Random(0)
    seen = set()
    for field in (F2, F3, F5):
        for poset in POSET_POOL:
            if field.p ** poset.n > SCAN_CAP:
                continue
            for kind in MAP_KINDS:
                for jordan_kind in JORDAN_KINDS:
                    for phi in analysis_cases(poset, field, kind, jordan_kind, rng):
                        expected = scan_verdicts(phi)
                        if expected["strong"] is None:
                            continue
                        seen.add((phi.is_unital(), "strong", expected["strong"]))
                        ip = expected["inverse_preserving"]
                        if ip is not None:
                            seen.add((field.p == 2, ip))
                            # -identity preserves inverses but is not Jordan
                            if phi.is_unital() and ip != is_jordan_endo(phi):
                                seen.add((field.p == 2, "jordan differs"))
    assert {(unital, "strong", strong) for unital in (True, False)
            for strong in (True, False)} <= seen
    assert {(True, True), (True, False),
            (False, True), (False, False), (True, "jordan differs")} <= seen
    assert (False, "jordan differs") not in seen


INVERSE_DIFF_CAP = 250  # units for the boxed unit scan, to keep the property fast


@st.composite
def unit_scan_instances(draw):
    """A poset of the pool, a field among F2, F3 and F5 whose units fit
    INVERSE_DIFF_CAP, a map kind, a Jordan kind and a seed."""
    poset = draw(st.sampled_from(POSET_POOL))
    field = draw(st.sampled_from(
        [f for f in (F2, F3, F5) if unit_count(poset, f) <= INVERSE_DIFF_CAP]))
    kind = draw(st.sampled_from(MAP_KINDS))
    jordan_kind = draw(st.sampled_from(JORDAN_KINDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return poset, field, kind, jordan_kind, rng


def inverse_scan_cases(poset, field, kind: str, jordan_kind: str, rng: random.Random):
    """The preservers, unital or not, among the analysis cases."""
    return [phi for phi in analysis_cases(poset, field, kind, jordan_kind, rng)
            if preserves_invertibility(phi)]


@given(unit_scan_instances())
def test_inverse_scan_matches_boxed_reference(instance):
    """The product test phi(u) phi(u^-1) = delta over the listed units finds
    the same first unit as the per-unit comparison of phi(u^-1) with
    phi(u)^-1, or None, whether the units come as a one-pass generator, as
    ``analyze_map`` passes them, or as a list, as the inverse suite does."""
    poset, field, kind, jordan_kind, rng = instance
    units = list(iter_units(poset, field))
    for phi in inverse_scan_cases(poset, field, kind, jordan_kind, rng):
        assert (find_inverse_counterexample(phi, iter_units(poset, field))
                == find_inverse_counterexample(phi, units)
                == boxed_find_inverse_counterexample(phi))


def test_inverse_scan_cases_reach_every_outcome():
    """The cases reach unital and non-unital preservers that preserve
    inverses and ones that do not, over F2 and over odd fields."""
    rng = random.Random(0)
    seen = set()
    for field in (F2, F3, F5):
        for poset in POSET_POOL:
            if unit_count(poset, field) > INVERSE_DIFF_CAP:
                continue
            for kind in MAP_KINDS:
                for jordan_kind in JORDAN_KINDS:
                    for phi in inverse_scan_cases(poset, field, kind, jordan_kind, rng):
                        counter = find_inverse_counterexample(phi, iter_units(poset, field))
                        seen.add((field.p == 2, phi.is_unital(), counter is None))
    assert {(char2, unital, ip) for char2 in (True, False)
            for unital in (True, False) for ip in (True, False)} - seen == set()


def dense_unit(poset, field, rng: random.Random) -> FIElement:
    """A unit with every coordinate nonzero."""
    return FIElement.from_vector(poset, field, [
        _value(field, rng, zero_share=0) or 1 for _ in range(poset.dimension)])


def involution(poset, field, rng: random.Random) -> FIElement:
    """g s g^-1 for a dense unit g and an s with s^2 = delta: s is diagonal
    with entries +-1, plus c e[x,y] on a strict pair with s_x + s_y = 0
    where there is one (any strict pair in characteristic 2), since
    (s + c e[x,y])^2 = s^2 + c (s_x + s_y) e[x,y]."""
    signs = dict(zip(poset.elements, (rng.choice((1, -1)) for _ in poset.elements)))
    entries = {(x, x): s for x, s in signs.items()}
    pairs = [(x, y) for x, y in poset.strict_pairs if not field.scalar(signs[x] + signs[y])]
    if pairs:
        entries[rng.choice(pairs)] = _value(field, rng, zero_share=0) or 1
    g = dense_unit(poset, field, rng)
    return g * FIElement.from_dict(poset, field, entries) * g.inverse()


def left_multiplied(u: FIElement, phi: LinearMap) -> LinearMap:
    """u phi: each column phi(e_k) multiplied by u on the left."""
    poset, field = phi.poset, phi.field
    return LinearMap.from_basis_images(poset, field, {
        pair: u * FIElement(poset, field, column)
        for pair, column in zip(poset.basis_pairs, zip(*phi.rows))})


def nonunital_report_batch() -> list[LinearMap]:
    """Seeded maps, on each poset and field: u phi for a random preserver
    phi and a dense unit u; v phi for an involution v, so that phi(delta)^2
    = delta, except on diamond over F5, where the unit scan that this case
    reaches lists 800,000 units; u phi' for copies phi' of phi with
    phi'(delta) = delta: one with a diagonal-block row changed and its sum
    kept, and, where the poset has radical coordinates, a non-preserver
    with a radical entry of a diagonal-output row set; and 2 times the
    identity, which is 0 over F2. The maps are not unital, except u phi,
    v phi and u phi' on antichain:6 over F2, whose only unit is delta."""
    rng = random.Random(24)
    maps = []
    for field in (F2, F3, F5, Q):
        for name in ("chain:4", "diamond", "chain:8", "antichain:6"):
            poset = builtin_poset(name)
            n, d = poset.n, poset.dimension
            phi = random_map(poset, field, "preserver", rng)
            maps.append(left_multiplied(dense_unit(poset, field, rng), phi))
            if (name, field) != ("diamond", F5):
                maps.append(left_multiplied(involution(poset, field, rng), phi))
            refuted = [perturbed_maps(phi, rng)[1]]
            if d > n:
                refuted.append(changed_entry(phi, rng.randrange(n), rng.randrange(n, d), rng))
            maps += [left_multiplied(dense_unit(poset, field, rng), m) for m in refuted]
            maps.append(LinearMap.identity(poset, field).scale(2))
    return maps


def test_nonunital_reports_are_pinned():
    """The ``analyze_map`` reports of the non-unital batch, witnesses
    included, hashed as JSON, so that no change in how psi = phi(delta)^-1
    phi is computed moves a verdict or a witness."""
    maps = nonunital_report_batch()
    assert [phi.is_unital() for phi in maps].count(True) == 3
    reports = [analyze_map(phi) for phi in maps]
    assert [r["verdicts"]["preserver"] for r in reports].count(True) == 48
    text = json.dumps(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a7e785984c97e078b0ef382a3343133a562f3bb192e9624314fc5cdcc7c3dc69")


def reduction_cases(poset, field, kind: str, rng: random.Random) -> list[LinearMap]:
    """The non-unital maps among u phi, v phi and phi, for phi a map of the
    given kind, u a dense unit and v an involution."""
    phi = random_map(poset, field, kind, rng)
    maps = [left_multiplied(dense_unit(poset, field, rng), phi),
            left_multiplied(involution(poset, field, rng), phi), phi]
    return [m for m in maps if not m.is_unital()]




@given(instances(RING_FIELDS))
def test_unital_reduction_matches_boxed_reference(instance):
    """On a non-unital map, ``analyze_map`` classifies the psi = u^-1 phi of
    the boxed reduction, entry for entry, or nothing when u = phi(delta) is
    not a unit; and when psi classifies, it reaches the unit scan exactly
    when u^2 = delta. The scan is stubbed to raise, so only whether it is
    reached is observed."""
    poset, field, kind, rng = instance
    for phi in reduction_cases(poset, field, kind, rng):
        expected = boxed_unital_reduction(phi)
        with (patch.object(verify, "classify", wraps=classify) as classified,
              patch.object(verify, "iter_units",
                           side_effect=InfiniteFieldError("stubbed scan")) as scan):
            report = analyze_map(phi)
        if expected is None:
            assert not classified.called and not scan.called
            continue
        psi, squares_to_delta = expected
        (seen,), _ = classified.call_args
        assert seen.values == psi.values
        if report["verdicts"]["preserver"]:
            assert scan.called == squares_to_delta


def test_reduction_cases_reach_every_branch():
    """Over every field the cases reach u = phi(delta) not a unit, u^2 =
    delta and u^2 != delta, and in both of the last two a psi that classify
    accepts and one that it refutes."""
    rng = random.Random(0)
    seen = set()
    for field in RING_FIELDS:
        for poset in POSET_POOL:
            for kind in MAP_KINDS:
                for phi in reduction_cases(poset, field, kind, rng):
                    expected = boxed_unital_reduction(phi)
                    if expected is None:
                        seen.add((field, "not a unit"))
                        continue
                    psi, squares_to_delta = expected
                    branch = "u^2 = delta" if squares_to_delta else "u^2 != delta"
                    seen.add((field, branch))
                    seen.add((field, branch, outcome(classify, psi)[0] == "result"))
    branches = ("not a unit", "u^2 = delta", "u^2 != delta")
    assert {(field, branch) for field in RING_FIELDS for branch in branches} <= seen
    assert {(field, branch, accepted) for field in RING_FIELDS for branch in branches[1:]
            for accepted in (True, False)} <= seen
