import hashlib
import importlib.util
import json
import random
import sys
from fractions import Fraction
from itertools import groupby, product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from incalg import (
    ClassificationError,
    FIElement,
    GateError,
    IncalgError,
    InfiniteFieldError,
    LinearMap,
    PartitionEndo,
    Poset,
    PrimeField,
    PreserverSpec,
    XorEndo,
    analyze_map,
    build_preserver,
    builtin_poset,
    classify,
    count_from_theorem,
    enumerate_preservers,
    enumerate_specs,
    format_preserver_spec,
    is_strong,
    merge_census,
    preserves_inverses,
    preserves_invertibility,
    random_preserver_spec,
    reproduce_example,
    verify_criteria,
    verify_inverse_preserver_results,
    verify_lemma_suite,
)

from incalg.algebra import basis_element, format_element
from incalg.preservers import SCAN_CAP, iter_idempotents
from incalg.verify import CENSUS_SPACE_CAP, _idempotent_laws

from boxed_reference import plain_record_json
from conftest import F2, F3, F5, POSET_POOL, PRIME_FIELDS, Q

CHAIN1 = builtin_poset("chain:1")
CHAIN2 = builtin_poset("chain:2")
ANTI2 = builtin_poset("antichain:2")
ANTI3 = builtin_poset("antichain:3")


def radical_projection(poset, field):
    n, d = poset.n, poset.dimension
    rows = [[1 if (i == j and i >= n) else 0 for j in range(d)] for i in range(d)]
    return LinearMap.from_rows(poset, field, rows)


def test_classify_identity():
    spec = classify(LinearMap.identity(CHAIN2, F3))
    assert spec.endo == PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    assert spec.radical_map == radical_projection(CHAIN2, F3)


def test_classify_diagonal_truncation():
    phi = LinearMap.from_rows(CHAIN2, F3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    spec = classify(phi)
    assert spec.endo == PartitionEndo(CHAIN2.elements, (0b01, 0b10))
    assert spec.radical_map == LinearMap.zero(CHAIN2, F3)
    xphi = LinearMap.from_rows(CHAIN2, F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    xspec = classify(xphi)
    assert xspec.endo == XorEndo(CHAIN2.elements, (0b01, 0b10))


def test_classify_z2_antichain_example():
    phi = LinearMap.from_rows(
        builtin_poset("antichain:3"), F2, [[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    spec = classify(phi)
    assert spec.endo == XorEndo(ANTI3.elements, (0b001, 0b011, 0b101))
    assert spec.radical_map == LinearMap.zero(ANTI3, F2)


def test_classify_rejects_non_unital():
    with pytest.raises(ClassificationError, match="unital"):
        classify(LinearMap.zero(CHAIN2, F3))


def test_classify_refutes_non_preserver_over_prime_field():
    """Over a prime field classify decides by the normal form, as over Q:
    no unit scan runs, and the refuting law is the one that fails."""
    # unital, but a diagonal row reads a radical coordinate
    phi = LinearMap.from_rows(CHAIN2, F3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert phi.is_unital()
    with pytest.raises(ClassificationError, match=r"inv-pres-for-\|K\|>2") as info:
        classify(phi)
    assert info.value.witness is None
    phi = LinearMap.from_rows(CHAIN2, F2, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ClassificationError, match=r"inv-pres-over-Z_2"):
        classify(phi)
    # unital, but the diagonal block holds a value outside {0, 1}
    phi = LinearMap.from_rows(CHAIN2, F3, [[2, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert phi.is_unital() and not preserves_invertibility(phi)
    with pytest.raises(ClassificationError, match="from-vf-to-lb") as info:
        classify(phi)
    assert info.value.witness == "A = {1}"


def test_classification_doubles_as_verification_over_q():
    # diagonal values escape {0, 1}: refuted by the subset-map extraction
    phi = LinearMap.from_rows(CHAIN2, Q, [["1", "0", "0"], ["1/2", "1/2", "0"], ["0", "0", "1"]])
    assert phi.is_unital()
    with pytest.raises(ClassificationError, match="from-vf-to-lb"):
        classify(phi)
    # structure fine on idempotents, but a diagonal row reads the radical:
    # refuted by the reconstruction step
    phi2 = LinearMap.from_rows(CHAIN2, Q, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert phi2.is_unital()
    with pytest.raises(ClassificationError, match=r"inv-pres-for-\|K\|>2"):
        classify(phi2)
    # honest preserver over Q classifies fine
    spec = classify(LinearMap.identity(CHAIN2, Q))
    assert spec.endo == PartitionEndo(CHAIN2.elements, (0b01, 0b10))


def test_count_from_theorem_values():
    assert count_from_theorem(CHAIN2, F3) == 36
    assert count_from_theorem(CHAIN2, F2) == 16
    assert count_from_theorem(ANTI2, F3) == 4
    assert count_from_theorem(CHAIN1, F3) == 1
    assert count_from_theorem(CHAIN1, F2) == 1
    with pytest.raises(InfiniteFieldError):
        count_from_theorem(CHAIN2, Q)


def _benchmark_census_pins():
    """The benchmark's census digest function and its pinned digests, keyed
    like its instances ("antichain:4/Fp2"), read from ``perfbench/``."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    expected = workloads.load_expected()
    pins = {key: want["digest"] for section in ("census-sparse", "census-dense")
            for key, want in expected[section].items()}
    return workloads.census_digest, pins


census_digest, CENSUS_PINS = _benchmark_census_pins()
CENSUS_CASES = [
    (CHAIN2, F3, 36),
    (CHAIN2, F2, 16),
    (ANTI2, F3, 4),
    (ANTI2, F2, 4),
    (CHAIN1, F3, 1),
    (ANTI3, F3, 27),
    (builtin_poset("antichain:4"), F2, 4096),
    (CHAIN2, F5, 100),
]


def _census_key(poset, field) -> str:
    return f"{poset.name}/Fp{field.p}"


@pytest.mark.parametrize("poset,field,expected", CENSUS_CASES)
def test_census_counts(poset, field, expected):
    """Counts, and for the benchmark's instances the digest of every
    survivor record, so a changed record fails here as well."""
    report = enumerate_preservers(poset, field)
    assert report.oracle_count == expected
    assert report.theorem_count == expected
    assert report.consistent
    key = _census_key(poset, field)
    if key in CENSUS_PINS:
        assert census_digest(report.to_json()) == CENSUS_PINS[key]


def test_every_pinned_census_is_a_census_case():
    assert set(CENSUS_PINS) <= {_census_key(p, f) for p, f, _ in CENSUS_CASES}


@pytest.mark.parametrize("poset,field", [
    (CHAIN2, F2), (CHAIN2, F3), (ANTI2, F2), (ANTI2, F3)])
def test_census_set_equality_with_constructed_normal_forms(poset, field):
    census = enumerate_preservers(poset, field)
    oracle_matrices = {rec.matrix for rec in census.records}
    built_matrices = {build_preserver(spec).values for spec in enumerate_specs(poset, field)}
    assert oracle_matrices == built_matrices


def test_census_builds_no_checked_map(monkeypatch):
    """Each census survivor, its normal form and its record are built from
    canonical values, never through the checked ``LinearMap`` constructor."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("checked LinearMap constructor called")

    monkeypatch.setattr(LinearMap, "__init__", refuse)
    for poset, count in ((ANTI3, 27), (CHAIN2, 36)):
        report = enumerate_preservers(poset, F3)
        assert report.oracle_count == count
        assert len(report.to_json()["maps"]) == count


def _split_census(poset, field, split):
    space = field.p ** (poset.dimension ** 2)
    return merge_census(enumerate_preservers(poset, field, 0, split),
                        enumerate_preservers(poset, field, split, space))


@pytest.mark.parametrize("make", [
    lambda: enumerate_preservers(builtin_poset("antichain:4"), F2),
    lambda: enumerate_preservers(CHAIN2, F3),
    lambda: enumerate_preservers(ANTI3, F3),
    lambda: enumerate_preservers(builtin_poset("v"), F2),
    lambda: _split_census(CHAIN2, F5, 1_000_003),
], ids=["antichain:4/F2", "chain:2/F3", "antichain:3/F3", "v/F2", "chain:2/F5-split"])
def test_census_json_matches_the_plain_record_formatter(make):
    """``to_json`` formats each distinct row and lambda image once per
    report; its records equal those formatted entry by entry, and no two
    records, nor a record's matrix and psi, share a list."""
    report = make()
    maps = report.to_json()["maps"]
    expected = [plain_record_json(r, report.field) for r in report.records]
    assert maps == expected

    def lists(record):
        (images,) = (v for k, v in record["lambda"].items() if k != "kind")
        return [*record["matrix"], *record["psi"], *images.values()]

    every = [id(text) for record in maps for text in lists(record)]
    assert len(every) == len(set(every))
    middle = len(maps) // 2
    for text in lists(maps[middle]):
        text.append("edited")
    assert maps[:middle] == expected[:middle]
    assert maps[middle + 1:] == expected[middle + 1:]


def test_census_gate():
    with pytest.raises(GateError):
        enumerate_preservers(builtin_poset("chain:3"), F3)
    with pytest.raises(InfiniteFieldError):
        enumerate_preservers(CHAIN2, Q)


def test_census_gate_bounds_the_per_survivor_scans(monkeypatch):
    import incalg.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("rows scanned before the gate")

    monkeypatch.setattr(verify, "_iter_preserver_matrices", refuse)
    chain1, big = builtin_poset("chain:1"), PrimeField(1_000_003)
    # the census space is 10^6 matrices, within its cap; each survivor's
    # preserver scan would visit (q - 1)^n = 1000002 diagonal patterns
    for run in (enumerate_preservers, verify_inverse_preserver_results,
                verify_lemma_suite):
        with pytest.raises(GateError) as exc:
            run(chain1, big)
        assert exc.value.size == 1_000_002
        assert "preserves_invertibility" in str(exc.value)
    with pytest.raises(AssertionError, match="rows scanned"):
        enumerate_preservers(chain1, big, gate_override=True)


def test_census_split_and_merge_matches_full_run():
    full = enumerate_preservers(CHAIN2, F3)
    part1 = enumerate_preservers(CHAIN2, F3, start=0, stop=5000)
    part2 = enumerate_preservers(CHAIN2, F3, start=5000, stop=19683)
    assert not part1.complete
    merged = merge_census(part1, part2)
    assert merged.complete and merged.consistent
    assert [r.index for r in merged.records] == [r.index for r in full.records]
    assert [r.matrix for r in merged.records] == [r.matrix for r in full.records]
    with pytest.raises(ValueError, match="adjacent"):
        merge_census(part2, part1)


# every pool poset whose census space is within the cap, over F2, F3 and F5
CENSUS_POOL = [(poset, field) for poset in POSET_POOL for field in (F2, F3, F5)
               if field.p ** (poset.dimension ** 2) <= CENSUS_SPACE_CAP]


@pytest.mark.parametrize("poset,field", CENSUS_POOL,
                         ids=[_census_key(p, f) for p, f in CENSUS_POOL])
def test_census_records_equal_the_per_survivor_reference(poset, field):
    """A run of survivors shares one classify and one strongness scan; each
    record still equals both run on its own survivor."""
    report = enumerate_preservers(poset, field)
    assert report.consistent
    for rec in report.records:
        phi = LinearMap._of_values(poset, field, rec.matrix)
        assert rec.spec == classify(phi)
        assert rec.strong == is_strong(phi)
        assert rec.bijective == phi.is_bijective()


def _without_elapsed(report) -> dict:
    return {k: v for k, v in report.to_json().items() if k != "elapsed_seconds"}


def test_census_split_inside_a_run_matches_full_run():
    """A range that begins mid-run classifies its first survivor, so a split
    at any survivor of the first two runs, or just after it, merges back to
    the full census."""
    full = enumerate_preservers(CHAIN2, F3)
    runs = [list(run) for _, run in groupby(full.records,
                                            key=lambda rec: rec.matrix[:CHAIN2.n])]
    assert [len(run) for run in runs] == [9] * 4  # 4 blocks, 9 radical maps each
    first_two = [rec.index for run in runs[:2] for rec in run]
    for index in first_two:
        for split in (index, index + 1):
            merged = merge_census(enumerate_preservers(CHAIN2, F3, stop=split),
                                  enumerate_preservers(CHAIN2, F3, start=split))
            assert _without_elapsed(merged) == _without_elapsed(full)


def test_census_classifies_once_per_run(monkeypatch):
    """classify and is_strong run once per run of survivors with equal
    diagonal-output rows, and rank once per survivor."""
    from collections import Counter

    import incalg.verify as verify

    calls = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(verify, "classify", counting("classify", verify.classify))
    monkeypatch.setattr(verify, "is_strong", counting("is_strong", verify.is_strong))
    monkeypatch.setattr(LinearMap, "rank", counting("rank", LinearMap.rank))
    assert enumerate_preservers(CHAIN2, F5).oracle_count == 100
    assert calls == {"classify": 4, "is_strong": 4, "rank": 100}
    calls.clear()
    assert enumerate_preservers(builtin_poset("v"), F2).oracle_count == 16384
    assert calls["classify"] == 64


def test_census_records_carry_normal_forms():
    report = enumerate_preservers(CHAIN2, F2)
    for rec in report.records:
        phi = LinearMap.from_rows(CHAIN2, F2, rec.matrix)
        assert build_preserver(rec.spec) == phi
    strong = [rec for rec in report.records if rec.strong]
    assert len(strong) == sum(1 for rec in report.records if rec.spec.endo.is_injective())


def test_strongness_census_is_pinned():
    report = enumerate_preservers(CHAIN2, F3)
    strong_records = [rec for rec in report.records if rec.strong]
    # brute-force strongness agrees with injectivity of the endomorphism
    assert all(rec.spec.endo.is_injective() for rec in strong_records)
    assert not any(
        rec.spec.endo.is_injective() for rec in report.records if not rec.strong)
    # 2 of the 4 partitions have no empty block, each with 9 radical maps
    assert len(strong_records) == 18


def gl_order(k: int, q: int) -> int:
    """|GL_k(F_q)|."""
    return prod(q ** k - q ** i for i in range(k))


@pytest.mark.parametrize("name,p", [
    ("chain:1", 7), ("chain:2", 2), ("chain:2", 3), ("chain:2", 5), ("antichain:2", 3),
    ("antichain:2", 5), ("antichain:3", 2), ("antichain:3", 3), ("antichain:4", 2), ("v", 2)])
def test_census_strong_and_bijective_counts_match_closed_forms(name, p):
    """With m = d - n radical coordinates and S strong endomorphisms (n!
    permutations for q > 2, |GL_n(2)| / (2^n - 1) invertible GF(2) matrices
    fixing X over F2), the census has S q^(m(d-1)) strong survivors and
    S q^(m(n-1)) |GL_m(q)| bijective ones, and every bijective survivor is
    strong. The census decides strongness by its q^n scan, so this is the
    census-side check of the injectivity criterion that check reads."""
    poset = builtin_poset(name)
    n, d = poset.n, poset.dimension
    m = d - n
    s = gl_order(n, 2) // (2 ** n - 1) if p == 2 else factorial(n)
    records = enumerate_preservers(poset, PrimeField(p)).records
    assert sum(rec.strong for rec in records) == s * p ** (m * (d - 1))
    assert sum(rec.bijective for rec in records) == s * p ** (m * (n - 1)) * gl_order(m, p)
    assert all(rec.strong for rec in records if rec.bijective)


@pytest.mark.parametrize("name,p", [
    ("chain:2", 2), ("chain:2", 3), ("antichain:2", 3), ("chain:1", 5), ("antichain:3", 2),
    ("v", 2)])
def test_non_unital_preservers_factor_uniquely(name, p):
    """Every invertibility preserver is u psi for the unit u = phi(delta) and
    the unital preserver psi = u^-1 phi, and every such product is one, so
    the row filter without its unital conditions keeps (q-1)^n q^m units
    times the predicted count of unital preservers (65,536 on v over F2)."""
    from incalg.verify import _iter_preserver_matrices

    poset, field = builtin_poset(name), PrimeField(p)
    n, d = poset.n, poset.dimension
    survivors = sum(1 for _ in _iter_preserver_matrices(
        poset, field, 0, p ** (d * d), unital=False))
    assert survivors == (p - 1) ** n * p ** (d - n) * count_from_theorem(poset, field)


@pytest.mark.parametrize("field,lemma_count", [(F3, 7), (F2, 5)])
def test_lemma_suite_exhaustive(field, lemma_count):
    verdicts = verify_lemma_suite(CHAIN2, field)
    preserver_count = count_from_theorem(CHAIN2, field)
    assert len(verdicts) == preserver_count * lemma_count
    assert all(v.passed for v in verdicts)
    lemmas = {v.lemma for v in verdicts}
    assert ("lb-separating" in lemmas) == (field.p > 2)
    assert ("lb-prese-symm-diff" in lemmas) == (field.p == 2)


def test_lemma_suite_randomized_is_reproducible():
    a = verify_lemma_suite(CHAIN2, F5, sample="randomized", seed=42, trials=10)
    b = verify_lemma_suite(CHAIN2, F5, sample="randomized", seed=42, trials=10)
    assert [(v.lemma, v.instance, v.passed) for v in a] == \
        [(v.lemma, v.instance, v.passed) for v in b]
    assert all(v.passed for v in a)


def test_lemma_suite_randomized_on_wider_posets():
    for poset, field in ((builtin_poset("v"), F3), (builtin_poset("diamond"), F2)):
        verdicts = verify_lemma_suite(poset, field, sample="randomized",
                                      seed=1, trials=10)
        assert verdicts and all(v.passed for v in verdicts)


def test_suite_verdicts_are_pinned():
    """The verdicts of five suite calls, witnesses included, hashed as JSON,
    so that no change in how the element laws or the unit scan are computed
    moves a verdict."""
    diamond = builtin_poset("diamond")
    calls = [verify_inverse_preserver_results(CHAIN2, F3),
             verify_lemma_suite(CHAIN2, F3),
             verify_lemma_suite(diamond, F3, sample="randomized", seed=7, trials=20),
             verify_lemma_suite(diamond, F3, sample="randomized", seed=9973, trials=20),
             verify_lemma_suite(builtin_poset("chain:3"), F5, sample="randomized",
                                seed=1, trials=10)]
    assert [len(call) for call in calls] == [144, 252, 140, 140, 70]
    text = json.dumps([[v.to_json() for v in call] for call in calls])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "391cd1d026ed16b6962c4dead585afe68185eb356c7384f42878cf0ded94cc24")


def test_lemma_suite_exhaustive_reads_each_survivor_once(monkeypatch):
    """The exhaustive suite walks the census survivors without classifying,
    recording, ranking or applying them, and extracts one subset table per
    run of survivors that share their diagonal-output rows."""
    from incalg import preservers, verify

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    for module, name in ((verify, "enumerate_preservers"), (verify, "classify"),
                         (verify, "is_strong"), (preservers, "is_strong"),
                         (preservers, "find_nonpreserved_unit")):
        monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(LinearMap, "rank", refuse("LinearMap.rank"))
    monkeypatch.setattr(LinearMap, "apply", refuse("LinearMap.apply"))
    extracted = []
    extract = preservers.extract_subset_map

    def counting(phi, **kwargs):
        extracted.append(phi)
        return extract(phi, **kwargs)

    monkeypatch.setattr(verify, "extract_subset_map", counting)
    verdicts = verify_lemma_suite(CHAIN2, F3)
    assert len(verdicts) == 36 * 7 and all(v.passed for v in verdicts)
    assert len(extracted) == 4
    assert len({v.instance for v in verdicts}) == 36


@pytest.mark.parametrize("poset,field", [(CHAIN2, F2), (CHAIN2, F3), (ANTI3, F3)])
def test_lemma_suite_instances_are_the_census_survivors(poset, field):
    verdicts = verify_lemma_suite(poset, field)
    indices = []
    for v in verdicts:
        index = int(v.instance.split()[1].lstrip("#"))
        if not indices or indices[-1] != index:
            indices.append(index)
    assert indices == [r.index for r in enumerate_preservers(poset, field).records]


@pytest.mark.parametrize("trials", [0, -1])
def test_lemma_suite_randomized_needs_a_trial(trials):
    with pytest.raises(IncalgError, match="at least one trial"):
        verify_lemma_suite(CHAIN2, F3, sample="randomized", trials=trials)
    # the exhaustive suite ignores the trial count
    assert verify_lemma_suite(CHAIN2, F2, trials=trials)


def test_lemma_suite_randomized_gates_its_trial_count(monkeypatch):
    """Each trial builds and keeps a preserver and its verdicts, so the
    trial count is gated like every scan: past ``SCAN_CAP`` it is refused
    before a normal form is drawn, and ``gate_override`` lifts the gate."""
    from incalg import preservers, verify

    def refuse(*args):
        raise AssertionError("a trial was drawn before the gate")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "random_preserver_spec", refuse)
        with pytest.raises(GateError) as info:
            verify_lemma_suite(CHAIN2, F3, sample="randomized", trials=SCAN_CAP + 1)
    assert info.value.size == SCAN_CAP + 1
    assert str(info.value) == (f"the randomized lemma suite would scan {SCAN_CAP + 1} "
                               f"cases (cap {SCAN_CAP})")
    monkeypatch.setattr(preservers, "SCAN_CAP", 3)
    with pytest.raises(GateError, match="randomized lemma suite"):
        verify_lemma_suite(CHAIN2, F3, sample="randomized", trials=4)
    verdicts = verify_lemma_suite(CHAIN2, F3, sample="randomized", trials=4,
                                  gate_override=True)
    assert len({v.instance for v in verdicts}) == 4
    assert all(v.passed for v in verdicts)


def test_criteria_identity_spec():
    spec = PreserverSpec(CHAIN2, F3, PartitionEndo(CHAIN2.elements, (0b01, 0b10)),
                         radical_projection(CHAIN2, F3))
    verdicts = verify_criteria(spec)
    assert all(v.passed for v in verdicts)
    phi = build_preserver(spec)
    assert phi.is_bijective()


def test_criteria_empty_block_spec():
    spec = PreserverSpec(ANTI2, F3, PartitionEndo(ANTI2.elements, (0b11, 0b00)),
                         LinearMap.zero(ANTI2, F3))
    verdicts = verify_criteria(spec)
    assert all(v.passed for v in verdicts)
    from incalg import is_strong

    assert not spec.endo.is_injective()
    assert not is_strong(build_preserver(spec))


def test_criteria_swap_with_radical_identity():
    spec = PreserverSpec(CHAIN2, F3, PartitionEndo(CHAIN2.elements, (0b10, 0b01)),
                         radical_projection(CHAIN2, F3))
    verdicts = verify_criteria(spec)
    assert all(v.passed for v in verdicts)
    phi = build_preserver(spec)
    # independent preimage oracle over all 27 elements
    images = set()
    units_to_units = True
    for vals in product(range(3), repeat=3):
        a = FIElement.from_vector(CHAIN2, F3, vals)
        image = phi.apply(a)
        images.add(image.coeffs)
        if image.is_unit() != a.is_unit():
            units_to_units = False
    assert len(images) == 27
    assert units_to_units


def test_criteria_rejects_rationals():
    spec = PreserverSpec(CHAIN2, Q, PartitionEndo(CHAIN2.elements, (0b01, 0b10)),
                         radical_projection(CHAIN2, Q))
    with pytest.raises(InfiniteFieldError):
        verify_criteria(spec)


def test_inverse_preserver_results_char3():
    verdicts = verify_inverse_preserver_results(CHAIN2, F3)
    assert all(v.passed for v in verdicts)
    equivalence = [v for v in verdicts if v.lemma == "vf-pres-inverses=>vf-Jordan-homo"]
    assert len(equivalence) == 36  # one verdict per unital preserver
    idemp = [v for v in verdicts if v.lemma == "vf-pres-inverses=>vf(1)vf-pres-idemp"]
    assert len(idemp) > 0
    pm = [v for v in verdicts if v.lemma == "vf-pres-inverses=>vf-pm-auto-or-anti-auto"]
    assert len(pm) > 0  # bijective inverse preservers exist (e.g. +-identity)


def test_inverse_suite_inverts_each_unit_once(monkeypatch):
    """The units and their inverses do not depend on the map, so one suite
    call inverts each of the 12 units of I(chain:2, F3) once, and the unit
    scan of every map multiplies their images instead."""
    calls = []
    inverse = FIElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FIElement, "inverse", counted)
    verdicts = verify_inverse_preserver_results(CHAIN2, F3)
    assert len(verdicts) == 144 and all(v.passed for v in verdicts)
    assert len(calls) == 12 and len(set(calls)) == 12


def test_idempotent_laws_name_their_witnesses():
    """2 identity over Fp 5 preserves no inverses, since it sends delta to
    2 delta, whose square is 4 delta. It sends each idempotent e to 2e,
    which is idempotent only for e = 0, so the idempotent law names the
    first nonzero idempotent; 2e commutes with 2 delta and 2e 2 delta =
    (2e)^2 = 4e, so the third law holds. The identity passes all three."""
    f5 = PrimeField(5)
    delta = FIElement.delta(CHAIN2, f5)
    idempotents = list(iter_idempotents(CHAIN2, f5))
    first = next(e for e in idempotents if not e.is_zero())
    assert dict(_idempotent_laws(LinearMap.identity(CHAIN2, f5).scale(2),
                                 idempotents, delta)) == {
        "vf-pres-inverses=>vf(1)vf-pres-idemp": f"e = {format_element(first)}",
        "vf(1_A)^2=1_B": "phi(delta)^2 = 4*e[1] + 4*e[2]",
        "vf(e)vf(1)=vf(1)vf(e)=vf(e)^2": None}
    assert _idempotent_laws(LinearMap.identity(CHAIN2, f5), idempotents, delta) == [
        ("vf-pres-inverses=>vf(1)vf-pres-idemp", None), ("vf(1_A)^2=1_B", None),
        ("vf(e)vf(1)=vf(1)vf(e)=vf(e)^2", None)]


def test_inverse_preserver_results_char2_routes_to_counterexample():
    verdicts = verify_inverse_preserver_results(builtin_poset("chain:3"), F2)
    assert len(verdicts) == 2
    assert verdicts[0].witness.startswith("not applicable: char 2")
    assert verdicts[1].lemma == "z2-not-jordan"
    assert all(v.passed for v in verdicts)


def test_inverse_preserver_results_reject_rationals():
    with pytest.raises(InfiniteFieldError):
        verify_inverse_preserver_results(CHAIN2, Q)


def test_reproduce_examples_all_pass():
    for example_id in ("z2-nonseparating", "diagonal-truncation", "z2-not-jordan"):
        verdict = reproduce_example(example_id)
        assert verdict.passed, verdict.witness


def test_reproduce_example_unknown_id():
    with pytest.raises(ValueError, match="unknown example id"):
        reproduce_example("riemann-hypothesis")


def test_analyze_map_over_prime_field():
    report = analyze_map(LinearMap.identity(CHAIN2, F3))
    assert report["verdicts"] == {
        "unital": True, "preserver": True, "strong": True,
        "inverse_preserving": True, "jordan": True}
    assert report["lambda"]["kind"] == "partition"
    assert report["psi"] == [["0", "0", "1"]]

    swap = LinearMap.from_rows(CHAIN2, F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    bad = analyze_map(swap)
    assert bad["verdicts"]["preserver"] is False
    assert bad["verdicts"]["strong"] is None
    assert "preserver" in bad["witnesses"]


def test_analyze_map_over_rationals():
    report = analyze_map(LinearMap.identity(CHAIN2, Q))
    assert report["verdicts"] == {
        "unital": True, "preserver": True, "strong": True,
        "inverse_preserving": True, "jordan": True}
    phi = LinearMap.from_rows(CHAIN2, Q, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    bad = analyze_map(phi)
    assert bad["verdicts"]["preserver"] is False


def test_analyze_map_over_rationals_scans_jordan_once(monkeypatch):
    from incalg import preservers, verify

    calls = []

    def counting(phi):
        calls.append(phi)
        return scan(phi)

    scan = preservers.find_jordan_counterexample
    monkeypatch.setattr(preservers, "find_jordan_counterexample", counting)
    monkeypatch.setattr(verify, "find_jordan_counterexample", counting)
    rng = random.Random(3)
    maps = [LinearMap.identity(CHAIN2, Q)] + [
        build_preserver(random_preserver_spec(CHAIN2, Q, rng)) for _ in range(4)]
    jordan = set()
    for phi in maps:
        calls.clear()
        verdicts = analyze_map(phi)["verdicts"]
        assert len(calls) == 1
        assert list(verdicts) == ["unital", "preserver", "strong", "inverse_preserving", "jordan"]
        assert verdicts["inverse_preserving"] is verdicts["jordan"]
        jordan.add(verdicts["jordan"])
    assert jordan == {True, False}


def test_analyze_map_leaves_a_gated_inverse_scan_undecided(monkeypatch):
    """Strongness is read off the power-set endomorphism, and inverse
    preservation off the Jordan verdict outside characteristic 2, so no scan
    gate applies to a unital preserver over an odd prime field. The unit
    scan still decides a non-unital preserver and a preserver over F_2. It
    is gated on its exact unit count, (q-1)^n q^(d-n), not on n: it decides
    at n = 5 when the units are few, and past the count the verdict is
    undecided while the map is still reported as a preserver."""
    from incalg import preservers

    monkeypatch.setattr(preservers, "SCAN_CAP", 1000)
    report = analyze_map(LinearMap.identity(ANTI3, PrimeField(11)))
    assert report["verdicts"] == {
        "unital": True, "preserver": True, "strong": True,
        "inverse_preserving": True, "jordan": True}
    assert report["witnesses"] == {}
    assert report["lambda"]["kind"] == "partition"
    monkeypatch.undo()

    anti5 = builtin_poset("antichain:5")
    # 2 = -1 in F3, so u = phi(delta) = 2 delta has u^2 = delta; the units
    # number 2^5 = 32 over F3 and 1 over F2
    for phi in (LinearMap.identity(anti5, F3).scale(F3.scalar(2)),
                LinearMap.identity(anti5, F2)):
        report = analyze_map(phi)
        verdicts = report["verdicts"]
        assert verdicts["preserver"] is True and verdicts["strong"] is True
        assert verdicts["inverse_preserving"] is True
        assert "inverse_preserving" not in report["witnesses"]

    # chain:7 over F2 has 2^21 units, over the 10^6 gate
    chain7 = builtin_poset("chain:7")
    report = analyze_map(LinearMap.identity(chain7, F2))
    verdicts = report["verdicts"]
    assert verdicts["preserver"] is True and verdicts["strong"] is True
    assert verdicts["inverse_preserving"] is None
    assert report["witnesses"]["inverse_preserving"] == (
        "undecided: preserves_inverses would scan 2097152 cases (cap 1000000)")
    with pytest.raises(GateError) as info:
        preserves_inverses(LinearMap.identity(chain7, F2))
    assert info.value.size == 2**21


def test_analyze_map_non_unital_inverse_preserver():
    # the signed identity preserves inverses without being unital or Jordan
    phi = LinearMap.identity(CHAIN2, F3).scale(F3.scalar(2))
    report = analyze_map(phi)
    assert report["verdicts"]["unital"] is False
    assert report["verdicts"]["preserver"] is True
    assert report["verdicts"]["strong"] is True
    assert report["verdicts"]["inverse_preserving"] is True
    assert report["verdicts"]["jordan"] is False


def test_analyze_map_unit_scan_verdicts():
    """The unit scan decides inverse preservation for a preserver over Fp 2
    and for a non-unital preserver with u^2 = delta: the chain:6 identity
    over Fp 2 (2^15 units) and -identity on diamond over Fp 3 preserve
    inverses, and so does -phi exactly when phi does, which a random
    non-Jordan preserver over Fp 3 does not."""
    phi = build_preserver(random_preserver_spec(builtin_poset("chain:3"), F3,
                                                random.Random(0)))
    for psi, expected in ((LinearMap.identity(builtin_poset("chain:6"), F2), True),
                          (LinearMap.identity(builtin_poset("diamond"), F3).scale(2), True),
                          (phi.scale(2), False)):
        report = analyze_map(psi)
        assert report["verdicts"]["preserver"] is True
        assert report["verdicts"]["inverse_preserving"] is expected
        assert "inverse_preserving" not in report["witnesses"]
    assert analyze_map(phi)["verdicts"]["jordan"] is False


def test_analyze_map_over_q_gives_classification_advice_only_where_it_decides():
    """Over Q the unit scan cannot run, and classification does not decide
    inverse preservation, so the undecided witness of -identity does not
    point to it; the preserver check, which classification decides, does."""
    report = analyze_map(LinearMap.identity(CHAIN2, Q).scale(-1))
    assert report["verdicts"]["preserver"] is True
    assert report["verdicts"]["inverse_preserving"] is None
    assert report["witnesses"]["inverse_preserving"] == (
        "undecided: preserves_inverses enumerates field elements")
    with pytest.raises(InfiniteFieldError, match="over Q use classification instead"):
        preserves_invertibility(LinearMap.identity(CHAIN2, Q))


def test_random_specs_respect_field_regime():
    rng = random.Random(0)
    assert isinstance(random_preserver_spec(CHAIN2, F2, rng).endo, XorEndo)
    assert isinstance(random_preserver_spec(CHAIN2, F3, rng).endo, PartitionEndo)
    assert isinstance(random_preserver_spec(CHAIN2, Q, rng).endo, PartitionEndo)


def test_random_specs_are_pinned():
    """Seeded specs over F2, F3 and Q, and the generator's state after them,
    hashed: the sampler draws the same values in the same order."""
    digest = hashlib.sha256()
    for name in ("chain:3", "v", "antichain:3", "chain:4"):
        poset = builtin_poset(name)
        for field in (F2, F3, Q):
            rng = random.Random(7)
            for _ in range(5):
                digest.update(format_preserver_spec(
                    random_preserver_spec(poset, field, rng)).encode())
            digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == (
        "162c7c3997d302afc2f714ac5ca802419ae1b536f3ac09bfded565a11986fc9c")


# each scan gates its own cost ----------------------------------------------------

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def test_pruned_partitions_equal_the_filtered_stream():
    """With ``max_blocks = n`` no branch is pruned: that stream has Bell(n)
    members, and for every k <= 5 the pruned stream is it, filtered to at
    most k blocks, in the same order, with the counted length."""
    from incalg.verify import _partition_count, _set_partitions

    for n in range(10):
        full = list(_set_partitions(n, n))
        assert len(full) == BELL[n] == _partition_count(n, n)
        for k in range(1, 6):
            pruned = list(_set_partitions(n, k))
            assert pruned == [blocks for blocks in full if len(blocks) <= k]
            assert len(pruned) == _partition_count(n, min(k, n))


def test_partition_law_is_gated_before_the_first_trial(monkeypatch):
    """antichain:15 over Fp 3: S(15,1) + S(15,2) + S(15,3) = 2,391,485
    partitions, refused before any normal form is drawn."""
    from incalg import verify

    def refuse(*args):
        raise AssertionError("a trial was drawn before the gate")

    monkeypatch.setattr(verify, "random_preserver_spec", refuse)
    with pytest.raises(GateError) as info:
        verify_lemma_suite(builtin_poset("antichain:15"), F3, sample="randomized", trials=2)
    assert info.value.size == 2_391_485
    assert "partition law" in str(info.value)


def pair_scan_is_additive(table) -> bool:
    """The 4^n check of additivity over symmetric difference."""
    t = table.table
    return all(t[a ^ b] == t[a] ^ t[b] for a in range(len(t)) for b in range(len(t)))


def test_symm_diff_law_names_a_witness_on_a_non_additive_table():
    """antichain:2 over Fp 2, with a table that fixes X but sends {1} to
    {1, 2} and {2} to {2}: t({1} ^ {2}) = X, but t({1}) ^ t({2}) = {1}."""
    from incalg.endos import SubsetMapTable
    from incalg.verify import _lemma_checks

    phi = LinearMap.identity(ANTI2, F2)
    table = SubsetMapTable(ANTI2.elements, (0, 0b11, 0b10, 0b11))
    assert not pair_scan_is_additive(table)
    assert _lemma_checks(phi, table, [])["lb-prese-symm-diff"] == "A = {1}, B = {2}"
    moved = SubsetMapTable(ANTI2.elements, (0, 0b01, 0b10, 0b01))
    assert _lemma_checks(phi, moved, [])["lb-prese-symm-diff"] == "lambda(X) != X"


def test_symm_diff_law_agrees_with_the_pair_scan():
    """On random tables that fix X, additivity one element at a time holds
    exactly when the 4^n pair check does."""
    from incalg.endos import SubsetMapTable
    from incalg.verify import _lemma_checks

    rng = random.Random(11)
    outcomes = set()
    for n in range(1, 5):
        poset = builtin_poset(f"antichain:{n}")
        phi = LinearMap.identity(poset, F2)
        full = (1 << n) - 1
        for _ in range(40):
            t = list(random_preserver_spec(poset, F2, rng).endo.table().table)
            if rng.random() < 0.5:
                t[rng.randrange(1, full + 1)] = rng.randrange(full + 1)
                t[full] = full
            table = SubsetMapTable(poset.elements, tuple(t))
            additive = pair_scan_is_additive(table)
            assert (_lemma_checks(phi, table, [])["lb-prese-symm-diff"] is None) == additive
            outcomes.add(additive)
    assert outcomes == {True, False}


# metamorphic relations -------------------------------------------------------------

def compose(phi, chi):
    """The matrix of phi after chi, on canonical values."""
    canonical = phi.field.canonical
    columns = list(zip(*chi.values))
    return LinearMap._of_values(phi.poset, phi.field, tuple(
        tuple(canonical(sum([a * b for a, b in zip(row, col) if a and b])) for col in columns)
        for row in phi.values))


def composed_endo(spec, other):
    """lambda_spec after lambda_other, read off the specs: the image of each
    singleton under ``other``, pushed through ``spec``."""
    images = tuple(spec.endo.apply_mask(other.endo.apply_mask(1 << x))
                   for x in range(spec.poset.n))
    kind = XorEndo if spec.field.cardinality == 2 else PartitionEndo
    return kind(spec.poset.elements, images)


def check_composition(poset, field, rng):
    spec, other = (random_preserver_spec(poset, field, rng) for _ in range(2))
    composite = compose(build_preserver(spec), build_preserver(other))
    assert classify(composite).endo == composed_endo(spec, other)


@given(st.sampled_from(POSET_POOL), st.sampled_from(PRIME_FIELDS + [Q]),
       st.integers(0, 2**32 - 1))
def test_composition_classifies_with_the_composed_endomorphism(poset, field, seed):
    """phi o phi' is a unital preserver whose lambda is lambda_phi o
    lambda_phi', since the diagonal of phi(e_A) is e_lambda(A)."""
    check_composition(poset, field, random.Random(seed))


@pytest.mark.parametrize("name, field", [("chain:7", F3), ("antichain:8", F2),
                                         ("chain:12", Q)])
def test_composition_beyond_six_elements(name, field):
    """The same relation beyond the pool, at n = 7 and 8 over prime fields
    and at chain:12 over Q (composing its 78 x 78 matrices takes about 1 s)."""
    check_composition(builtin_poset(name), field, random.Random(5))


def random_unit(poset, field, rng):
    """A unit of I(X,K): nonzero diagonal, random radical part."""
    def value(nonzero: bool):
        while True:
            v = (rng.randrange(field.p) if isinstance(field, PrimeField)
                 else Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            if v or not nonzero:
                return v
    return FIElement.from_vector(
        poset, field, [value(i < poset.n) for i in range(poset.dimension)])


def inner_automorphism_after(phi, rng):
    """a -> u phi(a) u^-1 for a random unit u."""
    poset, field = phi.poset, phi.field
    unit = random_unit(poset, field, rng)
    inv = unit.inverse()
    return LinearMap.from_basis_images(poset, field, {
        (x, y): unit * phi.apply(basis_element(poset, field, x, y)) * inv
        for x, y in poset.basis_pairs})


def check_inner_automorphism(poset, field, rng):
    """Conjugation leaves every diagonal unchanged, so Ad_u o phi has the
    lambda of phi's spec, and is strong iff that lambda is injective."""
    spec = random_preserver_spec(poset, field, rng)
    phi = inner_automorphism_after(build_preserver(spec), rng)
    assert classify(phi).endo == spec.endo
    verdicts = analyze_map(phi)["verdicts"]
    assert verdicts["preserver"] is True
    assert verdicts["strong"] == spec.endo.is_injective()


@given(st.sampled_from(POSET_POOL), st.sampled_from([F2, F3, F5, Q]),
       st.integers(0, 2**32 - 1))
def test_inner_automorphisms_keep_lambda(poset, field, seed):
    check_inner_automorphism(poset, field, random.Random(seed))


def test_inner_automorphisms_keep_lambda_on_chain12():
    check_inner_automorphism(builtin_poset("chain:12"), Q, random.Random(5))


def transposed(phi, dual):
    """The matrix of phi conjugated by the transpose e_xy -> e_yx onto
    ``dual``: coordinate (x, y) of phi becomes coordinate (y, x)."""
    index = dual.pair_index
    order = sorted(range(phi.poset.dimension),
                   key=lambda k: index[phi.poset.basis_pairs[k][::-1]])
    return LinearMap._of_values(dual, phi.field, tuple(
        tuple(phi.values[i][j] for j in order) for i in order))


# a < d and b < c: the dual's pairs (c, b), (d, a) sort in the other order
CROSSED = Poset.from_relations(["a", "b", "c", "d"], [("a", "d"), ("b", "c")],
                               name="crossed")


@given(st.sampled_from(POSET_POOL + [CROSSED]), st.sampled_from([F2, F3, F5, Q]),
       st.integers(0, 2**32 - 1))
def test_duality_keeps_lambda_and_transposes_psi(poset, field, seed):
    """The transpose I(X,K) -> I(X^op,K) is an anti-automorphism that fixes
    each diagonal coordinate, so the conjugated preserver has the same
    lambda, and its psi is the spec's with rows and columns moved by the
    same pair bijection (x, y) -> (y, x)."""
    spec = random_preserver_spec(poset, field, random.Random(seed))
    dual = poset.dual()
    assert classify(transposed(build_preserver(spec), dual)) == PreserverSpec(
        dual, field, spec.endo, transposed(spec.radical_map, dual))


def test_duality_moves_psi_coordinates_only_on_the_crossed_poset():
    """On every poset of the pool the pair bijection (x, y) -> (y, x) keeps
    the coordinate order, so the property needs the crossed poset to show
    that psi is moved by it, not copied."""
    def keeps_order(poset):
        index = poset.dual().pair_index
        return [index[pair[::-1]] for pair in poset.basis_pairs] == list(
            range(poset.dimension))

    assert all(map(keeps_order, POSET_POOL)) and not keeps_order(CROSSED)


def left_multiple(unit, phi):
    """a -> unit phi(a)."""
    poset, field = phi.poset, phi.field
    return LinearMap.from_basis_images(poset, field, {
        (x, y): unit * phi.apply(basis_element(poset, field, x, y))
        for x, y in poset.basis_pairs})


@pytest.mark.parametrize("name", ["chain:12", "antichain:16"])
def test_analyze_map_reduces_non_unital_maps_beyond_the_scan_gates(name):
    """Left multiplication by a unit v permutes the units, so over Q, where
    no scan runs, v phi is a preserver iff phi is one, and strong iff phi
    is; with v^2 != delta it preserves no inverses. The expectations come
    from the specs and the perturbation, not from classify: the identity
    (injective lambda), a seeded normal form, and a copy of each with 1/2
    moved from the first to the last column of a diagonal-output row. That
    column is radical on the chain (a late refutation) and diagonal on the
    antichain (a diagonal value outside {0, 1})."""
    poset = builtin_poset(name)
    n, d = poset.n, poset.dimension
    rng = random.Random(11)
    identity = PreserverSpec(poset, Q, PartitionEndo(poset.elements,
                                                     tuple(1 << x for x in range(n))),
                             radical_projection(poset, Q))
    specs = [identity, random_preserver_spec(poset, Q, rng)]
    assert {spec.endo.is_injective() for spec in specs} == {True, False}
    delta = FIElement.delta(poset, Q)
    for spec in specs:
        phi = build_preserver(spec)
        rows = [list(row) for row in phi.values]
        rows[0][d - 1] += Fraction(1, 2)
        rows[0][0] -= Fraction(1, 2)
        for psi, preserver in ((phi, True), (LinearMap.from_rows(poset, Q, rows), False)):
            v = random_unit(poset, Q, rng)
            report = analyze_map(left_multiple(v, psi))
            verdicts = report["verdicts"]
            assert verdicts["unital"] is False
            assert verdicts["preserver"] is preserver
            assert verdicts["strong"] == (spec.endo.is_injective() if preserver else None)
            if not preserver or v * v != delta:
                assert verdicts["inverse_preserving"] is False
            assert report["lambda"] is None and report["psi"] is None
