import importlib.util
import random
import sys
from itertools import product
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
    merge_census,
    random_preserver_spec,
    reproduce_example,
    verify_criteria,
    verify_inverse_preserver_results,
    verify_lemma_suite,
)

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
    # unital, but a diagonal row reads a radical coordinate
    phi = LinearMap.from_rows(CHAIN2, F3, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert phi.is_unital()
    with pytest.raises(ClassificationError, match=r"vf\(U\(A\)\)-sst-U\(B\)"):
        classify(phi)


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


def test_bijective_preservers_are_strong():
    for poset, field in ((CHAIN2, F2), (CHAIN2, F3), (ANTI2, F3)):
        for rec in enumerate_preservers(poset, field).records:
            if rec.bijective:
                assert rec.strong


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


def test_lemma_suite_exhaustive_reads_each_survivor_once(monkeypatch):
    """The exhaustive suite walks the census survivors without classifying,
    recording, ranking or applying them, and extracts each subset table
    once."""
    from incalg import preservers, verify

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    for module, name in ((verify, "enumerate_preservers"), (verify, "classify"),
                         (verify, "is_strong"), (preservers, "is_strong"),
                         (verify, "find_nonpreserved_unit"),
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
    assert len(extracted) == 36
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


def test_analyze_map_leaves_gated_strongness_undecided(monkeypatch):
    """A strongness scan over its gate leaves that verdict undecided, as the
    inverse scan does, and the map is still reported as a preserver."""
    from incalg import preservers

    # (q - 1)^n = 1000 patterns for the preserver scan, within the cap, but
    # q^n = 1331 for the strongness scan
    monkeypatch.setattr(preservers, "SCAN_CAP", 1000)
    report = analyze_map(LinearMap.identity(ANTI3, PrimeField(11)))
    verdicts = report["verdicts"]
    assert verdicts["unital"] is True and verdicts["preserver"] is True
    assert verdicts["strong"] is None
    assert report["witnesses"]["strong"] == "undecided: is_strong would scan 1331 cases (cap 1000)"
    assert verdicts["inverse_preserving"] is True
    assert report["lambda"]["kind"] == "partition"


def test_analyze_map_non_unital_inverse_preserver():
    # the signed identity preserves inverses without being unital or Jordan
    phi = LinearMap.identity(CHAIN2, F3).scale(F3.scalar(2))
    report = analyze_map(phi)
    assert report["verdicts"]["unital"] is False
    assert report["verdicts"]["preserver"] is True
    assert report["verdicts"]["strong"] is None
    assert report["verdicts"]["inverse_preserving"] is True
    assert report["verdicts"]["jordan"] is False


def test_random_specs_respect_field_regime():
    rng = random.Random(0)
    assert isinstance(random_preserver_spec(CHAIN2, F2, rng).endo, XorEndo)
    assert isinstance(random_preserver_spec(CHAIN2, F3, rng).endo, PartitionEndo)
    assert isinstance(random_preserver_spec(CHAIN2, Q, rng).endo, PartitionEndo)


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
