"""The theorem harness: exhaustive censuses, normal-form classification,
lemma suites, criteria checks, and pinned example reproductions.

The census decides every d x d matrix over a prime field, in row-major
scalar order, by the filter "unital and preserves invertibility". The
filter is a conjunction of single-row conditions, so it is applied row by
row: the survivors are the product of the admissible rows, and no matrix
of the q^(d^2) space is skipped or decided by the theorem side. Each
survivor is recorded with its normal form, and the survivor count is
cross-checked against the count predicted by the normal-form
parametrization. The survivors come in runs that share their
diagonal-output rows, and what those rows alone decide (the power-set
endomorphism and strongness) is derived once per run. The matrix space can
be split into index ranges and partial censuses merged, so runs are
resumable and deterministic.

The exhaustive lemma suite walks the same survivors under the same gate,
but neither classifies nor records them. The laws read only the
diagonal-output rows, so they are derived once per run of instances that
share those rows: the subset table is extracted once and passed to the laws
that read it, ``vf-maps-J-to-J`` reads the radical columns of the matrix, and
the element-level laws run on coefficient tuples of canonical values. Those
laws are read off the radical columns and, where those are zero, once per
distinct diagonal head of the sample, which a suite call lists once.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import product
from typing import Iterator

from .algebra import FIElement, basis_element, format_element, jordan_product
from .endos import (
    PartitionEndo,
    SubsetMapTable,
    XorEndo,
    endo_to_json,
    is_boolean_endo,
    is_separating,
    labels_of,
    to_partition,
    to_xor_endo,
)
from .errors import ClassificationError, GateError, IncalgError, InfiniteFieldError
from .fields import Field, PrimeField, format_field
from .posets import Poset
from .preservers import (
    LinearMap,
    PreserverSpec,
    build_preserver,
    extract_radical_map,
    extract_subset_map,
    find_inverse_counterexample,
    find_jordan_counterexample,
    find_strongness_counterexample,
    is_jordan_endo,
    is_strong,
    iter_idempotents,
    iter_units,
    preserves_inverses,
    preserves_invertibility,
    psi_to_json,
    _block_columns,
    _first_full_block_pattern,
    _first_full_pattern,
    _first_pattern,
    _gate,
    _rank_of_values,
)

CENSUS_SPACE_CAP = 10**8  # q^(d^2) matrices


@dataclass
class LemmaVerdict:
    """One checked conclusion on one instance; failures carry a witness."""

    lemma: str
    instance: str
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        return {"lemma": self.lemma, "instance": self.instance,
                "passed": self.passed, "witness": self.witness}


@dataclass
class MapRecord:
    """One census survivor with its normal form and derived properties."""

    index: int
    matrix: tuple[tuple[object, ...], ...]
    spec: PreserverSpec
    strong: bool
    bijective: bool


@dataclass
class CensusReport:
    """Result of a (possibly partial) brute-force census."""

    poset: Poset
    field: Field
    matrix_space: int
    start: int
    stop: int
    oracle_count: int
    theorem_count: int
    records: list[MapRecord] = dataclass_field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return self.start == 0 and self.stop == self.matrix_space

    @property
    def consistent(self) -> bool:
        return self.complete and self.oracle_count == self.theorem_count

    def to_json(self) -> dict:
        """The report with one entry per record. Every matrix and psi row of
        a census comes from its admissible row lists, so each distinct row
        is formatted once, as is each distinct lambda image's label list;
        each record gets its own lists of those shared strings."""
        fmt, elements, n = self.field.format_value, self.poset.elements, self.poset.n
        rows: dict[tuple, list[str]] = {}
        images: dict[int, list[str]] = {}

        def row_json(row: tuple) -> list[str]:
            text = rows.get(row)
            if text is None:
                text = rows[row] = [fmt(v) for v in row]
            return text.copy()

        def labels(mask: int) -> list[str]:
            text = images.get(mask)
            if text is None:
                text = images[mask] = [y for i, y in enumerate(elements) if mask >> i & 1]
            return text.copy()

        maps = [{"index": r.index,
                 "matrix": [row_json(row) for row in r.matrix],
                 "lambda": endo_to_json(r.spec.endo, labels),
                 "psi": [row_json(row) for row in r.spec.radical_map.values[n:]],
                 "strong": r.strong,
                 "bijective": r.bijective} for r in self.records]
        return {
            "poset": self.poset.display_name,
            "field": format_field(self.field),
            "matrix_space": self.matrix_space,
            "range": [self.start, self.stop],
            "complete": self.complete,
            "oracle_count": self.oracle_count,
            "theorem_count": self.theorem_count,
            "consistent": self.consistent,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "maps": maps,
        }


def merge_census(a: CensusReport, b: CensusReport) -> CensusReport:
    """Merge two partial censuses over adjacent index ranges."""
    if (a.poset, a.field) != (b.poset, b.field):
        raise ValueError("cannot merge censuses of different instances")
    if a.stop != b.start:
        raise ValueError(f"ranges not adjacent: [{a.start},{a.stop}) + [{b.start},{b.stop})")
    return CensusReport(
        poset=a.poset, field=a.field, matrix_space=a.matrix_space,
        start=a.start, stop=b.stop,
        oracle_count=a.oracle_count + b.oracle_count,
        theorem_count=a.theorem_count,
        records=a.records + b.records,
        elapsed_seconds=a.elapsed_seconds + b.elapsed_seconds,
    )


# classification ---------------------------------------------------------------

def classify(phi: LinearMap) -> PreserverSpec:
    """Recover the normal form of a unital invertibility preserver, or refute
    that ``phi`` is one.

    The decision is the same on every field: extract the power-set
    endomorphism and the radical map, rebuild, and compare. An accepted map
    equals the rebuilt normal form, which is always a preserver; a
    refutation rests on the normal-form theorem, which holds for an
    arbitrary field. Every refutation names the violated law, and carries a
    witness where one is cheap to name. No scan runs, so no gate applies
    below the algebra's own cap.

    With |K| > 2, lambda is read off the diagonal block: its columns are
    the images of the singletons. Once phi fixes the identity, each block
    row sums to 1, and ``_block_columns`` leaves only 0/1 entries with at
    most one 1 per row, so the columns partition X; the subset table and
    its laws (``lb-separating``, ``lb-preserves-diff-and-cap``) then hold,
    and they run only after a failed rebuild, before naming the refutation.
    Over F_2 lambda is the subset table's GF(2) matrix.
    """
    poset, field = phi.poset, phi.field
    delta = FIElement.delta(poset, field)
    if phi.apply(delta) != delta:
        raise ClassificationError("unital", "the map does not fix the identity",
                                  witness=format_element(phi.apply(delta)))
    if field.cardinality == 2:
        endo: PartitionEndo | XorEndo = to_xor_endo(extract_subset_map(phi))
    else:
        endo = PartitionEndo(poset.elements, _block_columns(phi))
    spec = PreserverSpec._of_parts(poset, field, endo, extract_radical_map(phi))
    if build_preserver(spec) == phi:
        return spec
    if field.cardinality == 2:
        law = "inv-pres-over-Z_2"
    else:
        # cannot refute here (see above); perfbench's classify-q pins these
        # calls until ROADMAP item 1 unpins them and item 19 deletes them
        table = extract_subset_map(phi)
        if not is_separating(table):
            raise ClassificationError(
                "lb-separating", "extracted subset map is not separating")
        to_partition(table)
        law = "inv-pres-for-|K|>2"
    raise ClassificationError(
        law, "normal form does not rebuild the map, so the map is not a preserver")


def count_from_theorem(poset: Poset, field: Field) -> int:
    """The number of unital invertibility preservers predicted by the
    normal-form parametrization: (number of power-set endomorphisms
    in the field's regime) * q^(m(d-1)) choices of radical map."""
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("counting requires a finite field")
    n, d = poset.n, poset.dimension
    m = d - n
    q = field.p
    endos = 2 ** (n * (n - 1)) if q == 2 else n**n
    return endos * q ** (m * (d - 1))


def enumerate_specs(poset: Poset, field: PrimeField) -> Iterator[PreserverSpec]:
    """Stream every normal form over a prime field: each endomorphism paired
    with each radical map annihilating the identity."""
    from .endos import enumerate_endos

    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("cannot enumerate normal forms over Q")
    n, d = poset.n, poset.dimension
    m = d - n
    regime = "xor" if field.p == 2 else "boolean"
    elems = range(field.p)
    zero_rows = ((0,) * d,) * n
    row_choices = [_psi_row(field, head, tail)
                   for head in product(elems, repeat=max(n - 1, 0))
                   for tail in product(elems, repeat=m)]
    for endo in enumerate_endos(poset.elements, regime):
        for rows in product(row_choices, repeat=m):
            psi = LinearMap._of_values(poset, field, zero_rows + rows)
            yield PreserverSpec(poset, field, endo, psi)


def _psi_row(field: Field, head, tail) -> tuple:
    """One radical-output row of a radical map annihilating the identity,
    as canonical values: the free diagonal entries ``head``, minus their sum
    (so the diagonal entries sum to zero), then the radical entries
    ``tail``. Both hold canonical values of ``field``."""
    return (*head, field.canonical(-sum(head)), *tail)


# the brute-force kernel -------------------------------------------------------

def _iter_preserver_matrices(poset: Poset, field: PrimeField, start: int,
                             stop: int, unital: bool = True
                             ) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Yield (index, rows) for every matrix in [start, stop) passing the
    unital/preserver filter, in row-major scalar order.

    Every condition of the filter reads one row: a diagonal-output row is
    zero on the radical columns, has diagonal sum 1 (when unital) and is
    nonzero on every nonzero diagonal pattern; a radical-output row has
    diagonal sum 0 (when unital). So the survivors are the Cartesian
    product of the admissible rows, each found by one scan of the q^d row
    vectors. A matrix's index is its rows read as base-q digits, so the
    product over ascending row lists runs in index order.
    """
    n, d = poset.n, poset.dimension
    q = field.p
    diagonal_rows, radical_rows = [], []
    for code, row in enumerate(product(range(q), repeat=d)):
        diagonal_sum = sum(row[:n]) % q
        if not unital or diagonal_sum == 0:
            radical_rows.append((code, row))
        if (not any(row[n:]) and (not unital or diagonal_sum == 1)
                and _first_pattern([row], q, product(range(1, q), repeat=n),
                                   unit=False) is None):
            diagonal_rows.append((code, row))
    row_space = q**d
    for choice in product(*[diagonal_rows] * n, *[radical_rows] * (d - n)):
        index = 0
        for code, _ in choice:
            index = index * row_space + code
        if index >= stop:
            return
        if index >= start:
            yield index, tuple(row for _, row in choice)


def _census_gate(poset: Poset, field: Field, gate_override: bool) -> int:
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("the census enumerates matrices over a finite field")
    q, n = field.p, poset.n
    space = q ** (poset.dimension ** 2)
    if space > CENSUS_SPACE_CAP and not gate_override:
        try:
            shown = str(space)
        except ValueError:  # more digits than ``str(int)`` writes
            shown = f"{q}^{poset.dimension ** 2}"
        raise GateError(f"census space {shown} exceeds cap {CENSUS_SPACE_CAP}", size=space)
    # every survivor runs the preserver scan, and the census also the
    # strongness scan: refuse before the row scan, not at the first survivor
    _gate((q - 1) ** n, "preserves_invertibility", gate_override)
    _gate(q ** n, "is_strong", gate_override)
    return space


def enumerate_preservers(poset: Poset, field: PrimeField, start: int = 0,
                         stop: int | None = None,
                         gate_override: bool = False) -> CensusReport:
    """Brute-force census of unital invertibility preservers.

    Decides every one of the q^(d^2) matrices (or of the index range
    [start, stop)) by the unital/preserver filter, applied row by row;
    the q^(d^2) gate is unchanged. Each survivor is recorded with its normal
    form, strongness and bijectivity; survivors that share their
    diagonal-output rows share one classification and one strongness scan.
    """
    t0 = time.perf_counter()
    space = _census_gate(poset, field, gate_override)
    if stop is None:
        stop = space
    if not 0 <= start <= stop <= space:
        raise IncalgError(f"bad census range [{start}, {stop}) for space {space}")
    n = poset.n
    records = []
    # The row filter makes every diagonal-output row zero on the radical
    # columns and every radical-output row sum to 0 on the diagonal. Given
    # that, all that classify and is_strong decide reads only rows[:n]:
    # apply(delta), the subset table and the lambda laws, the rebuilt
    # diagonal rows (the rebuilt radical rows are phi's own), both stages
    # of the preserver scan and the q^n strongness scan. The product varies
    # those rows slowest, so survivors sharing them form one contiguous run;
    # its later survivors reuse the run's endomorphism and strongness with
    # their own radical map. Bijectivity reads the radical block too.
    head = None
    for index, rows in _iter_preserver_matrices(poset, field, start, stop):
        phi = LinearMap._of_values(poset, field, rows)
        if rows[:n] != head:
            head = rows[:n]
            spec = classify(phi)
            strong = is_strong(phi, gate_override=gate_override)
        else:
            spec = PreserverSpec._of_parts(poset, field, spec.endo, extract_radical_map(phi))
        records.append(MapRecord(
            index=index,
            matrix=rows,
            spec=spec,
            strong=strong,
            bijective=phi.is_bijective(),
        ))
    return CensusReport(
        poset=poset, field=field, matrix_space=space, start=start, stop=stop,
        oracle_count=len(records), theorem_count=count_from_theorem(poset, field),
        records=records, elapsed_seconds=time.perf_counter() - t0,
    )


# lemma suite -------------------------------------------------------------------

def _set_partitions(n: int, max_blocks: int) -> Iterator[list[int]]:
    """All partitions of {0..n-1} into at most ``max_blocks`` nonempty
    blocks, as mask lists. Blocks are only ever added, so a branch that
    would open one block too many is pruned."""
    if n == 0:
        yield []
        return

    def rec(i: int, blocks: list[int]):
        if i == n:
            yield list(blocks)
            return
        for k in range(len(blocks)):
            blocks[k] |= 1 << i
            yield from rec(i + 1, blocks)
            blocks[k] &= ~(1 << i)
        if len(blocks) < max_blocks:
            blocks.append(1 << i)
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _partition_count(n: int, max_blocks: int) -> int:
    """The number of partitions of an n-set into at most ``max_blocks``
    nonempty blocks: the Stirling numbers S(n, k) for k <= max_blocks,
    summed, by S(i, k) = k S(i-1, k) + S(i-1, k-1)."""
    s = [1] + [0] * max_blocks
    for _ in range(n):
        s = [0] + [k * s[k] + s[k - 1] for k in range(1, max_blocks + 1)]
    return sum(s)


def _sample_values(poset: Poset, field: PrimeField, cap: int = 4096,
                   trials: int = 200, seed: int = 0) -> list[tuple[int, ...]]:
    """The coefficient tuples of all q^d elements when that is small, else of
    a seeded sample, as canonical values."""
    d, p = poset.dimension, field.p
    if p ** d <= cap:
        return list(product(range(p), repeat=d))
    rng = random.Random(seed)
    return [tuple(rng.randrange(p) for _ in range(d)) for _ in range(trials)]


def _diagonal_heads(sample: list[tuple], n: int) -> dict[tuple, tuple]:
    """The sample's distinct diagonal heads ``vals[:n]``, in order of first
    appearance, each mapped to the first sample that has it and its level
    masks: pairs (k, mask of the i with head[i] = k). Neither depends on a
    map, so a suite call lists them once for all its instances."""
    heads: dict[tuple, tuple] = {}
    for vals in sample:
        head = vals[:n]
        if head not in heads:
            levels: dict = {}
            for i, k in enumerate(head):
                levels[k] = levels.get(k, 0) | 1 << i
            heads[head] = (vals, tuple(levels.items()))
    return heads


def _lemma_checks(phi: LinearMap, table: SubsetMapTable, sample: list[tuple],
                  heads: dict[tuple, tuple] | None = None) -> dict[str, str | None]:
    """Each applicable law checked literally; values are failure witnesses.

    ``table`` is the subset table already extracted from ``phi`` and
    ``sample`` holds coefficient tuples of canonical values; ``heads`` is
    ``_diagonal_heads(sample, n)``, listed here when not given. An element
    is built only to format a witness.

    The two element laws are read off the diagonal-output rows. Write
    phi(a)_D = S_D(a) + S_R(a), the sums over the diagonal and the radical
    columns of those rows. Then phi(a_D)_D = S_D(a), so
    ``vf(f)_D-is-vf(f_D)_D`` fails exactly where S_R(a) != 0, and holds on
    every sample when the radical columns are zero (``vf-maps-J-to-J``).
    Both sides of ``vf(f)_D=sum-k-e_lb(L_k)`` then depend on the head
    a[:n] alone, so that law is tested once per distinct head; the first
    sample with the first failing head is the first failing sample. When a
    radical column is nonzero it is tested sample by sample.
    """
    poset, field = phi.poset, phi.field
    n = poset.n
    rows = phi.values[:n]
    out: dict[str, str | None] = {}

    def alpha(vals) -> str:
        return f"alpha = {format_element(FIElement.from_vector(poset, field, vals))}"

    # radical maps into the radical: column j of the diagonal-output rows is
    # the image diagonal of the basis element of strict pair j
    witness = None
    for j, (x, y) in enumerate(poset.strict_pairs, start=n):
        if any(row[j] for row in rows):
            witness = f"phi(e[{x},{y}]) has a nonzero diagonal"
            break
    out["vf-maps-J-to-J"] = witness

    # the image diagonal only depends on the input diagonal: phi(a)_D -
    # phi(a_D)_D sums the radical columns of the diagonal-output rows, each
    # row through its nonzero entries
    canonical = field.canonical
    row_supports = [[(j, c) for j, c in enumerate(row) if c] for row in rows]
    radical_supports = [[(j, c) for j, c in support if j >= n] for support in row_supports]
    radical = any(radical_supports)
    witness = None
    if radical:
        witness = next((alpha(vals) for vals in sample
                        if any(canonical(sum([c * vals[j] for j, c in support]))
                               for support in radical_supports)), None)
    out["vf(f)_D-is-vf(f_D)_D"] = witness

    # diagonal images of subset idempotents are subset idempotents: ``table``
    # is that extraction, and it succeeded
    out["from-vf-to-lb"] = None

    if field.cardinality != 2:
        out["lb-separating"] = (
            None if is_separating(table)
            else "disjoint subsets with meeting images")
        out["lb-preserves-diff-and-cap"] = (
            None if is_boolean_endo(table)
            else "not a Boolean algebra endomorphism")

    # partitions of X (of cardinality <= |K|) keep covering X after the map
    witness = None
    full = (1 << n) - 1
    for blocks in _set_partitions(n, field.cardinality):
        image = 0
        for b in blocks:
            image |= table.table[b]
        if image != full:
            parts = " | ".join(
                "{" + ",".join(sorted(labels_of(poset.elements, b))) + "}"
                for b in blocks)
            witness = f"partition {parts}"
            break
    out["union-lb(L_k(f))=X"] = witness

    if field.cardinality != 2:
        # the image diagonal is the level-set decomposition pushed through
        if heads is None:
            heads = _diagonal_heads(sample, n)

        def image_diagonal(vals) -> list:
            return [canonical(sum([c * vals[j] for j, c in support]))
                    for support in row_supports]

        def level_sum(levels) -> list:
            expected = [0] * n
            for k, level_mask in levels:
                image_mask = table.table[level_mask]
                for y in range(n):
                    if image_mask >> y & 1:
                        expected[y] += k
            return [canonical(v) for v in expected]

        if radical:
            witness = next((alpha(vals) for vals in sample
                            if image_diagonal(vals) != level_sum(heads[vals[:n]][1])), None)
        else:
            witness = next((alpha(vals) for head, (vals, levels) in heads.items()
                            if image_diagonal(head) != level_sum(levels)), None)
        out["vf(f)_D=sum-k-e_lb(L_k)"] = witness
    else:
        # additivity over symmetric difference, fixing X: adding one element
        # at a time reaches every pair (A, B), so t(A ^ {x}) = t(A) ^ t({x})
        # for every A and x is the whole law
        witness = None
        t = table.table
        if t[full] != full:
            witness = "lambda(X) != X"
        else:
            witness = next(
                (f"A = {{{', '.join(sorted(labels_of(poset.elements, a)))}}}, "
                 f"B = {{{poset.elements[i]}}}"
                 for a in range(full + 1) for i in range(n)
                 if t[a ^ (1 << i)] != t[a] ^ t[1 << i]), None)
        out["lb-prese-symm-diff"] = witness

    return out


def verify_lemma_suite(poset: Poset, field: PrimeField,
                       sample: str = "exhaustive", seed: int = 0,
                       trials: int = 25,
                       gate_override: bool = False) -> list[LemmaVerdict]:
    """Check every applicable structural law on every enumerated (or sampled)
    unital invertibility preserver.

    ``exhaustive`` walks the census survivors (the same gate, the same
    ``map #<index>`` labels) without classifying or recording them;
    ``randomized`` draws ``trials`` normal forms with the given seed,
    verifies each against the brute-force preserver oracle, and then checks
    the laws. The subset table and the laws are derived once per run of
    instances with equal diagonal-output rows, and a failed extraction
    raises. Element-level laws scan all q^d elements when feasible
    and a seeded sample otherwise. The partition law reads every partition
    of X into at most |K| blocks, and their count is gated before the first
    instance is built.
    """
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("the lemma suite enumerates field elements; "
                                 "use a prime field")
    if sample == "randomized":
        if trials < 1:
            raise IncalgError(f"the randomized lemma suite needs at least one trial, "
                              f"got {trials}")
        _gate(trials, "the randomized lemma suite", gate_override)
    n = poset.n
    _gate(_partition_count(n, min(field.p, n)), "the partition law union-lb(L_k(f))=X",
          gate_override)
    values = _sample_values(poset, field, seed=seed)
    heads = _diagonal_heads(values, n)
    where = f"on {poset.display_name} over {format_field(field)}"
    if sample == "exhaustive":
        space = _census_gate(poset, field, gate_override)
        instances = (
            (f"map #{index} {where}", LinearMap._of_values(poset, field, rows))
            for index, rows in _iter_preserver_matrices(poset, field, 0, space))
    elif sample == "randomized":
        rng = random.Random(seed)
        instances = []
        for k in range(trials):
            phi = build_preserver(random_preserver_spec(poset, field, rng))
            if not (phi.is_unital() and preserves_invertibility(phi, gate_override=gate_override)):
                raise AssertionError(
                    "constructed normal form failed the preserver oracle")
            instances.append((f"random spec #{k} (seed {seed}) {where}", phi))
    else:
        raise ValueError(f"unknown sample mode {sample!r}")
    verdicts = []
    # the table and every law read only the diagonal-output rows, so a run
    # of instances that share them (a run of census survivors) shares checks
    head = None
    for instance, phi in instances:
        if phi.values[:n] != head:
            head = phi.values[:n]
            checks = _lemma_checks(phi, extract_subset_map(phi), values, heads)
        for lemma, witness in checks.items():
            verdicts.append(LemmaVerdict(lemma, instance, witness is None, witness))
    return verdicts


def random_preserver_spec(poset: Poset, field: Field,
                          rng: random.Random) -> PreserverSpec:
    """A uniformly random normal form (endomorphism + radical map)."""
    n, d = poset.n, poset.dimension
    m = d - n

    from fractions import Fraction
    if isinstance(field, PrimeField):
        def random_value():
            return rng.randrange(field.p)
    else:
        def random_value():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    if field.cardinality == 2:
        endo: PartitionEndo | XorEndo = XorEndo.from_head(
            poset.elements, [rng.randrange(1 << n) for _ in range(n - 1)])
    else:
        endo = PartitionEndo.from_owners(poset.elements, [rng.randrange(n) for _ in range(n)])
    rows = ((field.zero.value,) * d,) * n
    for _ in range(m):
        head = [random_value() for _ in range(n - 1)]
        tail = [random_value() for _ in range(m)]
        rows += (_psi_row(field, head, tail),)
    return PreserverSpec(poset, field, endo, LinearMap._of_values(poset, field, rows))


# criteria ---------------------------------------------------------------------

def _psi_radical_block_invertible(spec: PreserverSpec) -> bool:
    n = spec.poset.n
    block = [row[n:] for row in spec.radical_map.values[n:]]
    return _rank_of_values(spec.field, block) == len(block)


def verify_criteria(spec: PreserverSpec,
                    gate_override: bool = False) -> list[LemmaVerdict]:
    """Check the strongness and bijectivity criteria on one normal form, in
    both directions, against the brute-force side."""
    from .endos import format_endo

    if not isinstance(spec.field, PrimeField):
        raise InfiniteFieldError("criteria checks need the brute-force side; "
                                 "use a prime field")
    phi = build_preserver(spec)
    instance = (f"spec on {spec.poset.display_name} over {format_field(spec.field)}: "
                f"{format_endo(spec.endo)}")
    # a normal form's rebuild is a unital preserver, as the scan requires
    strong = find_strongness_counterexample(phi, gate_override=gate_override) is None
    injective = spec.endo.is_injective()
    strong_key = ("vf-strong<=>lb-injective" if spec.field.cardinality == 2
                  else "vf-strong<=>lb(A)-nonempty")
    verdicts = [LemmaVerdict(
        strong_key, instance, strong == injective,
        None if strong == injective
        else f"strong={strong} but lambda injective={injective}")]

    bijective = phi.is_bijective()
    auto = spec.endo.automorphism() is not None
    psi_ok = _psi_radical_block_invertible(spec)
    lhs = bijective and strong
    rhs = auto and psi_ok
    bij_key = ("bij-strong-over-Z_2" if spec.field.cardinality == 2
               else "bij-strong-|K|>2")
    verdicts.append(LemmaVerdict(
        bij_key, instance, lhs == rhs,
        None if lhs == rhs
        else f"bijective&strong={lhs} but automorphism={auto}, psi block invertible={psi_ok}"))

    verdicts.append(LemmaVerdict(
        "bijective-is-strong", instance, (not bijective) or strong,
        None if (not bijective) or strong else "bijective map that is not strong"))
    return verdicts


# inverse preservers -------------------------------------------------------------

def _idempotent_laws(phi: LinearMap, idempotents: list[FIElement],
                     delta: FIElement) -> list[tuple[str, str | None]]:
    """The idempotent laws of a unital inverse preserver, each with its
    witness, or None where it holds: the first idempotent whose image is
    not idempotent, phi(delta)^2 when it is not delta, and the first
    idempotent e with phi(e) phi(1) = phi(1) phi(e) = phi(e)^2 failing."""
    images = [phi.apply(e) for e in idempotents]
    not_idempotent = next(
        (e for e, fe in zip(idempotents, images) if not fe.is_idempotent()), None)
    image_delta = phi.apply(delta)
    square = image_delta * image_delta
    not_absorbed = next((e for e, fe in zip(idempotents, images)
                         if not (fe * image_delta == image_delta * fe == fe * fe)), None)
    return [
        ("vf-pres-inverses=>vf(1)vf-pres-idemp",
         None if not_idempotent is None else f"e = {format_element(not_idempotent)}"),
        ("vf(1_A)^2=1_B",
         None if square == delta else f"phi(delta)^2 = {format_element(square)}"),
        ("vf(e)vf(1)=vf(1)vf(e)=vf(e)^2",
         None if not_absorbed is None else f"e = {format_element(not_absorbed)}"),
    ]


def verify_inverse_preserver_results(poset: Poset, field: PrimeField,
                                     gate_override: bool = False) -> list[LemmaVerdict]:
    """Check the inverse-preserver results over a char != 2 prime field.

    Unital inverse preservers must coincide with unital Jordan endomorphisms
    and preserve idempotents, with the square and commutation identities on
    idempotents; on connected posets every bijective inverse preserver
    (unital or not) must be a signed copy of a Jordan endomorphism.
    Over F_2 the suite is not applicable and the pinned counterexample runs
    instead.
    """
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError(
            "inverse-preserver checks enumerate units; use a prime field")
    if field.p == 2:
        note = LemmaVerdict(
            "vf-pres-inverses=>vf-Jordan-homo",
            f"{poset.display_name} over {format_field(field)}",
            True, "not applicable: char 2; running the pinned counterexample")
        return [note, reproduce_example("z2-not-jordan")]

    space = _census_gate(poset, field, gate_override)
    # the row filter admits only preservers, as the inverse scan requires
    verdicts = []
    delta = FIElement.delta(poset, field)
    idempotents = list(iter_idempotents(poset, field, gate_override=gate_override))
    units = list(iter_units(poset, field, gate_override=gate_override))
    inverse_preserver_count = 0
    for index, rows in _iter_preserver_matrices(poset, field, 0, space):
        phi = LinearMap._of_values(poset, field, rows)
        instance = f"map #{index} on {poset.display_name} over {format_field(field)}"
        ip = find_inverse_counterexample(phi, units) is None
        je = is_jordan_endo(phi)
        verdicts.append(LemmaVerdict(
            "vf-pres-inverses=>vf-Jordan-homo", instance, ip == je,
            None if ip == je else f"inverse-preserving={ip} but Jordan={je}"))
        if not ip:
            continue
        inverse_preserver_count += 1
        verdicts.extend(LemmaVerdict(lemma, instance, witness is None, witness)
                        for lemma, witness in _idempotent_laws(phi, idempotents, delta))
    if inverse_preserver_count == 0:
        verdicts.append(LemmaVerdict(
            "vf-pres-inverses=>vf-Jordan-homo",
            f"{poset.display_name} over {format_field(field)}",
            False, "no unital inverse preserver found (the identity should be one)"))

    if poset.is_connected():
        for index, rows in _iter_preserver_matrices(poset, field, 0, space,
                                                    unital=False):
            phi = LinearMap._of_values(poset, field, rows)
            if not phi.is_bijective():
                continue
            if find_inverse_counterexample(phi, units) is not None:
                continue
            instance = (f"bijective inverse preserver #{index} on "
                        f"{poset.display_name} over {format_field(field)}")
            image_delta = phi.apply(delta)
            central = image_delta.is_central()
            verdicts.append(LemmaVerdict(
                "vf(dl)-central", instance, central,
                None if central
                else f"phi(delta) = {format_element(image_delta)} is not central"))
            sign_ok = image_delta in (delta, -delta)
            signed_jordan = False
            if sign_ok:
                sign = field.one if image_delta == delta else -field.one
                signed_jordan = is_jordan_endo(phi.scale(sign))
            verdicts.append(LemmaVerdict(
                "vf-pres-inverses=>vf-pm-auto-or-anti-auto", instance,
                sign_ok and signed_jordan,
                None if sign_ok and signed_jordan
                else f"phi(delta) = {format_element(image_delta)}"))
    return verdicts


# pinned examples ----------------------------------------------------------------

EXAMPLE_IDS = ("z2-nonseparating", "diagonal-truncation", "z2-not-jordan")


def _all_pass(checks: list[tuple[str, bool]]) -> tuple[bool, str | None]:
    for label, ok in checks:
        if not ok:
            return False, f"failed: {label}"
    return True, None


def reproduce_example(example_id: str) -> LemmaVerdict:
    """Rebuild one of the pinned counterexample maps and assert its stated
    properties exactly."""
    if example_id == "z2-nonseparating":
        poset = Poset.from_relations(["x", "y", "z"], [], name="antichain x,y,z")
        field = PrimeField(2)
        # diagonal action: x collects the parity of all three diagonal entries
        phi = LinearMap.from_rows(poset, field, [[1, 1, 1], [0, 1, 0], [0, 0, 1]])
        table = extract_subset_map(phi)
        checks = [
            ("unital", phi.is_unital()),
            ("preserves invertibility", preserves_invertibility(phi)),
            ("strong", is_strong(phi)),
            ("lambda({x}) = {x}", table.apply(["x"]) == frozenset({"x"})),
            ("lambda({y}) = {x,y}", table.apply(["y"]) == frozenset({"x", "y"})),
            ("not separating", not is_separating(table)),
        ]
        passed, witness = _all_pass(checks)
        if passed:
            witness = "lambda({y}) = {x,y} meets lambda({x}) = {x} though {x},{y} are disjoint"
        return LemmaVerdict("z2-nonseparating",
                            "antichain x,y,z over Fp 2", passed, witness)

    if example_id == "diagonal-truncation":
        from .posets import builtin_poset

        poset = builtin_poset("chain:2")
        field = PrimeField(3)
        phi = LinearMap.from_rows(poset, field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        table = extract_subset_map(phi)
        spec = classify(phi)
        identity_partition = PartitionEndo(poset.elements, (1, 2))
        checks = [
            ("unital", phi.is_unital()),
            ("preserves invertibility", preserves_invertibility(phi)),
            ("strong", is_strong(phi)),
            ("not bijective", not phi.is_bijective()),
            ("lambda is the identity",
             all(table.table[mask] == mask for mask in range(4))),
            ("classified lambda is the identity partition", spec.endo == identity_partition),
            ("psi = 0", not any(map(any, spec.radical_map.values))),
        ]
        passed, witness = _all_pass(checks)
        if passed:
            witness = f"strong but rank {phi.rank()} < {poset.dimension}"
        return LemmaVerdict("diagonal-truncation",
                            "chain:2 over Fp 3", passed, witness)

    if example_id == "z2-not-jordan":
        from .posets import builtin_poset

        poset = builtin_poset("chain:3")
        field = PrimeField(2)
        e = {pair: basis_element(poset, field, *pair) for pair in poset.basis_pairs}
        phi = LinearMap.from_basis_images(poset, field, {
            ("1", "1"): e[("1", "1")],
            ("2", "2"): e[("1", "1")] + e[("2", "2")],
            ("3", "3"): e[("1", "1")] + e[("3", "3")],
            ("1", "2"): e[("1", "2")],
            ("1", "3"): FIElement.zero(poset, field),
            ("2", "3"): FIElement.zero(poset, field),
        })
        counterexample = find_jordan_counterexample(phi)
        # the failing Jordan pair is (e_2, e_12): phi(e_2 o e_12) = e_12 while
        # phi(e_2) o phi(e_12) = (e_1 + e_2) o e_12 = 0
        pair_ok = False
        witness = None
        if counterexample is not None:
            a, b = counterexample
            lhs = phi.apply(jordan_product(a, b))
            rhs = jordan_product(phi.apply(a), phi.apply(b))
            pair_ok = (a == e[("2", "2")] and b == e[("1", "2")]
                       and lhs == e[("1", "2")] and rhs.is_zero())
            witness = (f"phi({format_element(a)} o {format_element(b)}) = "
                       f"{format_element(lhs)} != {format_element(rhs)} = "
                       f"phi({format_element(a)}) o phi({format_element(b)})")
        checks = [
            ("unital", phi.is_unital()),
            ("preserves invertibility", preserves_invertibility(phi)),
            ("preserves inverses", preserves_inverses(phi)),
            ("not a Jordan endomorphism", not is_jordan_endo(phi)),
            ("witness pair is (e[2], e[1,2])", pair_ok),
        ]
        passed, failure = _all_pass(checks)
        return LemmaVerdict("z2-not-jordan", "chain:3 over Fp 2",
                            passed, witness if passed else failure)

    raise ValueError(f"unknown example id {example_id!r}; "
                     f"known: {', '.join(EXAMPLE_IDS)}")


# map analysis for the CLI --------------------------------------------------------

def analyze_map(phi: LinearMap, gate_override: bool = False) -> dict:
    """Full predicate report for one linear map: verdicts, the extracted
    normal form when it exists, and concrete failure witnesses.

    The normal form decides on every field: phi preserves invertibility iff
    u = phi(delta) is a unit and ``classify`` accepts the unital psi =
    u^-1 phi (left multiplication by u permutes the units), and is then
    strong iff lambda(psi) is injective. It preserves inverses iff it is
    Jordan when unital outside characteristic 2, never when u^2 != delta, and
    else as the unit scan says: undecided over Q, or beyond its gate of
    (q-1)^n q^(d-n) <= SCAN_CAP units.
    ``lambda`` and ``psi`` are the normal form of a unital preserver only.
    """
    poset, field = phi.poset, phi.field
    verdicts: dict = {"unital": phi.is_unital(), "preserver": None, "strong": None,
                      "inverse_preserving": None, "jordan": None}
    witnesses: dict = {}
    report = {"poset": poset.display_name, "field": format_field(field),
              "verdicts": verdicts, "lambda": None, "psi": None, "witnesses": witnesses}
    spec, psi, u, about, involutive = None, phi, None, "", True
    if not verdicts["unital"]:
        delta = FIElement.delta(poset, field)
        u = phi.apply(delta)
        if u.is_unit():
            plan, u_inv = poset.convolution_plan, [c.value for c in u.inverse().coeffs]
            psi = LinearMap._of_values(poset, field, tuple(zip(*(
                field.convolve(plan, u_inv, column) for column in zip(*phi.values)))))
            involutive = u * u == delta
            about = "phi(delta)^-1 phi: "
        else:
            verdicts["preserver"] = False
            witnesses["preserver"] = (f"unit {format_element(delta)} maps to non-unit "
                                      f"{format_element(u)}")
    if verdicts["preserver"] is None:
        try:
            spec = classify(psi)
        except ClassificationError as exc:
            witnesses["preserver"] = about + str(exc)
        verdicts["preserver"] = spec is not None
    if spec is not None:
        first_full = (_first_full_block_pattern if isinstance(spec.endo, PartitionEndo)
                      else _first_full_pattern)
        counter = first_full(poset, field, spec.endo.images)
        verdicts["strong"] = counter is None
        if counter is not None:
            witnesses["strong"] = f"non-unit {format_element(counter)} maps to a unit"

    jordan_pair = find_jordan_counterexample(phi)
    if spec is None or not involutive:
        verdicts["inverse_preserving"] = False
    elif u is None and field.characteristic != 2:
        verdicts["inverse_preserving"] = jordan_pair is None
    else:
        # u^2 = delta, or characteristic 2, where Jordan does not decide (z2-not-jordan)
        try:
            verdicts["inverse_preserving"] = find_inverse_counterexample(
                phi, iter_units(poset, field, gate_override)) is None
        except (GateError, InfiniteFieldError) as exc:
            witnesses["inverse_preserving"] = f"undecided: {exc}"
    verdicts["jordan"] = jordan_pair is None
    if jordan_pair is not None:
        a, b = jordan_pair
        witnesses["jordan"] = (
            f"phi({format_element(a)} o {format_element(b)}) != "
            f"phi({format_element(a)}) o phi({format_element(b)})")

    if spec is not None and u is None:
        report["lambda"] = endo_to_json(spec.endo)
        report["psi"] = psi_to_json(spec)
    return report
