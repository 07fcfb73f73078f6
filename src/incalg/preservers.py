"""Linear maps on I(X,K), their normal forms, and the predicate suite.

A map is a d x d matrix over the canonical basis (diagonal coordinates
first, then strict-pair coordinates); row i gives output coordinate i.
A preserver normal form pairs a power-set endomorphism (partition form for
|K| > 2, GF(2)-matrix form for K = F_2) with a linear map into the radical
coordinates annihilating the identity.

The invertibility-preservation decision for prime fields is exact and runs
in two stages:

(i)  every diagonal-output row must be zero on all radical-input columns.
     If some diagonal row reads a radical coordinate with coefficient c,
     the unit ``delta + t*e_uv`` with ``t = -phi(delta)_yy / c`` maps to an
     element with a zero diagonal entry, so the map is not a preserver.
     This works over every field, including F_2.
(ii) given (i), the image diagonal depends only on the input diagonal, so
     scanning all (q-1)^n nonzero diagonal patterns decides the property.
The strongness and inverse scans need a preserver: ``is_strong`` and
``preserves_inverses`` check it, and the ``find_*`` scans trust their caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterable, Sequence

from .algebra import FIElement, basis_element, jordan_product
from .endos import PartitionEndo, SubsetMapTable, XorEndo, _gf2_rank, _span_table
from .errors import (
    ClassificationError,
    FieldMismatchError,
    GateError,
    InfiniteFieldError,
    MismatchError,
    ParseError,
    PosetError,
)
from .fields import Field, PrimeField, Scalar, format_field, parse_field
from .posets import Poset

SCAN_CAP = 10**6          # generic workload cap for exhaustive scans


class LinearMap:
    """A K-linear map on I(X,K) as a matrix in the canonical basis, held as
    canonical values in ``values``; ``rows`` boxes them on read. A map is
    immutable, so ``_columns`` keeps the diagonal block's column masks once
    ``_block_columns`` has read them."""

    __slots__ = ("poset", "field", "values", "_columns")

    def __init__(self, poset: Poset, field: Field,
                 rows: Sequence[Sequence[Scalar]]):
        d = poset.dimension
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise MismatchError(f"expected a {d}x{d} matrix")
        field.check_scalars(c for row in rows for c in row)
        self.poset = poset
        self.field = field
        self.values: tuple[tuple, ...] = tuple(tuple(c.value for c in row) for row in rows)
        self._columns: tuple[int, ...] | None = None

    @classmethod
    def _of_values(cls, poset: Poset, field: Field, values: tuple[tuple, ...]) -> "LinearMap":
        """A map on a d x d tuple of tuples of canonical values, unchecked."""
        phi = object.__new__(cls)
        phi.poset, phi.field, phi.values, phi._columns = poset, field, values, None
        return phi

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        field = self.field
        return tuple(tuple(Scalar(field, v) for v in row) for row in self.values)

    @classmethod
    def from_rows(cls, poset: Poset, field: Field,
                  rows: Sequence[Sequence[object]]) -> "LinearMap":
        return cls(poset, field, [[field.scalar(v) for v in row] for row in rows])

    @classmethod
    def identity(cls, poset: Poset, field: Field) -> "LinearMap":
        d = poset.dimension
        return cls.from_rows(poset, field, [[int(i == j) for j in range(d)] for i in range(d)])

    @classmethod
    def zero(cls, poset: Poset, field: Field) -> "LinearMap":
        return cls.from_rows(poset, field, [[0] * poset.dimension] * poset.dimension)

    @classmethod
    def from_basis_images(cls, poset: Poset, field: Field,
                          images: dict[tuple[str, str], FIElement]) -> "LinearMap":
        """Define a map column by column from images of basis elements;
        unnamed basis elements map to zero. Each key must be a basis pair of
        ``poset`` and each image an element over it."""
        d = poset.dimension
        z = field.zero
        rows = [[z] * d for _ in range(d)]
        for pair, image in images.items():
            if pair not in poset.pair_index:
                raise PosetError(f"not a basis pair: {pair[0]!r} <= {pair[1]!r} fails")
            if image.poset != poset:
                raise MismatchError(
                    f"image of e[{pair[0]},{pair[1]}] lives over a different poset")
            j = poset.pair_index[pair]
            for i, c in enumerate(image.coeffs):
                rows[i][j] = c
        return cls(poset, field, rows)

    def apply(self, a: FIElement) -> FIElement:
        """The image of ``a``, computed on plain values by ``Field.matvec``:
        each output coordinate sums the products of nonzero row entries and
        nonzero input coordinates, and is reduced once. The element's
        coefficients were checked to lie in the field when it was built."""
        if a.poset != self.poset:
            raise MismatchError("map and element live over different posets")
        if a.field != self.field:
            raise FieldMismatchError("map and element live over different fields")
        field = self.field
        support = [(j, v) for j, c in enumerate(a.coeffs) if (v := c.value)]
        return FIElement._of_values(self.poset, field, field.matvec(self.values, support))

    def is_unital(self) -> bool:
        """phi(delta) = delta, read off the row sums over the diagonal columns."""
        n, d = self.poset.n, self.poset.dimension
        return self.field.row_sums(self.values, n) == [1] * n + [0] * (d - n)

    def rank(self) -> int:
        """Exact rank by Gaussian elimination (any supported field)."""
        return _rank_of_values(self.field, self.values)

    def is_bijective(self) -> bool:
        return self.rank() == self.poset.dimension

    def scale(self, k: Scalar) -> "LinearMap":
        """k times the map; ``k`` is an int, a ``Fraction`` or a scalar of
        the map's field."""
        k = self.field.scalar(k).value
        canonical = self.field.canonical
        return LinearMap._of_values(
            self.poset, self.field,
            tuple(tuple(canonical(k * v) for v in row) for row in self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearMap)
            and other.poset == self.poset
            and other.field == self.field
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.field, self.values))

    def __repr__(self) -> str:
        return f"LinearMap({self.poset.display_name} over {self.field}, d={self.poset.dimension})"


def _rank_of_values(field: Field, rows: Sequence[Sequence]) -> int:
    """Exact rank of a matrix of canonical values of ``field``.

    Over F_2 each row is read as a bitmask (the column order does not
    change the rank) and eliminated by XOR. Otherwise it is forward
    elimination: only the pivots are inverted, as ``Scalar``s, and each
    updated entry is reduced once through ``Field.canonical``. Zero rows are
    dropped first, as they add nothing to the rank."""
    if field.cardinality == 2:
        masks = []
        for row in rows:
            m = 0
            for v in row:
                m = m << 1 | v
            masks.append(m)
        return _gf2_rank(masks)
    work = [list(row) for row in rows if any(row)]
    if not work:
        return 0
    canonical = field.canonical
    height = len(work)
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, height) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        inv = Scalar(field, top[col]).inverse().value
        for r in range(rank + 1, height):
            row = work[r]
            if row[col]:
                f = canonical(row[col] * inv)
                work[r] = [canonical(v - f * w) if w else v for v, w in zip(row, top)]
        rank += 1
        if rank == height:
            break
    return rank


@dataclass(frozen=True)
class PreserverSpec:
    """The normal form of a unital invertibility preserver: a power-set
    endomorphism driving the diagonal plus a radical-valued linear map that
    annihilates the identity. Partition form is used whenever |K| > 2
    (including the rationals), GF(2)-matrix form exactly for K = F_2."""

    poset: Poset
    field: Field
    endo: PartitionEndo | XorEndo
    radical_map: LinearMap

    def __post_init__(self):
        if self.endo.elements != self.poset.elements:
            raise MismatchError("endomorphism ambient set must match the poset elements")
        if self.field.cardinality == 2 and not isinstance(self.endo, XorEndo):
            raise MismatchError("over F_2 the endomorphism must be in GF(2)-matrix form")
        if self.field.cardinality != 2 and not isinstance(self.endo, PartitionEndo):
            raise MismatchError("with |K| > 2 the endomorphism must be in partition form")
        if self.radical_map.poset != self.poset or self.radical_map.field != self.field:
            raise MismatchError("radical map must live over the same poset and field")
        n = self.poset.n
        values = self.radical_map.values
        if any(any(row) for row in values[:n]):
            raise MismatchError("radical map must have zero diagonal-output rows")
        # psi(delta) sums each row over the diagonal columns
        if any(self.field.row_sums(values[n:], n)):
            raise MismatchError("psi must annihilate delta")

    @classmethod
    def _of_parts(cls, poset: Poset, field: Field, endo: PartitionEndo | XorEndo,
                  radical_map: LinearMap) -> "PreserverSpec":
        """A normal form of parts the library derived itself, boxed
        unchecked: ``classify`` takes them from a map it found unital, the
        census from rows its filter admitted."""
        spec = object.__new__(cls)
        spec.__dict__.update(poset=poset, field=field, endo=endo, radical_map=radical_map)
        return spec


def build_preserver(spec: PreserverSpec) -> LinearMap:
    """Assemble the matrix of the preserver described by a normal form.

    Diagonal-output rows copy the input diagonal through the endomorphism:
    output coordinate y reads input coordinate x when y lies in the image
    of {x} (the block of x; over F_2 the diagonal block is the GF(2) matrix
    itself), and is zero on the radical columns. Radical rows come from the
    radical map.
    """
    poset, field = spec.poset, spec.field
    n, d = poset.n, poset.dimension
    z, o = field.zero.value, field.one.value
    images = spec.endo.images
    pad = [z] * (d - n)
    rows = tuple([tuple([o if image >> y & 1 else z for image in images] + pad)
                  for y in range(n)])
    return LinearMap._of_values(poset, field, rows + spec.radical_map.values[n:])


def _first_pattern(rows: Sequence[Sequence], p: int, patterns: Iterable[tuple],
                   unit: bool) -> tuple | None:
    """The first diagonal pattern t of ``patterns`` for which every row . t
    is nonzero mod p exactly when ``unit`` holds, or None.

    Each row is read on its first len(t) entries, so the diagonal-output
    rows of a map are its diagonal block: once stage (i) holds, the image
    diagonal of the pattern is that block times t, and it is a unit exactly
    when every row . t is nonzero.
    """
    for t in patterns:
        if all(sum(map(mul, row, t)) % p for row in rows) == unit:
            return t
    return None


def _first_full_pattern(poset: Poset, field: Field, images: Sequence[int]) -> FIElement | None:
    """The first 0/1 diagonal pattern but all ones, in product order, that
    the XOR of the singleton ``images`` sends to the full mask, or None.
    Product order reads a pattern's first coordinate as its top bit, so the
    span of the reversed images lists the pattern images in that order, and
    it ends with the all-ones pattern, which must reach the full mask."""
    n = len(images)
    full = (1 << n) - 1
    k = _span_table(images[::-1]).index(full)
    if k == full:
        return None
    z, o = field.zero.value, field.one.value
    pattern = [o if k >> (n - 1 - j) & 1 else z for j in range(n)]
    return FIElement._of_values(poset, field, pattern + [z] * (poset.dimension - n))


def _first_full_block_pattern(poset: Poset, field: Field,
                              blocks: Sequence[int]) -> FIElement | None:
    """``_first_full_pattern`` of a partition's ``blocks`` in closed form:
    the indicator of the elements whose block is nonempty, or None."""
    z, o = field.zero.value, field.one.value
    return None if all(blocks) else FIElement._of_values(
        poset, field, [o if b else z for b in blocks] + [z] * (poset.dimension - poset.n))


def _block_columns(phi: LinearMap) -> tuple[int, ...]:
    """The diagonal block's columns as masks of the rows that hold a 1.

    The diagonal of phi(e_A) sums the block columns of A, and every value of
    it must be 0 or 1 for A to have an image in the subset table. A column
    holding a value outside {0, 1} refutes at its singleton. Off F_2, two
    0/1 columns with a 1 in the same row refute at their pair, whose sum is
    2 there; over F_2 every entry is 0 or 1 and nothing refutes. Columns
    are read in order, so the witness is the first failing subset in mask
    order (a singleton {k} comes before every pair whose larger column is
    k), at its first failing row. The masks are kept on the map, so its
    subset table and its F_2 strongness scan read the block once; a
    refuting block keeps nothing and raises again on the next read.
    """
    if phi._columns is not None:
        return phi._columns
    poset, field = phi.poset, phi.field
    n = poset.n
    elements = poset.elements
    block = phi.values[:n]

    def refute(subset: list[int], value, row: int):
        names = ", ".join(elements[j] for j in subset)
        raise ClassificationError(
            "from-vf-to-lb",
            f"diagonal value {field.format_value(value)} outside {{0, 1}} "
            f"at {elements[row]} for the idempotent of {{{names}}}",
            witness=f"A = {{{names}}}")

    columns: list[int] = []
    union = 0
    for k in range(n):
        column = 0
        for i, row in enumerate(block):
            v = row[k]
            if v:
                if v != 1:
                    refute([k], v, i)
                column |= 1 << i
        if column & union and field.cardinality != 2:
            j = next(j for j, c in enumerate(columns) if c & column)
            shared = columns[j] & column
            refute([j, k], field.canonical(2), (shared & -shared).bit_length() - 1)
        union |= column
        columns.append(column)
    phi._columns = tuple(columns)
    return phi._columns


def extract_subset_map(phi: LinearMap) -> SubsetMapTable:
    """Extract the subset map A -> {x : phi(e_A)_xx = 1}.

    The block columns (``_block_columns``, which refutes a block without a
    table) are pairwise disjoint 0/1 masks off F_2, and any 0/1 masks over
    F_2; in both cases the table is their XOR span. It has 2^n entries for
    n <= 16, the cap of the algebra.
    """
    return SubsetMapTable(phi.poset.elements, _span_table(_block_columns(phi)))


def extract_radical_map(phi: LinearMap) -> LinearMap:
    """The radical projection of phi: diagonal-output rows zeroed."""
    n, d = phi.poset.n, phi.poset.dimension
    zero_row = (phi.field.zero.value,) * d
    return LinearMap._of_values(phi.poset, phi.field, (zero_row,) * n + phi.values[n:])


# predicate suite -------------------------------------------------------------


def _require_prime(field: Field, what: str, classified: bool = False) -> PrimeField:
    """``field`` as a prime field. ``classified`` marks a question that the
    normal form decides on every field, so the refusal over Q points to it."""
    if not isinstance(field, PrimeField):
        advice = "; over Q use classification instead" if classified else ""
        raise InfiniteFieldError(f"{what} enumerates field elements{advice}")
    return field


def _gate(size: int, what: str, gate_override: bool):
    if size > SCAN_CAP and not gate_override:
        raise GateError(f"{what} would scan {size} cases (cap {SCAN_CAP})", size=size)


def find_nonpreserved_unit(phi: LinearMap, gate_override: bool = False) -> FIElement | None:
    """A unit mapped to a non-unit, or None if phi preserves invertibility."""
    field = _require_prime(phi.field, "preserves_invertibility", classified=True)
    poset = phi.poset
    n, d = poset.n, poset.dimension
    for i, row in enumerate(phi.values[:n]):
        if not any(row[n:]):
            continue
        for j in range(n, d):
            if row[j]:
                delta = FIElement.delta(poset, field)
                t = -(phi.apply(delta).coeffs[i] * Scalar(field, row[j]).inverse())
                x, y = poset.basis_pairs[j]
                return delta + basis_element(poset, field, x, y).scale(t)
    p = field.p
    _gate((p - 1) ** n, "preserves_invertibility", gate_override)
    t = _first_pattern(phi.values[:n], p, product(range(1, p), repeat=n), unit=False)
    return None if t is None else FIElement._of_values(poset, field, t + (0,) * (d - n))


def preserves_invertibility(phi: LinearMap, gate_override: bool = False) -> bool:
    """Exact decision of 'units map to units' for prime fields."""
    return find_nonpreserved_unit(phi, gate_override=gate_override) is None


def find_strongness_counterexample(phi: LinearMap,
                                   gate_override: bool = False) -> FIElement | None:
    """A non-unit whose image is a unit, or None if the preserver is strong.

    Requires, unchecked, an invertibility preserver, unital or not; the scan
    runs over all q^n diagonal patterns, which suffices because stage (i) of
    the preserver check makes image diagonals depend on input diagonals only.
    """
    field = _require_prime(phi.field, "is_strong", classified=True)
    poset = phi.poset
    n, d = poset.n, poset.dimension
    p = field.p
    _gate(p ** n, "is_strong", gate_override)
    if p == 2:
        return _first_full_pattern(poset, field, _block_columns(phi))
    non_units = (t for t in product(range(p), repeat=n) if not all(t))
    t = _first_pattern(phi.values[:n], p, non_units, unit=True)
    return None if t is None else FIElement._of_values(poset, field, t + (0,) * (d - n))


def is_strong(phi: LinearMap, gate_override: bool = False) -> bool:
    """Checks the scan's precondition after its q^n gate (the (q-1)^n
    preserver patterns are fewer), so that a refused call scans nothing."""
    field = _require_prime(phi.field, "is_strong", classified=True)
    _gate(field.p ** phi.poset.n, "is_strong", gate_override)
    if not phi.is_unital() or not preserves_invertibility(phi, gate_override=gate_override):
        raise ValueError("is_strong requires a unital invertibility preserver")
    return find_strongness_counterexample(phi, gate_override=gate_override) is None


def iter_units(poset: Poset, field: Field, gate_override: bool = False):
    """Each unit u of I(X,K) with its inverse, as pairs (u, u^-1), streamed
    in product order. The gate, (q-1)^n q^(d-n) <= SCAN_CAP units, is
    checked on the call, before the first unit is built. The units do not
    depend on any map, so a scan of many maps lists them once."""
    field = _require_prime(field, "preserves_inverses")
    n, d = poset.n, poset.dimension
    q = field.p
    _gate((q - 1) ** n * q ** (d - n), "preserves_inverses", gate_override)
    values = field.elements()
    units = (FIElement(poset, field, diag + tail)
             for diag in product(values[1:], repeat=n)
             for tail in product(values, repeat=d - n))
    return ((u, u.inverse()) for u in units)


def find_inverse_counterexample(phi: LinearMap,
                                units: Iterable[tuple[FIElement, FIElement]]) -> FIElement | None:
    """The first unit u of ``units``, pairs (u, u^-1) as ``iter_units``
    yields them, with phi(u^-1) != phi(u)^-1, or None.

    Requires, unchecked, an invertibility preserver, unital or not. Then
    phi(u) is a unit, and in I(X,K) a one-sided inverse of a unit is its
    inverse, so phi(u^-1) = phi(u)^-1 exactly when phi(u) phi(u^-1) = delta:
    one product per unit, and no inverse. The scan runs on values: each
    image sums the matrix columns of the unit's nonzero coordinates and is
    left unreduced, the two images are convolved over ``convolution_plan``,
    and each coordinate of the product is reduced once and compared with
    delta's. ``units`` is read once, so a generator will do.
    """
    poset, field = phi.poset, phi.field
    n, d = poset.n, poset.dimension
    plan = poset.convolution_plan
    columns = [[(i, c) for i, c in enumerate(column) if c] for column in zip(*phi.values)]
    delta = [1] * n + [0] * (d - n)

    def image(a: FIElement) -> list:
        out = [0] * d
        for j, c in enumerate(a.coeffs):
            if v := c.value:
                for i, m in columns[j]:
                    out[i] += m * v
        return out

    for u, u_inv in units:
        a, b = image(u), image(u_inv)
        if field.convolve(plan, a, b) != delta:
            return u
    return None


def preserves_inverses(phi: LinearMap, gate_override: bool = False) -> bool:
    """Checks the scan's precondition after its gate, so that a refused
    call scans nothing."""
    units = iter_units(phi.poset, phi.field, gate_override)
    if not preserves_invertibility(phi, gate_override=gate_override):
        raise ValueError("preserves_inverses requires an invertibility preserver")
    return find_inverse_counterexample(phi, units) is None


def find_jordan_counterexample(phi: LinearMap) -> tuple[FIElement, FIElement] | None:
    """The first basis pair (a, b), in row-major order, with
    phi(ab + ba) != phi(a)phi(b) + phi(b)phi(a); bilinearity makes the
    basis-pair check sufficient.

    Both sides are symmetric in (a, b), so the first failing pair has a at
    or before b, and only those pairs are scanned. The left side needs no
    product: for a = e_xy and b = e_zw, ab + ba = [y = z] e_xw + [w = x] e_zy,
    so phi(ab + ba) is one column of the matrix, or twice column a when
    a = b is diagonal (the only case where both brackets hold). The right
    side is zero unless the images compose: phi(a)phi(b) needs an element
    that ends a support pair of phi(a) and starts one of phi(b), and each
    column's support gives these start and end elements as masks, read on
    the column's first use. Only pairs whose images compose in some order
    are multiplied, as the Jordan product of the images, each boxed from
    its column on first use.
    """
    poset, field = phi.poset, phi.field
    pairs, index = poset.basis_pairs, poset.pair_index
    canonical = field.canonical
    columns = list(zip(*phi.values))
    zero = (0,) * len(pairs)
    bit = {x: 1 << k for k, x in enumerate(poset.elements)}
    images: dict[int, FIElement] = {}
    masks: dict[int, tuple[int, int]] = {}

    def image(k: int) -> FIElement:
        if k not in images:
            images[k] = FIElement._of_values(poset, field, columns[k])
        return images[k]

    def support(k: int) -> tuple[int, int]:
        if k not in masks:
            starts = ends = 0
            for (s, t), v in zip(pairs, columns[k]):
                if v:
                    starts |= bit[s]
                    ends |= bit[t]
            masks[k] = starts, ends
        return masks[k]

    for i, (x, y) in enumerate(pairs):
        starts_i, ends_i = support(i)
        for j in range(i, len(pairs)):
            z, w = pairs[j]
            if y == z and w == x:
                lhs = tuple([canonical(2 * c) if c else c for c in columns[i]])
            elif y == z:
                lhs = columns[index[(x, w)]]
            elif w == x:
                lhs = columns[index[(z, y)]]
            else:
                lhs = zero
            starts_j, ends_j = support(j)
            if ends_i & starts_j or ends_j & starts_i:
                rhs = tuple(c.value for c in jordan_product(image(i), image(j)).coeffs)
            else:
                rhs = zero
            if lhs != rhs:
                return (basis_element(poset, field, x, y),
                        basis_element(poset, field, z, w))
    return None


def is_jordan_endo(phi: LinearMap) -> bool:
    return find_jordan_counterexample(phi) is None


def iter_idempotents(poset: Poset, field: PrimeField,
                     gate_override: bool = False):
    """All idempotents of I(X,K), by exhaustive scan of the q^d elements,
    gated on that count on the first step."""
    d = poset.dimension
    _gate(field.p ** d, "preserves_idempotents", gate_override)
    for values in product(field.elements(), repeat=d):
        a = FIElement(poset, field, values)
        if a.is_idempotent():
            yield a


def find_idempotent_counterexample(phi: LinearMap,
                                   gate_override: bool = False) -> FIElement | None:
    """An idempotent whose image fails to be idempotent, or None; exhaustive
    over the q^d elements."""
    field = _require_prime(phi.field, "preserves_idempotents")
    for e in iter_idempotents(phi.poset, field, gate_override=gate_override):
        if not phi.apply(e).is_idempotent():
            return e
    return None


def preserves_idempotents(phi: LinearMap, gate_override: bool = False) -> bool:
    return find_idempotent_counterexample(phi, gate_override=gate_override) is None


# text formats ----------------------------------------------------------------

def _parse_header(lines: list[tuple[int, str]], kind: str,
                  poset_resolver) -> tuple[Poset, Field, int]:
    """Common 'kind / field: / poset:' header; returns the next line index."""
    if not lines or lines[0][1] != kind:
        lineno = lines[0][0] if lines else 1
        raise ParseError(f"expected {kind!r} header", lineno)
    field = poset = None
    at = 1
    while at < len(lines) and (field is None or poset is None):
        lineno, line = lines[at]
        if line.startswith("field:"):
            if field is not None:
                raise ParseError("duplicate 'field:' line", lineno)
            try:
                field = parse_field(line[len("field:"):].strip())
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
        elif line.startswith("poset:"):
            if poset is not None:
                raise ParseError("duplicate 'poset:' line", lineno)
            poset = poset_resolver(line[len("poset:"):].strip())
        else:
            raise ParseError(f"expected 'field:' or 'poset:' line, got {line!r}", lineno)
        at += 1
    if field is None or poset is None:
        raise ParseError("header must declare both 'field:' and 'poset:'")
    for lineno, line in lines[at:]:
        if line.startswith(("field:", "poset:")):
            raise ParseError(f"duplicate {line[:6]!r} line", lineno)
    return poset, field, at


def _parse_rows(field: Field, lines: list[tuple[int, str]], d: int,
                what: str) -> list[list[Scalar]]:
    """Rows of d scalars, one per line; every error names its line."""
    rows = []
    for lineno, line in lines:
        entries = line.split()
        if len(entries) != d:
            raise ParseError(
                f"expected {d} entries per {what} row, got {len(entries)}", lineno)
        try:
            rows.append([field.parse_scalar(tok) for tok in entries])
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return rows


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_linear_map(text: str, poset: Poset | None = None,
                     field: Field | None = None) -> LinearMap:
    """Parse the map file format: ``map`` header, field and poset lines,
    then d rows of d scalars. Explicit poset/field arguments, when given,
    must agree with the declared ones."""
    from .posets import resolve_poset

    lines = _significant_lines(text)
    file_poset, file_field, at = _parse_header(lines, "map", resolve_poset)
    if poset is not None and poset != file_poset:
        raise ParseError("map file declares a different poset than requested")
    if field is not None and field != file_field:
        raise ParseError("map file declares a different field than requested")
    poset, field = file_poset, file_field
    d = poset.dimension
    rows = _parse_rows(field, lines[at:], d, "matrix")
    if len(rows) != d:
        raise ParseError(f"expected {d} matrix rows, got {len(rows)}")
    return LinearMap(poset, field, rows)


def _poset_reference(poset: Poset) -> str:
    if poset.name is None:
        raise ValueError(
            "cannot serialize over an anonymous poset; save it to a poset "
            "file and construct it through resolve_poset, or use a builtin")
    return poset.name


def format_linear_map(phi: LinearMap) -> str:
    header = (f"map\nfield: {format_field(phi.field)}\n"
              f"poset: {_poset_reference(phi.poset)}\n")
    fmt = phi.field.format_value
    body = "\n".join(" ".join(fmt(v) for v in row) for row in phi.values)
    return header + body + "\n"


def parse_preserver_spec(text: str) -> PreserverSpec:
    """Parse the spec file format: ``preserver-spec`` header, field and poset
    lines, a ``lambda:``/``xor-lambda:`` line, then ``psi:`` with one row per
    radical coordinate."""
    from .endos import parse_endo_line
    from .posets import resolve_poset

    lines = _significant_lines(text)
    poset, field, at = _parse_header(lines, "preserver-spec", resolve_poset)
    if at >= len(lines):
        raise ParseError("missing lambda line")
    lineno, line = lines[at]
    try:
        endo = parse_endo_line(line, poset.elements)
    except ParseError as exc:
        raise ParseError(str(exc), lineno) from None
    if field.cardinality == 2 and isinstance(endo, PartitionEndo):
        raise ParseError("over Fp 2 use 'xor-lambda:'", lineno)
    if field.cardinality != 2 and isinstance(endo, XorEndo):
        raise ParseError("'xor-lambda:' only applies over Fp 2", lineno)
    at += 1
    if at >= len(lines) or lines[at][1] != "psi:":
        raise ParseError("missing 'psi:' block")
    at += 1
    n, d = poset.n, poset.dimension
    m = d - n
    rows = [[field.zero] * d for _ in range(n)]
    psi_rows = lines[at:]
    if len(psi_rows) != m:
        raise ParseError(f"psi block needs {m} rows, got {len(psi_rows)}")
    rows += _parse_rows(field, psi_rows, d, "psi")
    try:
        return PreserverSpec(poset, field, endo, LinearMap(poset, field, rows))
    except MismatchError as exc:
        raise ParseError(str(exc)) from None


def format_preserver_spec(spec: PreserverSpec) -> str:
    from .endos import format_endo

    n = spec.poset.n
    header = (f"preserver-spec\nfield: {format_field(spec.field)}\n"
              f"poset: {_poset_reference(spec.poset)}\n{format_endo(spec.endo)}\npsi:\n")
    fmt = spec.field.format_value
    body = "\n".join(" ".join(fmt(v) for v in row) for row in spec.radical_map.values[n:])
    return header + body + ("\n" if body else "")


def linear_map_to_json(phi: LinearMap) -> list[list[str]]:
    fmt = phi.field.format_value
    return [[fmt(v) for v in row] for row in phi.values]


def psi_to_json(spec: PreserverSpec) -> list[list[str]]:
    """The radical-output rows of a normal form's radical map, formatted;
    its n diagonal-output rows are zero by construction and left out."""
    fmt = spec.field.format_value
    return [[fmt(v) for v in row] for row in spec.radical_map.values[spec.poset.n:]]
