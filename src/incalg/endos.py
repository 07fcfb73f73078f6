"""Endomorphisms of the power set P(X) of a finite ambient set X.

Subsets are int bitmasks over a fixed ordered tuple of element labels. Two
normal forms are implemented: Boolean-algebra endomorphisms as partitions of
X (the block of x is the image of the singleton {x}), and additive
endomorphisms of (P(X), symmetric difference) fixing X as GF(2) matrices,
stored by columns. Arbitrary maps P(X) -> P(X) are held as explicit tables
until their structure is known.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import product
from operator import and_, or_, xor
from typing import Iterable, Iterator, Union

from .errors import ClassificationError, GateError, MismatchError, ParseError

SUBSET_TABLE_CAP = 12   # 2^n-entry tables
ENUMERATION_CAP = 4     # |X|^|X| or 2^(|X|(|X|-1)) streams


def mask_of(elements: tuple[str, ...], labels: Iterable[str]) -> int:
    index = {x: i for i, x in enumerate(elements)}
    m = 0
    for lbl in labels:
        if lbl not in index:
            raise MismatchError(f"label {lbl!r} not in ambient set {elements}")
        m |= 1 << index[lbl]
    return m


def labels_of(elements: tuple[str, ...], mask: int) -> frozenset[str]:
    return frozenset(x for i, x in enumerate(elements) if mask >> i & 1)


@dataclass(frozen=True)
class PartitionEndo:
    """A Boolean-algebra endomorphism of P(X), stored as the partition of X
    into blocks indexed by X (empty blocks allowed): the image of a subset
    is the disjoint union of the blocks of its members."""

    elements: tuple[str, ...]
    blocks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.blocks) != n:
            raise MismatchError("need one block per element")
        full = (1 << n) - 1
        union = 0
        for b in self.blocks:
            if union & b:
                raise MismatchError("blocks are not pairwise disjoint")
            union |= b
        if union != full:
            raise MismatchError("blocks do not cover the ambient set")

    @property
    def n(self) -> int:
        return len(self.elements)

    def apply_mask(self, mask: int) -> int:
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= self.blocks[i]
            mask >>= 1
            i += 1
        return out

    def apply(self, labels: Iterable[str]) -> frozenset[str]:
        return labels_of(self.elements, self.apply_mask(mask_of(self.elements, labels)))

    def owners(self) -> tuple[int, ...]:
        """owners()[y] = the unique x-index whose block contains y."""
        owner = [0] * self.n
        for i, b in enumerate(self.blocks):
            for j in range(self.n):
                if b >> j & 1:
                    owner[j] = i
        return tuple(owner)

    def table(self, gate_override: bool = False) -> "SubsetMapTable":
        return SubsetMapTable(self.elements, _span_table(self.blocks, or_),
                              gate_override=gate_override)

    def is_injective(self) -> bool:
        """Injective on P(X) iff no block is empty."""
        return all(self.blocks)

    def automorphism(self) -> dict[str, str] | None:
        """The underlying bijection x -> the element of its block, when every
        block is a singleton; None otherwise."""
        out = {}
        for i, b in enumerate(self.blocks):
            if bin(b).count("1") != 1:
                return None
            out[self.elements[i]] = self.elements[b.bit_length() - 1]
        return out


@dataclass(frozen=True)
class XorEndo:
    """An additive endomorphism of (P(X), symmetric difference) fixing X,
    stored as the GF(2) matrix columns: columns[i] is the image of {x_i}."""

    elements: tuple[str, ...]
    columns: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.columns) != n:
            raise MismatchError("need one column per element")
        full = (1 << n) - 1
        acc = 0
        for c in self.columns:
            acc ^= c
        if acc != full:
            raise MismatchError("columns must XOR to the full set (the map must fix X)")

    @property
    def n(self) -> int:
        return len(self.elements)

    def apply_mask(self, mask: int) -> int:
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out ^= self.columns[i]
            mask >>= 1
            i += 1
        return out

    def apply(self, labels: Iterable[str]) -> frozenset[str]:
        return labels_of(self.elements, self.apply_mask(mask_of(self.elements, labels)))

    def table(self, gate_override: bool = False) -> "SubsetMapTable":
        return SubsetMapTable(self.elements, _span_table(self.columns, xor),
                              gate_override=gate_override)

    def is_injective(self) -> bool:
        return _gf2_rank(self.columns) == self.n

    def automorphism(self) -> "XorEndo | None":
        """The inverse map when the matrix is invertible over GF(2); None
        otherwise."""
        rows = _transpose(self.columns, self.n)
        inv_rows = _gf2_inverse(rows, self.n)
        if inv_rows is None:
            return None
        return XorEndo(self.elements, _transpose(inv_rows, self.n))


@dataclass(frozen=True)
class SubsetMapTable:
    """An arbitrary map P(X) -> P(X) as an explicit 2^|X| table, used for
    maps extracted from linear maps before their structure is known.
    ``gate_override`` lifts the |X| <= SUBSET_TABLE_CAP gate; it is not
    stored."""

    elements: tuple[str, ...]
    table: tuple[int, ...]
    gate_override: InitVar[bool] = False

    def __post_init__(self, gate_override: bool):
        n = len(self.elements)
        if n > SUBSET_TABLE_CAP and not gate_override:
            raise GateError(
                f"subset table needs 2^{n} entries; cap is |X| <= {SUBSET_TABLE_CAP}",
                size=1 << n)
        if len(self.table) != 1 << n:
            raise MismatchError(f"table must have 2^{n} entries")

    @property
    def n(self) -> int:
        return len(self.elements)

    def apply_mask(self, mask: int) -> int:
        return self.table[mask]

    def apply(self, labels: Iterable[str]) -> frozenset[str]:
        return labels_of(self.elements, self.table[mask_of(self.elements, labels)])


AnyEndo = Union[PartitionEndo, XorEndo, SubsetMapTable]


def _span_table(images: tuple[int, ...], combine) -> tuple[int, ...]:
    """The image of every mask of a map that ``combine``s (``or_`` or
    ``xor``) the images of the singletons, by doubling: the images of the
    masks below ``1 << (k + 1)`` are those below ``1 << k``, then the same
    images combined with ``images[k]``."""
    t = [0]
    for c in images:
        t += [v ^ c for v in t] if combine is xor else [v | c for v in t]
    return tuple(t)


# GF(2) linear algebra on bitmask rows ------------------------------------

def _transpose(masks: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(
        sum(((masks[j] >> i) & 1) << j for j in range(n)) for i in range(n)
    )


def _gf2_rank(masks: tuple[int, ...]) -> int:
    rank = 0
    basis: list[int] = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
            rank += 1
    return rank


def _gf2_inverse(rows: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    work = list(rows)
    aug = [1 << i for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r] >> col & 1), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and work[r] >> col & 1:
                work[r] ^= work[col]
                aug[r] ^= aug[col]
    return tuple(aug)


# structural predicates ------------------------------------------------------

def is_separating(table: SubsetMapTable) -> bool:
    """Disjoint subsets always map to disjoint subsets.

    With below[S] the union of t[B] over all subsets B of S, some B disjoint
    from A has an image meeting t[A] exactly when t[A] meets below[X - A];
    so the map is separating iff t[A] & below[X - A] = 0 for every A.
    below is built by n subset-OR passes (pass i ORs below[S - {x_i}] into
    below[S] for every S containing x_i): O(n 2^n) work instead of a scan
    of the 3^n disjoint pairs.
    """
    t = table.table
    below = list(t)
    for i in range(table.n):
        bit = 1 << i
        below = [b | below[s ^ bit] if s & bit else b for s, b in enumerate(below)]
    # the mask of X - A is full - A, so reversed(below) lists below[X - A]
    # in the mask order of A
    return not any(map(and_, t, reversed(below)))


def is_boolean_endo(table: SubsetMapTable, gate_override: bool = False) -> bool:
    """Fixes X, commutes with complement, and preserves intersections.

    Such a map t also preserves unions, since A | B is the complement of
    (X - A) & (X - B), and it sends {} = X - X to X - t[X] = {}. So t[A] is
    the union of the singleton images t[{x}], x in A; these are pairwise
    disjoint (t[{x}] & t[{y}] = t[{}] = {}) and cover X (their union is
    t[X] = X). Conversely, the table of a partition of X has all three
    laws. The test is therefore: singleton images pairwise disjoint and
    covering X (the blocks ``PartitionEndo`` accepts), and the table equal
    to that partition's table. That is O(2^n) work instead of a scan of the
    4^n intersection pairs. ``gate_override`` lifts the gate of the
    partition's table, as it lifted the input's.
    """
    try:
        endo = PartitionEndo(table.elements,
                             tuple(table.table[1 << i] for i in range(table.n)))
    except MismatchError:
        return False
    return endo.table(gate_override) == table


def to_partition(table: SubsetMapTable, gate_override: bool = False) -> PartitionEndo:
    """Recover the partition normal form of a Boolean-algebra endomorphism:
    the blocks are the images of singletons, whose table ``is_boolean_endo``
    has already compared with the input."""
    if not is_boolean_endo(table, gate_override=gate_override):
        raise ClassificationError(
            "lb-preserves-diff-and-cap",
            "table is not a Boolean algebra endomorphism of P(X)")
    return PartitionEndo(table.elements,
                         tuple(table.table[1 << i] for i in range(table.n)))


def to_xor_endo(table: SubsetMapTable, gate_override: bool = False) -> XorEndo:
    """Recover the GF(2)-matrix normal form of an additive map fixing X."""
    n = table.n
    full = (1 << n) - 1
    columns = tuple(table.table[1 << i] for i in range(n))
    acc = 0
    for c in columns:
        acc ^= c
    if table.table[full] != full or acc != full:
        raise ClassificationError(
            "lb-prese-symm-diff",
            "table does not fix X, or its singleton images do not combine to X")
    endo = XorEndo(table.elements, columns)
    additive = endo.table(gate_override).table
    if additive != table.table:
        m = next(m for m, (a, b) in enumerate(zip(additive, table.table)) if a != b)
        raise ClassificationError(
            "lb-prese-symm-diff",
            "table is not additive over symmetric difference",
            witness=f"A = {{{', '.join(sorted(labels_of(table.elements, m)))}}}")
    return endo


def enumerate_endos(elements: tuple[str, ...], regime: str,
                    gate_override: bool = False) -> Iterator[AnyEndo]:
    """Stream every endomorphism in the given normal form.

    ``boolean`` streams all PartitionEndos (one per function X -> X);
    ``xor`` streams all XorEndos (all GF(2) matrices fixing the all-ones
    vector).
    """
    n = len(elements)
    if n > ENUMERATION_CAP and not gate_override:
        raise GateError(
            f"endomorphism stream over |X| = {n}; cap is |X| <= {ENUMERATION_CAP}",
            size=n**n if regime == "boolean" else 1 << (n * (n - 1)))
    if regime == "boolean":
        for owner in product(range(n), repeat=n):
            blocks = [0] * n
            for y, x in enumerate(owner):
                blocks[x] |= 1 << y
            yield PartitionEndo(elements, tuple(blocks))
    elif regime == "xor":
        full = (1 << n) - 1
        if n == 1:
            yield XorEndo(elements, (1,))
            return
        for head in product(range(1 << n), repeat=n - 1):
            last = full
            for c in head:
                last ^= c
            yield XorEndo(elements, head + (last,))
    else:
        raise ValueError(f"unknown regime: {regime!r} (expected 'boolean' or 'xor')")


# text format ---------------------------------------------------------------

def _parse_block(token: str, elements: tuple[str, ...], what: str) -> tuple[str, int]:
    lhs, sep, rhs = token.partition("->")
    if not sep or not rhs.startswith("{") or not rhs.endswith("}"):
        raise ParseError(f"bad {what} entry: {token!r} (expected x->{{a,b}})")
    inner = rhs[1:-1].strip()
    labels = [t.strip() for t in inner.split(",")] if inner else []
    try:
        return lhs, mask_of(elements, labels)
    except MismatchError as exc:
        raise ParseError(str(exc)) from None


def parse_endo_line(line: str, elements: tuple[str, ...]) -> AnyEndo:
    """Parse ``lambda: a->{a,b} b->{}`` or ``xor-lambda: a->{a} b->{a,b}``."""
    line = line.strip()
    if line.startswith("lambda:"):
        kind, body = "lambda", line[len("lambda:"):]
    elif line.startswith("xor-lambda:"):
        kind, body = "xor-lambda", line[len("xor-lambda:"):]
    else:
        raise ParseError(f"expected 'lambda:' or 'xor-lambda:' line, got {line!r}")
    images: dict[str, int] = {}
    for token in body.split():
        lbl, mask = _parse_block(token, elements, kind)
        if lbl in images:
            raise ParseError(f"duplicate {kind} entry for {lbl!r}")
        images[lbl] = mask
    missing = [x for x in elements if x not in images]
    if missing:
        raise ParseError(f"{kind} line misses elements: {' '.join(missing)}")
    extra = [x for x in images if x not in elements]
    if extra:
        raise ParseError(f"{kind} line names unknown elements: {' '.join(extra)}")
    masks = tuple(images[x] for x in elements)
    try:
        if kind == "lambda":
            return PartitionEndo(elements, masks)
        return XorEndo(elements, masks)
    except MismatchError as exc:
        raise ParseError(str(exc)) from None


def format_endo(endo: PartitionEndo | XorEndo) -> str:
    prefix = "lambda" if isinstance(endo, PartitionEndo) else "xor-lambda"
    masks = endo.blocks if isinstance(endo, PartitionEndo) else endo.columns
    entries = []
    for x, m in zip(endo.elements, masks):
        inside = ",".join(x for i, x in enumerate(endo.elements) if m >> i & 1)
        entries.append(f"{x}->{{{inside}}}")
    return f"{prefix}: " + " ".join(entries)


def endo_to_json(endo: PartitionEndo | XorEndo) -> dict:
    if isinstance(endo, PartitionEndo):
        kind, masks, key = "partition", endo.blocks, "blocks"
    else:
        kind, masks, key = "xor", endo.columns, "columns"
    return {
        "kind": kind,
        key: {
            x: [y for i, y in enumerate(endo.elements) if m >> i & 1]
            for x, m in zip(endo.elements, masks)
        },
    }
