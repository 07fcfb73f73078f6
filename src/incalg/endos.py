"""Endomorphisms of the power set P(X) of a finite ambient set X.

Subsets are int bitmasks over a fixed ordered tuple of element labels. Two
normal forms are implemented: Boolean-algebra endomorphisms as partitions of
X (the block of x is the image of the singleton {x}), and additive
endomorphisms of (P(X), symmetric difference) fixing X as GF(2) matrices,
stored by columns; both are read off their singleton images. Arbitrary
maps P(X) -> P(X) are held as explicit tables until their structure is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import and_
from typing import Iterable, Iterator, Union

from .errors import ClassificationError, MismatchError, ParseError


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


class _SingletonImageEndo:
    """What both normal forms answer alike from ``images`` (``images[i]`` is
    the image of {x_i}): a subset maps to the XOR of its members' images,
    which for a partition's disjoint blocks is their union."""

    @property
    def n(self) -> int:
        return len(self.elements)

    def apply_mask(self, mask: int) -> int:
        out = 0
        for i, image in enumerate(self.images):
            if mask >> i & 1:
                out ^= image
        return out

    def apply(self, labels: Iterable[str]) -> frozenset[str]:
        return labels_of(self.elements, self.apply_mask(mask_of(self.elements, labels)))

    def is_injective(self) -> bool:
        """Injective on P(X) iff the singleton images are independent over
        GF(2); for a partition, iff no block is empty."""
        return _gf2_rank(self.images) == self.n


@dataclass(frozen=True)
class PartitionEndo(_SingletonImageEndo):
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

    @classmethod
    def from_owners(cls, elements: tuple[str, ...], owners: Iterable[int]) -> "PartitionEndo":
        """The partition of a function X -> X: y lies in the block of
        ``owners[y]``."""
        blocks = [0] * len(elements)
        for y, x in enumerate(owners):
            blocks[x] |= 1 << y
        return cls(elements, tuple(blocks))

    @property
    def images(self) -> tuple[int, ...]:
        return self.blocks

    def owners(self) -> tuple[int, ...]:
        """owners()[y] = the unique x-index whose block contains y."""
        owner = [0] * self.n
        for i, b in enumerate(self.blocks):
            for j in range(self.n):
                if b >> j & 1:
                    owner[j] = i
        return tuple(owner)

    # kept per class: perfbench/tracer.py wraps each form's table via its __dict__
    def table(self) -> "SubsetMapTable":
        return SubsetMapTable(self.elements, _span_table(self.blocks))

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
class XorEndo(_SingletonImageEndo):
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
            if c & ~full:
                raise MismatchError("a column is not a subset of the ambient set")
            acc ^= c
        if acc != full:
            raise MismatchError("columns must XOR to the full set (the map must fix X)")

    @classmethod
    def from_head(cls, elements: tuple[str, ...], head: Iterable[int]) -> "XorEndo":
        """The columns ``head``, then the last one, which completes their XOR
        to X (with no elements there is no column)."""
        head = tuple(head)
        last = (1 << len(elements)) - 1
        for c in head:
            last ^= c
        return cls(elements, head + (last,) if elements else head)

    @property
    def images(self) -> tuple[int, ...]:
        return self.columns

    # kept per class: perfbench/tracer.py wraps each form's table via its __dict__
    def table(self) -> "SubsetMapTable":
        return SubsetMapTable(self.elements, _span_table(self.columns))

    def automorphism(self) -> "XorEndo | None":
        """The inverse map when the matrix is invertible over GF(2); None
        otherwise. Read as rows, the columns are A^T, whose inverse
        (A^-1)^T has the inverse's columns as rows."""
        inverse = _gf2_inverse(self.columns, self.n)
        return None if inverse is None else XorEndo(self.elements, inverse)


@dataclass(frozen=True)
class SubsetMapTable:
    """An arbitrary map P(X) -> P(X) as an explicit 2^|X| table, used for
    maps extracted from linear maps before their structure is known."""

    elements: tuple[str, ...]
    table: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
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


def _span_table(images: tuple[int, ...]) -> tuple[int, ...]:
    """The table of ``apply_mask`` for the singleton images ``images``,
    built by doubling: the images of the masks below ``1 << (k + 1)`` are
    those below ``1 << k``, then the same images XORed with ``images[k]``.
    Both normal forms share it, since a partition's blocks are pairwise
    disjoint and XOR is then their union."""
    t = [0]
    for c in images:
        t += [v ^ c for v in t]
    return tuple(t)


# GF(2) linear algebra on bitmask rows ------------------------------------

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


def is_boolean_endo(table: SubsetMapTable) -> bool:
    """Fixes X, commutes with complement, and preserves intersections.

    Such a map t also preserves unions, since A | B is the complement of
    (X - A) & (X - B), and it sends {} = X - X to X - t[X] = {}. So t[A] is
    the union of the singleton images t[{x}], x in A; these are pairwise
    disjoint (t[{x}] & t[{y}] = t[{}] = {}) and cover X (their union is
    t[X] = X). Conversely, the table of a partition of X has all three
    laws. The test is therefore: singleton images pairwise disjoint and
    covering X (the blocks ``PartitionEndo`` accepts), and the table equal
    to that partition's table. That is O(2^n) work instead of a scan of the
    4^n intersection pairs.
    """
    try:
        endo = PartitionEndo(table.elements,
                             tuple(table.table[1 << i] for i in range(table.n)))
    except MismatchError:
        return False
    return endo.table() == table


def to_partition(table: SubsetMapTable) -> PartitionEndo:
    """Recover the partition normal form of a Boolean-algebra endomorphism:
    the blocks are the images of singletons, whose table ``is_boolean_endo``
    has already compared with the input."""
    if not is_boolean_endo(table):
        raise ClassificationError(
            "lb-preserves-diff-and-cap",
            "table is not a Boolean algebra endomorphism of P(X)")
    return PartitionEndo(table.elements,
                         tuple(table.table[1 << i] for i in range(table.n)))


def to_xor_endo(table: SubsetMapTable) -> XorEndo:
    """Recover the GF(2)-matrix normal form of an additive map fixing X:
    the columns are the images of singletons, which ``XorEndo`` requires to
    XOR to X, and the table must equal their span."""
    full = (1 << table.n) - 1
    try:
        endo = XorEndo(table.elements, tuple(table.table[1 << i] for i in range(table.n)))
    except MismatchError:
        endo = None
    if endo is None or table.table[full] != full:
        raise ClassificationError(
            "lb-prese-symm-diff",
            "table does not fix X, or its singleton images do not combine to X")
    additive = _span_table(endo.columns)
    if additive != table.table:
        m = next(m for m, (a, b) in enumerate(zip(additive, table.table)) if a != b)
        raise ClassificationError(
            "lb-prese-symm-diff",
            "table is not additive over symmetric difference",
            witness=f"A = {{{', '.join(sorted(labels_of(table.elements, m)))}}}")
    return endo


def enumerate_endos(elements: tuple[str, ...], regime: str) -> Iterator[AnyEndo]:
    """Stream every endomorphism in the given normal form, lazily.

    ``boolean`` streams all PartitionEndos, one per function X -> X (its
    owners); ``xor`` streams all XorEndos, one per choice of every column
    but the last (the last completes the XOR to X, so the map fixes X).
    """
    n = len(elements)
    if regime == "boolean":
        for owners in product(range(n), repeat=n):
            yield PartitionEndo.from_owners(elements, owners)
    elif regime == "xor":
        for head in product(range(1 << n), repeat=max(n - 1, 0)):
            yield XorEndo.from_head(elements, head)
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
    entries = []
    for x, m in zip(endo.elements, endo.images):
        inside = ",".join(x for i, x in enumerate(endo.elements) if m >> i & 1)
        entries.append(f"{x}->{{{inside}}}")
    return f"{prefix}: " + " ".join(entries)


def endo_to_json(endo: PartitionEndo | XorEndo, labels=None) -> dict:
    """The kind of ``endo`` and each element's image as a list of labels;
    ``labels(mask)``, when given, makes that list (a census report's memo)."""
    kind, key = (("partition", "blocks") if isinstance(endo, PartitionEndo)
                 else ("xor", "columns"))
    if labels is None:
        def labels(m: int) -> list[str]:
            return [y for i, y in enumerate(endo.elements) if m >> i & 1]
    return {"kind": kind, key: {x: labels(m) for x, m in zip(endo.elements, endo.images)}}
