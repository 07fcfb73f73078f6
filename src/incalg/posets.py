"""Finite posets: validation, strict pairs, duality, connectivity, chain length.

A poset is built from generating relations; the reflexive-transitive closure
is computed, and every poset is checked at construction to be reflexive,
antisymmetric and transitive. The element order fixed at construction
determines every downstream basis order: first the diagonal pairs ``(x, x)``
in element order, then the strict pairs ``(x, y)``, ``x < y``, sorted
lexicographically by element index.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Sequence

from .errors import GateError, ParseError, PosetError

ALGEBRA_SIZE_CAP = 16  # pair tables beyond this make the exhaustive oracles useless

_LABEL_RE = re.compile(r"^[A-Za-z0-9_]+$")


class Poset:
    """An immutable finite poset with a fixed element enumeration."""

    def __init__(self, elements: Sequence[str], leq: Sequence[Sequence[bool]],
                 name: str | None = None):
        self.elements: tuple[str, ...] = tuple(elements)
        self.n = len(self.elements)
        self.leq: tuple[tuple[bool, ...], ...] = tuple(tuple(map(bool, row)) for row in leq)
        self.name = name
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._check_partial_order()

    def _check_partial_order(self):
        """Raise :class:`PosetError` unless the labels are distinct and
        well formed, and ``leq`` is an n x n reflexive, antisymmetric and
        transitive relation."""
        n, leq, elements = self.n, self.leq, self.elements
        for i, x in enumerate(elements):
            if not isinstance(x, str) or not _LABEL_RE.match(x):
                raise PosetError(f"bad element label: {x!r}")
            if self._index[x] != i:
                raise PosetError(f"duplicate element label: {x!r}")
        if len(leq) != n or any(len(row) != n for row in leq):
            raise PosetError(f"order relation must be a {n}x{n} matrix")
        for i in range(n):
            if not leq[i][i]:
                raise PosetError(f"not reflexive: {elements[i]} <= {elements[i]} fails")
            for j in range(i + 1, n):
                if leq[i][j] and leq[j][i]:
                    raise PosetError(
                        f"cycle: {elements[i]} and {elements[j]} are mutually comparable")
        for i in range(n):
            for k in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j] and not leq[i][j]:
                            raise PosetError(
                                f"not transitive: {elements[i]} <= {elements[k]} <= "
                                f"{elements[j]} but not {elements[i]} <= {elements[j]}")

    @classmethod
    def from_relations(cls, elements: Sequence[str],
                       pairs: Iterable[tuple[str, str]],
                       name: str | None = None) -> "Poset":
        """Build the poset generated by ``pairs`` (any generating relations).

        Computes the reflexive-transitive closure; the constructor rejects
        duplicate or malformed labels and cycles (antisymmetry violations).
        """
        elements = list(elements)
        index = {x: i for i, x in enumerate(elements)}
        n = len(elements)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for x, y in pairs:
            for lbl in (x, y):
                if lbl not in index:
                    raise PosetError(f"relation uses unknown element: {lbl!r}")
            leq[index[x]][index[y]] = True
        # Warshall closure
        for k in range(n):
            row_k = leq[k]
            for i in range(n):
                if leq[i][k]:
                    row_i = leq[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        return cls(elements, leq, name=name)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PosetError(f"unknown element: {label!r}") from None

    def less_equal(self, x: str, y: str) -> bool:
        return self.leq[self.index(x)][self.index(y)]

    @cached_property
    def strict_pairs(self) -> tuple[tuple[str, str], ...]:
        """All pairs (x, y) with x < y, lexicographic by element index."""
        return tuple(
            (self.elements[i], self.elements[j])
            for i in range(self.n)
            for j in range(self.n)
            if i != j and self.leq[i][j]
        )

    @cached_property
    def basis_pairs(self) -> tuple[tuple[str, str], ...]:
        """Canonical basis order: diagonal pairs first, then strict pairs."""
        _check_size(str(self.n))
        return tuple((x, x) for x in self.elements) + self.strict_pairs

    @cached_property
    def pair_index(self) -> dict[tuple[str, str], int]:
        return {pair: k for k, pair in enumerate(self.basis_pairs)}

    @cached_property
    def dimension(self) -> int:
        """dim I(X,K) = |X| + number of strict pairs."""
        return len(self.basis_pairs)

    @cached_property
    def convolution_plan(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each output pair (x, y), the coefficient index pairs
        (index of (x, z), index of (z, y)) over all z with x <= z <= y."""
        idx = self.pair_index
        plan = []
        for (x, y) in self.basis_pairs:
            i, j = self.index(x), self.index(y)
            terms = tuple(
                (idx[(x, self.elements[k])], idx[(self.elements[k], y)])
                for k in range(self.n)
                if self.leq[i][k] and self.leq[k][j]
            )
            plan.append(terms)
        return tuple(plan)

    @cached_property
    def longest_chain(self) -> int:
        """Maximum number of elements in a totally ordered subset."""
        memo: dict[int, int] = {}

        def height(i: int) -> int:
            if i not in memo:
                memo[i] = 1 + max(
                    (height(j) for j in range(self.n) if j != i and self.leq[i][j]),
                    default=0,
                )
            return memo[i]

        return max((height(i) for i in range(self.n)), default=0)

    def is_connected(self) -> bool:
        """True iff the comparability graph has a single component."""
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(self.n):
                if j not in seen and (self.leq[i][j] or self.leq[j][i]):
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n

    def dual(self) -> "Poset":
        """Same elements, reversed relation."""
        n = self.n
        rev = [[self.leq[j][i] for j in range(n)] for i in range(n)]
        name = f"dual({self.name})" if self.name else None
        return Poset(self.elements, rev, name=name)

    @cached_property
    def covering_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs x < y with nothing strictly between (the Hasse diagram)."""
        covers = []
        for (x, y) in self.strict_pairs:
            i, j = self.index(x), self.index(y)
            if not any(
                k != i and k != j and self.leq[i][k] and self.leq[k][j]
                for k in range(self.n)
            ):
                covers.append((x, y))
        return tuple(covers)

    @property
    def display_name(self) -> str:
        return self.name or f"poset[{' '.join(self.elements)}]"

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Poset)
            and other.elements == self.elements
            and other.leq == self.leq
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.leq))

    def __repr__(self) -> str:
        return f"Poset({self.display_name}, n={self.n})"


def _check_size(digits: str) -> None:
    """Refuse a poset of more than ``ALGEBRA_SIZE_CAP`` elements from the
    decimal digits of its size, so that no label, order or long ``int`` is
    built first. A size of more than 24 digits is shown shortened, as
    scalar literals are, and carries no ``GateError.size``."""
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(ALGEBRA_SIZE_CAP)) and int(digits) <= ALGEBRA_SIZE_CAP:
        return
    short = len(digits) <= 24
    raise GateError(f"poset too large for algebra construction: "
                    f"{digits if short else digits[:20] + '...'} elements "
                    f"> cap {ALGEBRA_SIZE_CAP}", size=int(digits) if short else None)


def builtin_poset(spec: str) -> Poset:
    """Named built-ins: ``chain:n``, ``antichain:n``, ``v``, ``diamond``."""
    if spec == "v":
        return Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")], name="v")
    if spec == "diamond":
        return Poset.from_relations(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            name="diamond",
        )
    m = re.fullmatch(r"(chain|antichain):([0-9]+)", spec)
    if m:
        _check_size(m.group(2))
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise PosetError(f"builtin poset needs at least one element: {spec!r}")
        labels = [str(i) for i in range(1, n + 1)]
        pairs = []
        if kind == "chain":
            pairs = [(labels[i], labels[i + 1]) for i in range(n - 1)]
        return Poset.from_relations(labels, pairs, name=spec)
    raise PosetError(f"unknown builtin poset: {spec!r}")


def parse_poset(text: str, name: str | None = None) -> Poset:
    """Parse the poset file format::

        poset
        elements: a b c
        relations: a<b b<c
    """
    elements: list[str] | None = None
    pairs: list[tuple[str, str]] = []
    saw_header = False
    saw_relations = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "poset":
                raise ParseError("expected 'poset' header", lineno)
            saw_header = True
        elif line.startswith("elements:"):
            if elements is not None:
                raise ParseError("duplicate 'elements:' line", lineno)
            elements = line[len("elements:"):].split()
        elif line.startswith("relations:"):
            saw_relations = True
            for token in line[len("relations:"):].split():
                if "<" not in token:
                    raise ParseError(f"bad relation token {token!r} (expected x<y)", lineno)
                x, _, y = token.partition("<")
                pairs.append((x, y))
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    if not saw_header:
        raise ParseError("empty poset file", 1)
    if elements is None:
        raise ParseError("missing 'elements:' line", 1)
    if not saw_relations:
        raise ParseError("missing 'relations:' line", 1)
    _check_size(str(len(elements)))
    try:
        return Poset.from_relations(elements, pairs, name=name)
    except PosetError as exc:
        raise ParseError(str(exc)) from None


def format_poset(poset: Poset) -> str:
    """Serialize with covering relations; parses back to an equal poset."""
    rel = " ".join(f"{x}<{y}" for x, y in poset.covering_pairs)
    return f"poset\nelements: {' '.join(poset.elements)}\nrelations: {rel}".rstrip() + "\n"


def resolve_poset(spec: str) -> Poset:
    """Resolve a builtin literal (``chain:2`` ...), a poset file path, or
    ``dual(<reference>)``, tried in that order. Nested ``dual(`` prefixes
    are unwrapped in a loop, so any depth resolves; an error names the
    innermost reference.

    The resolved poset keeps the reference string as its name, so files
    that mention it serialize back to the same reference: ``Poset.dual``
    names the dual of ``v`` as ``dual(v)``.
    """
    import os

    # no builtin starts with "dual(", so only a file can precede the unwrap
    ref, duals = spec, 0
    while ref.startswith("dual(") and ref.endswith(")") and not os.path.exists(ref):
        ref, duals = ref[len("dual("):-1], duals + 1
    try:
        poset = builtin_poset(ref)
    except PosetError:
        if not os.path.exists(ref):
            raise PosetError(f"not a builtin poset and not a file: {ref!r}") from None
        with open(ref, encoding="utf-8") as fh:
            poset = parse_poset(fh.read(), name=ref)
    for _ in range(duals):
        poset = poset.dual()
    return poset
