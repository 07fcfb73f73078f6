"""Write ``tests/data/check_golden.json``: seeded maps and their
``analyze_map`` reports, which ``test_check_golden.py`` replays.

    PYTHONPATH=src python tests/make_check_golden.py

Each entry holds the map in the map file format and the report the library
gave for it when the file was written. The maps cover F2, F3 and Q on
chain:3, v, diamond and antichain:3: valid preservers, late refutations (a
diagonal row reading a radical column), early refutations (a diagonal-block
column with a value outside {0, 1}), non-unital maps, and Jordan
automorphisms and anti-automorphisms (conjugation by a random unit, after a
poset automorphism or the order reversal of a self-dual poset), both exact
and with one entry changed.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from incalg import (
    FIElement,
    LinearMap,
    PrimeField,
    Rationals,
    analyze_map,
    build_preserver,
    builtin_poset,
    format_linear_map,
    random_preserver_spec,
)
from incalg.algebra import basis_element

OUT = Path(__file__).resolve().parent / "data" / "check_golden.json"
FIELDS = [PrimeField(2), PrimeField(3), Rationals()]
POSETS = ["chain:3", "v", "diamond", "antichain:3"]
# (relabelling, reverses the order) per poset: an automorphism, and the
# order reversal where the poset is self-dual
SYMMETRIES = {
    "chain:3": [({"1": "1", "2": "2", "3": "3"}, False),
                ({"1": "3", "2": "2", "3": "1"}, True)],
    "v": [({"a": "b", "b": "a", "c": "c"}, False)],
    "diamond": [({"a": "a", "b": "c", "c": "b", "d": "d"}, False),
                ({"a": "d", "b": "b", "c": "c", "d": "a"}, True)],
    "antichain:3": [({"1": "2", "2": "3", "3": "1"}, False)],
}
KINDS = ["preserver", "late", "early", "nonunital", "jordan", "jordan-changed"]


def _value(field, rng: random.Random, nonzero: bool = False):
    while True:
        if isinstance(field, PrimeField):
            v = rng.randrange(field.p)
        else:
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if v or not nonzero:
            return v


def _jordan_map(poset, field, rng: random.Random) -> LinearMap:
    """a -> u s(a) u^-1, with s a poset automorphism or the anti-automorphism
    of an order reversal, and u a random unit."""
    relabel, reverse = rng.choice(SYMMETRIES[poset.name])
    unit = FIElement.from_vector(
        poset, field, [_value(field, rng, nonzero=i < poset.n)
                       for i in range(poset.dimension)])
    inv = unit.inverse()
    images = {}
    for x, y in poset.basis_pairs:
        sx, sy = relabel[x], relabel[y]
        moved = basis_element(poset, field, *((sy, sx) if reverse else (sx, sy)))
        images[(x, y)] = unit * moved * inv
    return LinearMap.from_basis_images(poset, field, images)


def _make_map(kind: str, poset, field, rng: random.Random) -> LinearMap:
    n, d = poset.n, poset.dimension
    if kind in ("jordan", "jordan-changed"):
        phi = _jordan_map(poset, field, rng)
    else:
        phi = build_preserver(random_preserver_spec(poset, field, rng))
    rows = [list(row) for row in phi.values]
    if kind == "late" and d > n:
        rows[rng.randrange(n)][rng.randrange(n, d)] = _value(field, rng, nonzero=True)
    elif kind in ("late", "early"):
        # move c from column x to column x' in row y: the row sums stay put
        y, x = rng.randrange(n), rng.randrange(n)
        other = (x + 1 + rng.randrange(n - 1)) % n
        c = _value(field, rng, nonzero=True)
        rows[y][x] += c
        rows[y][other] -= c
    elif kind == "nonunital":
        rows[rng.randrange(n)][rng.randrange(n)] += _value(field, rng, nonzero=True)
    elif kind == "jordan-changed":
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i][j] += _value(field, rng, nonzero=True)
    return LinearMap.from_rows(poset, field, rows)


def golden_maps():
    """Yield (seed, kind, map) for every pinned map, seeds counting up from 0."""
    seed = 0
    for field in FIELDS:
        for name in POSETS:
            poset = builtin_poset(name)
            for kind in KINDS:
                yield seed, kind, _make_map(kind, poset, field, random.Random(seed))
                seed += 1


def golden_entries() -> list[dict]:
    return [{"seed": seed, "kind": kind, "map": format_linear_map(phi),
             "report": analyze_map(phi)}
            for seed, kind, phi in golden_maps()]


if __name__ == "__main__":
    OUT.write_text(json.dumps(golden_entries(), indent=1) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
