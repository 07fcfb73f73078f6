"""Full census reports, every record included, equal to the ones pinned in
``data/census_golden.json`` by ``make_census_golden.py``."""

import json
from pathlib import Path

import pytest

from incalg import PrimeField, builtin_poset, enumerate_preservers

from make_census_golden import census_sha256

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "census_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"{e['poset']}/Fp{e['p']}")
def test_census_matches_golden(entry):
    doc = enumerate_preservers(builtin_poset(entry["poset"]), PrimeField(entry["p"])).to_json()
    assert len(doc["maps"]) == entry["survivors"]
    assert census_sha256(doc) == entry["sha256"]
