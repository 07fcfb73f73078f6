"""``analyze_map`` reports, verdicts and witnesses (the ``jordan`` witness
pair included), equal to the ones pinned in ``data/check_golden.json`` by
``make_check_golden.py``."""

import json
from pathlib import Path

import pytest

from incalg import analyze_map, parse_linear_map

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "check_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"{e['seed']}-{e['kind']}")
def test_analyze_map_matches_golden(entry):
    report = analyze_map(parse_linear_map(entry["map"]))
    assert json.loads(json.dumps(report)) == entry["report"]


def test_golden_covers_every_kind_of_verdict():
    seen = {(e["report"]["field"], e["kind"]) for e in GOLDEN}
    assert len(seen) == 3 * 6
    jordan = [e["report"]["verdicts"]["jordan"] for e in GOLDEN]
    assert True in jordan and False in jordan
    assert any("jordan" in e["report"]["witnesses"] for e in GOLDEN)
