"""``incalg classify --json`` runs (exit code, normal form or refuting law
with its message and witness, stderr) equal to the ones pinned in
``data/classify_golden.json`` by ``make_classify_golden.py``."""

import json
from pathlib import Path

import pytest

from make_classify_golden import classify_run

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "classify_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"{e['seed']}-{e['kind']}")
def test_classify_matches_golden(entry):
    run = classify_run(entry["map"])
    assert {k: run[k] for k in ("exit", "report", "stderr")} == {
        k: entry[k] for k in ("exit", "report", "stderr")}


def test_golden_covers_acceptance_and_refutation_on_every_field():
    seen = {(e["map"].split("\n")[1], e["exit"]) for e in GOLDEN}
    assert seen == {(f"field: {f}", code) for f in ("Fp 2", "Fp 3", "Q") for code in (0, 1)}
