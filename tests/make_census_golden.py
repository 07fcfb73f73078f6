"""Write ``tests/data/census_golden.json``: the sha256 of full census
reports, which ``test_census_golden.py`` replays.

    PYTHONPATH=src python tests/make_census_golden.py

Each entry names a census instance, its survivor count and the sha256 of
its ``CensusReport.to_json()`` without ``elapsed_seconds`` (a timing, not
output), serialised with sorted keys and no spaces. The instances are the
F2 censuses chain:2, antichain:3 and v: v has radical coordinates (m = 2),
so its records' ``bijective`` field reads the rank of maps with radical
rows, and its 16,384 survivors take a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from incalg import PrimeField, builtin_poset, enumerate_preservers

OUT = Path(__file__).resolve().parent / "data" / "census_golden.json"
INSTANCES = [("chain:2", 2), ("antichain:3", 2), ("v", 2)]


def census_sha256(doc: dict) -> str:
    body = {k: v for k, v in doc.items() if k != "elapsed_seconds"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entries() -> list[dict]:
    entries = []
    for name, p in INSTANCES:
        doc = enumerate_preservers(builtin_poset(name), PrimeField(p)).to_json()
        entries.append({"poset": name, "p": p, "survivors": len(doc["maps"]),
                        "sha256": census_sha256(doc)})
    return entries


if __name__ == "__main__":
    OUT.write_text(json.dumps(golden_entries(), indent=1) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
