"""Write ``tests/data/classify_golden.json``: the ``incalg classify --json``
runs on the maps of ``make_check_golden.py``, which
``test_classify_golden.py`` replays.

    PYTHONPATH=src python tests/make_classify_golden.py

Each entry holds the map in the map file format, the exit code, the JSON
report (the normal form, or the refuting law, message and witness) and what
the run wrote to stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from incalg import format_linear_map
from incalg.cli import main
from make_check_golden import golden_maps

OUT = Path(__file__).resolve().parent / "data" / "classify_golden.json"


def classify_run(map_text: str) -> dict:
    """Run ``incalg classify --json`` on a map file holding ``map_text``."""
    with tempfile.TemporaryDirectory() as tmp:
        map_path, out_path = Path(tmp) / "map.txt", Path(tmp) / "out.json"
        map_path.write_text(map_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["classify", "--map", str(map_path), "--json",
                         "--out", str(out_path)])
        report = json.loads(out_path.read_text()) if out_path.exists() else None
    return {"exit": code, "report": report, "stderr": err.getvalue()}


def golden_entries() -> list[dict]:
    entries = []
    for seed, kind, phi in golden_maps():
        text = format_linear_map(phi)
        entries.append({"seed": seed, "kind": kind, "map": text, **classify_run(text)})
    return entries


if __name__ == "__main__":
    OUT.write_text(json.dumps(golden_entries(), indent=1) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
