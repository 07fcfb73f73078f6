"""The README's examples, run as written: the library snippet prints what its
comments say, and every CLI example exits 0. The README's gate table states
the caps in the code."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from incalg.cli import main
from incalg.posets import ALGEBRA_SIZE_CAP
from incalg.preservers import SCAN_CAP
from incalg.verify import CENSUS_SPACE_CAP

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
FILES = ("m.txt", "spec.txt")


def block(lang: str, first_line: str) -> str:
    """The fenced block of the given language whose text starts with
    ``first_line``."""
    return next(text for kind, text in BLOCKS
                if kind == lang and text.startswith(first_line))


def cli_examples() -> list[list[str]]:
    """The ``incalg`` lines of the CLI block, comments cut, as argv lists."""
    lines = block("sh", "# brute-force census").splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in lines if line.startswith("incalg ")]


def test_python_block_prints_its_comments():
    code = block("python", "from incalg import")
    expected = [line.split("#", 1)[1].split(" -> ")[0].strip()
                for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


FILE_FREE = [argv for argv in cli_examples() if not any(f in argv for f in FILES)]


def test_cli_block_has_the_file_free_examples():
    assert [argv[0] for argv in FILE_FREE] == [
        "census", "lemmas", "lemmas", "inverse-suite", "examples", "examples"]


@pytest.mark.parametrize("argv", FILE_FREE, ids=" ".join)
def test_file_free_cli_example_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_cli_examples_on_the_readme_spec(tmp_path, monkeypatch, capsys):
    """The README's spec file, built into ``m.txt`` by the ``build`` line,
    then run through ``criteria``, ``classify`` and ``check``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.txt").write_text(block("", "preserver-spec\n"), encoding="utf-8")
    by_verb = {argv[0]: argv for argv in cli_examples() if argv not in FILE_FREE}
    assert list(by_verb) == ["classify", "check", "build", "criteria"]
    for verb in ("build", "criteria", "classify", "check"):
        assert main(by_verb[verb]) == 0, verb
        assert capsys.readouterr().err == ""
    assert (tmp_path / "m.txt").read_text(encoding="utf-8").startswith("map\n")


def power_of_ten(cap: int) -> str:
    """``10^k`` for a cap of exactly 10**k."""
    k = len(str(cap)) - 1
    assert cap == 10**k, cap
    return f"10^{k}"


def test_gate_table_states_the_caps():
    """Each row of the gate table, rebuilt from the cap constants it names,
    so a gate changed in code without its row fails here."""
    scan = power_of_ten(SCAN_CAP)
    expected = [
        ("operation", "gate"),
        ("algebra construction", f"`n <= {ALGEBRA_SIZE_CAP}`"),
        ("preserver / strongness scans", f"`(q-1)^n`, `q^n <= {scan}` patterns"),
        ("inverse-preservation scan", f"`(q-1)^n q^(d-n) <= {scan}` units"),
        ("idempotent scan", f"`q^d <= {scan}`"),
        ("lemma partition law", f"`<= {scan}` partitions into `<= q` blocks"),
        ("randomized lemma suite", f"`trials <= {scan}`"),
        ("census", f"`q^(d^2) <= {power_of_ten(CENSUS_SPACE_CAP)}`, and `(q-1)^n`, "
                   f"`q^n <= {scan}` for the per-survivor scans"),
    ]
    section = README.split("## Decision procedures and gates\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| (.+?) +\| (.+?) +\|$", section, flags=re.M) == expected
