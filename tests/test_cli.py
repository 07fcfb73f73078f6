import json
import random
import sys
from pathlib import Path

import pytest

from incalg import (
    LinearMap,
    PrimeField,
    build_preserver,
    builtin_poset,
    count_from_theorem,
    enumerate_specs,
    format_linear_map,
    random_preserver_spec,
    resolve_poset,
)
from incalg.cli import main

DATA = Path(__file__).parent / "data"

SWAP_SPEC = """preserver-spec
field: Fp 3
poset: chain:2
lambda: 1->{2} 2->{1}
psi:
0 0 1
"""

IDENTITY_MAP = """map
field: Fp 3
poset: chain:2
1 0 0
0 1 0
0 0 1
"""

NON_PRESERVER_MAP = """map
field: Fp 3
poset: chain:2
1 0 1
0 1 0
0 0 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_census_verb(capsys):
    code, out = run(capsys, "census", "--poset", "chain:2", "--field", "Fp", "3")
    assert code == 0
    assert "oracle_count:  36" in out
    assert "theorem_count: 36" in out


def test_census_json(capsys):
    code, out = run(capsys, "census", "--poset", "chain:2", "--field", "Fp", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_count"] == 16
    assert report["theorem_count"] == 16
    assert report["consistent"] is True
    assert len(report["maps"]) == 16
    first = report["maps"][0]
    assert set(first) == {"index", "matrix", "lambda", "psi", "strong", "bijective"}


def test_census_partial_range(capsys):
    code, out = run(capsys, "census", "--poset", "chain:2", "--field", "Fp", "3",
                    "--start", "0", "--stop", "100", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["complete"] is False
    assert report["range"] == [0, 100]


def test_census_gate_violation_reports_size(capsys):
    code = main(["census", "--poset", "chain:3", "--field", "Fp", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert str(3**36) in captured.err  # chain:3 has d = 6, so 3^(d^2) matrices


def test_census_space_too_long_to_print_is_shown_as_a_power(capsys):
    """chain:16 over F2 has 2^(136^2) matrices, more digits than ``str``
    writes: every verb behind the census gate exits 2 and names the power."""
    for verb in ("census", "lemmas"):
        code = main([verb, "--poset", "chain:16", "--field", "Fp", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: census space 2^18496 exceeds cap 100000000\n")


@pytest.mark.parametrize("size, shown", [
    ("99999999", "99999999"), ("7" * 5000, "7" * 20 + "...")])
def test_oversized_builtin_poset_exits_two(capsys, size, shown):
    """The size of chain:n is gated from its digits, before any label is
    built or any long number is read."""
    code = main(["census", "--poset", f"chain:{size}", "--field", "Fp", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: poset too large for algebra construction: {shown} elements > cap 16\n")


def test_oversized_poset_file_exits_two(tmp_path, capsys):
    """A poset file's size is gated from its ``elements:`` line, before its
    order is closed and checked."""
    labels = [f"x{i}" for i in range(400)]
    path = tmp_path / "chain400.txt"
    path.write_text("poset\nelements: " + " ".join(labels) + "\nrelations: "
                    + " ".join(f"{x}<{y}" for x, y in zip(labels, labels[1:])) + "\n")
    code = main(["census", "--poset", str(path), "--field", "Fp", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: poset too large for algebra construction: 400 elements > cap 16\n")


def test_build_and_classify_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(SWAP_SPEC)
    map_path = tmp_path / "map.txt"
    code = main(["build", "--spec", str(spec_path), "--out", str(map_path)])
    assert code == 0
    capsys.readouterr()
    code, out = run(capsys, "classify", "--map", str(map_path))
    assert code == 0
    assert "lambda: 1->{2} 2->{1}" in out
    code, out = run(capsys, "classify", "--map", str(map_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["classified"] is True
    assert report["lambda"]["blocks"] == {"1": ["2"], "2": ["1"]}
    assert report["psi"] == [["0", "0", "1"]]


def test_classify_refutation_exits_one(tmp_path, capsys):
    map_path = tmp_path / "bad.txt"
    map_path.write_text(NON_PRESERVER_MAP)
    code, out = run(capsys, "classify", "--map", str(map_path), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["classified"] is False
    # a diagonal row reads a radical column: the rebuild refutes, as over Q
    assert report["law"] == "inv-pres-for-|K|>2"
    assert report["witness"] is None


def test_check_verb(tmp_path, capsys):
    map_path = tmp_path / "map.txt"
    map_path.write_text(IDENTITY_MAP)
    code, out = run(capsys, "check", "--map", str(map_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {
        "unital": True, "preserver": True, "strong": True,
        "inverse_preserving": True, "jordan": True}

    map_path.write_text(NON_PRESERVER_MAP)
    code, out = run(capsys, "check", "--map", str(map_path))
    assert code == 1
    assert "preserver: no" in out


def test_check_cross_checks_poset_and_field(tmp_path, capsys):
    map_path = tmp_path / "map.txt"
    map_path.write_text(IDENTITY_MAP)
    code = main(["check", "--map", str(map_path), "--field", "Q"])
    captured = capsys.readouterr()
    assert code == 2
    assert "different field" in captured.err


def test_lemmas_verb(capsys):
    code, out = run(capsys, "lemmas", "--poset", "chain:2", "--field", "Fp", "2")
    assert code == 0
    assert "0 failed" in out


def test_lemmas_randomized(capsys):
    code, out = run(capsys, "lemmas", "--poset", "chain:2", "--field", "Fp", "5",
                    "--sample", "randomized", "--seed", "3", "--trials", "5")
    assert code == 0
    assert "random spec" in out


@pytest.mark.parametrize("p", [2, 3])
def test_empty_poset_enumerates_and_samples_its_one_spec(tmp_path, capsys, p):
    """A poset file with no elements has one normal form on every field:
    ``enumerate_specs`` streams it, and the randomized lemma run passes as
    the exhaustive one does."""
    path = tmp_path / "empty.txt"
    path.write_text("poset\nelements:\nrelations:\n")
    poset, field = resolve_poset(str(path)), PrimeField(p)
    assert len(list(enumerate_specs(poset, field))) == count_from_theorem(poset, field) == 1
    for sample in ("randomized", "exhaustive"):
        code, out = run(capsys, "lemmas", "--poset", str(path), "--field", "Fp", str(p),
                        "--sample", sample)
        assert code == 0, sample
        assert "0 failed" in out


def test_deeply_nested_dual_reference_exits_cleanly(capsys):
    """2,000 ``dual(`` levels resolve without a traceback: exit 0 around a
    builtin, exit 2 naming the innermost reference around an unknown one."""
    wrap = "dual(" * 2000, ")" * 2000
    code, out = run(capsys, "census", "--poset", "chain:2".join(wrap), "--field", "Fp", "3")
    assert code == 0
    assert "oracle_count:  36" in out
    code = main(["census", "--poset", "w".join(wrap), "--field", "Fp", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: not a builtin poset and not a file: 'w'\n"


@pytest.mark.parametrize("line, message", [
    ("lambda: 1->{1,2} 2->{2}", "blocks are not pairwise disjoint"),
    ("lambda: 1->{q} 2->{2}", "label 'q' not in ambient set ('1', '2')"),
    ("psi:", "expected 'lambda:' or 'xor-lambda:' line, got 'psi:'"),
])
def test_bad_lambda_line_errors_name_their_line(tmp_path, capsys, line, message):
    path = tmp_path / "spec.txt"
    path.write_text(f"preserver-spec\nfield: Fp 3\nposet: chain:2\n{line}\npsi:\n0 0 0\n")
    code = main(["build", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: line 4: {message}\n"


def test_lemmas_randomized_without_trials_exits_two(capsys):
    for trials in ("0", "-3"):
        code = main(["lemmas", "--poset", "chain:2", "--field", "Fp", "3",
                     "--sample", "randomized", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: the randomized lemma suite needs at least "
                                f"one trial, got {trials}\n")


def test_lemmas_randomized_gates_its_trial_count(capsys, monkeypatch):
    """More trials than ``SCAN_CAP`` exit 2 with the gate message before a
    trial runs; ``--gate-override`` lifts the gate."""
    from incalg import preservers

    trials = preservers.SCAN_CAP + 1
    code = main(["lemmas", "--poset", "chain:2", "--field", "Fp", "3",
                 "--sample", "randomized", "--trials", str(trials)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: the randomized lemma suite would scan {trials} "
                            f"cases (cap {preservers.SCAN_CAP})\n")
    monkeypatch.setattr(preservers, "SCAN_CAP", 3)
    argv = ["lemmas", "--poset", "chain:2", "--field", "Fp", "3",
            "--sample", "randomized", "--trials", "4"]
    assert main(argv) == 2
    assert "randomized lemma suite would scan 4 cases (cap 3)" in capsys.readouterr().err
    code, out = run(capsys, *argv, "--gate-override")
    assert code == 0
    assert "random spec #3" in out and ", 0 failed" in out


def test_check_reads_a_map_over_a_dual_poset(tmp_path, capsys):
    """A map over ``builtin_poset("v").dual()`` is written with the poset
    ``dual(v)``, which the CLI resolves."""
    dual = builtin_poset("v").dual()
    phi = build_preserver(random_preserver_spec(dual, PrimeField(3), random.Random(1)))
    map_path = tmp_path / "map.txt"
    map_path.write_text(format_linear_map(phi))
    code, out = run(capsys, "check", "--map", str(map_path))
    assert code == 0
    assert out.startswith("map on dual(v) over Fp 3\n")


def test_check_exits_zero_when_only_the_inverse_scan_is_gated(tmp_path, capsys, monkeypatch):
    from incalg import preservers

    # strongness is read off the power-set endomorphism, so no scan runs on
    # the antichain:3 identity over Fp 11 even with the cap at 10^3 < 11^3
    monkeypatch.setattr(preservers, "SCAN_CAP", 1000)
    map_path = tmp_path / "map.txt"
    map_path.write_text("map\nfield: Fp 11\nposet: antichain:3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out = run(capsys, "check", "--map", str(map_path))
    assert code == 0
    assert "  strong: yes\n  inverse_preserving: yes\n" in out
    assert "witness" not in out
    monkeypatch.undo()
    # in characteristic 2 only the unit scan decides inverse preservation,
    # gated on its unit count: 1 unit on antichain:5, 2^21 on chain:7
    map_path = fp_identity_map_file(tmp_path, "antichain:5", 2)
    code, out = run(capsys, "check", "--map", str(map_path))
    assert code == 0
    assert "  inverse_preserving: yes\n" in out
    assert "witness" not in out
    map_path = fp_identity_map_file(tmp_path, "chain:7", 2)
    code, out = run(capsys, "check", "--map", str(map_path))
    assert code == 0
    assert ("  inverse_preserving: undecided\n"
            "    witness: undecided: preserves_inverses would scan 2097152 cases "
            "(cap 1000000)") in out
    code, out = run(capsys, "check", "--map", str(map_path), "--json")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["strong"] is True and verdicts["inverse_preserving"] is None


def test_criteria_verb(tmp_path, capsys):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(SWAP_SPEC)
    code, out = run(capsys, "criteria", "--spec", str(spec_path))
    assert code == 0
    assert "vf-strong<=>lb(A)-nonempty" in out


def test_inverse_suite_verb(capsys):
    code, out = run(capsys, "inverse-suite", "--poset", "chain:2", "--field", "Fp", "3")
    assert code == 0
    assert "vf-pres-inverses=>vf-Jordan-homo" in out


def test_examples_verb_all(capsys):
    code, out = run(capsys, "examples")
    assert code == 0
    assert out.count("PASS") == 3


def test_examples_golden_json(capsys):
    code, out = run(capsys, "examples", "--json")
    assert code == 0
    golden = json.loads((DATA / "examples_golden.json").read_text())
    assert json.loads(out) == golden


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad_poset.txt"
    bad.write_text("poset\nelements: a b\nrelations: a*b\n")
    code = main(["census", "--poset", str(bad), "--field", "Fp", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 3" in captured.err


@pytest.mark.parametrize("line", ["field", "poset"])
def test_duplicate_header_line_exits_two(tmp_path, capsys, line):
    """Over Fp 5 this map would classify; the file declares Fp 3 first."""
    header = {"field": "field: Fp 3\nfield: Fp 5\nposet: chain:2\n",
              "poset": "poset: chain:3\nposet: chain:2\nfield: Fp 5\n"}[line]
    map_path = tmp_path / "map.txt"
    map_path.write_text("map\n" + header + "1 0 0\n0 1 0\n0 0 1\n")
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("preserver-spec\n" + header + "lambda: 1->{1} 2->{2}\npsi:\n0 0 0\n")
    for argv in (["classify", "--map", str(map_path)], ["build", "--spec", str(spec_path)]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err == f"error: line 3: duplicate '{line}:' line\n"


def test_spec_file_ending_at_its_lambda_line_exits_two(tmp_path, capsys):
    """A spec file with no line after 'lambda:' is bad input, not a crash."""
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("preserver-spec\nfield: Fp 3\nposet: chain:2\nlambda: 1->{1} 2->{2}\n")
    code = main(["build", "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: missing 'psi:' block\n"
    assert "Traceback" not in captured.out + captured.err


def test_late_header_line_and_bad_scalars_exit_two_with_their_line(tmp_path, capsys):
    """A 'field:' line after both header lines, and a bad scalar in a
    matrix or psi row, exit 2 with one error line that names the line."""
    cases = [
        ("check", "--map", "map\nfield: Fp 3\nposet: chain:2\nfield: Fp 5\n"
         "1 0 0\n0 1 0\n0 0 1\n", "line 4: duplicate 'field:' line"),
        ("check", "--map", "map\nfield: Fp 3\nposet: chain:2\n1 0 0\n0 x 0\n0 0 1\n",
         "line 5: bad Fp 3 scalar literal: 'x'"),
        ("criteria", "--spec", "preserver-spec\nfield: Fp 3\nposet: chain:2\n"
         "lambda: 1->{1} 2->{2}\npsi:\n0 0 zz\n", "line 6: bad Fp 3 scalar literal: 'zz'"),
    ]
    for verb, flag, text, message in cases:
        path = tmp_path / "input.txt"
        path.write_text(text)
        code = main([verb, flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2, message
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("header,entry", [
    ("Fp 3", "7" * 5000), ("Q", "7" * 5000), ("Q", "1/" + "7" * 5000), ("Q", "1e999999"),
    ("Q", "1e1000000"), ("Q", "-2.5E-99999"), ("Fp " + "7" * 5000, "1")],
    ids=["fp-digits", "q-digits", "q-denominator", "q-exponent", "q-exponent-1e6",
         "q-negative-exponent", "field-modulus"])
def test_oversized_literals_exit_two_with_their_line(tmp_path, capsys, header, entry):
    """A literal whose digits plus exponent exceed Python's integer-string
    limit is bad input on every verb that reads it: exit 2, one error line
    that names the line, and no traceback."""
    limit = sys.get_int_max_str_digits()
    map_path = tmp_path / "phi.txt"
    map_path.write_text(f"map\nfield: {header}\nposet: chain:1\n{entry}\n")
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(f"preserver-spec\nfield: {header}\nposet: chain:2\n"
                         f"lambda: 1->{{1}} 2->{{2}}\npsi:\n0 0 {entry}\n")
    bad_header = len(header) > 5
    for verb, flag, path, line in (("classify", "--map", map_path, 4),
                                   ("check", "--map", map_path, 4),
                                   ("criteria", "--spec", spec_path, 6)):
        code = main([verb, flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2, (verb, header)
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {2 if bad_header else line}: ")
        assert captured.err.endswith(f"needs more than {limit} digits\n")
        assert captured.err.count("\n") == 1


def test_missing_file_exits_two(capsys):
    code = main(["check", "--map", "no-such-file.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no-such-file" in captured.err


def test_directory_argument_exits_two(tmp_path, capsys):
    for argv in (["check", "--map", str(tmp_path)],
                 ["census", "--poset", str(tmp_path), "--field", "Fp", "2"],
                 ["build", "--spec", str(tmp_path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_census_reversed_range_exits_two(capsys):
    code = main(["census", "--poset", "chain:2", "--field", "Fp", "3",
                 "--start", "5", "--stop", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: bad census range [5, 2) for space 19683\n"


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["examples", "z2-not-jordan", "--json", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report[0]["lemma"] == "z2-not-jordan"


def test_classify_rational_map_with_cross_check_flags(tmp_path, capsys):
    map_path = tmp_path / "m.txt"
    map_path.write_text(
        "map\nfield: Q\nposet: chain:2\n1/1 0/1 0/1\n0/1 1/1 0/1\n0/1 0/1 -2/3\n")
    code, out = run(capsys, "classify", "--map", str(map_path),
                    "--poset", "chain:2", "--field", "Q", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["classified"] is True
    assert report["psi"] == [["0/1", "0/1", "-2/3"]]


def test_build_and_criteria_with_xor_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text(
        "preserver-spec\nfield: Fp 2\nposet: chain:2\n"
        "xor-lambda: 1->{2} 2->{1}\npsi:\n1 1 1\n")
    map_path = tmp_path / "m.txt"
    code = main(["build", "--spec", str(spec_path), "--out", str(map_path)])
    capsys.readouterr()
    assert code == 0
    code, out = run(capsys, "classify", "--map", str(map_path))
    assert code == 0
    assert "xor-lambda: 1->{2} 2->{1}" in out
    code, out = run(capsys, "criteria", "--spec", str(spec_path))
    assert code == 0
    assert "vf-strong<=>lb-injective" in out


def test_inverse_suite_char2_route(capsys):
    code, out = run(capsys, "inverse-suite", "--poset", "chain:3", "--field", "Fp", "2")
    assert code == 0
    assert "not applicable: char 2" in out
    assert "z2-not-jordan" in out


def test_poset_file_argument(tmp_path, capsys):
    poset_path = tmp_path / "pair.txt"
    poset_path.write_text("poset\nelements: a b\nrelations: a<b\n")
    code, out = run(capsys, "census", "--poset", str(poset_path), "--field", "Fp", "2")
    assert code == 0
    assert "oracle_count:  16" in out


def identity_map_file(tmp_path, n: int):
    """A map file holding the identity of antichain:n over Q."""
    rows = "\n".join(" ".join("1" if i == j else "0" for j in range(n)) for i in range(n))
    map_path = tmp_path / f"identity{n}.txt"
    map_path.write_text(f"map\nfield: Q\nposet: antichain:{n}\n{rows}\n")
    return map_path


def fp_identity_map_file(tmp_path, poset: str, p: int):
    """A map file holding the identity of a builtin poset over Fp p."""
    phi = LinearMap.identity(builtin_poset(poset), PrimeField(p))
    map_path = tmp_path / f"identity-{poset.replace(':', '')}-{p}.txt"
    map_path.write_text(format_linear_map(phi))
    return map_path


def test_classify_reaches_the_algebra_cap_without_override(tmp_path, capsys):
    """The subset table has no gate of its own: over Q the identities of
    antichain:13 and antichain:16 classify without ``--gate-override``."""
    for n in (13, 16):
        code, out = run(capsys, "classify", "--map", str(identity_map_file(tmp_path, n)))
        assert code == 0
        assert "unital invertibility preserver" in out
        assert "lambda: " + " ".join(f"{i}->{{{i}}}" for i in range(1, n + 1)) in out


def test_classify_beyond_the_algebra_cap_is_bad_input(tmp_path, capsys):
    """The n <= 16 algebra cap is fixed: ``--gate-override`` does not lift it
    (``classify`` has no gate to lift, so ``check`` carries the flag)."""
    map_path = identity_map_file(tmp_path, 17)
    for argv in (["classify"], ["check", "--gate-override"]):
        code = main([*argv, "--map", str(map_path)])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            "error: poset too large for algebra construction: 17 elements > cap 16\n")


def test_classify_reaches_the_table_laws_up_to_the_subset_table_cap(tmp_path, capsys):
    """The table laws have no gate of their own: the identity of antichain:9
    over Q classifies without ``--gate-override``."""
    rows = "\n".join(" ".join("1" if i == j else "0" for j in range(9)) for i in range(9))
    map_path = tmp_path / "map.txt"
    map_path.write_text(f"map\nfield: Q\nposet: antichain:9\n{rows}\n")
    code, out = run(capsys, "classify", "--map", str(map_path))
    assert code == 0
    assert "unital invertibility preserver" in out
    assert "lambda: " + " ".join(f"{i}->{{{i}}}" for i in range(1, 10)) in out


def test_randomized_lemmas_reach_the_table_laws_without_override(capsys):
    """The preserver scan of antichain:9 over Fp 3 visits 2^9 patterns, so
    no flag is needed; the flag changes nothing."""
    argv = ["lemmas", "--poset", "antichain:9", "--field", "Fp", "3",
            "--sample", "randomized", "--trials", "2", "--seed", "1"]
    for flags in ([], ["--gate-override"]):
        code, out = run(capsys, *argv, *flags)
        assert code == 0
        assert "PASS  lb-separating  --  random spec #1" in out
        assert "PASS  lb-preserves-diff-and-cap  --  random spec #1" in out
        assert "14 verdicts, 0 failed" in out


def test_randomized_lemmas_at_the_algebra_cap_over_f2(capsys):
    """antichain:16 over Fp 2: one preserver pattern, 2^15 partitions into
    at most two blocks, and the additivity law in O(n 2^n)."""
    code, out = run(capsys, "lemmas", "--poset", "antichain:16", "--field", "Fp", "2",
                    "--sample", "randomized", "--trials", "2")
    assert code == 0
    assert "PASS  lb-prese-symm-diff  --  random spec #1" in out
    assert "10 verdicts, 0 failed" in out


def test_randomized_lemmas_gate_the_partition_law(capsys):
    """antichain:15 over Fp 3 has S(15,1) + S(15,2) + S(15,3) = 2,391,485
    partitions into at most three blocks: refused, naming the count."""
    code = main(["lemmas", "--poset", "antichain:15", "--field", "Fp", "3",
                 "--sample", "randomized", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the partition law union-lb(L_k(f))=X would scan "
                            "2391485 cases (cap 1000000)\n")


def test_level_set_law_costs_nothing_per_field_element(capsys):
    """The level-set law keys its masks by the values present, so a field of
    999,983 elements costs no more per sample than a small one."""
    code, out = run(capsys, "lemmas", "--poset", "chain:1", "--field", "Fp", "999983",
                    "--sample", "randomized", "--trials", "1")
    assert code == 0
    assert "PASS  vf(f)_D=sum-k-e_lb(L_k)  --  random spec #0" in out
    assert "7 verdicts, 0 failed" in out


def test_fp_identities_beyond_six_elements_need_no_override(tmp_path, capsys):
    """Each pattern scan gates on its own count: (q-1)^n and q^n are within
    10^6 for these identities, so check and classify exit 0."""
    for poset, n, p in (("chain", 7, 3), ("antichain", 12, 3), ("antichain", 16, 2)):
        map_path = str(fp_identity_map_file(tmp_path, f"{poset}:{n}", p))
        code, out = run(capsys, "classify", "--map", map_path)
        assert code == 0, (poset, n, p)
        lam = "xor-lambda: " if p == 2 else "lambda: "
        assert lam + " ".join(f"{i}->{{{i}}}" for i in range(1, n + 1)) in out
        code, out = run(capsys, "check", "--map", map_path, "--json")
        assert code == 0, (poset, n, p)
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["preserver"] and verdicts["strong"] and verdicts["jordan"]


def test_classify_decides_beyond_the_scan_gates(tmp_path, capsys):
    """classify and check run no unit scan on a unital map, on any field, so
    they decide maps whose (q-1)^n patterns are beyond the scan cap with no
    flag: a seeded preserver on chain:5 over Fp 31 classifies, and
    a copy with 2 moved between two entries of a diagonal row (its row sum
    kept) is refuted."""
    for poset, p in (("antichain:5", 31), ("antichain:16", 5)):
        map_path = str(fp_identity_map_file(tmp_path, poset, p))
        code, out = run(capsys, "classify", "--map", map_path)
        assert code == 0, poset
        assert out.startswith("unital invertibility preserver\n")
        code, out = run(capsys, "check", "--map", map_path, "--json")
        assert code == 0, poset
        assert all(v is True for v in json.loads(out)["verdicts"].values())
    chain5, f31 = builtin_poset("chain:5"), PrimeField(31)
    phi = build_preserver(random_preserver_spec(chain5, f31, random.Random(3)))
    rows = [list(row) for row in phi.values]
    rows[0][0] += 2
    rows[0][1] -= 2
    for values, expected in ((phi.values, 0), (rows, 1)):
        map_path = tmp_path / f"chain5-{expected}.txt"
        map_path.write_text(format_linear_map(LinearMap.from_rows(chain5, f31, values)))
        code, out = run(capsys, "classify", "--map", str(map_path))
        assert code == expected
        assert out.startswith("REFUTED by from-vf-to-lb" if expected
                              else "unital invertibility preserver")


def test_scan_over_its_own_count_still_refuses(tmp_path, capsys):
    """The randomized lemma suite still runs the preserver scan on each
    sampled normal form, and chain:7 over Fp 11 has 10^7 nonzero diagonal
    patterns. check decides 2*identity there through phi(delta)^-1 phi,
    with no scan: a strong preserver, not unital, so it exits 1."""
    code = main(["lemmas", "--poset", "chain:7", "--field", "Fp 11", "--sample", "randomized"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: preserves_invertibility would scan 10000000 cases (cap 1000000)\n")
    f11 = PrimeField(11)
    map_path = tmp_path / "twice-identity.txt"
    map_path.write_text(format_linear_map(
        LinearMap.identity(builtin_poset("chain:7"), f11).scale(f11.scalar(2))))
    assert main(["check", "--map", str(map_path)]) == 1
    out = capsys.readouterr().out
    assert "  preserver: yes\n  strong: yes\n" in out
