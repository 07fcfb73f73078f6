"""Fuzz the CLI contract: whatever the arguments, ``main`` exits 0, 1 or 2
and never lets an exception escape as a traceback.

Argument lists are drawn from the eight verbs, their flags, and valid and
garbage values: bad fields and posets, reversed and negative ranges,
directories, missing and undecodable files, and files with scalar or field
literals past Python's integer-string limit. Valid instances are kept small
(posets of at most two elements, fields of at most three elements) so that
every drawn command runs in well under a second.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from incalg.cli import main

from test_cli import IDENTITY_MAP, NON_PRESERVER_MAP, SWAP_SPEC

VERBS = ["build", "classify", "check", "census", "lemmas", "criteria",
         "inverse-suite", "examples"]
# the verbs with a gate that --gate-override can lift; the others reject it
GATED_VERBS = ["check", "census", "lemmas", "criteria", "inverse-suite"]

POSETS = ["chain:1", "chain:2", "antichain:2", "chain:0", "chain:17", "antichain:x",
          "nope", "", "chain:99999999", "chain:" + "7" * 5000]
SMALL_FIELDS = [["Fp", "2"], ["Fp", "3"], ["Q"]]
BAD_FIELDS = [["Fp", "4"], ["Fp"], ["Fp", "x"], ["R"], ["Fp", "-3"], ["Fp", "2", "3"]]
# within the census space cap on chain:1, beyond the per-survivor scan caps
BIG_PRIME = ["Fp", "1000003"]

FILES = {
    "map": IDENTITY_MAP,
    "non-preserver": NON_PRESERVER_MAP,
    "rational-map": "map\nfield: Q\nposet: chain:2\n1 0 0\n0 1 0\n0 0 -2/3\n",
    "spec": SWAP_SPEC,
    "rational-spec": "preserver-spec\nfield: Q\nposet: chain:2\n"
                     "lambda: 1->{1} 2->{2}\npsi:\n0 0 1\n",
    "poset": "poset\nelements: a b\nrelations: a<b\n",
    # literals past Python's integer-string limit, in digits or by exponent
    "oversized-map": "map\nfield: Fp 3\nposet: chain:1\n" + "7" * 5000 + "\n",
    "oversized-rational-map": "map\nfield: Q\nposet: chain:1\n1/" + "7" * 5000 + "\n",
    "exponent-map": "map\nfield: Q\nposet: chain:2\n1 0 0\n0 1e999999 0\n0 0 1\n",
    "oversized-spec": "preserver-spec\nfield: Fp 3\nposet: chain:2\n"
                      "lambda: 1->{1} 2->{2}\npsi:\n0 0 " + "7" * 5000 + "\n",
    "exponent-spec": "preserver-spec\nfield: Q\nposet: chain:2\n"
                     "lambda: 1->{1} 2->{2}\npsi:\n0 0 -1E-1000000\n",
    "oversized-field": "map\nfield: Fp " + "7" * 5000 + "\nposet: chain:1\n1\n",
    "garbage": "map\nfield: Fp 3\nposet: chain:2\n1 2\nx y z\n",
    "empty": "",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, text in FILES.items():
        path = root / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    undecodable = root / "latin1.txt"
    undecodable.write_bytes(b"map\nfield: Fp 3\n\xff\xfe\n")
    out["undecodable"] = str(undecodable)
    out["directory"] = str(root)
    out["missing"] = str(root / "no-such-file.txt")
    out["out"] = str(root / "report.txt")
    out["out-in-missing-dir"] = str(root / "missing" / "report.txt")
    return out


@st.composite
def argument_lists(draw, paths):
    verb = draw(st.sampled_from(VERBS))
    argv = [verb]
    gate_override = verb in GATED_VERBS and draw(st.booleans())
    file_arg = st.sampled_from(sorted(paths.keys() - {"out", "out-in-missing-dir"}))
    fields = SMALL_FIELDS + BAD_FIELDS + ([] if gate_override else [BIG_PRIME])
    poset_arg = st.one_of(st.sampled_from(POSETS), file_arg.map(paths.get))

    if verb in ("build", "criteria"):
        argv += ["--spec", paths[draw(file_arg)]]
    elif verb in ("classify", "check"):
        argv += ["--map", paths[draw(file_arg)]]
        if draw(st.booleans()):
            argv += ["--poset", draw(poset_arg)]
        if draw(st.booleans()):
            argv += ["--field", *draw(st.sampled_from(fields))]
    elif verb == "examples":
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(
                ["z2-nonseparating", "diagonal-truncation", "z2-not-jordan", "bogus"])))
    else:
        argv += ["--poset", draw(poset_arg), "--field", *draw(st.sampled_from(fields))]
        if verb == "census":
            for flag in ("--start", "--stop"):
                if draw(st.booleans()):
                    argv += [flag, str(draw(st.integers(-5, 40)))]
        if verb == "lemmas":
            if draw(st.booleans()):
                argv += ["--sample", draw(st.sampled_from(
                    ["exhaustive", "randomized", "sometimes"]))]
            if draw(st.booleans()):
                argv += ["--trials", draw(st.sampled_from(["-1", "0", "2", "x"]))]
            if draw(st.booleans()):
                argv += ["--seed", draw(st.sampled_from(["0", "7", "-3", "1.5"]))]

    if draw(st.booleans()):
        argv.append("--json")
    if gate_override:
        argv.append("--gate-override")
    if draw(st.booleans()):
        argv += ["--out", paths[draw(st.sampled_from(
            ["out", "out-in-missing-dir", "directory"]))]]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-h", "--", "extra", "--st"])))
    return argv


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, err.getvalue()


def test_cli_fuzz_exit_codes_and_no_traceback(paths):
    @settings(max_examples=150)
    @given(argument_lists(paths))
    def check(argv):
        code, err = run_main(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()


@pytest.mark.parametrize("argv", [
    ["lemmas", "--poset", "chain:2", "--field", "Q"],
    ["lemmas", "--poset", "chain:2", "--field", "Q", "--sample", "randomized"],
])
def test_lemmas_over_rationals_exits_two(argv):
    code, err = run_main(argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("verb", sorted(set(VERBS) - set(GATED_VERBS)))
def test_ungated_verbs_reject_gate_override(paths, verb):
    """``build``, ``classify`` and ``examples`` scan nothing that a gate
    refuses, so ``--gate-override`` is a usage error there."""
    file_args = {"build": ["--spec", paths["spec"]],
                 "classify": ["--map", paths["map"]], "examples": []}
    code, err = run_main([verb, *file_args[verb], "--gate-override"])
    assert code == 2
    assert "unrecognized arguments: --gate-override" in err


def test_undecodable_file_exits_two(paths):
    for argv in (["check", "--map", paths["undecodable"]],
                 ["criteria", "--spec", paths["undecodable"]],
                 ["census", "--poset", paths["undecodable"], "--field", "Fp", "2"]):
        code, err = run_main(argv)
        assert code == 2, argv
        assert err.startswith("error:") and err.count("\n") == 1
