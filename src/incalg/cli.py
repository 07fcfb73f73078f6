"""Command-line front end.

Verbs map one-to-one onto library operations: ``build`` assembles a map
from a normal-form file, ``classify`` recovers (or refutes) a normal form,
``check`` reports the predicate suite of a map, decided by the normal form
of phi(delta)^-1 phi and, where that is silent, by the unit scan, ``census``
runs the brute-force enumeration against the predicted count, ``lemmas`` checks the
structural laws on every enumerated preserver, ``criteria`` checks the
strongness and bijectivity criteria of one normal form, and ``examples``
reproduces the pinned counterexamples.

Exit codes: 0 when everything passed, 1 on any failed verdict or
refutation, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ClassificationError, IncalgError
from .fields import parse_field
from .posets import resolve_poset
from .preservers import (
    build_preserver,
    format_linear_map,
    format_preserver_spec,
    linear_map_to_json,
    parse_linear_map,
    parse_preserver_spec,
    psi_to_json,
)
from .verify import (
    EXAMPLE_IDS,
    analyze_map,
    classify,
    enumerate_preservers,
    reproduce_example,
    verify_criteria,
    verify_lemma_suite,
)


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _field_of(args):
    return parse_field(" ".join(args.field))


def _print_verdicts(args, verdicts) -> int:
    if args.json:
        _emit_json(args, [v.to_json() for v in verdicts])
    else:
        lines = []
        for v in verdicts:
            status = "PASS" if v.passed else "FAIL"
            suffix = f" [{v.witness}]" if v.witness else ""
            lines.append(f"{status}  {v.lemma}  --  {v.instance}{suffix}")
        failed = sum(not v.passed for v in verdicts)
        lines.append(f"{len(verdicts)} verdicts, {failed} failed")
        _emit(args, "\n".join(lines))
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_build(args) -> int:
    spec = parse_preserver_spec(_read(args.spec))
    phi = build_preserver(spec)
    if args.json:
        _emit_json(args, {
            "poset": phi.poset.display_name,
            "field": repr(phi.field),
            "matrix": linear_map_to_json(phi),
        })
    else:
        _emit(args, format_linear_map(phi))
    return 0


def _load_map(args):
    poset = resolve_poset(args.poset) if args.poset else None
    field = _field_of(args) if args.field else None
    return parse_linear_map(_read(args.map), poset=poset, field=field)


def cmd_classify(args) -> int:
    phi = _load_map(args)
    try:
        spec = classify(phi)
    except ClassificationError as exc:
        if args.json:
            _emit_json(args, {
                "classified": False,
                "law": exc.law,
                "message": str(exc),
                "witness": exc.witness,
            })
        else:
            _emit(args, f"REFUTED by {exc.law}: {exc}")
        return 1
    from .endos import endo_to_json

    if args.json:
        _emit_json(args, {
            "classified": True,
            "poset": phi.poset.display_name,
            "field": repr(phi.field),
            "lambda": endo_to_json(spec.endo),
            "psi": psi_to_json(spec),
        })
    else:
        _emit(args, "unital invertibility preserver\n" + format_preserver_spec(spec))
    return 0


def cmd_check(args) -> int:
    phi = _load_map(args)
    report = analyze_map(phi, gate_override=args.gate_override)
    if args.json:
        _emit_json(args, report)
    else:
        lines = [f"map on {report['poset']} over {report['field']}"]
        for key, value in report["verdicts"].items():
            shown = "undecided" if value is None else ("yes" if value else "no")
            lines.append(f"  {key}: {shown}")
            if key in report["witnesses"]:
                lines.append(f"    witness: {report['witnesses'][key]}")
        _emit(args, "\n".join(lines))
    ok = report["verdicts"]["unital"] and report["verdicts"]["preserver"]
    return 0 if ok else 1


def cmd_census(args) -> int:
    poset = resolve_poset(args.poset)
    field = _field_of(args)
    report = enumerate_preservers(poset, field, start=args.start, stop=args.stop,
                                  gate_override=args.gate_override)
    if args.json:
        _emit_json(args, report.to_json())
    else:
        lines = [
            f"census of {report.poset.display_name} over {report.field}",
            f"  matrix space: {report.matrix_space} "
            f"(range [{report.start}, {report.stop}))",
            f"  oracle_count:  {report.oracle_count}",
            f"  theorem_count: {report.theorem_count}",
            f"  consistent: {report.consistent}"
            + ("" if report.complete else " (partial run)"),
            f"  elapsed: {report.elapsed_seconds:.3f}s",
        ]
        _emit(args, "\n".join(lines))
    if not report.complete:
        return 0
    return 0 if report.consistent else 1


def cmd_lemmas(args) -> int:
    poset = resolve_poset(args.poset)
    field = _field_of(args)
    verdicts = verify_lemma_suite(
        poset, field, sample=args.sample, seed=args.seed, trials=args.trials,
        gate_override=args.gate_override)
    return _print_verdicts(args, verdicts)


def cmd_criteria(args) -> int:
    spec = parse_preserver_spec(_read(args.spec))
    verdicts = verify_criteria(spec, gate_override=args.gate_override)
    return _print_verdicts(args, verdicts)


def cmd_examples(args) -> int:
    ids = [args.id] if args.id else list(EXAMPLE_IDS)
    verdicts = [reproduce_example(example_id) for example_id in ids]
    return _print_verdicts(args, verdicts)


def cmd_inverse_suite(args) -> int:
    from .verify import verify_inverse_preserver_results

    poset = resolve_poset(args.poset)
    field = _field_of(args)
    verdicts = verify_inverse_preserver_results(
        poset, field, gate_override=args.gate_override)
    return _print_verdicts(args, verdicts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incalg",
        description="Exact incidence algebras of finite posets and the "
                    "classification of their unital invertibility preservers.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, gate=True):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", help="write the report to this path")
        if gate:
            p.add_argument("--gate-override", action="store_true",
                           help="lift the size gates (wall-clock warning)")

    p = sub.add_parser("build", help="assemble a linear map from a normal-form file")
    p.add_argument("--spec", required=True, help="preserver-spec file")
    add_common(p, gate=False)
    p.set_defaults(handler=cmd_build)

    for verb, handler, help_text in (
            ("classify", cmd_classify, "recover the normal form of a map, or refute it"),
            ("check", cmd_check, "run the predicate suite on a map")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--map", required=True, help="linear-map file")
        p.add_argument("--poset", help="builtin literal or poset file (cross-check)")
        p.add_argument("--field", nargs="+", help="field literal (cross-check)")
        add_common(p, gate=verb == "check")
        p.set_defaults(handler=handler)

    p = sub.add_parser("census", help="brute-force census against the predicted count")
    p.add_argument("--poset", required=True)
    p.add_argument("--field", nargs="+", required=True)
    p.add_argument("--start", type=int, default=0, help="first matrix index")
    p.add_argument("--stop", type=int, default=None, help="one past the last index")
    add_common(p)
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("lemmas", help="check the structural laws on every preserver")
    p.add_argument("--poset", required=True)
    p.add_argument("--field", nargs="+", required=True)
    p.add_argument("--sample", choices=["exhaustive", "randomized"],
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    add_common(p)
    p.set_defaults(handler=cmd_lemmas)

    p = sub.add_parser("criteria", help="strongness/bijectivity criteria of one spec")
    p.add_argument("--spec", required=True, help="preserver-spec file")
    add_common(p)
    p.set_defaults(handler=cmd_criteria)

    p = sub.add_parser("inverse-suite",
                       help="inverse-preserver results over a char != 2 prime field")
    p.add_argument("--poset", required=True)
    p.add_argument("--field", nargs="+", required=True)
    add_common(p)
    p.set_defaults(handler=cmd_inverse_suite)

    p = sub.add_parser("examples", help="reproduce the pinned counterexamples")
    p.add_argument("id", nargs="?", choices=list(EXAMPLE_IDS),
                   help="run one example (default: all)")
    add_common(p, gate=False)
    p.set_defaults(handler=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gate_override", False):
        print("warning: gate override active; wall-clock time is unbounded",
              file=sys.stderr)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input file is not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 2
    except IncalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
