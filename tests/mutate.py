"""Mutation probe: does the test suite notice a one-token change to a module?

    python3 tests/mutate.py src/incalg/algebra.py --count 12 --seed 0

It lists the module's candidate mutants with ``ast``; each one changes a
single site:

- flips a comparison (``==`` to ``!=``, ``<`` to ``<=``, ``in`` to
  ``not in``, ...), an arithmetic or bitwise operator (``+`` to ``-``,
  ``*`` to ``+``, ``%`` to ``//``, ``&`` to ``|``, ...), or ``and``/``or``;
- moves a small int constant (0 to 9) up or down by one;
- drops a ``not``.

Sites inside type annotations and f-strings are skipped. It draws a seeded
sample of ``--count`` mutants, copies the checkout (everything but ``.git``
and caches) to a temporary directory once, checks that the unmutated suite
passes there, and, one mutant at a time, writes the mutant there and runs
the tier-1 suite with ``-x -q`` under a per-mutant timeout of four times
that unmutated run's wall time, and at least a minute. The checkout
itself is never written. Each mutant prints ``killed``, ``survived`` or
``timeout`` with ``file:line: before -> after``; a survivor needs a new
test or an argument that it is equivalent. Standard library only; pytest
does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant's suite run may take this many times the unmutated run's wall
# time, and at least MIN_TIMEOUT seconds, before it counts as hanging
TIMEOUT_FACTOR = 4
MIN_TIMEOUT = 60.0

COMPARE = {ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", "<="),
           ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
           ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"),
           ast.NotIn: ("not in", "in")}
ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "+"),
         ast.FloorDiv: ("//", "*"), ast.Div: ("/", "*"), ast.Mod: ("%", "//"),
         ast.Pow: ("**", "*"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"),
         ast.BitXor: ("^", "|"), ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<")}
BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


class Mutant:
    """Replace the bytes ``[start, end)`` of the source by ``after``."""

    def __init__(self, line: int, start: int, end: int, before: str, after: str):
        self.line, self.start, self.end = line, start, end
        self.before, self.after = before, after

    def apply(self, source: bytes) -> bytes:
        after = "" if self.after == "(dropped)" else self.after
        return source[:self.start] + after.encode() + source[self.end:]


def candidates(source: bytes) -> list[Mutant]:
    """Every single-site mutant of a module that still parses."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)

    def offset(line: int, col: int) -> int:   # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    skip = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns] + [a.annotation for a in ast.walk(node.args)
                                      if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        elif isinstance(node, ast.JoinedStr):   # f-string parts: unreliable offsets
            notes = [node]
        skip.update(id(sub) for note in notes if note for sub in ast.walk(note))

    out = []

    def token_between(left: ast.AST, right: ast.AST, text: str, after: str) -> None:
        """The operator ``text`` in the gap between two operands."""
        lo = offset(left.end_lineno, left.end_col_offset)
        gap = source[lo:offset(right.lineno, right.col_offset)].decode()
        words = text.split()
        if gap.replace("(", " ").replace(")", " ").split() != words:
            return   # a comment or a line continuation in the gap
        start = lo + gap.index(words[0])
        out.append(Mutant(source.count(b"\n", 0, start) + 1, start,
                          lo + gap.rindex(words[-1]) + len(words[-1]), text, after))

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                token_between(left, right, *COMPARE[type(op)])
                left = right
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITH:
            text, after = ARITH[type(node.op)]
            left, right = ((node.left, node.right) if isinstance(node, ast.BinOp)
                           else (node.target, node.value))
            if isinstance(node, ast.AugAssign):
                text, after = text + "=", after + "="
            token_between(left, right, text, after)
        elif isinstance(node, ast.BoolOp):
            text, after = BOOL[type(node.op)]
            for left, right in zip(node.values, node.values[1:]):
                token_between(left, right, text, after)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = offset(node.lineno, node.col_offset)
            gap = source[start:offset(node.operand.lineno, node.operand.col_offset)]
            kept = gap[3:].lstrip()
            out.append(Mutant(node.lineno, start, start + len(gap) - len(kept),
                              "not", "(dropped)"))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and 0 <= node.value <= 9):
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            for moved in (node.value + 1, node.value - 1):
                if moved >= 0:
                    out.append(Mutant(node.lineno, start, end, str(node.value), str(moved)))
    valid = []
    for m in sorted(out, key=lambda m: (m.start, m.after)):
        try:
            ast.parse(m.apply(source))
        except SyntaxError:
            continue
        valid.append(m)
    return valid


def run_suite(copy: Path, timeout: float | None) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="a module path relative to the checkout")
    ap.add_argument("--count", type=int, default=12, help="mutants to sample")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    module = Path(args.module)
    source = (ROOT / module).read_bytes()
    mutants = candidates(source)
    sample = random.Random(args.seed).sample(mutants, min(args.count, len(mutants)))
    tally: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / module
        print(f"{len(sample)} of {len(mutants)} candidates, seed {args.seed}", flush=True)
        start = time.perf_counter()
        if run_suite(copy, None) != "survived":
            print("the unmutated suite fails in the copy; no mutant can be judged")
            return 1
        timeout = max(MIN_TIMEOUT, TIMEOUT_FACTOR * (time.perf_counter() - start))
        print(f"unmutated suite passed; {timeout:.0f} s per mutant", flush=True)
        for m in sample:
            target.write_bytes(m.apply(source))
            verdict = run_suite(copy, timeout)
            target.write_bytes(source)
            tally[verdict] = tally.get(verdict, 0) + 1
            print(f"{verdict:8} {module}:{m.line}: {m.before} -> {m.after}", flush=True)
    print(", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
