"""The standard-library modules that each library module imports at top
level, read from the source with ``ast``, against a written allow-list.

Every import at module level runs on ``import incalg``, so a new one adds to
the start-up time of every command and every benchmark workload. A module
that needs a new import on a path that is not always taken imports it inside
the function that uses it; one that must be at top level is added here on
purpose, with its start-up cost measured."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "incalg"

ALLOWED = {
    "__init__.py": set(),
    "algebra.py": {"__future__", "re", "typing"},
    "cli.py": {"__future__", "argparse", "json", "sys"},
    "endos.py": {"__future__", "dataclasses", "itertools", "operator", "typing"},
    "errors.py": set(),
    # sys is always loaded; it gives the integer-string limit of literals.
    # fractions loads math, so the rationals' gcd adds no start-up time
    "fields.py": {"__future__", "fractions", "functools", "math", "re", "sys"},
    "posets.py": {"__future__", "functools", "re", "typing"},
    "preservers.py": {"__future__", "dataclasses", "itertools", "operator", "typing"},
    "verify.py": {"__future__", "dataclasses", "itertools", "random", "time", "typing"},
}


def top_level_imports(path: Path) -> set[str]:
    """The absolute modules a file imports outside any function or class;
    relative imports of the package's own modules are left out."""
    modules = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_every_module_has_an_allow_list():
    assert sorted(p.name for p in SRC.glob("*.py")) == sorted(ALLOWED)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_top_level_imports_are_allowed(name):
    extra = top_level_imports(SRC / name) - ALLOWED[name]
    assert not extra, f"{name} imports {sorted(extra)} at top level"


def test_the_reader_sees_nested_and_aliased_imports(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os.path as p, json\nfrom . import sibling\n"
                    "from collections import deque\n"
                    "def f():\n    import socket\n")
    assert top_level_imports(path) == {"os.path", "json", "collections"}
