"""canosc imports the standard library and numpy, and mpmath in oracle.py only.

pyproject.toml declares numpy as the one dependency and mpmath as a test
extra, for the independent references of :mod:`canosc.oracle`.  An import of
anything else would fail on an install made from those declarations.
"""

import ast
import pathlib
import sys

import canosc

SRC = pathlib.Path(canosc.__file__).parent
#: module -> packages it may import besides the standard library and numpy
EXTRA = {"oracle": {"mpmath"}}


def _top_level_imports(tree: ast.Module):
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            yield from (a.name.split(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            yield n.module.split(".")[0]


def test_imports_are_declared():
    undeclared = {}
    for path in sorted(SRC.glob("*.py")):
        allowed = sys.stdlib_module_names | {"numpy"} | EXTRA.get(path.stem, set())
        names = set(_top_level_imports(ast.parse(path.read_text(), filename=str(path))))
        if names - allowed:
            undeclared[path.stem] = sorted(names - allowed)
    assert not undeclared, f"imports outside the declared dependencies: {undeclared}"
