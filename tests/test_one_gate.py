"""canosc checks a Hamiltonian in one place: the walk of its pieces.

``Hamiltonian.walk`` calls ``require_valid`` before it yields a piece, and
every computation on H walks, so no other module needs the check.  A second
call site elsewhere would be a second home for the same precondition, free
to drift from the first; this test fails on one.
"""

import ast
import pathlib

import canosc

SRC = pathlib.Path(canosc.__file__).parent
NAME = "require_valid"


def _names(tree: ast.Module):
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_only_hamiltonian_names_require_valid():
    naming = sorted(
        path.stem
        for path in SRC.glob("*.py")
        if NAME in _names(ast.parse(path.read_text(), filename=str(path)))
    )
    assert naming == ["hamiltonian"], f"modules naming {NAME}: {naming}"
