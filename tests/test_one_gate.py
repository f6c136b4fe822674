"""canosc checks a Hamiltonian in one place: the walk of its pieces.

``Hamiltonian.walk`` calls ``require_valid`` before it yields a piece, and
every computation on H walks, so no other module needs the check.  A second
call site elsewhere would be a second home for the same precondition, free
to drift from the first; this test fails on one.
"""

import ast

from scan import name, scoped, sources

NAME = "require_valid"


def naming(trees: dict[str, ast.Module]) -> list[str]:
    """The modules whose code or imports name NAME."""
    return sorted(m for m, tree in trees.items() if any(name(n) == NAME for _, n in scoped(tree)))


def test_the_scan_sees_calls_attributes_and_imports():
    trees = {
        "a": ast.parse("def require_valid(H):\n    pass\n"),
        "b": ast.parse("from .a import require_valid as check\n"),
        "c": ast.parse("hamiltonian.require_valid(H)\n"),
        "d": ast.parse("x = 'require_valid'\n"),
    }
    assert naming(trees) == ["b", "c"]


def test_only_hamiltonian_names_require_valid():
    found = naming(sources())
    assert found == ["hamiltonian"], f"modules naming {NAME}: {found}"
