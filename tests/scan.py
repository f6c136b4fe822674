"""AST scans shared by the structural guards (``test_reached``,
``test_dead_params``, ``test_dead_fields``, ``test_kind_dispatch`` and
``test_one_gate``): one walker that knows the scope of every node, and the
name a node spells.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Optional

import canosc

SRC = pathlib.Path(canosc.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]
DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def sources() -> dict[str, ast.Module]:
    """Module stem -> tree of every module in src/canosc."""
    return {p.stem: parse(p) for p in sorted(SRC.glob("*.py"))}


def _qual(scope: str, name: str) -> str:
    return f"{scope}.{name}" if scope else name


def scoped(tree: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(scope, node) of every node below tree: scope is the qualname of the
    innermost class or def that holds the node, "" at module level.  A class
    or def is listed in the scope that holds it."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            yield from visit(child, _qual(scope, child.name) if isinstance(child, DEFS) else scope)

    yield from visit(tree, "")


def defs(tree: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(qualname, node) of every class and def, nested ones under the names
    that hold them."""
    return ((_qual(s, n.name), n) for s, n in scoped(tree) if isinstance(n, DEFS))


def functions(tree: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(qualname, node) of every def, methods under their class."""
    return ((q, n) for q, n in defs(tree) if not isinstance(n, ast.ClassDef))


def name(node: ast.AST) -> Optional[str]:
    """The name a Name, an Attribute or an import alias spells, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def reads(tree: ast.AST) -> Iterator[ast.expr]:
    """Every Name and Attribute that is read."""
    return (
        n for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )
