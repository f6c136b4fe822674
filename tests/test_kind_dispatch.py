"""canosc asks a segment kind for its pieces and reads everything else from
them: no module outside ``oracle`` branches on which kind a segment is.

Every computation reads singularity, angles and eigenvalues from
:class:`~canosc.hamiltonian.Piece`, so a branch on ``ConstantAngle`` (say)
would treat one plateau differently from the same plateau written as a flat
ramp, a flat table or a rank-one matrix.  Two checks read the kind itself
and are allowed: :func:`~canosc.hamiltonian.validate` reads the entries the
caller gave a ``ConstantMatrix``, and ``PhiTable.__eq__`` compares two
tables.  ``oracle.py`` is an independent reference by design and is not
scanned.

A kind answers that one question only: cutting a segment is
``Segment.split`` and turning it is ``rotate``, each acting once on the
pieces, so no class in ``hamiltonian`` but ``Segment`` defines ``split`` and
none defines ``rotated``.
"""

import ast
import pathlib

import canosc

SRC = pathlib.Path(canosc.__file__).parent
KINDS = {"ConstantAngle", "ConstantMatrix", "PhiRamp", "PhiTable", "Pieces"}
#: (module, enclosing function, kind) of the allowed checks
ALLOWED = {
    ("hamiltonian", "validate", "ConstantMatrix"),
    ("hamiltonian", "PhiTable.__eq__", "PhiTable"),
}


def _name(node: ast.expr):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


class _Dispatches(ast.NodeVisitor):
    """(enclosing qualname, kind) of every isinstance(..., kind) call."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call):
        if _name(node.func) == "isinstance" and len(node.args) == 2:
            cls = node.args[1]
            for c in cls.elts if isinstance(cls, ast.Tuple) else [cls]:
                if _name(c) in KINDS:
                    self.found.append((".".join(self.scope), _name(c)))
        self.generic_visit(node)


def dispatches(source: str) -> list[tuple[str, str]]:
    v = _Dispatches()
    v.visit(ast.parse(source))
    return v.found


def test_the_scan_sees_tuples_attributes_and_methods():
    src = (
        "class S:\n"
        "    def f(self, k):\n"
        "        return isinstance(k, (int, hamiltonian.PhiRamp)) or isinstance(k, ConstantAngle)\n"
    )
    assert dispatches(src) == [("S.f", "PhiRamp"), ("S.f", "ConstantAngle")]


def test_no_module_dispatches_on_a_segment_kind():
    found = {
        (path.stem, scope, kind)
        for path in SRC.glob("*.py")
        if path.stem != "oracle"
        for scope, kind in dispatches(path.read_text())
    }
    assert found <= ALLOWED, f"kind dispatches outside the allowed checks: {found - ALLOWED}"


def methods(source: str, names: set[str]) -> list[tuple[str, str]]:
    """(class, method) of every method named in names."""
    return [
        (cls.name, fn.name)
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in names
    ]


def test_split_and_rotate_act_once_on_the_pieces():
    found = methods((SRC / "hamiltonian.py").read_text(), {"split", "rotated"})
    assert found == [("Segment", "split")], f"split or rotated defined outside Segment.split: {found}"
