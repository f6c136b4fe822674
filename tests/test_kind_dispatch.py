"""canosc asks a segment kind for its pieces and reads everything else from
them: no module outside ``oracle`` branches on which kind a segment is.

Every computation reads singularity, angles and eigenvalues from
:class:`~canosc.hamiltonian.Piece`, so a branch on ``ConstantAngle`` (say)
would treat one plateau differently from the same plateau written as a flat
ramp, a flat table or a rank-one matrix.  That holds for the checks too:
:func:`~canosc.hamiltonian.validate` judges every kind by its pieces (a
matrix by its piece's eigenvalues, not its entries), and a ``PhiTable`` is a
``Pieces`` chain whose equality is the chain's.  ``oracle.py`` is an
independent reference by design and is not scanned.

A kind answers that one question only: cutting a segment is
``Segment.split`` and turning it is ``rotate``, each acting once on the
pieces, so no def in ``hamiltonian`` but ``Segment.split`` is named
``split`` and none is named ``rotated``.
"""

import ast

from scan import functions, name, scoped, sources

KINDS = {"ConstantAngle", "ConstantMatrix", "PhiRamp", "PhiTable", "Pieces"}
#: (module, enclosing function, kind) of the allowed checks
ALLOWED: set[tuple[str, str, str]] = set()


def dispatches(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing qualname, kind) of every isinstance(..., kind) call."""
    found = []
    for scope, node in scoped(tree):
        if isinstance(node, ast.Call) and name(node.func) == "isinstance" and len(node.args) == 2:
            cls = node.args[1]
            found += [(scope, name(c)) for c in (cls.elts if isinstance(cls, ast.Tuple) else [cls]) if name(c) in KINDS]
    return found


def test_the_scan_sees_tuples_attributes_and_methods():
    src = (
        "class S:\n"
        "    def f(self, k):\n"
        "        return isinstance(k, (int, hamiltonian.PhiRamp)) or isinstance(k, ConstantAngle)\n"
    )
    assert dispatches(ast.parse(src)) == [("S.f", "PhiRamp"), ("S.f", "ConstantAngle")]


def test_no_module_dispatches_on_a_segment_kind():
    found = {
        (module, scope, kind)
        for module, tree in sources().items()
        if module != "oracle"
        for scope, kind in dispatches(tree)
    }
    assert found <= ALLOWED, f"kind dispatches outside the allowed checks: {found - ALLOWED}"


def defs_named(tree: ast.Module, names: set[str]) -> list[str]:
    """Qualname of every def named in names."""
    return [q for q, n in functions(tree) if n.name in names]


def test_the_def_scan_sees_nested_defs():
    src = "class A:\n    def split(self):\n        def rotated():\n            pass\n"
    assert defs_named(ast.parse(src), {"split", "rotated"}) == ["A.split", "A.split.rotated"]


def test_split_and_rotate_act_once_on_the_pieces():
    found = defs_named(sources()["hamiltonian"], {"split", "rotated"})
    assert found == ["Segment.split"], f"split or rotated defined outside Segment.split: {found}"
