"""Every function and method in canosc is used by name outside its own body.

A function that no code names is reached by no program path: it changes no
answer and costs a reader.  A use is an ``ast.Name`` or ``ast.Attribute``
read anywhere in ``src/canosc`` or ``perfbench/``, outside the function's
own definition; a string (``getattr(entire, "expm")``) or an import alias
(``from .hamiltonian import rotate`` in ``__init__``) is not a use.  Dunder
methods are called by Python itself and are exempt.  The API kept on
purpose is listed in ALLOWED, each entry with its reason, and an entry that
is used, or gone, fails too, so the list cannot go stale.

The check is by name, so it cannot see a method that shares its name with
one in use: ``PrueferTrajectory.value`` passed it beside ``PhiProfile.value``
and was deleted by hand, and ``entire.expm`` passes it because
``perfbench/reference.py`` calls ``mpmath.expm``.
"""

import ast

from scan import REPO, SRC, functions, name, reads

PERFBENCH = REPO / "perfbench"

#: "module.qualname" -> why it stays though nothing in src/ or perfbench/ calls it
ALLOWED = {
    "entire.transfer_matrix": "the paper's T(x; z), read by criterion 11",
    "entire.order_bound_check": "criterion 10's order bound",
    "hamiltonian.rotate": "aim 3's rotation-covariance invariant",
    "hamiltonian.truncate_with_tail": "aim 3's truncation-consistency invariant",
    "oracle.boundary_functional": "the check that the functional vanishes at each eigenvalue",
    "transforms.XMap.forward": "the Liouville change of variable x -> X",
    "transforms.XMap.backward": "its inverse X -> x",
}


def unused(defining: dict[str, str], others: tuple[str, ...] = ()) -> set[str]:
    """The "module.qualname" of each function in the defining sources (module
    -> text) that neither they nor the others use outside its own definition."""
    trees = {m: ast.parse(text) for m, text in defining.items()}
    trees |= {i: ast.parse(text) for i, text in enumerate(others)}
    uses: dict[str, list[tuple[object, int]]] = {}
    for m, tree in trees.items():
        for n in reads(tree):
            uses.setdefault(name(n), []).append((m, n.lineno))
    out = set()
    for m in defining:
        for qualname, fn in functions(trees[m]):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            inside = range(fn.lineno, fn.end_lineno + 1)
            if all(u == m and line in inside for u, line in uses.get(fn.name, ())):
                out.add(f"{m}.{qualname}")
    return out


def test_the_scan_skips_the_own_body_strings_imports_and_dunders():
    src = (
        "def f(n):\n    return f(n - 1)\n\n"
        "def g():\n    return 'f'\n\n"
        "class C:\n    def __eq__(self, o):\n        return g()\n    def m(self):\n        pass\n"
    )
    assert unused({"a": src}, ("from .a import m\n",)) == {"a.f", "a.C.m"}
    assert unused({"a": src}, ("x.m()\n",)) == {"a.f"}


def test_every_function_is_used():
    found = unused(
        {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))},
        tuple(p.read_text() for p in sorted(PERFBENCH.glob("*.py"))),
    )
    unexpected = sorted(found - ALLOWED.keys())
    assert not unexpected, f"functions no code in src/canosc or perfbench/ uses: {unexpected}"
    stale = sorted(ALLOWED.keys() - found)
    assert not stale, f"allowed as unused but used or gone: {stale}"
