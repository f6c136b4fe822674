"""Every field of every dataclass and NamedTuple in canosc, and every method
and property of every class, is read somewhere.

A field nothing reads is computed and stored for no one, and a method or
property nothing calls is code kept for no one; either misleads a reader of
the class into thinking it matters.  This is the twin of
``tests/test_dead_params.py``: it parses ``src/canosc/*.py`` and fails on any
``@dataclass`` or ``NamedTuple`` field, and any method or property other than
a ``__dunder__``, whose name is never loaded as an attribute (``obj.name``),
or read by ``getattr`` with a literal name, anywhere in ``src/``, ``tests/``
or ``perfbench/``.  The exceptions are listed in ALLOWED, each with its
reason, and an exception that is read after all fails too, so the list
cannot go stale.

The scan goes by name, not by type, so a name that is read elsewhere hides
the member: a field called ``x`` passes as soon as any object's ``.x`` is
read.  A member that shares a busy name has to be checked by hand.
"""

import ast

from scan import REPO, defs, name, parse, reads, sources

READERS = ("src", "tests", "perfbench")

#: "module.Class.member" -> reason it stays although nothing reads it
ALLOWED: dict[str, str] = {}


def _is_record(cls: ast.ClassDef) -> bool:
    """A class decorated with dataclass (bare, called or dotted) or derived from NamedTuple."""
    return any(name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in cls.decorator_list) or any(
        name(b) == "NamedTuple" for b in cls.bases
    )


def members(trees: dict[str, ast.Module]) -> set[str]:
    """"module.Class.name" of every record field, method and property."""
    out = set()
    for module, tree in trees.items():
        for qualname, cls in defs(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and _is_record(cls):
                    out.add(f"{module}.{qualname}.{stmt.target.id}")
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    stmt.name.startswith("__") and stmt.name.endswith("__")
                ):
                    out.add(f"{module}.{qualname}.{stmt.name}")
    return out


def read_names(trees) -> set[str]:
    """Every attribute name read (obj.name), or read by getattr with a literal name."""
    out = set()
    for tree in trees:
        out |= {n.attr for n in reads(tree) if isinstance(n, ast.Attribute)}
        out |= {
            n.args[1].value
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and name(n.func) == "getattr"
            and len(n.args) >= 2
            and isinstance(n.args[1], ast.Constant)
            and isinstance(n.args[1].value, str)
        }
    return out


def dead(trees: dict[str, ast.Module], readers) -> set[str]:
    """The members of the trees whose name no reader reads."""
    read = read_names(readers)
    return {m for m in members(trees) if m.rsplit(".", 1)[1] not in read}


def test_the_scan_sees_unread_fields_methods_and_properties():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass R:\n    a: int\n    b: int\n    c = 1\n"
        "    @property\n    def p(self):\n        return self.a\n"
        "    def m(self):\n        return getattr(self, 'b')\n    def __eq__(self, o):\n        return False\n"
        "class Plain:\n    x: int\n"
    )
    assert dead({"m": ast.parse(src)}, [ast.parse(src)]) == {"m.R.p", "m.R.m"}
    assert dead({"m": ast.parse(src)}, [ast.parse(src), ast.parse("r.p, r.m()")]) == set()


def test_every_field_is_read():
    readers = [parse(p) for d in READERS for p in sorted((REPO / d).rglob("*.py"))]
    found = dead(sources(), readers)
    unexpected = sorted(found - set(ALLOWED))
    assert not unexpected, f"fields, methods and properties nothing reads: {unexpected}"
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"allowed as unread but read, or gone: {stale}"
