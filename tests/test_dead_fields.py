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
import pathlib

import canosc

SRC = pathlib.Path(canosc.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent
READERS = ("src", "tests", "perfbench")

#: "module.Class.member" -> reason it stays although nothing reads it
ALLOWED: dict[str, str] = {}


def _is_record(cls: ast.ClassDef) -> bool:
    """A class decorated with dataclass (bare, called or dotted) or derived from NamedTuple."""

    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return any(name(d) == "dataclass" for d in cls.decorator_list) or any(
        name(b) == "NamedTuple" for b in cls.bases
    )


def members() -> set[str]:
    """"module.Class.name" of every record field, method and property."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and _is_record(cls):
                    out.add(f"{path.stem}.{cls.name}.{stmt.target.id}")
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    stmt.name.startswith("__") and stmt.name.endswith("__")
                ):
                    out.add(f"{path.stem}.{cls.name}.{stmt.name}")
    return out


def read_names() -> set[str]:
    out = set()
    for d in READERS:
        for path in sorted((REPO / d).rglob("*.py")):
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    out.add(n.attr)
                elif (
                    isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "getattr"
                    and len(n.args) >= 2
                    and isinstance(n.args[1], ast.Constant)
                    and isinstance(n.args[1].value, str)
                ):
                    out.add(n.args[1].value)
    return out


def test_every_field_is_read():
    read = read_names()
    dead = {m for m in members() if m.rsplit(".", 1)[1] not in read}
    unexpected = sorted(dead - set(ALLOWED))
    assert not unexpected, f"fields, methods and properties nothing reads: {unexpected}"
    stale = sorted(set(ALLOWED) - dead)
    assert not stale, f"allowed as unread but read, or gone: {stale}"
