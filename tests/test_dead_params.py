"""Every parameter of every function in canosc is read by its body.

A parameter the body never reads changes nothing, so a caller who sets it
is misled.  This is the library's twin of the CLI's dead-flag guard
(``tests/test_cli.py::TestEveryOptionIsRead``).  The exceptions are listed
in ALLOWED, each with its reason, and an exception that is no longer dead
fails too, so the list cannot go stale.
"""

import ast
import pathlib

import canosc

SRC = pathlib.Path(canosc.__file__).parent

# Every segment kind answers pieces(length) and split(at, length) (see
# hamiltonian's "segment kinds"): a kind whose answer does not depend on an
# argument still takes it.
_PROTOCOL = "segment-kind protocol"
#: "module.qualname" -> (unread parameters, reason)
ALLOWED = {
    "hamiltonian.ConstantAngle.split": ({"at", "length"}, _PROTOCOL),
    "hamiltonian.ConstantMatrix.split": ({"at", "length"}, _PROTOCOL),
    "hamiltonian.PhiTable.pieces": ({"length"}, _PROTOCOL),
    # the benchmark harness passes these positionally and criterion 11 by
    # keyword, so they go with the next benchmark change
    "spectra.count_bounded": ({"tol"}, "benchmark-pinned"),
    "entire.log_max_entry": ({"tol"}, "benchmark-pinned"),
}


def _functions(tree: ast.Module):
    """(qualname, node) of every def, methods under their class."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def _unread(fn) -> set[str]:
    a = fn.args
    params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
    params -= {"self", "cls"}
    nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
    # x += y reads x (and updates an array argument in place)
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.target.id for n in nodes if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
    return params - read


def dead_parameters() -> dict[str, set[str]]:
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, fn in _functions(tree):
            unread = _unread(fn)
            if unread:
                out[f"{path.stem}.{qualname}"] = unread
    return out


def test_every_parameter_is_read():
    dead = dead_parameters()
    allowed = {name: params for name, (params, _) in ALLOWED.items()}
    unexpected = {n: sorted(p - allowed.get(n, set())) for n, p in dead.items() if p - allowed.get(n, set())}
    assert not unexpected, f"parameters their function never reads: {unexpected}"
    stale = {n: sorted(p - dead.get(n, set())) for n, p in allowed.items() if p - dead.get(n, set())}
    assert not stale, f"allowed as unread but read: {stale}"
