"""canosc imports the standard library and numpy only.

pyproject.toml declares numpy as the one dependency, and mpmath as a test
extra for the independent references in ``tests/refs.py``.  An import of
anything else in ``src/canosc``, mpmath included, would fail on an install
made from the one dependency.

Inside canosc, only the Schroedinger layer (:mod:`canosc.transforms`) runs
the adaptive RK of :mod:`canosc.rk`, and the CLI catches its error: every
canonical-system computation is closed form.
"""

import ast
import pathlib
import sys

import canosc

SRC = pathlib.Path(canosc.__file__).parent
#: module -> packages it may import besides the standard library and numpy
EXTRA = {}


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


def _rk_reads(tree: ast.Module):
    """None if the module does not import canosc.rk, else what it takes from
    it: the names it imports from it, or the attributes it reads off ``rk``
    after ``from . import rk``.  (An absolute import of canosc fails
    test_imports_are_declared.)"""
    out = None
    for n in ast.walk(tree):
        if not (isinstance(n, ast.ImportFrom) and n.level == 1):
            continue
        if n.module == "rk":
            out = (out or set()) | {a.name for a in n.names}
        elif n.module is None and any(a.name == "rk" for a in n.names):
            out = (out or set()) | {
                a.attr for a in ast.walk(tree)
                if isinstance(a, ast.Attribute) and getattr(a.value, "id", None) == "rk"
            }
    return out


def test_only_the_schrodinger_layer_runs_rk():
    reads = {}
    for path in sorted(SRC.glob("*.py")):
        got = _rk_reads(ast.parse(path.read_text(), filename=str(path)))
        if got is not None:
            reads[path.stem] = got
    assert reads == {"transforms": {"integrate_adaptive"}, "cli": {"IntegrationError"}}


def test_the_oracle_reads_only_the_hamiltonian():
    # canosc.oracle is the independent reference: it takes the segments from
    # canosc.hamiltonian and computes everything else itself
    tree = ast.parse((SRC / "oracle.py").read_text())
    local = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level > 0:
            local |= {n.module} if n.module else {a.name for a in n.names}
    assert local == {"hamiltonian"}
