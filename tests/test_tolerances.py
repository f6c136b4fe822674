"""Every slack that decides an answer in canosc is named, or listed here.

A float literal inside a comparison, or inside the argument of a ``ceil`` or
``floor``, is a slack or a threshold that some answer turns on.  The same
question asked with two such literals gives two answers near the boundary,
so each question reads one named constant, whose comment gives its source
(``hamiltonian.ANGLE_TOL`` for every angle mod pi, ``POSITION_TOL`` for "x
is at X").  0, 1/2, 1 and 2 are exact and exempt.  The literals kept on
purpose are listed in ALLOWED as "module.scope value", each with its
reason, and an entry that no longer matches a literal fails too, so the list
cannot go stale.
"""

import ast

from scan import name, scoped, sources

EXACT = {0.0, 0.5, 1.0, 2.0}

#: "module.scope value" -> why the literal stays unnamed
ALLOWED = {
    "entire._cosh_sinhc 20.0": "e^(-2*20) is below eps/2: past it the scaled form loses no digit",
    "entire._cosh_sinhc 1e-300": "1/mu overflows the complex division below it; sinh(mu)/mu is 1 there",
    "entire.order_fit 1000.0": "an input rule: the radii span three decades for a slope fit",
    "entire.order_fit 1e-09": "no growth of log max |T|: a heuristic, which item 1's exact order replaces",
    "entire._power_sum 1e-17": "a remainder below 1e-17 of the first term is under eps/2 = 1.1e-16 of the sum",
    "entire.order_bound_check 0.55": "criterion 10's order bound 1/2 with the fit's slack",
    "pruefer.turn 1e+150": "a floor of the per-step hot path: past k = 1e150, b is below rounding against a",
    "rk.integrate_adaptive 1e-14": "a checkpoint reached to a few dozen ulps; rk is retired by item 7",
    "rk.integrate_adaptive 1e-10": "past allowed / err = 1e10 the step factor is at its cap anyway",
    "spectra.locate_eigenvalues 1e-14": "the stop of the secant in t, a few dozen ulps of its ends",
    "spectra.ess_spectrum_bounds 1.1": "trend ratio of the sup of g: a heuristic, which item 2's Tail replaces",
    "spectra.ess_spectrum_bounds 1.3": "divergence ratio of the sup of g: a heuristic, which item 2's Tail replaces",
    "spectra.zero_eigenvalue_check 0.001": "margin of the two-point decay estimate, which item 2's Tail removes",
    "transforms.schrodinger_to_canonical 1e-06": "RK slack on the drop of an import: item 7's exact cells replace it",
    "transforms.schrodinger_to_canonical 1e-15": "merges X nodes a few ulps apart, so the table offsets increase",
    "transforms.molchanov_new 0.75": "the decay share of the generalized criterion's verdict, a heuristic",
}


def literals(tree: ast.AST) -> set[str]:
    """"scope value" of every float literal outside EXACT that sits in a
    comparison or in the argument of a ceil or floor call."""
    out = set()
    for scope, node in scoped(tree):
        if isinstance(node, ast.Compare) or (isinstance(node, ast.Call) and name(node.func) in ("ceil", "floor")):
            for n in ast.walk(node):
                if isinstance(n, ast.Constant) and type(n.value) is float and abs(n.value) not in EXACT:
                    out.add(f"{scope} {n.value!r}")
    return out


def found() -> set[str]:
    return {f"{m}.{lit}" for m, tree in sources().items() for lit in literals(tree)}


def test_the_scan_finds_comparisons_and_branch_arguments_only():
    src = (
        "import math\n"
        "TOL = 1e-12\n"
        "def f(x, y):\n"
        "    if x < y + 1e-9 * max(1.0, y):\n"
        "        return math.ceil(x / 3.0 - TOL)\n"
        "    z = 0.25 * x\n"
        "    return z > 0.5 and -2.0 <= y\n"
        "class C:\n"
        "    def g(self, v):\n"
        "        return [w for w in v if abs(w) >= 1e3]\n"
    )
    assert literals(ast.parse(src)) == {"f 1e-09", "f 3.0", "C.g 1000.0"}


def test_every_slack_is_named_or_allowed():
    unexpected = sorted(found() - ALLOWED.keys())
    assert not unexpected, f"unnamed float literals deciding an answer: {unexpected}"


def test_allowed_is_not_stale():
    stale = sorted(ALLOWED.keys() - found())
    assert not stale, f"allowed but no longer in src/canosc: {stale}"
