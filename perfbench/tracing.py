"""Spans around canosc's public functions, recorded from outside the program.

`instrument` replaces each listed function by a wrapper in every canosc
module that holds a reference to it (the defining module, the modules that
imported it by name, and the package namespace), and restores the originals
on exit.  Nothing under src/ changes.  Spans are kept in memory as
[name, start, end, parent, query], on the process CPU clock like every
other time the benchmark reports, and written out when the run ends.  A
span's self time is its duration minus the durations of its direct
children; since calls nest, the self times of one query add up to the
duration of its root span.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time

LAYERS = ("cli", "hamiltonian", "pruefer", "rk", "spectra", "entire", "transforms")
ROOT = "bench.query"

# (module, function): one span per call, named "<module>.<function>"
SPANNED = {
    "cli": ("main", "build_parser", "load_config", "emit"),
    "hamiltonian": ("require_valid", "extract_phi"),
    "pruefer": ("integrate", "theta_at"),
    "rk": ("integrate_adaptive",),
    "spectra": (
        "count_bounded", "locate_eigenvalues", "halfline_count", "classify_semibounded",
        "classify_wholeline", "m_endpoints", "m_halfline_real", "ess_spectrum_bounds",
        "zero_eigenvalue_check", "negative_count_at_truncation",
    ),
    "entire": (
        "transfer_matrix", "transfer_matrix_log", "log_max_entry", "order_fit", "type_fit_imaginary", "expm",
        "hadamard_a", "hadamard_c", "hadamard_a_log", "hadamard_c_log",
    ),
    "transforms": (
        "schrodinger_to_canonical", "molchanov_new", "molchanov_classic",
        "canonical_to_diagonal", "debranges_type", "diagonal_to_hamiltonian",
    ),
}
# closed-form steps too cheap to span: counted only
COUNTED = {"pruefer": ("step_singular",)}
HADAMARD = ("entire.hadamard_a", "entire.hadamard_c", "entire.hadamard_a_log", "entire.hadamard_c_log")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open = collections.Counter()
        self.counts = collections.Counter()
        self.query = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.process_time(), 0.0, parent, self.query])
        self.stack.append(idx)
        self.open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = time.process_time()
        self.stack.pop()
        self.open[rec[0]] -= 1

    def run_query(self, qid, call):
        """call() under a root span for query qid."""
        self.query = qid
        idx = self.begin(ROOT)
        try:
            return call()
        finally:
            self.end(idx)
            self.query = None

    def spanned(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for name, s, e, parent, q in self.spans:
                fh.write(f"{name}\t{s!r}\t{e!r}\t{parent}\t{q}\n")


def _wrappers(tracer: Tracer, modules: dict):
    """{(module, function): wrapper} for every spanned and counted function."""
    counts = tracer.counts

    def rk_integrate(fn):
        def wrapper(f, *args, **kwargs):
            n = [0]

            def counted_f(x, y):
                n[0] += 1
                return f(x, y)

            idx = tracer.begin("rk.integrate_adaptive")
            try:
                return fn(counted_f, *args, **kwargs)
            finally:
                tracer.end(idx)
                counts["rk.rhs_evals"] += n[0]

        return wrapper

    def theta_at(fn):
        inner = tracer.spanned("pruefer.theta_at", fn)

        def wrapper(*args, **kwargs):
            if tracer.open["spectra.locate_eigenvalues"]:
                counts["spectra.locate.theta_evals"] += 1
            return inner(*args, **kwargs)

        return wrapper

    hooks = {
        ("pruefer", "integrate"): lambda r: counts.update({"pruefer.samples": len(r.xs)}),
        ("spectra", "count_bounded"): lambda r: counts.update({"spectra.count_bounded.certified": int(r.certified)}),
        ("spectra", "locate_eigenvalues"): lambda r: counts.update({"spectra.locate.eigs": len(r)}),
        ("spectra", "halfline_count"): lambda r: counts.update(
            {"spectra.halfline.conclusive": int(r.status != "inconclusive")}
        ),
    }
    special = {("rk", "integrate_adaptive"): rk_integrate, ("pruefer", "theta_at"): theta_at}
    out = {}
    for mod, names in SPANNED.items():
        for name in names:
            fn = getattr(modules[mod], name)
            if (mod, name) in special:
                out[mod, name] = special[mod, name](fn)
            else:
                out[mod, name] = tracer.spanned(f"{mod}.{name}", fn, hooks.get((mod, name)))
    for mod, names in COUNTED.items():
        for name in names:
            out[mod, name] = tracer.counted(f"{mod}.{name}", getattr(modules[mod], name))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every reference to the listed functions inside canosc."""
    modules = {name: sys.modules[f"canosc.{name}"] for name in set(SPANNED) | set(COUNTED)}
    holders = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "canosc" or n.startswith("canosc."))
    ]
    patches = []
    try:
        for (mod, name), wrapper in _wrappers(tracer, modules).items():
            original = getattr(modules[mod], name)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, value in reversed(patches):
            setattr(holder, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            child[parent] += e - s
    return [(e - s) - c for (_, s, e, _, _), c in zip(spans, child)]


def per_layer_metrics(tracer: Tracer, n_queries: int) -> dict:
    """Per-query layer metrics: {name: (value, unit)}."""
    selfs = self_times(tracer.spans)
    calls = collections.Counter()
    self_s = collections.Counter()
    for (name, *_), st in zip(tracer.spans, selfs):
        calls[name] += 1
        self_s[name] += st
    c = tracer.counts
    n = max(n_queries, 1)

    def ms(*names):
        return (sum(self_s[x] for x in names) * 1e3 / n, "ms")

    def per_query(v):
        return (v / n, "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    m = {
        "cli.build_parser_ms": ms("cli.build_parser"),
        "cli.load_config_ms": ms("cli.load_config"),
        "cli.emit_ms": ms("cli.emit"),
        "cli.self_ms": ms("cli.main"),
        "hamiltonian.require_valid.calls": per_query(calls["hamiltonian.require_valid"]),
        "hamiltonian.require_valid.self_ms": ms("hamiltonian.require_valid"),
        "hamiltonian.extract_phi.calls": per_query(calls["hamiltonian.extract_phi"]),
        "hamiltonian.extract_phi.self_ms": ms("hamiltonian.extract_phi"),
        "pruefer.integrate.calls": per_query(calls["pruefer.integrate"]),
        "pruefer.integrate.self_ms": ms("pruefer.integrate"),
        "pruefer.step_singular.calls": per_query(c["pruefer.step_singular.calls"]),
        "pruefer.samples": per_query(c["pruefer.samples"]),
        "rk.calls": per_query(calls["rk.integrate_adaptive"]),
        "rk.rhs_evals": per_query(c["rk.rhs_evals"]),
        "rk.self_ms": ms("rk.integrate_adaptive"),
        "spectra.count_bounded.self_ms": ms("spectra.count_bounded"),
        "spectra.locate_eigenvalues.self_ms": ms("spectra.locate_eigenvalues"),
        "spectra.halfline_count.self_ms": ms("spectra.halfline_count"),
        "spectra.locate.theta_evals_per_eig": ratio(c["spectra.locate.theta_evals"], c["spectra.locate.eigs"]),
        "spectra.certified_frac": ratio(c["spectra.count_bounded.certified"], calls["spectra.count_bounded"]),
        "spectra.halfline.conclusive_frac": ratio(c["spectra.halfline.conclusive"], calls["spectra.halfline_count"]),
        "entire.log_max_entry.calls": per_query(calls["entire.log_max_entry"]),
        "entire.log_max_entry.self_ms": ms("entire.log_max_entry"),
        "entire.transfer_matrix.self_ms": ms("entire.transfer_matrix", "entire.transfer_matrix_log"),
        "entire.expm.calls": per_query(calls["entire.expm"]),
        "entire.expm_ms": ms("entire.expm"),
        "entire.order_fit.self_ms": ms("entire.order_fit"),
        "entire.hadamard.self_ms": ms(*HADAMARD),
        "transforms.schrodinger_to_canonical.self_ms": ms("transforms.schrodinger_to_canonical"),
        "transforms.molchanov_new.self_ms": ms("transforms.molchanov_new"),
        "transforms.canonical_to_diagonal.self_ms": ms("transforms.canonical_to_diagonal"),
    }
    for layer in ("bench",) + LAYERS:
        names = [x for x in self_s if x.split(".")[0] == layer]
        m[f"layer.{layer}.self_ms"] = ms(*names)
    m["trace.query_ms"] = ms(*self_s)
    return m
