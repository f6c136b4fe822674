"""Workloads, query preparation, answer checks and statistics.

A workload is a committed pool of inputs with reference answers
(perfbench/data/<workload>.json, made by gen_refs.py).  Every round holds a
fixed number of queries of each type, and a run is made of whole epochs that
visit every instance once; the seed draws the order of the visits.  So the
mix and the population are the same for every seed, and run-to-run spread
is timing noise, not a different sample of instances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: queries of each type per round (for the chained Schroedinger import, each
#: import is followed by a half-line count on the imported system)
ROUNDS = {
    "oscillation-exact": {
        "validate": 1, "theta": 2, "count": 2, "halfline": 2, "locate": 2, "classify": 1,
        "m_endpoints": 1, "ess_bounds": 1, "zero_eig": 1, "to_diagonal": 1, "type": 1, "order": 1,
    },
    "oscillation-rk": {"count": 2, "halfline": 1, "locate": 1, "negcount": 2, "import": 1, "molchanov": 1},
    "growth": {"order_singular": 2, "order_rk": 1, "type_fit": 1, "hadamard": 1},
}

#: rounds per epoch; a pool holds mix[type] * EPOCH_ROUNDS instances of a type
EPOCH_ROUNDS = 24

#: end-to-end metrics are medians over the epochs of a run
MIN_EPOCHS = 3

#: CPU seconds `calibrate` takes between queries on the reference machine
#: (the 2-vCPU virtual machine of NOTES.md) at its usual speed;
#: host-normalised times are scaled to it
KERNEL_REF_S = 1.1e-3

#: calibration kernels in the rolling median that gives the host's speed
#: around a query
HOST_WINDOW = 9


@dataclass
class Query:
    id: str
    call: Callable[[], Any]
    extract: Callable[[Any], dict]
    expect: list
    #: builds the next query from this one's result (chained calls)
    follow: Optional[Callable[[Any], "Query"]] = None


@dataclass
class Record:
    query: Query
    latency: float
    raw: Any = None
    error: Optional[str] = None
    #: CPU seconds of the calibration kernel run just before the query
    kernel: float = 0.0


def load_pool(workload: str) -> dict:
    with open(os.path.join(HERE, "data", f"{workload}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# query preparation


def _cli_extract(raw):
    code, text = raw
    if code != 0:
        raise RuntimeError(f"exit code {code}: {text.strip()[:200]}")
    return json.loads(text)


def _cli_call(cli, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return call


def _exact_queries(pool, canosc, workdir):
    paths = {}
    for key, doc in pool["systems"].items():
        paths[key] = os.path.join(workdir, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc, fh)
    out = {}
    for kind, items in pool["queries"].items():
        out[kind] = [
            Query(
                q["id"],
                _cli_call(canosc.cli, [paths[q["system"]] if a == "{config}" else a for a in q["argv"]]),
                _cli_extract,
                q["expect"],
            )
            for q in items
        ]
    return out


def _halfline_out(res):
    return {"F_values": list(res.F_values), "status": res.status, "result": res.count}


def _fit_out(fit):
    return {"logmax": fit.logmax.tolist(), "order": fit.order}


def _rk_queries(pool, canosc, workdir):
    spectra, transforms = canosc.spectra, canosc.transforms
    H = {k: canosc.cli.build_hamiltonian(doc) for k, doc in pool["systems"].items()}
    P = {
        k: transforms.SchrodingerProblem(grid=np.array(p["grid"]), values=np.array(p["values"]), E0=p["e0"])
        for k, p in pool["potentials"].items()
    }
    W = spectra.SpectralWindow

    def make(kind, q):
        a = q.get("args", {})
        if kind == "count":
            h, w = H[q["system"]], W(*a["window"])
            call = lambda: spectra.count_bounded(h, a["L"], a["beta"], w, a["tol"])
            extract = lambda r: {"count": r.count, "certified": r.certified}
        elif kind == "halfline":
            h, w = H[q["system"]], W(*a["window"])
            call = lambda: spectra.halfline_count(h, w, a["schedule"], a["tol"])
            extract = _halfline_out
        elif kind == "locate":
            h, w = H[q["system"]], W(*a["window"])
            call = lambda: spectra.locate_eigenvalues(h, a["L"], a["beta"], w, a["tol"])
            extract = lambda r: {"result": list(r), "count": len(r)}
        elif kind == "negcount":
            h = H[q["system"]]
            call = lambda: spectra.negative_count_at_truncation(h, a["L"], a["T_floor"], a["tol"])
            extract = lambda r: {"count": r}
        elif kind == "import":
            p = P[q["potential"]]
            call = lambda: transforms.schrodinger_to_canonical(p, tol=a["tol"])
            extract = lambda r: {
                "swapped": r[2],
                "X": [x for x, _ in r[0].segments[0].kind.points],
                "phi": [v for _, v in r[0].segments[0].kind.points],
            }
            nxt = q["then"]

            def follow(r, nxt=nxt, qid=q["id"]):
                h = r[0]
                w = W(*nxt["window"])
                schedule = [h.x_max * fr for fr in nxt["fractions"]]
                return Query(
                    qid + "/halfline",
                    lambda: spectra.halfline_count(h, w, schedule, nxt["tol"]),
                    _halfline_out,
                    nxt["expect"],
                )

            return Query(q["id"], call, extract, q["expect"], follow)
        elif kind == "molchanov":
            p, xg = P[q["potential"]], np.array(a["x_grid"])
            call = lambda: transforms.molchanov_new(p, xg, tol=a["tol"])
            extract = lambda r: {"G": r.G.tolist()}
        else:
            raise ValueError(f"unknown query type {kind!r}")
        return Query(q["id"], call, extract, q["expect"])

    return {kind: [make(kind, q) for q in items] for kind, items in pool["queries"].items()}


def _growth_queries(pool, canosc, workdir):
    entire = canosc.entire
    H = {k: canosc.cli.build_hamiltonian(doc) for k, doc in pool["systems"].items()}

    def make(kind, q):
        a = q["args"]
        if kind in ("order_singular", "order_rk"):
            h = H[q["system"]]
            call = lambda: entire.order_fit(
                lambda zz: entire.log_max_entry(h, h.x_max, zz, a["tol"]),
                a["r_min"], a["r_max"], n_radii=a["n_radii"], n_phases=a["n_phases"], log_abs=True,
            )
            extract = _fit_out
        elif kind == "type_fit":
            h = H[q["system"]]
            call = lambda: entire.type_fit_imaginary(
                lambda zz: entire.log_max_entry(h, h.x_max, zz), a["y_min"], a["y_max"]
            )
            extract = lambda r: {"rate": r}
        elif kind == "hadamard":
            name = "hadamard_a_log" if a["family"] == "a" else "hadamard_c_log"
            call = lambda: entire.order_fit(
                lambda zz: getattr(entire, name)(zz, a["alpha"]), a["r_min"], a["r_max"], log_abs=True
            )
            extract = _fit_out
        else:
            raise ValueError(f"unknown query type {kind!r}")
        return Query(q["id"], call, extract, q["expect"])

    return {kind: [make(kind, q) for q in items] for kind, items in pool["queries"].items()}


PREPARE = {
    "oscillation-exact": _exact_queries,
    "oscillation-rk": _rk_queries,
    "growth": _growth_queries,
}


@contextlib.contextmanager
def setup(workload: str, canosc, work_root: str, known: bool = False):
    """Load the pool and prepare its queries; yields {type: [Query]}.  With
    `known`, the queries are the pool's known failures instead of its
    schedule."""
    pool = load_pool(workload)
    if known:
        pool["queries"] = {}
        for q in pool["known_failures"]:
            pool["queries"].setdefault(q["type"], []).append(q)
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        yield PREPARE[workload](pool, canosc, workdir)


def epochs(queries: dict, mix: dict, seed: int):
    """Endless stream of epochs.  An epoch is EPOCH_ROUNDS rounds of mix[type]
    queries per type and visits every instance exactly once, in an order
    drawn from the seed; so every run measures whole copies of the pool."""
    rng = random.Random(seed)
    for kind, k in mix.items():
        if len(queries[kind]) != k * EPOCH_ROUNDS:
            raise ValueError(f"{kind}: {len(queries[kind])} instances, expected {k * EPOCH_ROUNDS}")
    while True:
        lanes = {}
        for kind in mix:
            lanes[kind] = list(queries[kind])
            rng.shuffle(lanes[kind])
        yield [q for r in range(EPOCH_ROUNDS) for kind, k in mix.items() for q in lanes[kind][r * k:(r + 1) * k]]


# ---------------------------------------------------------------------------
# running


def execute(query: Query, runner=None) -> list[Record]:
    """Run one query (and its chained follow-up); exceptions become records.

    Latency is the process's CPU time over the call.  The benchmark is one
    thread with BLAS pinned to one thread, so on an idle machine this equals
    wall time; on a shared virtual machine it leaves out the time the host
    deschedules the guest, which wall time would count as the program's.
    """
    out = []
    while query is not None:
        t0 = time.process_time()
        try:
            raw = runner(query.id, query.call) if runner else query.call()
        except Exception as exc:  # a failing query is recorded, never dropped
            out.append(Record(query, time.process_time() - t0, error=f"{type(exc).__name__}: {exc}"))
            if query.follow is not None:
                out.append(Record(Query(query.id + "/follow", None, None, []), 0.0,
                                  error="not run: the call it chains on failed"))
            return out
        out.append(Record(query, time.process_time() - t0, raw=raw))
        query = query.follow(raw) if query.follow else None
    return out


_KERNEL_MATRIX = np.array([[1.0, 0.1], [0.2, 1.0]])
_KERNEL_DOC = {"segments": [{"kind": "angle", "phi": 0.1 * i, "length": 1.0} for i in range(8)]}


def calibrate() -> float:
    """CPU seconds of a fixed kernel that uses nothing of canosc: a scalar
    float loop, products of small numpy arrays and JSON round trips, the
    kinds of work canosc's propagators and CLI do.  The program under test
    cannot change its time, so it measures the host's speed at that moment:
    on a shared virtual machine the same CPU work takes up to 1.5x longer in
    phases of seconds to minutes (a busy sibling hyperthread, frequency
    changes)."""
    t0 = time.process_time()
    y = 0.3
    for i in range(600):
        y += 1e-3 * math.cos(y) * math.sin(i * 1e-3)
    b = _KERNEL_MATRIX
    for _ in range(60):
        b = b @ _KERNEL_MATRIX
        b = b / np.abs(b).max()
    for _ in range(6):
        doc = json.loads(json.dumps(_KERNEL_DOC))
        [key + str(v) for seg in doc["segments"] for key, v in seg.items()]
    return time.process_time() - t0


def host_normalised(records: list[Record]) -> list[float]:
    """Each record's latency in seconds at the reference host speed: scaled
    by KERNEL_REF_S over the median kernel time of the HOST_WINDOW queries
    around it, in the order they ran."""
    kernels = [r.kernel for r in records]
    h = HOST_WINDOW // 2
    return [
        r.latency * KERNEL_REF_S / median(kernels[max(0, i - h):i + h + 1])
        for i, r in enumerate(records)
    ]


def closed_loop(stream, seconds: float):
    """One client: the next query starts when the previous one returns, after
    the calibration kernel has run.  Runs whole epochs of the stream until
    `seconds` of wall time and MIN_EPOCHS epochs have passed.  Returns
    ([records] per epoch, base queries issued)."""
    done, issued = [], []
    t0 = time.perf_counter()
    while len(done) < MIN_EPOCHS or time.perf_counter() - t0 < seconds:
        records = []
        for q in next(stream):
            issued.append(q)
            kernel = calibrate()
            for r in execute(q):
                r.kernel = kernel
                records.append(r)
        done.append(records)
    return done, issued


# ---------------------------------------------------------------------------
# checking


def _as_number(v):
    if isinstance(v, str):
        return float(v)  # the CLI writes non-finite floats as "inf", "nan"
    return v


def check(out: dict, expect: list) -> Optional[str]:
    """None when every expectation holds, else the first mismatch."""
    for e in expect:
        skip = e.get("skip_if")
        if skip and out.get(skip[0]) == skip[1]:
            continue
        path = e["path"]
        if path not in out:
            return f"{path}: missing"
        got, want = out[path], e["value"]
        if "atol" not in e:
            if got != want or type(got) is not type(want):
                return f"{path}: {got!r} != {want!r}"
            continue
        gots = got if isinstance(got, list) else [got]
        wants = want if isinstance(want, list) else [want]
        atols = e["atol"] if isinstance(e["atol"], list) else [e["atol"]] * len(wants)
        if len(gots) != len(wants):
            return f"{path}: {len(gots)} values, expected {len(wants)}"
        for i, (g, w, a) in enumerate(zip(gots, wants, atols)):
            g = _as_number(g)
            if not isinstance(g, (int, float)) or not abs(g - w) <= a:
                return f"{path}[{i}]: {g!r} vs reference {w!r} (atol {a:.3g})"
    return None


def grade(records: list[Record]) -> list[tuple[str, str]]:
    """[(query id, reason)] for every record that raised or disagrees with its reference."""
    failures = []
    for r in records:
        if r.error is not None:
            failures.append((r.query.id, r.error))
            continue
        try:
            msg = check(r.query.extract(r.raw), r.query.expect)
        except Exception as exc:
            msg = f"{type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append((r.query.id, msg))
    return failures


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile; refuses when fewer than ten samples lie above it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(f"{n} samples leave {n - rank} above the {q:g} quantile; need 10")
    return sorted(values)[rank - 1]


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])
