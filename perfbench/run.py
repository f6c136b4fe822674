"""canosc benchmark: time-to-answer on seeded spectral queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; canosc is imported from ./src.  One
client issues queries in a closed loop, in a single process with BLAS
threads pinned to 1.  Every answer is checked against the committed
reference of perfbench/data.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  A run is made of epochs, each
visiting every query of the workload's pool once; queries_per_s,
query_ms.p50 and query_ms.p90 are computed per epoch and the median over
epochs is reported, so a few seconds of host contention move one epoch, not
the result.  setup_s is the median over fresh interpreters that import
canosc and prepare the workload; peak_rss_mb is the run's peak resident
memory.  Times are process CPU time: with one thread it equals wall time on
an idle machine, and it leaves out the time a shared virtual machine is
descheduled by its host.  Query times are also host-normalised: a fixed
calibration kernel that uses nothing of canosc runs before every query,
and each query's time is scaled by the kernel's reference time over the
median kernel time around it, so that the host's slow and fast phases
cancel while a change in the program still shows in full.

--trace 1 runs the workload untraced for half the time, then replays the
same queries with spans around canosc's public functions, and reports
per-query layer metrics (raw CPU time, with the host's kernel time beside
them) and the tracing overhead; spans are written to
.bench_build/perfbench/.

Either way, the pool's known failures (queries the program failed when the
pool was made) are then run once, untimed and outside `correct`, and
reported on stderr as "KNOWN <id>: fails (...)" or "KNOWN <id>: passes".
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 7

sys.path.insert(0, HERE)
import harness  # noqa: E402
import tracing  # noqa: E402


def import_program():
    """canosc from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        canosc = importlib.import_module("canosc")
        for sub in ("cli", "entire", "hamiltonian", "pruefer", "rk", "spectra", "transforms"):
            importlib.import_module(f"canosc.{sub}")
    except ImportError as exc:
        raise SystemExit(f"cannot import canosc from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(canosc.__file__)) != os.path.join(SRC, "canosc"):
        raise SystemExit(f"canosc imported from {canosc.__file__}, not from {SRC}")
    return canosc


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_seconds(workload: str, seed: int) -> float:
    """Median CPU time of fresh interpreters that import canosc and prepare
    the workload, then exit.  Not host-normalised: the calibration kernel
    does not track the speed of imports (see NOTES.md)."""
    times = []
    for _ in range(SETUP_PROBES):
        c0 = _children_cpu()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(_children_cpu() - c0)
    return harness.median(times)


def warm_up(queries, workload):
    """One query of every type, checked but not timed: first-call costs
    (lazy imports, caches) are not part of the steady-state latency."""
    records = []
    for kind in harness.ROUNDS[workload]:
        records.extend(harness.execute(queries[kind][0]))
    for _ in range(harness.HOST_WINDOW):
        harness.calibrate()
    return records


def report_known(workload, canosc):
    """Run once, untimed, the queries the seed program failed (the pool's
    known_failures) and say on stderr whether each still fails.  They stay
    out of `correct`, so a fix shows here without the parent failing."""
    with harness.setup(workload, canosc, WORK, known=True) as queries:
        for q in (q for qs in queries.values() for q in qs):
            failures = harness.grade(harness.execute(q))
            status = f"fails ({failures[0][1]})" if failures else "passes"
            print(f"KNOWN {q.id}: {status}", file=sys.stderr)


def report(records, failures, metrics):
    for qid, reason in failures:
        print(f"FAILED {qid}: {reason}", file=sys.stderr)
    doc = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))


def run_untraced(args, canosc):
    setup_s = setup_seconds(args.workload, args.seed)
    with harness.setup(args.workload, canosc, WORK) as queries:
        records = warm_up(queries, args.workload)
        stream = harness.epochs(queries, harness.ROUNDS[args.workload], args.seed)
        epochs, _ = harness.closed_loop(stream, args.seconds)
        timed = [r for recs in epochs for r in recs]
        records += timed
        lat_ms = [t * 1e3 for t in harness.host_normalised(timed)]
        qps, p50, p90 = [], [], []
        start = 0
        for recs in epochs:
            lat = lat_ms[start:start + len(recs)]
            start += len(recs)
            qps.append(1e3 * len(lat) / sum(lat))
            p50.append(harness.percentile(lat, 0.5))
            p90.append(harness.percentile(lat, 0.9))
        metrics = {
            "setup_s": (setup_s, "s"),
            "queries_per_s": (harness.median(qps), "1/s"),
            "query_ms.p50": (harness.median(p50), "ms"),
            "query_ms.p90": (harness.median(p90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report(records, harness.grade(records), metrics)


def run_traced(args, canosc):
    with harness.setup(args.workload, canosc, WORK) as queries:
        records = warm_up(queries, args.workload)
        stream = harness.epochs(queries, harness.ROUNDS[args.workload], args.seed)
        epochs, issued = harness.closed_loop(stream, args.seconds / 2)
        plain = [r for recs in epochs for r in recs]
        tracer = tracing.Tracer()
        traced = []
        with tracing.instrument(tracer):
            for q in issued:
                traced.extend(harness.execute(q, tracer.run_query))
        records += plain + traced
        plain_ms = sum(r.latency for r in plain) * 1e3 / len(plain)
        metrics = tracing.per_layer_metrics(tracer, len(traced))
        metrics["trace.untraced_query_ms"] = (plain_ms, "ms")
        metrics["trace.overhead_ms"] = (sum(r.latency for r in traced) * 1e3 / len(traced) - plain_ms, "ms")
        metrics["host.kernel_ms"] = (harness.median([r.kernel for r in plain]) * 1e3, "ms")
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv"))
        report(records, harness.grade(records), metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    canosc = import_program()
    if args.setup_probe:
        with harness.setup(args.workload, canosc, WORK):
            return 0
    if args.trace:
        run_traced(args, canosc)
    else:
        run_untraced(args, canosc)
    report_known(args.workload, canosc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
