"""Tests of the benchmark harness: statistics, tracing and answer checks.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import tracing  # noqa: E402

import canosc.cli  # noqa: E402
from canosc import pruefer, rk, spectra  # noqa: E402
from canosc.hamiltonian import ConstantAngle, Hamiltonian, Segment  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert harness.percentile(values, 0.9) == 90
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(list(reversed(values)), 0.9) == 90


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 0.5)


def test_median():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_host_normalised_cancels_host_phases_not_program_changes():
    ref = harness.KERNEL_REF_S
    slow = [1.5] * 20 + [1.0] * 20  # host speed factor, one phase each
    cost = [2.0 if i % 4 else 8.0 for i in range(40)]  # the program's own work
    records = [harness.Record(None, c * f, kernel=ref * f) for c, f in zip(cost, slow)]
    assert harness.host_normalised(records) == pytest.approx(cost)
    records[25].kernel = 50 * ref  # one kernel disturbed: the rolling median ignores it
    assert harness.host_normalised(records) == pytest.approx(cost)
    slower = [harness.Record(None, 1.25 * r.latency, kernel=r.kernel) for r in records]
    assert harness.host_normalised(slower) == pytest.approx([1.25 * c for c in cost])


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    spans = [
        ["bench.query", 0.0, 10.0, -1, "q"],
        ["spectra.a", 1.0, 6.0, 0, "q"],
        ["pruefer.b", 2.0, 4.0, 1, "q"],
        ["rk.c", 7.0, 9.0, 0, "q"],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_layer_self_times_add_up_to_query_time():
    t = tracing.Tracer()
    t.spans = [
        ["bench.query", 0.0, 10.0, -1, 1],
        ["cli.main", 0.5, 9.5, 0, 1],
        ["cli.build_parser", 1.0, 3.0, 1, 1],
        ["pruefer.integrate", 4.0, 8.0, 1, 1],
        ["rk.integrate_adaptive", 5.0, 7.5, 3, 1],
    ]
    m = tracing.per_layer_metrics(t, 1)
    layers = sum(v for k, (v, _) in m.items() if k.startswith("layer."))
    assert layers == pytest.approx(m["trace.query_ms"][0]) == pytest.approx(10e3)
    assert m["rk.self_ms"][0] == pytest.approx(2.5e3)
    assert m["pruefer.integrate.self_ms"][0] == pytest.approx(1.5e3)
    assert m["cli.self_ms"][0] == pytest.approx(3e3)  # main minus parser and integrate
    assert m["layer.bench.self_ms"][0] == pytest.approx(1e3)


def test_instrument_spans_nested_calls_and_restores():
    H = Hamiltonian((Segment(1.0, ConstantAngle(0.3)), Segment(0.7, ConstantAngle(-0.4))))
    original = (spectra.count_bounded, pruefer.integrate, pruefer.step_singular, rk.integrate_adaptive)
    t = tracing.Tracer()
    with tracing.instrument(t):
        assert spectra.count_bounded is not original[0]
        res = t.run_query("q0", lambda: spectra.count_bounded(H, 1.7, 0.5, spectra.SpectralWindow(-3, 4)))
    assert (spectra.count_bounded, pruefer.integrate, pruefer.step_singular, rk.integrate_adaptive) == original
    names = [s[0] for s in t.spans]
    assert names[:2] == ["bench.query", "spectra.count_bounded"]
    assert names.count("pruefer.integrate") == 2
    assert "rk.integrate_adaptive" not in names  # singular steps are closed form
    assert t.counts["pruefer.step_singular.calls"] == 4
    assert t.counts["spectra.count_bounded.certified"] == int(res.certified)
    parents = {s[0]: t.spans[s[3]][0] for s in t.spans if s[3] >= 0}
    assert parents["pruefer.integrate"] == "spectra.count_bounded"
    assert all(s[4] == "q0" for s in t.spans)


def test_traced_growth_query_times_the_transfer_product(tmp_path):
    # log_max_entry goes through transfer_matrix_log, which must be spanned
    queries = harness.PREPARE["growth"](harness.load_pool("growth"), canosc, str(tmp_path))
    q = queries["order_rk"][0]
    t = tracing.Tracer()
    with tracing.instrument(t):
        harness.execute(q, t.run_query)
    m = tracing.per_layer_metrics(t, 1)
    assert m["entire.log_max_entry.calls"][0] > 0
    assert m["entire.transfer_matrix.self_ms"][0] > 0.0


# ---------------------------------------------------------------------------
# failure accounting and reference checks


def _query(qid, value, expect, follow=None):
    def call():
        if isinstance(value, Exception):
            raise value
        return value

    return harness.Query(qid, call, lambda r: r, expect, follow)


def test_failures_count_raised_and_out_of_tolerance():
    expect = [{"path": "x", "value": 1.0, "atol": 1e-6}]
    records = []
    records += harness.execute(_query("ok", {"x": 1.0 + 1e-7}, expect))
    records += harness.execute(_query("off", {"x": 1.001}, expect))
    records += harness.execute(_query("raises", RuntimeError("step size underflow"), expect))
    failures = harness.grade(records)
    assert len(records) == 3
    assert [qid for qid, _ in failures] == ["off", "raises"]
    assert "step size underflow" in failures[1][1]


def test_failed_chained_call_fails_its_follow_up():
    q = _query("import", RuntimeError("boom"), [], follow=lambda r: _query("next", {}, []))
    records = harness.execute(q)
    assert len(records) == 2
    assert len(harness.grade(records)) == 2


def test_inconclusive_is_not_a_failure():
    expect = [
        {"path": "F_values", "value": [0.4, 0.6], "atol": 1e-6},
        {"path": "status", "value": "stabilized", "skip_if": ["status", "inconclusive"]},
        {"path": "result", "value": 0, "skip_if": ["status", "inconclusive"]},
    ]
    honest = {"F_values": [0.4, 0.6], "status": "inconclusive", "result": None}
    wrong = {"F_values": [0.4, 0.6], "status": "stabilized", "result": 1}
    assert harness.check(honest, expect) is None
    assert "result" in harness.check(wrong, expect)


def test_check_types_lists_and_nonfinite():
    assert harness.check({"n": 1}, [{"path": "n", "value": True}]) is not None
    assert harness.check({"m": "inf"}, [{"path": "m", "value": "inf"}]) is None
    assert harness.check({"v": [1.0, 2.0]}, [{"path": "v", "value": [1.0], "atol": 1.0}]) is not None
    assert harness.check({"v": [1.0, 2.5]}, [{"path": "v", "value": [1.0, 2.0], "atol": [0.1, 1.0]}]) is None
    assert harness.check({}, [{"path": "v", "value": 1}]) == "v: missing"


@pytest.mark.parametrize("workload", sorted(harness.ROUNDS))
def test_reference_catches_a_perturbed_answer(tmp_path, workload):
    queries = harness.PREPARE[workload](harness.load_pool(workload), canosc, str(tmp_path))
    # the cheapest query type with a numeric expectation
    kind = {"oscillation-exact": "theta", "oscillation-rk": "count", "growth": "type_fit"}[workload]
    q = queries[kind][0]
    out = q.extract(q.call())
    assert harness.check(out, q.expect) is None
    for e in q.expect:
        bad = json.loads(json.dumps(out))
        v = bad[e["path"]]
        if "atol" in e:
            a = e["atol"] if not isinstance(e["atol"], list) else e["atol"][0]
            if isinstance(v, list):
                v[0] += 10 * a
            else:
                bad[e["path"]] = v + 10 * a
        else:
            bad[e["path"]] = v + 1
        assert harness.check(bad, q.expect) is not None


def test_pools_hold_no_known_failure_in_the_schedule():
    for workload in harness.ROUNDS:
        pool = harness.load_pool(workload)
        scheduled = {q["id"] for items in pool["queries"].values() for q in items}
        assert not scheduled & {q["id"] for q in pool["known_failures"]}
        assert set(harness.ROUNDS[workload]) <= set(pool["queries"])


def test_setup_known_prepares_the_known_failures(tmp_path):
    for workload in harness.ROUNDS:
        pool = harness.load_pool(workload)
        with harness.setup(workload, canosc, str(tmp_path), known=True) as queries:
            prepared = [q.id for qs in queries.values() for q in qs]
        assert sorted(prepared) == sorted(q["id"] for q in pool["known_failures"])


def test_epochs_are_seeded_and_visit_every_instance_once():
    mix = {"a": 2, "b": 1}
    queries = {k: [f"{k}{i}" for i in range(w * harness.EPOCH_ROUNDS)] for k, w in mix.items()}

    def take(seed, n=2):
        stream = harness.epochs(queries, mix, seed)
        return [next(stream) for _ in range(n)]

    assert take(1) == take(1)
    assert take(1) != take(2)
    for epoch in take(5):
        assert sorted(epoch) == sorted(queries["a"] + queries["b"])
        assert epoch[:3][0].startswith("a") and epoch[:3][2].startswith("b")  # a, a, b per round
    with pytest.raises(ValueError):
        next(harness.epochs({"a": ["a0"], "b": ["b0"]}, mix, 0))


def test_traced_run_reports_every_declared_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reported = {k: u for k, (_, u) in tracing.per_layer_metrics(tracing.Tracer(), 1).items()}
    reported.update({"trace.untraced_query_ms": "ms", "trace.overhead_ms": "ms", "host.kernel_ms": "ms"})
    assert reported == declared
