"""Tests of the benchmark's own logic: spans, trace coverage, tail rule,
calibration, seeding, checking."""

import gc
import json
import math
import statistics
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bench_trace
import bench_workloads
import run
from bench_workloads import WrongAnswer, check, execute
from goodgradings import gradings, linalg

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def reference():
    return bench_workloads.load_reference()


def _ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    rec = bench_trace.Recorder(clock=_ticking_clock([0, 1, 4, 5, 6, 7, 9, 10]))

    def leaf():
        return None

    def b():
        rec.call("c", leaf, (), {})

    def outer():
        rec.call("a", leaf, (), {})
        rec.call("b", b, (), {})

    rec.call("outer", outer, (), {})
    names = [s.name for s in rec.spans]
    selfs = dict(zip(names, bench_trace.self_times(rec.spans)))
    assert selfs == {"outer": 3, "a": 3, "b": 3, "c": 1}
    assert sum(selfs.values()) == bench_trace.root_seconds(rec.spans) == 10
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 2]


def test_install_reaches_names_bound_by_import(reference):
    original = linalg.rref
    rec = bench_trace.Recorder()
    undo = bench_trace.install(rec)
    try:
        assert gradings.rref is not original  # `from .linalg import rref`
        answer = execute("classify A 3,3,2")
    finally:
        bench_trace.uninstall(undo)
    assert gradings.rref is original and linalg.rref is original
    check("classify A 3,3,2", answer, reference)
    summary = bench_trace.summarize(rec.spans)
    assert summary["cli.calls"] == 1
    assert summary["classify.good_gradings.calls"] == 1
    assert summary["linalg.rref.calls"] > 0
    assert summary["linalg.rref.cells"] > 0
    assert all(s.parent >= 0 for s in rec.spans[1:])
    total = sum(bench_trace.self_times(rec.spans))
    assert total == pytest.approx(bench_trace.root_seconds(rec.spans))


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))
    assert run.nearest_rank(samples, 90) == 90
    assert run.nearest_rank(samples, 95) == 95
    assert run.nearest_rank(range(1, 41), 75) == 30
    assert run.nearest_rank([7], 99) == 7


def test_tail_percentile_keeps_ten_samples_beyond_at_baseline():
    baseline = json.loads((HERE / "baseline.json").read_text())["baseline"]
    assert set(run.TAIL_PERCENTILE) == set(bench_workloads.WORKLOADS)
    for workload, p in run.TAIL_PERCENTILE.items():
        n = statistics.median(baseline[workload]["samples_per_run"])
        assert n - math.ceil(p * n / 100) >= 10, (workload, n)


def test_normalized_divides_by_the_median_of_nearby_calibrations():
    cals = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 9.0]
    norm = run.normalized([4.0] * 7, cals)
    # windows: [1,1,2] [1,1,2,2] [1,1,2,2,2] [1,2,2,2,2] [2,2,2,2,9] ...
    assert norm == [4.0, 4 / 1.5, 2.0, 2.0, 2.0, 2.0, 2.0]


def _counts(passes, n):
    counts: dict[str, int] = {}
    for i in range(n):
        for req in passes[i]:
            counts[req] = counts.get(req, 0) + 1
    return counts


def test_seed_fixes_the_request_lists(reference):
    for workload in bench_workloads.WORKLOADS:
        a = bench_workloads.Passes(workload, 7, reference)
        b = bench_workloads.Passes(workload, 7, reference)
        assert [a[i] for i in range(3)] == [b[i] for i in range(3)]
        assert b[2] == a[2]
    assert bench_workloads.Passes("classify", 7, reference)[0] != \
        bench_workloads.Passes("classify", 8, reference)[0]


def test_every_request_of_a_stratum_comes_up_equally_often(reference):
    for workload in bench_workloads.WORKLOADS:
        groups = bench_workloads.strata(workload, reference)
        # After this many passes every stratum has run whole cycles.
        n = math.lcm(*((Fraction(take) / len(items)).denominator
                       for take, items in groups))
        for seed in (1, 2):
            counts = _counts(bench_workloads.Passes(workload, seed,
                                                    reference), n)
            for take, items in groups:
                cycles = n * Fraction(take) / len(items)
                assert {counts[x] for x in items} == {cycles}, workload


def test_reference_covers_every_drawable_input(reference):
    for workload in bench_workloads.WORKLOADS:
        for _, items in bench_workloads.strata(workload, reference):
            for req in items:
                kind, _, rest = req.partition(" ")
                if kind in ("classify", "verify", "richardson"):
                    assert rest in reference[kind]


def _corrupt_json(answer, edit):
    code, text = answer
    report = json.loads(text)
    edit(report["results"])
    return code, json.dumps(report)


@pytest.mark.parametrize("request_, edit", [
    ("classify A 3,3,2", lambda r: r.update(count=r["count"] + 1)),
    ("classify A 3,3,2",
     lambda r: r["gradings"][0].update(is_dynkin=not r["gradings"][0]["is_dynkin"])),
    ("classify A 3,2,1", lambda r: [g["characteristic"]["labels"].append(2)
                                    for g in r["gradings"] if g["is_dynkin"]]),
    ("verify B 3,1,1", lambda r: r.update(match=False)),
    ("verify B 3,1,1", lambda r: r.update(swept=r["swept"] - 1)),
    ("verify B 3,1,1", lambda r: r.update(enumerated=r["enumerated"] + 1)),
    ("series 8", lambda r: r["pyramid_counts"].__setitem__(5, 0)),
    ("series 8", lambda r: r.update(product_form_identity=False)),
])
def test_checker_rejects_wrong_answers(reference, request_, edit):
    answer = execute(request_)
    check(request_, answer, reference)
    with pytest.raises(WrongAnswer):
        check(request_, _corrupt_json(answer, edit), reference)
    with pytest.raises(WrongAnswer):
        check(request_, (1, answer[1]), reference)


def test_checker_rejects_a_wrong_richardson_verdict(reference):
    req = "richardson A 4 1,3 0"
    closed, oracle = execute(req)
    check(req, (closed, oracle), reference)
    with pytest.raises(WrongAnswer):
        check(req, (closed, not oracle), reference)


def test_corrupted_report_is_a_counted_failure(reference):
    requests = ["classify B 5,5,1", "classify A 3,3,2", "classify B 5,5,1"]
    seen = []

    def corrupting(req):
        seen.append(req)
        answer = execute(req)
        if len(seen) == 2:
            answer = _corrupt_json(answer, lambda r: r.update(count=0))
        return answer

    def crashing(req):
        raise RuntimeError("boom")

    loop = run.Loop(reference, corrupting, check)
    loop.run(requests)
    assert seen == requests  # the run went on after the failure
    assert len(loop.latencies) == 3
    assert len(loop.failures) == 1
    assert loop.failures[0].startswith("classify A 3,3,2")
    crash = run.Loop(reference, crashing, check)
    crash.run(requests[:2])
    assert len(crash.failures) == 2 and len(crash.latencies) == 2


def _traced(monkeypatch, reference, extra):
    real = bench_workloads.execute

    def execute(req):
        answer = real(req)
        extra()
        return answer

    monkeypatch.setattr(bench_workloads, "execute", execute)
    passes = [["classify A 3,3,2", "classify B 5,5,1"]] * 2
    # A collection of the test session's heap outside the root spans
    # would be a large share of these two short requests.
    gc.disable()
    try:
        return run.traced_run(reference, passes, 0)
    finally:
        gc.enable()


def test_traced_run_covers_the_requests(monkeypatch, reference):
    report, spans, ok, loops = _traced(monkeypatch, reference, lambda: None)
    assert ok
    assert not any(lp.failures for lp in loops)
    assert report["metrics"]["cli.calls"]["value"] == 2
    share = report["metrics"]["trace.unwrapped_share"]["value"]
    assert 0 <= share < run.MAX_UNWRAPPED_SHARE


def test_traced_run_fails_when_work_escapes_the_wrappers(monkeypatch,
                                                         reference):
    # Work after the root call returns is in no span: a library entry
    # point the tracer does not wrap would look like this.
    report, spans, ok, _ = _traced(monkeypatch, reference,
                                   lambda: time.sleep(0.05))
    assert not ok
    assert report["metrics"]["trace.unwrapped_share"]["value"] > \
        run.MAX_UNWRAPPED_SHARE


def test_coverage_needs_a_root_span_in_every_request():
    assert run.coverage_ok(0.05, 10.05, [])
    assert not run.coverage_ok(0.05, 10.05, ["classify A 3,3,2"])
    assert not run.coverage_ok(1.0, 11.0, [])


def test_is_good_spans_record_the_verdict(reference):
    rec = bench_trace.Recorder()
    undo = bench_trace.install(rec)
    try:
        answer = execute("verify B 3,1,1")
    finally:
        bench_trace.uninstall(undo)
    check("verify B 3,1,1", answer, reference)
    summary = bench_trace.summarize(rec.spans)
    assert summary["classify.sweep_oracle.calls"] == 1
    assert summary["classify.sweep_oracle.candidates"] > 0
    assert 0 < summary["classify.sweep_oracle.accepted"] <= \
        summary["classify.sweep_oracle.is_good_calls"]


def test_benchmark_json_lists_every_printed_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    loop = run.Loop({}, execute, check)
    loop.latencies = [0.01] * 30
    loop.cals = [0.001] * 30
    printed = run.end_to_end(loop, 90, [(0.1, 0.0035)])["metrics"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: m["unit"] for k, m in printed.items()}
    printed = run.per_layer(bench_trace.summarize([]), 1, loop, loop, 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: m["unit"] for k, m in printed["metrics"].items()}
    assert [w["name"] for w in bench["workloads"]] == \
        list(bench_workloads.WORKLOADS)
