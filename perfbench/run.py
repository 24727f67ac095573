"""The goodgradings benchmark: one closed-loop client, one thread.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 28 --trace 0

Runs passes of the workload's seeded requests (see bench_workloads)
until --seconds have gone by, checks every answer against
perfbench/reference.json, and prints the metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Request times are reported in calibration units.  Before each request
the loop times `calibration`, a fixed computation of the benchmark's
own, and divides the request's wall time by the median of the five
calibration times around it.  A shared 2-CPU x86_64 host changed speed
by up to 1.7x within seconds, and the calibration slowed with it: over
5 s windows of classify requests the quartile spread of wall time was
0.32 and that of the normalised time 0.05.  Program changes cannot move
the calibration, so they show in full.  The wall-clock figures are printed
as comment lines and written to perfbench/out/.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs each pass twice, untraced and with the span recorder of
bench_trace installed, alternating which goes first, and reports the
per-layer metrics per pass together with the tracing overhead.  Its
first pass is warm-up and is checked but not measured.

Without the library sources next to the benchmark the imports fail and
it exits with code 1, printing no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
# setup_s is reported in seconds at the host speed where `calibration`
# takes this long (about its median on the machine of baseline.json).
# Process start-up slowed with the host even more than the requests did:
# two sets of ten runs twenty minutes apart moved the raw median by 20-34 %.
SETUP_CAL_REF_S = 0.0035

# The tail percentile of each workload, fixed so that every commit
# reports the same order statistic.  Each has at least ten samples
# beyond it at the baseline's sample count, and sits inside the
# costliest stratum of its workload (see bench_workloads).
TAIL_PERCENTILE = {"classify": 90, "verify": 90, "richardson": 95,
                   "series": 75}

# Traced requests must spend at most this share of their time outside
# every wrapped root call, or the per-layer split misses work.  The
# workloads measure 0.0003 to 0.001.
MAX_UNWRAPPED_SHARE = 0.01

sys.path.insert(0, str(SRC))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402  (fails without the library sources)
from bench_workloads import WrongAnswer  # noqa: E402


def calibration() -> int:
    """A fixed mix of the program's kind of work: exact elimination on a
    9x9 Fraction matrix and an integer loop.  Uses only the standard
    library, so no change to the program can make it faster or slower."""
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    s = 0
    for k in range(20000):
        s += k * k % 7
    return s


def nearest_rank(samples, p: float) -> float:
    """The p-th percentile by nearest rank: the sample at rank
    ceil(p n / 100) of the n sorted samples."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def normalized(latencies: list[float], cals: list[float]) -> list[float]:
    """Each latency divided by the median of the calibration times of
    its own and the two requests on either side."""
    return [d / statistics.median(cals[max(0, i - 2):i + 3])
            for i, d in enumerate(latencies)]


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first request,
    and the calibration time the probe measured right after.

    The probe runs with -S: what the host's site-packages hooks import at
    start-up is not the program's set-up, and it was a large part of the
    probe-to-probe noise.
    """
    started = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "-S", str(HERE / "setup_probe.py"), workload,
             str(seed)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        cal = proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed, float(cal)


class Loop:
    """The closed loop: one request at a time, each timed and checked,
    each after a timed calibration."""

    def __init__(self, reference: dict, execute, check):
        self.reference = reference
        self.execute = execute
        self.check = check
        self.latencies: list[float] = []
        self.cals: list[float] = []
        self.failures: list[str] = []

    def run(self, requests: list[str]) -> None:
        for req in requests:
            started = time.perf_counter()
            calibration()
            self.cals.append(time.perf_counter() - started)
            started = time.perf_counter()
            try:
                answer = self.execute(req)
            except Exception as exc:  # a crash is a counted failure
                answer, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            self.latencies.append(time.perf_counter() - started)
            if error is None:
                try:
                    self.check(req, answer, self.reference)
                except (WrongAnswer, KeyError, IndexError, TypeError,
                        ValueError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{req}: {error}")


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    Not ru_maxrss: Linux carries into it the RSS the parent had when it
    forked this process, so it would report the caller's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, pct: float,
               setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics; `setup` holds (seconds, calibration
    seconds) per set-up probe."""
    n = len(loop.latencies)
    norm = normalized(loop.latencies, loop.cals)
    tail = nearest_rank(norm, pct)
    return {
        "metrics": {
            "setup_s": _metric(statistics.median(
                s * SETUP_CAL_REF_S / c for s, c in setup), "s"),
            "throughput_per_kcal": _metric(1000 * n / sum(norm), "req/kcal"),
            "latency_p50_cal": _metric(statistics.median(norm), "cal"),
            "latency_tail_cal": _metric(tail, "cal"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
            "success_rate": _metric((n - len(loop.failures)) / n, "ratio"),
        },
        "detail": {
            "tail_percentile": pct, "samples": n,
            "samples_beyond_tail": sum(x > tail for x in norm),
            "error_rate": len(loop.failures) / n,
            "calibration_median_ms": statistics.median(loop.cals) * 1000,
            "wall_throughput_rps": n / sum(loop.latencies),
            "wall_latency_p50_ms": statistics.median(loop.latencies) * 1000,
            "wall_latency_tail_ms": nearest_rank(loop.latencies, pct) * 1000,
            "setup_probes_s": [s for s, _ in setup],
            "setup_probe_calibration_ms": [c * 1000 for _, c in setup],
        },
    }


UNITS = {"calls": "count/pass", "self_s": "s/pass", "cells": "count/pass",
         "samples": "count/pass", "candidates": "count/pass",
         "is_good_calls": "count/pass"}


def per_layer(summary: dict, passes: int, untraced: Loop, traced: Loop,
              unwrapped: float) -> dict:
    """Per-pass layer numbers, the sweep's accept ratio with its base,
    and the tracing overhead on calibration-normalised time."""
    summary = dict(summary)
    accepted = summary.pop("classify.sweep_oracle.accepted")
    checked = summary["classify.sweep_oracle.is_good_calls"]
    metrics = {name: _metric(value / passes, UNITS[name.rsplit(".", 1)[1]])
               for name, value in summary.items()}
    metrics["classify.sweep_oracle.accept_ratio"] = _metric(
        accepted / checked if checked else 0.0, "ratio")
    traced_s = sum(traced.latencies)
    metrics["trace.untraced_s"] = _metric(
        sum(untraced.latencies) / passes, "s/pass")
    metrics["trace.traced_s"] = _metric(traced_s / passes, "s/pass")
    metrics["trace.unwrapped_s"] = _metric(unwrapped / passes, "s/pass")
    metrics["trace.unwrapped_share"] = _metric(
        unwrapped / traced_s if traced_s else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = _metric(
        sum(normalized(traced.latencies, traced.cals))
        / sum(normalized(untraced.latencies, untraced.cals)), "ratio")
    return {"metrics": metrics, "detail": {"passes": passes}}


def coverage_ok(unwrapped: float, traced_s: float, uncovered: list) -> bool:
    """Every traced request made a wrapped root call, and the time
    outside the root spans is a small share of the traced time."""
    return not uncovered and unwrapped <= MAX_UNWRAPPED_SHARE * traced_s


def traced_run(reference: dict, passes, seconds: float):
    """Each pass untraced and traced, in alternating order, after one
    warm-up pass; returns (report, spans, ok, loops)."""
    rec = bench_trace.Recorder()
    uncovered: list[str] = []

    def execute_covered(req):
        first = len(rec.spans)
        answer = bench_workloads.execute(req)
        if not any(s.parent < 0 for s in rec.spans[first:]):
            uncovered.append(req)
        return answer

    def loop(execute):
        return Loop(reference, execute, bench_workloads.check)

    warm, untraced, traced = (loop(bench_workloads.execute),
                              loop(bench_workloads.execute),
                              loop(execute_covered))

    def run_traced(target: Loop, requests):
        undo = bench_trace.install(rec)
        try:
            target.run(requests)
        finally:
            bench_trace.uninstall(undo)

    warm.run(passes[0])
    run_traced(warm, passes[0])
    rec.spans.clear()
    n = 0
    started = time.perf_counter()
    while n == 0 or time.perf_counter() - started < seconds:
        requests = passes[n + 1]
        if n % 2:
            run_traced(traced, requests)
            untraced.run(requests)
        else:
            untraced.run(requests)
            run_traced(traced, requests)
        n += 1
    spans = rec.spans
    traced_s = sum(traced.latencies)
    unwrapped = traced_s - bench_trace.root_seconds(spans)
    ok = coverage_ok(unwrapped, traced_s, uncovered)
    report = per_layer(bench_trace.summarize(spans), n, untraced, traced,
                       unwrapped)
    report["detail"].update(spans=len(spans), uncovered_requests=uncovered)
    return report, spans, ok, (warm, untraced, traced)


def untraced_run(reference: dict, passes, seconds: float, pct: float,
                 probe):
    """Passes until `seconds` of loop time have gone by.  A set-up probe
    follows each of the first SETUP_PROBES passes, so the probes sample
    the host across the run; their time is not loop time."""
    loop = Loop(reference, bench_workloads.execute, bench_workloads.check)
    setup: list[tuple[float, float]] = []
    n = 0
    paused = 0.0
    started = time.perf_counter()
    while n == 0 or time.perf_counter() - started - paused < seconds:
        loop.run(passes[n])
        n += 1
        if len(setup) < SETUP_PROBES:
            before = time.perf_counter()
            setup.append(probe())
            paused += time.perf_counter() - before
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    report = end_to_end(loop, pct, setup)
    report["detail"]["passes"] = n
    return report, (loop,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the loop and the set-up probes: migrating between CPUs
    # of different speed was the largest short-term noise on a 2-CPU host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    reference = bench_workloads.load_reference()
    passes = bench_workloads.Passes(args.workload, args.seed, reference)
    spans = None
    if args.trace:
        report, spans, ok, loops = traced_run(reference, passes,
                                              args.seconds)
    else:
        report, loops = untraced_run(
            reference, passes, args.seconds, TAIL_PERCENTILE[args.workload],
            lambda: setup_probe(args.workload, args.seed))
        ok = True
    failures = [f for lp in loops for f in lp.failures]
    attempted = sum(len(lp.latencies) for lp in loops)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report["detail"]["failures"] = failures
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for key, value in report["detail"].items():
        if key != "failures":
            print(f"# {key}: {value}")
    for failure in failures[:10]:
        print(f"# failed: {failure}")
    print(json.dumps({"correct": ok and not failures,
                      "attempted": attempted,
                      "failed": len(failures),
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
