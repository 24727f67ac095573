"""Measure the baseline of the checked-out commit into perfbench/baseline.json.

    python3 perfbench/make_baseline.py

Runs every workload ten times untraced, each with another seed and for
BENCHMARK.json's run_seconds, and then a second set of ten on other
seeds, to show how far two sets of the same code agree.  For each
end-to-end metric and set it records the median, the quartiles and the
spread (quartile distance over median), and the same for the wall-clock
figures the runs print beside them; for each workload the per-layer
split of one traced run.  Later changes compare against these numbers,
measured on the same machine.  It takes about fifty minutes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench_workloads import WORKLOADS  # noqa: E402
from run import OUT, calibration  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = BENCH["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
RUNS = 10
SETS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))
WALL = ("wall_throughput_rps", "wall_latency_p50_ms", "wall_latency_tail_ms",
        "calibration_median_ms")

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "linalg.rref": "throughput_per_kcal and latency_tail_cal on classify, "
                   "then verify and richardson; no change on series",
    "algebras.ad_coordinate_matrix": "throughput_per_kcal on richardson (ad "
                                     "e is rebuilt for every sample) and on "
                                     "the large classify orbits",
    "algebras.graded_decomposition": "throughput_per_kcal on verify (once "
                                     "per sweep candidate); latency_p50_cal "
                                     "on classify",
    "algebras.build_algebra": "latency_p50_cal on small classify requests "
                              "and on richardson",
    "algebras.from_coordinates": "latency_p50_cal on richardson",
    "gradings.is_good": "throughput_per_kcal on verify, then classify",
    "gradings.graded_ad_ranks": "throughput_per_kcal on richardson and "
                                "verify",
    "gradings.nilpotent_of_pyramid": "latency_p50_cal on classify",
    "gradings.characteristic": "latency_p50_cal on classify",
    "pyramids.enumerate": "latency_p50_cal on classify",
    "classify.good_gradings": "latency_p50_cal on classify",
    "classify.sweep_oracle": "throughput_per_kcal on verify; candidates and "
                             "accept_ratio (base: is_good_calls) count the "
                             "sweep's wasted work",
    "parabolic.generic_oracle": "throughput_per_kcal on richardson",
    "series.counts_by_partition": "throughput_per_kcal and both latencies "
                                  "on series (includes the partitions walk)",
    "series.power_series": "latency_p50_cal on series, identity requests",
    "cli": "latency_p50_cal on classify (argparse and JSON encoding)",
    "trace": "none: the cost and the coverage of tracing itself",
}


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its detail record."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    detail = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail["detail"]


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def host_noise(seconds: float = 30, window: float = 5) -> dict:
    """Time the calibration back to back; report the median of each
    window, in wall and in CPU seconds, to show the host's drift."""
    windows = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        walls, cpus = [], []
        stop = time.perf_counter() + window
        while time.perf_counter() < stop:
            w, c = time.perf_counter(), time.process_time()
            calibration()
            walls.append(time.perf_counter() - w)
            cpus.append(time.process_time() - c)
        windows.append((statistics.median(walls), statistics.median(cpus)))
    return {"computation": "run.calibration()",
            "window_s": window,
            "window_median_wall_s": [w for w, _ in windows],
            "window_median_cpu_s": [c for _, c in windows]}


def _set(workload: str, seeds) -> dict:
    runs = [_run(workload, seed, 0) for seed in seeds]
    names = runs[0][0]["metrics"]
    return {
        "seeds": [seeds[0], seeds[-1]],
        "end_to_end": {
            name: {"unit": runs[0][0]["metrics"][name]["unit"],
                   **_stats([r["metrics"][name]["value"] for r, _ in runs])}
            for name in names},
        "wall": {name: _stats([d[name] for _, d in runs]) for name in WALL},
        "samples_per_run": [r["attempted"] for r, _ in runs],
        "failed": sum(r["failed"] for r, _ in runs),
    }


def _agreement(first: dict, second: dict) -> dict:
    """Per metric: the second set's median against the first's, and
    whether both sets' spreads and the shift stay within the bound."""
    out = {}
    for name, bound in BOUNDS.items():
        a, b = first["end_to_end"][name], second["end_to_end"][name]
        shift = (b["median"] - a["median"]) / a["median"]
        out[name] = {"median_shift": shift, "bound": bound,
                     "within_bound": abs(shift) <= bound
                     and max(a["spread"], b["spread"]) <= bound,
                     "spreads_below_third": max(a["spread"], b["spread"])
                     < bound / 3}
    return out


def main() -> int:
    noise = host_noise()
    sets = {w: [] for w in WORKLOADS}
    for seeds in SETS:
        for workload in WORKLOADS:
            sets[workload].append(_set(workload, seeds))
            print(f"{workload} seeds {seeds[0]}-{seeds[-1]}: done",
                  file=sys.stderr)
    baseline = {}
    for workload, (first, second) in sets.items():
        traced = _run(workload, 1, 1)[0]["metrics"]
        layer_time = traced["trace.traced_s"]["value"]
        baseline[workload] = {
            "sets": [first, second],
            "agreement": _agreement(first, second),
            "samples_per_run": first["samples_per_run"]
            + second["samples_per_run"],
            "per_layer_seed1": {k: m["value"] for k, m in traced.items()},
            "self_time_share_seed1": {
                k[:-len(".self_s")]: m["value"] / layer_time
                for k, m in traced.items() if k.endswith(".self_s")},
        }
    report = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0)),
                 "noise": noise},
        "settings": {"runs_per_set": RUNS, "seconds": SECONDS,
                     "seeds": [f"{s[0]}..{s[-1]}" for s in SETS]},
        "layer_map": LAYER_MAP,
        "baseline": baseline,
    }
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
