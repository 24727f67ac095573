"""One set-up of the benchmark in a fresh process, timed from outside.

Imports the package, loads the exceptional tables, reads the reference
answers and draws the first request, then prints "ready".  After that
it prints the median time of three calibration runs (see run.py), which
run.py uses to scale the time to "ready" to the host's current speed.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from goodgradings import exceptional  # noqa: E402

import bench_workloads  # noqa: E402

exceptional.tables()
reference = bench_workloads.load_reference()
bench_workloads.Passes(sys.argv[1], int(sys.argv[2]), reference)[0]
print("ready", flush=True)

from run import calibration  # noqa: E402

times = []
for _ in range(3):
    started = time.perf_counter()
    calibration()
    times.append(time.perf_counter() - started)
print(sorted(times)[1], flush=True)
