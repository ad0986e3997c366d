"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Times importing inhomk plus building the workload's inputs (configs, raster,
true model) and prints the seconds. A fresh process is what makes a new
import inside the package show up here.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inhomk  # noqa: E402,F401
import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.build(name, seed, workdir, reference=None)
workload.input(0)
print(repr(time.perf_counter() - start))
